// Tests of NodeRuntime mechanics: message-id uniqueness, stats accounting,
// guardian destruction, transmit-side errors, and the send primitives'
// message economics (the §3 "can implement the others" construction).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/guardian/system.h"
#include "src/obs/trace.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"

namespace guardians {
namespace {

PortType EchoType() {
  return PortType("node_echo",
                  {MessageSig{"echo", {ArgType::Of(TypeTag::kString)},
                              {"echoed"}},
                   MessageSig{"drop", {}, {}}});
}

PortType EchoReply() {
  return PortType("node_echo_reply",
                  {MessageSig{"echoed", {ArgType::Of(TypeTag::kString)},
                              {}}});
}

class Echoer : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(EchoType(), 64, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    for (;;) {
      auto m = Receive(port(0), Micros::max());
      if (!m.ok()) {
        return;
      }
      if (m->command == "echo" && !m->reply_to.IsNull()) {
        Status st = Send(m->reply_to, "echoed", {m->args[0]});
        (void)st;
      }
    }
  }
};

class NodeRuntimeTest : public ::testing::Test {
 protected:
  NodeRuntimeTest() : system_(MakeConfig()) {
    a_ = &system_.AddNode("a");
    b_ = &system_.AddNode("b");
    a_->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b_->RegisterGuardianType("echo", MakeFactory<Echoer>());
    driver_ = *a_->Create<ShellGuardian>("shell", "driver", {});
    echoer_ = *b_->Create<Echoer>("echo", "echoer", {});
    echo_port_ = echoer_->ProvidedPorts()[0];
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 333;
    config.default_link.latency = Micros(100);
    return config;
  }

  System system_;
  NodeRuntime* a_ = nullptr;
  NodeRuntime* b_ = nullptr;
  Guardian* driver_ = nullptr;
  Echoer* echoer_ = nullptr;
  PortName echo_port_;
};

TEST_F(NodeRuntimeTest, MessageIdsAreUniqueAcrossNodes) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.insert(a_->NextMsgId());
    ids.insert(b_->NextMsgId());
  }
  EXPECT_EQ(ids.size(), 2000u);
}

TEST_F(NodeRuntimeTest, StatsAccountForDeliveriesAndDiscards) {
  ASSERT_TRUE(driver_->Send(echo_port_, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(a_->stats().messages_sent, 1u);
  EXPECT_EQ(b_->stats().messages_delivered, 1u);

  PortName missing = echo_port_;
  missing.guardian = 4040;
  ASSERT_TRUE(driver_->Send(missing, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(b_->stats().discarded_no_guardian, 1u);

  PortName bad_index = echo_port_;
  bad_index.port_index = 99;
  ASSERT_TRUE(driver_->Send(bad_index, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(b_->stats().discarded_no_port, 1u);
}

TEST_F(NodeRuntimeTest, SendToNullPortRejectedLocally) {
  EXPECT_EQ(driver_->Send(PortName{}, "drop", {}).code(),
            Code::kInvalidArgument);
}

TEST_F(NodeRuntimeTest, SendWithUnknownTypeHashRejected) {
  PortName forged = echo_port_;
  forged.type_hash = 0xDEAD;  // not in the guardian-header library
  EXPECT_EQ(driver_->Send(forged, "drop", {}).code(), Code::kTypeError);
}

TEST_F(NodeRuntimeTest, DestroyGuardianStopsItAndFreesTheName) {
  ASSERT_TRUE(b_->DestroyGuardian(echo_port_.guardian).ok());
  EXPECT_EQ(b_->FindGuardian(echo_port_.guardian), nullptr);
  EXPECT_FALSE(b_->DestroyGuardian(echo_port_.guardian).ok());

  RemoteCallOptions options;
  options.timeout = Millis(500);
  auto reply = RemoteCall(*driver_, echo_port_, "echo", {Value::Str("x")},
                          EchoReply(), options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->command, "failure");
}

TEST_F(NodeRuntimeTest, FailureMessagesCannotLoop) {
  // A failure synthesized for a missing guardian carries no reply port, so
  // a second failure is never produced even if the first is undeliverable.
  PortName missing = echo_port_;
  missing.guardian = 5050;
  Port* reply_port = driver_->AddPort(EchoReply(), 8);
  ASSERT_TRUE(driver_->Send(missing, "echo", {Value::Str("x")},
                            reply_port->name())
                  .ok());
  // Retire the reply port before the failure can arrive.
  driver_->RetirePort(reply_port);
  system_.network().DrainForTesting();
  std::this_thread::sleep_for(Millis(50));
  // Exactly one failure was synthesized (at node b), none at node a.
  EXPECT_EQ(b_->stats().failures_synthesized, 1u);
  EXPECT_EQ(a_->stats().failures_synthesized, 0u);
}

TEST_F(NodeRuntimeTest, PrimordialRejectsMalformedCreateGracefully) {
  // Wrong arg types are caught by the send-side check.
  EXPECT_EQ(driver_
                ->Send(b_->PrimordialPort(), "create_guardian",
                       {Value::Int(1), Value::Int(2), Value::Int(3),
                        Value::Int(4)})
                .code(),
            Code::kTypeError);
}

TEST_F(NodeRuntimeTest, SyncSendUsesExactlyTwoWireMessages) {
  // The §3 construction: synchronization send = no-wait send + ack. The
  // runtime acks at delivery, and the echoer's own Main loop consumes the
  // message (a second receiver here would race it for the same port).
  const uint64_t before = system_.network().stats().packets_sent;
  Status st = SyncSend(*driver_, echo_port_, "drop", {}, Millis(3000));
  EXPECT_TRUE(st.ok()) << st;
  system_.network().DrainForTesting();
  const uint64_t after = system_.network().stats().packets_sent;
  EXPECT_EQ(after - before, 2u);  // message + receipt ack, nothing else
}

TEST_F(NodeRuntimeTest, NoWaitSendUsesExactlyOneWireMessage) {
  const uint64_t before = system_.network().stats().packets_sent;
  ASSERT_TRUE(driver_->Send(echo_port_, "drop", {}).ok());
  system_.network().DrainForTesting();
  EXPECT_EQ(system_.network().stats().packets_sent - before, 1u);
}

TEST_F(NodeRuntimeTest, RemoteCallReportsAttempts) {
  RemoteCallOptions options;
  options.timeout = Millis(500);
  options.max_attempts = 3;
  auto reply = RemoteCall(*driver_, echo_port_, "echo", {Value::Str("hi")},
                          EchoReply(), options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->attempts, 1);  // clean network: first attempt wins
  EXPECT_EQ(reply->command, "echoed");
}

TEST_F(NodeRuntimeTest, RemoteCallDoesNotRetryLocalTypeErrors) {
  RemoteCallOptions options;
  options.timeout = Millis(500);
  options.max_attempts = 5;
  const uint64_t before = a_->stats().messages_sent;
  auto reply = RemoteCall(*driver_, echo_port_, "echo", {Value::Int(3)},
                          EchoReply(), options);
  EXPECT_EQ(reply.status().code(), Code::kTypeError);
  EXPECT_EQ(a_->stats().messages_sent, before);  // nothing ever sent
}

TEST_F(NodeRuntimeTest, TransmitRegistryKnownness) {
  EXPECT_FALSE(a_->transmit_registry().Knows("complex"));
  EXPECT_TRUE(a_->KnowsGuardianType("shell"));
  EXPECT_FALSE(a_->KnowsGuardianType("echo"));
}

TEST_F(NodeRuntimeTest, PortTypeRegistryIsSystemWide) {
  // The echo header was "compiled into the library" when the port was
  // added at node b; node a can check sends against it.
  EXPECT_TRUE(system_.port_types().Knows(EchoType().hash()));
  const PortType* looked_up = system_.port_types().Lookup(EchoType().hash());
  ASSERT_NE(looked_up, nullptr);
  EXPECT_EQ(looked_up->name(), "node_echo");
  // Conflicting redefinition of the same hash is rejected; identical
  // re-registration is idempotent.
  EXPECT_TRUE(system_.port_types().Register(EchoType()).ok());
}

// Inline delivery (DESIGN.md §8): at link 0 the network delivers call
// traffic — a request carrying a reply port, or the journaled reply that
// closes a tracked call — on the sending thread when the destination
// shard is idle. Nodes a and b sit on different shards.
class InlineDeliveryTest : public ::testing::Test {
 protected:
  InlineDeliveryTest() : system_(MakeConfig()) {
    a_ = &system_.AddNode("a");
    b_ = &system_.AddNode("b");
    a_->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    a_->RegisterGuardianType("echo", MakeFactory<Echoer>());
    b_->RegisterGuardianType("echo", MakeFactory<Echoer>());
    driver_ = *a_->Create<ShellGuardian>("shell", "driver", {});
    echo_port_ = (*b_->Create<Echoer>("echo", "echoer", {}))
                     ->ProvidedPorts()[0];
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 444;
    config.default_link.latency = Micros(0);
    return config;
  }

  uint64_t Inline() {
    return system_.metrics().CounterValue("net.delivered_inline");
  }

  static RemoteCallOptions CallOptions() {
    RemoteCallOptions options;
    options.timeout = Millis(5000);
    options.max_attempts = 1;
    return options;
  }

  System system_;
  NodeRuntime* a_ = nullptr;
  NodeRuntime* b_ = nullptr;
  Guardian* driver_ = nullptr;
  PortName echo_port_;
};

TEST_F(InlineDeliveryTest, RequestsAndRepliesGoInlinePutsAndAcksDoNot) {
  constexpr int kOps = 20;
  const uint64_t journaled_before = b_->stats().replies_journaled;
  uint64_t before = Inline();
  for (int n = 0; n < kOps; ++n) {
    auto reply = RemoteCall(*driver_, echo_port_, "echo", {Value::Str("x")},
                            EchoReply(), CallOptions());
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  // One request and one journaled reply per call, each on its sender's
  // thread: the shards are idle between sequential calls.
  EXPECT_EQ(Inline() - before, 2u * kOps);
  EXPECT_EQ(b_->stats().replies_journaled - journaled_before,
            static_cast<uint64_t>(kOps));

  system_.network().DrainForTesting();
  before = Inline();
  for (int n = 0; n < kOps; ++n) {
    ASSERT_TRUE(driver_->Send(echo_port_, "drop", {}).ok());  // a put
    ASSERT_TRUE(SyncSend(*driver_, echo_port_, "drop", {}, Millis(5000))
                    .ok());  // a request plus its ack, neither a call
  }
  system_.network().DrainForTesting();
  EXPECT_EQ(Inline() - before, 0u);
}

TEST_F(InlineDeliveryTest, SameNodeRemoteCallWorks) {
  // The caller's thread delivers into its own node and the echoer's
  // thread delivers the reply back: both re-enter node a's delivery path
  // from threads that hold none of its locks.
  const PortName local_port =
      (*a_->Create<Echoer>("echo", "local_echoer", {}))->ProvidedPorts()[0];
  const uint64_t before = Inline();
  for (int n = 0; n < 10; ++n) {
    auto reply = RemoteCall(*driver_, local_port, "echo",
                            {Value::Str("self")}, EchoReply(), CallOptions());
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->args[0].string_value(), "self");
  }
  EXPECT_GT(Inline() - before, 0u);
}

TEST_F(InlineDeliveryTest, SenderThreadContextIsLeftAsFound) {
  // An inline delivery runs under the worker's neutral context and hands
  // the sender its trace id and inherited deadline back untouched.
  Port* reply_port = driver_->AddPort(EchoReply(), 4);
  const TimePoint deadline_at = system_.clock()->Now() + Millis(60000);
  SetCurrentTraceId(777);
  SetCurrentDeadlineAt(deadline_at);
  const uint64_t before = Inline();
  ASSERT_TRUE(driver_->Send(echo_port_, "echo", {Value::Str("ctx")},
                            reply_port->name())
                  .ok());
  EXPECT_EQ(Inline() - before, 1u);  // the request went inline
  EXPECT_EQ(CurrentTraceId(), 777u);
  EXPECT_EQ(CurrentDeadlineAt(), deadline_at);
  SetCurrentTraceId(0);
  SetCurrentDeadlineAt(TimePoint::max());
  auto reply = driver_->Receive(reply_port, Millis(5000));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->trace_id, 777u);
}

}  // namespace
}  // namespace guardians
