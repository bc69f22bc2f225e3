// Tests of the port lifecycle (DESIGN.md "Port lifecycle"): a port name is
// never reissued within an incarnation, a retired port's object is recycled
// under a fresh name, and a message addressed to a retired name can never
// reach the object's later incarnation. Ephemeral ports (RemoteCall reply
// ports, SyncSend ack ports, the airline's per-transaction ports) therefore
// cost memory in proportion to how many are live at once, not to how many
// calls were made.
#include <gtest/gtest.h>

#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/airline/airline_system.h"
#include "src/airline/workload.h"
#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"

namespace guardians {
namespace {

PortType EchoType() {
  return PortType("lifecycle_echo",
                  {MessageSig{"echo", {ArgType::Of(TypeTag::kInt)}, {"echoed"}},
                   MessageSig{"put", {ArgType::Of(TypeTag::kInt)}, {}}});
}

PortType EchoReplyType() {
  return PortType("lifecycle_echo_reply",
                  {MessageSig{"echoed", {ArgType::Of(TypeTag::kInt)}, {}}});
}

SystemConfig QuietConfig() {
  SystemConfig config;
  config.seed = 29;
  config.default_link.latency = Micros(0);
  return config;
}

// Polls `done` for up to five seconds.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(Millis(1));
  }
  return done();
}

// A client shell at node a and an echo server at node b. The server answers
// echo(n) with echoed(n) and receives put(n) (the receive sends the
// synchronization send's ack); it records the reply port index of every
// echo it answers.
class EchoWorld {
 public:
  // `before_reply(n)` runs on the server before it answers the n-th echo.
  explicit EchoWorld(SystemConfig config,
                     std::function<void(int)> before_reply = nullptr)
      : system_(config) {
    a_ = &system_.AddNode("a");
    b_ = &system_.AddNode("b");
    for (auto* node : {a_, b_}) {
      node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    }
    client_ = *a_->Create<ShellGuardian>("shell", "client", {});
    server_ = *b_->Create<ShellGuardian>("shell", "server", {});
    Port* in = server_->AddPort(EchoType(), /*capacity=*/256,
                                /*provided=*/true);
    echo_port_ = in->name();
    server_->Fork("echo", [this, in, before_reply] {
      for (int n = 0;;) {
        auto m = server_->Receive(in, Micros::max());
        if (!m.ok()) {
          return;  // node down
        }
        if (m->command != "echo") {
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          reply_indices_.push_back(m->reply_to.port_index);
        }
        if (before_reply) {
          before_reply(n);
        }
        ++n;
        (void)server_->Send(m->reply_to, "echoed", std::move(m->args));
      }
    });
  }

  Result<RemoteReply> Echo(int64_t n, Micros timeout) {
    RemoteCallOptions options;
    options.timeout = timeout;
    options.max_attempts = 1;
    return RemoteCall(*client_, echo_port_, "echo", {Value::Int(n)},
                      EchoReplyType(), options);
  }

  std::vector<uint32_t> reply_indices() {
    std::lock_guard<std::mutex> lock(mu_);
    return reply_indices_;
  }

  uint64_t Counter(const std::string& name) {
    return system_.metrics().CounterValue(name);
  }

  System& system() { return system_; }
  NodeRuntime& a() { return *a_; }
  NodeRuntime& b() { return *b_; }
  Guardian& client() { return *client_; }
  Guardian& server() { return *server_; }
  const PortName& echo_port() const { return echo_port_; }

 private:
  // Declared before system_: the server process (joined when system_ dies)
  // writes them until then.
  std::mutex mu_;
  std::vector<uint32_t> reply_indices_;
  System system_;
  NodeRuntime* a_ = nullptr;
  NodeRuntime* b_ = nullptr;
  Guardian* client_ = nullptr;
  Guardian* server_ = nullptr;
  PortName echo_port_;
};

TEST(PortLifecycle, RetiredPortObjectIsReusedUnderAFreshName) {
  EchoWorld world(QuietConfig());
  Guardian& server = world.server();
  Port* first = server.AddPort(EchoType(), 8);
  const PortName first_name = first->name();
  server.RetirePort(first);
  // Until the object is reused, the retired name still resolves to it.
  EXPECT_EQ(server.FindPort(first_name.port_index), first);

  Port* second = server.AddPort(EchoType(), 8);
  EXPECT_EQ(second, first);
  EXPECT_EQ(second->name().port_index, first_name.port_index + 1);
  EXPECT_EQ(second->name().type_hash, first_name.type_hash);
  EXPECT_FALSE(second->retired());
  EXPECT_EQ(server.FindPort(first_name.port_index), nullptr);
  EXPECT_TRUE(server.PortIndexIssued(first_name.port_index));
  EXPECT_FALSE(server.PortIndexIssued(second->name().port_index + 1));

  // A different capacity or type is not interchangeable: a new object.
  server.RetirePort(second);
  Port* other = server.AddPort(EchoType(), 16);
  EXPECT_NE(other, first);
  // Retiring twice pools once: two AddPorts get two objects.
  server.RetirePort(other);
  server.RetirePort(other);
  Port* x = server.AddPort(EchoType(), 16);
  Port* y = server.AddPort(EchoType(), 16);
  EXPECT_NE(x, y);
  // Provided ports are always new objects with their own names.
  Port* provided = server.AddPort(EchoType(), 8, /*provided=*/true);
  EXPECT_NE(provided, first);
}

TEST(PortLifecycle, SendToAReusedNameIsARetiredDropNotNoPort) {
  EchoWorld world(QuietConfig());
  SetCurrentTraceId(0);
  Guardian& server = world.server();
  Port* old_port = server.AddPort(EchoType(), 8);
  const PortName stale = old_port->name();
  server.RetirePort(old_port);
  Port* fresh = server.AddPort(EchoType(), 8);
  ASSERT_EQ(fresh, old_port);
  Port* reply_port = world.client().AddPort(EchoReplyType(), 4);

  ASSERT_TRUE(world.client()
                  .SendFull(stale, "echo", {Value::Int(1)},
                            reply_port->name(), PortName{})
                  .ok());
  world.system().network().DrainForTesting();

  EXPECT_EQ(world.b().stats().discarded_port_retired, 1u);
  EXPECT_EQ(world.b().stats().discarded_no_port, 0u);
  EXPECT_EQ(world.Counter("deliver.drop.port_retired"), 1u);
  EXPECT_EQ(world.Counter("deliver.drop.no_port"), 0u);
  // The drop belongs to the dead name, not to the port's new one.
  EXPECT_EQ(fresh->enqueued(), 0u);
  EXPECT_EQ(fresh->discarded_retired(), 0u);
  auto failure = world.client().Receive(reply_port, Millis(2000));
  ASSERT_TRUE(failure.ok()) << failure.status();
  EXPECT_EQ(failure->command, std::string(kFailureCommand));
  ASSERT_FALSE(failure->args.empty());
  EXPECT_NE(failure->args[0].string_value().find("retired"),
            std::string::npos);
  EXPECT_TRUE(
      world.system().traces().FindTraceWithPoint("port.drop.retired")
          .has_value());

  // An index that was never issued is still a missing port.
  PortName never = stale;
  never.port_index = 1000;
  ASSERT_TRUE(world.client().Send(never, "put", {Value::Int(2)}).ok());
  world.system().network().DrainForTesting();
  EXPECT_EQ(world.b().stats().discarded_no_port, 1u);
  EXPECT_EQ(world.b().stats().discarded_port_retired, 1u);
}

TEST(PortLifecycle, StaleReplyCannotReachALaterCall) {
  Network* net = nullptr;
  EchoWorld* world_ptr = nullptr;
  EchoWorld world(QuietConfig(), [&](int n) {
    if (n == 0) {
      // Capture the reply to call N on the wire.
      net->HoldLink(world_ptr->a().id(), world_ptr->b().id(), 1);
    } else if (n == 1) {
      // Call N+1 waits on the recycled object: let call N's reply go and
      // answer only once it has been refused.
      net->ReleaseHeld(5);
      EXPECT_TRUE(WaitFor([&] {
        return world_ptr->Counter("deliver.drop.port_retired") >= 1;
      }));
    }
  });
  world_ptr = &world;
  net = &world.system().network();

  auto first = world.Echo(1, Millis(300));
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), Code::kTimeout);
  ASSERT_TRUE(WaitFor([&] { return net->held_count() == 1; }));

  auto second = world.Echo(2, Millis(5000));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->command, "echoed");
  ASSERT_EQ(second->args.size(), 1u);
  EXPECT_EQ(second->args[0].int_value(), 2);

  EXPECT_EQ(world.a().stats().discarded_port_retired, 1u);
  EXPECT_EQ(world.a().stats().discarded_no_port, 0u);
  // One object served both calls, under two names.
  EXPECT_EQ(world.client().PortStats().size(), 1u);
  EXPECT_EQ(world.reply_indices(), (std::vector<uint32_t>{0, 1}));
}

TEST(PortLifecycle, DuplicatedRepliesNeverCrossCalls) {
  SystemConfig config = QuietConfig();
  config.default_link.latency = Micros(20);
  config.default_link.jitter = Micros(20);
  config.default_link.dup_prob = 0.5;
  EchoWorld world(config);
  constexpr int kCalls = 1000;
  int mismatched = 0;
  for (int n = 1; n <= kCalls; ++n) {
    auto reply = world.Echo(n, Millis(5000));
    ASSERT_TRUE(reply.ok()) << "call " << n << ": " << reply.status();
    if (reply->command != "echoed" || reply->args.size() != 1 ||
        reply->args[0].int_value() != n) {
      ++mismatched;
    }
  }
  world.system().network().DrainForTesting();
  EXPECT_EQ(mismatched, 0);
  // The duplicates really arrived after their calls had returned, and each
  // one was refused as addressed to a retired name.
  EXPECT_GT(world.a().stats().discarded_port_retired, 0u);
  EXPECT_EQ(world.a().stats().discarded_no_port, 0u);
  EXPECT_EQ(world.client().PortStats().size(), 1u);
}

// Two callers share one shell guardian, so at most two of its ports are
// live at once.
constexpr int kCallers = 2;
constexpr int kCallsPerCaller = 5000;

TEST(PortLifecycle, RemoteCallPortTableStaysBounded) {
  EchoWorld world(QuietConfig());
  std::vector<std::thread> callers;
  std::vector<int> failed(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&world, &failed, c] {
      for (int i = 0; i < kCallsPerCaller; ++i) {
        const int64_t n = c * kCallsPerCaller + i;
        auto reply = world.Echo(n, Millis(5000));
        if (!reply.ok() || reply->args.size() != 1 ||
            reply->args[0].int_value() != n) {
          ++failed[c];
        }
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  EXPECT_EQ(failed, std::vector<int>(kCallers, 0));
  EXPECT_LE(world.client().PortStats().size(),
            static_cast<size_t>(kCallers));
  // Every call got a name of its own.
  const std::vector<uint32_t> indices = world.reply_indices();
  EXPECT_EQ(indices.size(), static_cast<size_t>(kCallers * kCallsPerCaller));
  EXPECT_EQ(std::set<uint32_t>(indices.begin(), indices.end()).size(),
            indices.size());
}

TEST(PortLifecycle, SyncSendPortTableStaysBounded) {
  EchoWorld world(QuietConfig());
  std::vector<std::thread> senders;
  std::vector<int> failed(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    senders.emplace_back([&world, &failed, c] {
      for (int i = 0; i < kCallsPerCaller; ++i) {
        Status st = SyncSend(world.client(), world.echo_port(), "put",
                             {Value::Int(i)}, Millis(5000));
        if (!st.ok()) {
          ++failed[c];
        }
      }
    });
  }
  for (auto& t : senders) {
    t.join();
  }
  EXPECT_EQ(failed, std::vector<int>(kCallers, 0));
  EXPECT_LE(world.client().PortStats().size(),
            static_cast<size_t>(kCallers));
  EXPECT_EQ(world.Counter("sendprims.sync.calls"),
            static_cast<uint64_t>(kCallers * kCallsPerCaller));
}

TEST(PortLifecycle, AirlinePortTablesStayBounded) {
  SystemConfig config = QuietConfig();
  System system(config);
  AirlineParams params;
  params.organization = FlightOrganization::kSerializer;
  auto topology = BuildAirline(system, params);
  ASSERT_TRUE(topology.ok()) << topology.status();
  NodeRuntime& clerk_node = system.node(topology->region_nodes[0]);
  auto shell = clerk_node.Create<ShellGuardian>("shell", "clerk-shell", {});
  ASSERT_TRUE(shell.ok());

  WorkloadParams wl;
  wl.regions = params.regions;
  wl.flights_per_region = params.flights_per_region;
  wl.transactions = 500;
  wl.local_fraction = 0.7;
  wl.seed = 13;
  const auto scripts = GenerateTransactions(wl);
  int completed = 0;
  for (size_t t = 0; t < scripts.size(); ++t) {
    Clerk clerk(**shell, "pax-" + std::to_string(t));
    TransSummary summary = clerk.RunTransaction(
        topology->user_ports[t % topology->user_ports.size()], scripts[t],
        Millis(5000));
    completed += summary.completed ? 1 : 0;
  }
  EXPECT_EQ(completed, static_cast<int>(scripts.size()));

  // The clerk shell, one Clerk at a time: the Clerk's terminal port and
  // the reply port of its start_transaction call.
  EXPECT_EQ((*shell)->PortStats().size(), 2u);
  // A user guardian: its one request port, plus per transaction in flight
  // its transaction port and one RemoteCall reply port. With one clerk at
  // most two transactions overlap: the next one starts while the finished
  // one's process is still retiring its transaction port.
  for (UserGuardian* user : topology->users) {
    EXPECT_LE(user->PortStats().size(), 1u + 2u * 2u);
  }
}

}  // namespace
}  // namespace guardians
