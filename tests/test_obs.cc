// Tests of the observability layer: counters and histograms, drop-reason
// attribution (a retired port is not a full one), trace-id propagation
// across fragmentation and reply hops, the ReliableSend backoff, and the
// NodeName dangling-reference regression.
#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "src/guardian/system.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"

namespace guardians {
namespace {

PortType EchoPortType() {
  return PortType("obs_echo",
                  {MessageSig{"put",
                              {ArgType::Of(TypeTag::kString)},
                              {"got"}}});
}

PortType EchoReplyType() {
  return PortType("obs_echo_reply",
                  {MessageSig{"got", {ArgType::Of(TypeTag::kString)}, {}}});
}

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAndRegistryBasics) {
  MetricsRegistry registry;
  Counter* c = registry.counter("a.b");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Get-or-create: same name, same counter.
  EXPECT_EQ(registry.counter("a.b"), c);
  EXPECT_EQ(registry.CounterValue("a.b"), 5u);
  EXPECT_EQ(registry.CounterValue("missing"), 0u);

  registry.counter("a.c")->Inc();
  registry.counter("z")->Inc();
  auto prefixed = registry.CountersWithPrefix("a.");
  ASSERT_EQ(prefixed.size(), 2u);
  EXPECT_EQ(prefixed["a.b"], 5u);
  EXPECT_EQ(prefixed["a.c"], 1u);
}

TEST(Metrics, HistogramBucketing) {
  Histogram h({10, 100, 1000});
  for (uint64_t v : {1u, 9u, 10u, 11u, 100u, 500u, 1000u, 5000u, 9999u}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 1u + 9 + 10 + 11 + 100 + 500 + 1000 + 5000 + 9999);
  auto buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(buckets[0], 3u);      // <= 10
  EXPECT_EQ(buckets[1], 2u);      // <= 100
  EXPECT_EQ(buckets[2], 2u);      // <= 1000
  EXPECT_EQ(buckets[3], 2u);      // overflow
  EXPECT_FALSE(h.ToString().empty());
}

TEST(Metrics, ReportListsNonzeroCounters) {
  MetricsRegistry registry;
  registry.counter("hits")->Inc(3);
  registry.counter("never");
  const std::string report = registry.Report();
  EXPECT_NE(report.find("hits"), std::string::npos);
  EXPECT_EQ(report.find("never"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace buffer
// ---------------------------------------------------------------------------

TEST(Trace, RecordAndDump) {
  TraceBuffer traces;
  traces.Record(7, 1, "send", "hello");
  traces.Record(7, 0, "net.delivered");
  traces.Record(7, 2, "recv", "hello");
  traces.Record(0, 1, "send", "untraced is a no-op");
  EXPECT_EQ(traces.trace_count(), 1u);
  ASSERT_TRUE(traces.HasTrace(7));
  const std::string dump = traces.DumpTrace(7);
  EXPECT_NE(dump.find("send"), std::string::npos);
  EXPECT_NE(dump.find("net.delivered"), std::string::npos);
  EXPECT_NE(dump.find("recv"), std::string::npos);
  auto found = traces.FindTraceWithPoint("net.");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 7u);
  EXPECT_FALSE(traces.FindTraceWithPoint("port.drop.").has_value());
}

// A command too long for an event's inline field reads back exactly as a
// short one would; free text and the numeric shapes mix in one trace.
TEST(Trace, LongCommandReadsBackWhole) {
  TraceBuffer traces;
  const std::string command(40, 'c');
  const PortName to{2, 5, 1, 0};
  traces.Record(9, 1, "send", TraceDetail::CommandTo(command, to));
  traces.Record(9, 0, "net.drop.loss", TraceDetail::Link(1, 2, 2, 3));
  traces.Record(9, 2, "port.drop.corrupt_fragment", "bad crc");
  const std::vector<TraceEvent> events = traces.Events(9);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].point, "send");
  EXPECT_EQ(events[0].detail, command + " -> port(n2/g5.1)");
  EXPECT_EQ(events[1].detail, "n1->n2 frag 3/3");
  EXPECT_EQ(events[2].detail, "bad crc");
}

// ---------------------------------------------------------------------------
// Drop-reason attribution
// ---------------------------------------------------------------------------

TEST(DropReasons, PortPushDistinguishesFullFromRetired) {
  Mailbox mailbox;
  PortName pn;
  Port port(pn, EchoPortType(), &mailbox, /*capacity=*/1);
  EXPECT_EQ(port.Push(Received{}), PushResult::kOk);
  EXPECT_EQ(port.Push(Received{}), PushResult::kFull);
  EXPECT_EQ(port.discarded_full(), 1u);
  EXPECT_EQ(port.discarded_retired(), 0u);
  port.Retire();
  // Retiring discards the message still queued (counted into the retired
  // ledger — it was enqueued but will never be received), and subsequent
  // pushes are rejected into the same bucket.
  EXPECT_EQ(port.discarded_retired(), 1u);
  EXPECT_EQ(port.Push(Received{}), PushResult::kRetired);
  EXPECT_EQ(port.discarded_full(), 1u);
  EXPECT_EQ(port.discarded_retired(), 2u);
}

// Regression for the Retire() accounting bug: messages sitting in the
// queue at retire time used to vanish from the ledger entirely. The
// conservation law is enqueued == popped + discarded-at-retire, with
// rejected pushes accounted separately on top.
TEST(DropReasons, RetireCountsQueuedMessagesIntoLedger) {
  Mailbox mailbox;
  PortName pn;
  Port port(pn, EchoPortType(), &mailbox, /*capacity=*/8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(port.Push(Received{}), PushResult::kOk);
  }
  // Consume two; three stay queued.
  {
    std::lock_guard<std::mutex> lock(mailbox.mu);
    (void)port.PopLocked();
    (void)port.PopLocked();
  }
  port.Retire();
  EXPECT_EQ(port.depth(), 0u);
  EXPECT_EQ(port.enqueued(), 5u);
  EXPECT_EQ(port.discarded_retired(), 3u);  // the queued messages died here
  EXPECT_EQ(port.discarded_full(), 0u);
  // Ledger closes: everything enqueued was either received or counted as
  // discarded at retirement.
  EXPECT_EQ(port.enqueued(), 2u + port.discarded_retired());
  // A post-retirement push lands in the same bucket, on top.
  EXPECT_EQ(port.Push(Received{}), PushResult::kRetired);
  EXPECT_EQ(port.discarded_retired(), 4u);
}

// Control traffic (acks, failure nacks, probes) is admitted into bounded
// headroom above capacity when the data buffer is full — backpressure
// signals must never themselves be shed (DESIGN.md §11).
TEST(DropReasons, ControlTrafficUsesHeadroomAboveCapacity) {
  Mailbox mailbox;
  PortName pn;
  Port port(pn, EchoPortType(), &mailbox, /*capacity=*/2);
  EXPECT_EQ(port.Push(Received{}), PushResult::kOk);
  EXPECT_EQ(port.Push(Received{}), PushResult::kOk);
  // Data is shed at capacity...
  EXPECT_EQ(port.Push(Received{}), PushResult::kFull);
  // ...but control still gets in, counted as headroom use.
  EXPECT_EQ(port.Push(Received{}, /*control=*/true), PushResult::kOk);
  EXPECT_EQ(port.control_overflow(), 1u);
  // The headroom itself is bounded.
  for (size_t i = 1; i < Port::kControlHeadroom; ++i) {
    EXPECT_EQ(port.Push(Received{}, /*control=*/true), PushResult::kOk);
  }
  EXPECT_EQ(port.Push(Received{}, /*control=*/true), PushResult::kFull);
  EXPECT_EQ(port.control_overflow(), Port::kControlHeadroom);
}

class ObsSystemTest : public ::testing::Test {
 protected:
  ObsSystemTest() : system_(MakeConfig()) {
    a_ = &system_.AddNode("a");
    b_ = &system_.AddNode("b");
    for (auto* node : {a_, b_}) {
      node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    }
    sender_ = *a_->Create<ShellGuardian>("shell", "sender", {});
    receiver_ = *b_->Create<ShellGuardian>("shell", "receiver", {});
    SetCurrentTraceId(0);
  }

  static SystemConfig MakeConfig() {
    SystemConfig config;
    config.seed = 11;
    config.default_link.latency = Micros(50);
    // Small enough that the big payload below fragments into many packets.
    config.limits.max_packet_payload = 64;
    return config;
  }

  System system_;
  NodeRuntime* a_ = nullptr;
  NodeRuntime* b_ = nullptr;
  ShellGuardian* sender_ = nullptr;
  ShellGuardian* receiver_ = nullptr;
};

TEST_F(ObsSystemTest, RetiredPortDropIsAttributedAsRetiredNotFull) {
  Port* target = receiver_->AddPort(EchoPortType(), /*capacity=*/4);
  const PortName stale = target->name();
  receiver_->RetirePort(target);
  Port* reply_port = sender_->AddPort(EchoReplyType(), 4);

  ASSERT_TRUE(sender_
                  ->SendFull(stale, "put", {Value::Str("x")},
                             reply_port->name(), PortName{})
                  .ok());
  system_.network().DrainForTesting();

  EXPECT_EQ(b_->stats().discarded_port_retired, 1u);
  EXPECT_EQ(b_->stats().discarded_port_full, 0u);
  EXPECT_EQ(b_->stats().discarded_no_port, 0u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_retired"), 1u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_full"), 0u);

  // The system failure reply names the real reason.
  auto failure = sender_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(failure.ok());
  EXPECT_EQ(failure->command, std::string(kFailureCommand));
  ASSERT_FALSE(failure->args.empty());
  EXPECT_NE(failure->args[0].string_value().find("retired"),
            std::string::npos);

  // The trace of the lost message ends at the retired-port drop and never
  // claims the port was full.
  auto dropped = system_.traces().FindTraceWithPoint("port.drop.retired");
  ASSERT_TRUE(dropped.has_value());
  const std::string dump = system_.traces().DumpTrace(*dropped);
  EXPECT_NE(dump.find("send"), std::string::npos);
  EXPECT_NE(dump.find("port.drop.retired"), std::string::npos);
  EXPECT_EQ(dump.find("port.drop.full"), std::string::npos);
}

TEST_F(ObsSystemTest, FullPortDropIsAttributedAsFull) {
  Port* target = receiver_->AddPort(EchoPortType(), /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        sender_->Send(target->name(), "put", {Value::Str("x")}).ok());
  }
  system_.network().DrainForTesting();
  EXPECT_EQ(b_->stats().discarded_port_full, 3u);
  EXPECT_EQ(b_->stats().discarded_port_retired, 0u);
  EXPECT_EQ(target->discarded_full(), 3u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.drop.port_full"), 3u);
  EXPECT_EQ(system_.metrics().CounterValue("deliver.delivered"), 2u);
}

// ---------------------------------------------------------------------------
// Trace-id propagation
// ---------------------------------------------------------------------------

TEST_F(ObsSystemTest, TraceIdSurvivesFragmentationAndReplyHops) {
  Port* target = receiver_->AddPort(EchoPortType(), 8);
  Port* reply_port = sender_->AddPort(EchoReplyType(), 8);

  // ~20 fragments at max_packet_payload = 64.
  const std::string big(1280, 'x');
  auto sent = sender_->SendFull(target->name(), "put", {Value::Str(big)},
                                reply_port->name(), PortName{});
  ASSERT_TRUE(sent.ok());
  // An origin send mints trace_id = msg_id.
  const uint64_t trace = *sent;
  EXPECT_EQ(CurrentTraceId(), trace);

  // Clear this thread's trace so the receive leg must get the id off the
  // wire, not from the thread-local.
  SetCurrentTraceId(0);
  auto request = receiver_->Receive(target, Millis(2000));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->trace_id, trace);   // survived fragmentation
  EXPECT_EQ(CurrentTraceId(), trace);    // receive joins the chain

  // The reply inherits the chain...
  ASSERT_TRUE(receiver_
                  ->Send(request->reply_to, "got", {Value::Str("ok")})
                  .ok());
  SetCurrentTraceId(0);
  auto reply = sender_->Receive(reply_port, Millis(2000));
  ASSERT_TRUE(reply.ok());
  // ...and arrives back under the same trace id.
  EXPECT_EQ(reply->trace_id, trace);

  // The trace shows both directions: request hops and the reply hop.
  // (Drain first: the delivery thread records port.enqueued after waking
  // the receiver, so the last hop may still be mid-record.)
  system_.network().DrainForTesting();
  auto events = system_.traces().Events(trace);
  int sends = 0, recvs = 0, delivered = 0, enqueued = 0;
  for (const auto& event : events) {
    if (event.point == "send") ++sends;
    if (event.point == "recv") ++recvs;
    if (event.point == "net.delivered") ++delivered;
    if (event.point == "port.enqueued") ++enqueued;
  }
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(recvs, 2);
  EXPECT_EQ(enqueued, 2);
  EXPECT_GE(delivered, 2);  // one per reassembled message, at least
}

// The dump a traced 2-fragment request and its reply print, with the
// "+Nus" stamps stripped: the hop lines are pinned byte for byte, so a
// change to how hop events are stored or formatted cannot alter what an
// operator reads.
TEST(TraceDump, HopDumpTextIsPinned) {
  SystemConfig config;
  config.seed = 11;
  config.default_link.latency = Micros(50);
  config.limits.max_packet_payload = 256;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (NodeRuntime* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  ShellGuardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  ShellGuardian* receiver = *b.Create<ShellGuardian>("shell", "receiver", {});
  Port* target = receiver->AddPort(EchoPortType(), 8);
  Port* reply_port = sender->AddPort(EchoReplyType(), 8);

  SetCurrentTraceId(0);
  // Two fragments at max_packet_payload = 256; the reply fits in one.
  auto sent = sender->SendFull(target->name(), "put",
                               {Value::Str(std::string(200, 'x'))},
                               reply_port->name(), PortName{});
  ASSERT_TRUE(sent.ok());
  const uint64_t trace = *sent;
  system.network().DrainForTesting();
  SetCurrentTraceId(0);
  auto request = receiver->Receive(target, Millis(2000));
  ASSERT_TRUE(request.ok());
  ASSERT_TRUE(
      receiver->Send(request->reply_to, "got", {Value::Str("ok")}).ok());
  system.network().DrainForTesting();
  SetCurrentTraceId(0);
  ASSERT_TRUE(sender->Receive(reply_port, Millis(2000)).ok());
  system.network().DrainForTesting();

  const std::string dump = std::regex_replace(
      system.traces().DumpTrace(trace), std::regex("  \\+[0-9]+us"), "");
  const std::string header = "trace " + std::to_string(trace) + ":\n";
  ASSERT_EQ(dump.substr(0, header.size()), header);
  EXPECT_EQ(dump.substr(header.size()),
            "  n1  send  put -> port(n2/g2.0)\n"
            "  net  net.delivered  n1->n2 frag 1/2\n"
            "  net  net.delivered  n1->n2 frag 2/2\n"
            "  n2  port.enqueued  port(n2/g2.0)\n"
            "  n2  recv  put on port(n2/g2.0)\n"
            "  n2  send  got -> port(n1/g2.0)\n"
            "  net  net.delivered  n2->n1 frag 1/1\n"
            "  n1  port.enqueued  port(n1/g2.0)\n"
            "  n1  recv  got on port(n1/g2.0)\n");
}

// Trace stamps read the clock the system runs on. Under hand-stepped
// virtual time with link latency L, a traced RemoteCall's hops land on
// exact virtual instants (t0, t0 + L, t0 + 2L) and its first send to its
// last receive spans exactly one round trip, 2L.
TEST(TraceClock, RemoteCallHopStampsAreExactVirtualInstants) {
  constexpr Micros kLink(700);
  SimulatedClock sim;
  sim.StartAutoStep();
  SystemConfig config;
  config.seed = 21;
  config.sim_clock = &sim;
  config.default_link.latency = kLink;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (NodeRuntime* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* client = *a.Create<ShellGuardian>("shell", "client", {});
  Guardian* server = *b.Create<ShellGuardian>("shell", "server", {});
  Port* in = server->AddPort(EchoPortType(), 8, /*provided=*/true);
  const PortName server_port = in->name();
  server->Fork("echo", [server, in] {
    for (;;) {
      auto m = server->Receive(in, Micros::max());
      if (!m.ok()) {
        return;
      }
      (void)server->Send(m->reply_to, "got", std::move(m->args));
    }
  });
  ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
  // From here virtual time moves only when the test steps it.
  sim.StopAutoStep();

  const TimePoint t0 = sim.Now();
  const uint64_t sent_before = system.network().stats().packets_sent;
  constexpr Micros kCallTimeout(60'000'000);
  uint64_t trace = 0;
  bool replied = false;
  std::atomic<bool> done{false};
  std::thread caller([&] {
    SetCurrentTraceId(0);
    RemoteCallOptions options;
    options.timeout = kCallTimeout;
    options.max_attempts = 1;
    replied = RemoteCall(*client, server_port, "put", {Value::Str("x")},
                         EchoReplyType(), options)
                  .ok();
    trace = CurrentTraceId();
    done = true;
  });
  // Step one link latency each time a packet goes on the wire: the
  // request, then the reply.
  uint64_t stepped = sent_before;
  const TimePoint give_up = Now() + Millis(10'000);
  while (!done && Now() < give_up) {
    if (system.network().stats().packets_sent > stepped) {
      ++stepped;
      sim.Advance(kLink);
    } else {
      std::this_thread::sleep_for(Micros(100));
    }
  }
  if (!done) {
    sim.Advance(kCallTimeout);  // let a stuck call time out, then fail
  }
  caller.join();
  system.network().DrainForTesting();
  ASSERT_TRUE(replied);
  EXPECT_EQ(stepped, sent_before + 2);

  std::vector<TraceEvent> events = system.traces().Events(trace);
  ASSERT_FALSE(events.empty());
  std::vector<TimePoint> sends, recvs;
  for (const TraceEvent& event : events) {
    EXPECT_TRUE(event.at == t0 || event.at == t0 + kLink ||
                event.at == t0 + 2 * kLink)
        << event.point << " stamped at t0 + " << ToMicros(event.at - t0)
        << "us";
    if (event.point == "send") sends.push_back(event.at);
    if (event.point == "recv") recvs.push_back(event.at);
  }
  ASSERT_EQ(sends.size(), 2u);
  ASSERT_EQ(recvs.size(), 2u);
  EXPECT_EQ(sends[0], t0);
  EXPECT_EQ(recvs[0], t0 + kLink);  // the server's receive
  EXPECT_EQ(recvs[1] - sends[0], 2 * kLink);
  // Teardown joins the server process; let virtual time run for it.
  sim.StartAutoStep();
}

// ---------------------------------------------------------------------------
// ReliableSend backoff
// ---------------------------------------------------------------------------

TEST_F(ObsSystemTest, ReliableSendBacksOffBetweenTimedOutAttempts) {
  // A real port nobody ever receives from: every attempt times out.
  Port* target = receiver_->AddPort(EchoPortType(), 64);

  ReliableSendOptions options;
  options.ack_timeout = Millis(5);
  options.max_attempts = 3;
  options.initial_backoff = Millis(2);
  options.max_backoff = Millis(8);
  options.backoff_multiplier = 2.0;
  options.jitter = 0.0;  // deterministic delays: 2ms then 4ms

  const TimePoint start = Now();
  auto result = ReliableSend(*sender_, target->name(), "put",
                             {Value::Str("x")}, options);
  const auto elapsed = Now() - start;
  EXPECT_EQ(result.status().code(), Code::kTimeout);

  MetricsRegistry& metrics = system_.metrics();
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.calls"), 1u);
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.attempts"), 3u);
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.timeouts"), 3u);
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.exhausted"), 1u);
  Histogram* backoff = metrics.histogram("sendprims.reliable.backoff_us");
  EXPECT_EQ(backoff->count(), 2u);       // no sleep after the last attempt
  EXPECT_EQ(backoff->sum(), 6000u);      // 2ms + 4ms, jitter off
  // 3 timeouts of 5ms + 6ms of backoff actually elapsed.
  EXPECT_GE(ToMicros(elapsed), 3 * 5000 + 6000);
}

TEST_F(ObsSystemTest, ReliableSendOutcomeBreakdownSumsToCalls) {
  Port* target = receiver_->AddPort(EchoPortType(), 8);

  // Outcome 1: ok (a receiver is actually draining the port).
  std::thread drainer([this, target] {
    (void)receiver_->Receive(target, Millis(5000));
  });
  ReliableSendOptions options;
  options.ack_timeout = Millis(2000);
  options.max_attempts = 3;
  auto ok = ReliableSend(*sender_, target->name(), "put", {Value::Str("x")},
                         options);
  drainer.join();
  ASSERT_TRUE(ok.ok()) << ok.status();

  // Outcome 2: hard failure. "nudge" is not in the port's type; the send
  // fails locally with a type error, which no retry can cure. This used to
  // return with no counter at all, leaving the breakdown short of .calls.
  auto hard = ReliableSend(*sender_, target->name(), "nudge", {}, options);
  ASSERT_FALSE(hard.ok());
  ASSERT_NE(hard.status().code(), Code::kTimeout);

  // Outcome 3: exhausted (nobody receives; fast attempts, no backoff).
  options.ack_timeout = Millis(5);
  options.max_attempts = 2;
  options.initial_backoff = Micros(0);
  auto exhausted = ReliableSend(*sender_, target->name(), "put",
                                {Value::Str("x")}, options);
  EXPECT_EQ(exhausted.status().code(), Code::kTimeout);

  MetricsRegistry& metrics = system_.metrics();
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.hard_fail"), 1u);
  // The per-call outcome buckets account for every call — the failure
  // breakdown in System::Report() must sum exactly.
  EXPECT_EQ(metrics.CounterValue("sendprims.reliable.calls"),
            metrics.CounterValue("sendprims.reliable.ok") +
                metrics.CounterValue("sendprims.reliable.exhausted") +
                metrics.CounterValue("sendprims.reliable.deadline_exceeded") +
                metrics.CounterValue("sendprims.reliable.hard_fail"));
}

TEST_F(ObsSystemTest, SystemReportMentionsDropReasonsAndPorts) {
  Port* target = receiver_->AddPort(EchoPortType(), /*capacity=*/1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        sender_->Send(target->name(), "put", {Value::Str("x")}).ok());
  }
  system_.network().DrainForTesting();
  const std::string report = system_.Report();
  EXPECT_NE(report.find("discarded_port_full"), std::string::npos);
  EXPECT_NE(report.find("deliver.drop.port_full"), std::string::npos);
  EXPECT_NE(report.find("obs_echo"), std::string::npos);
  EXPECT_NE(report.find("traces:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Network regressions
// ---------------------------------------------------------------------------

TEST(NetworkRegression, NodeNameSafeUnderConcurrentAddNode) {
  Network net(1);
  ASSERT_EQ(net.AddNode("n1"), 1u);
  std::thread adder([&net] {
    for (int i = 2; i <= 512; ++i) {
      net.AddNode("n" + std::to_string(i));
    }
  });
  // Before NodeName returned by value, this read a reference into a vector
  // the adder thread was concurrently reallocating.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(net.NodeName(1), "n1");
  }
  adder.join();
  EXPECT_EQ(net.NodeName(512), "n512");
  EXPECT_EQ(net.node_count(), 512u);
}

}  // namespace
}  // namespace guardians
