// §16 deadline propagation: the zero-remaining boundary (Expired() and
// Remaining()==0 are NOT the same predicate, and the gap between them is
// exactly where the pre-fix ReliableSend burned attempts), the
// Micros-sentinel audit (max = infinite, 0 = poll / disabled — never
// "expired"), expiry-shedding at the port queue with the dedup mark
// rolled back so an in-deadline retry still executes exactly once, the
// idle-link reassembler sweep hook, inherited-budget fail-fast and
// clipping in every primitive of the send ladder, and the flow-control wait
// counted against the attempt. Everything runs on the §15 SimulatedClock:
// the boundary states are constructed exactly, not raced for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/guardian/system.h"
#include "src/obs/trace.h"
#include "src/sendprims/failover.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"
#include "src/wire/packet.h"

namespace guardians {
namespace {

// Wall-time ceiling for things that should take ~zero wall time.
constexpr Micros kWallBudget = Micros(10'000'000);

PortType WorkPortType() {
  return PortType("dwork", {MessageSig{"put", {ArgType::Of(TypeTag::kInt)},
                                       {}}});
}

PortType CtrlPortType() {
  return PortType("dctrl", {MessageSig{"go", {}, {}}});
}

class SilentSink : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(WorkPortType(), 64, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    for (;;) {
      auto m = Receive(port(0), Micros::max());
      if (!m.ok()) {
        return;
      }
    }
  }
};

// Receives nothing from its work port until the control port says "go" —
// which is how a message gets to *age out inside the queue* instead of
// being consumed or shed on arrival.
class GatedSink : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(WorkPortType(), 8, /*provided=*/true);
    AddPort(CtrlPortType(), 4, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    if (!Receive(port(1), Micros::max()).ok()) {
      return;
    }
    for (;;) {
      auto m = Receive(port(0), Micros::max());
      if (!m.ok()) {
        return;
      }
      if (m->command == "put") {
        executed_.fetch_add(1);
      }
    }
  }
  int executed() const { return executed_.load(); }

 private:
  std::atomic<int> executed_{0};
};

// "put" for the send primitives, "call" (answered with "done") for
// RemoteCall.
PortType ProbePortType() {
  return PortType("dprobe",
                  {MessageSig{"put", {ArgType::Of(TypeTag::kInt)}, {}},
                   MessageSig{"call", {ArgType::Of(TypeTag::kInt)}, {"done"}}});
}

PortType ProbeReplyType() {
  return PortType("dprobe_reply", {MessageSig{"done", {}, {}}});
}

// A silent server that records the budget each message arrives with: its
// deadline, less the receiving node's now at dequeue.
class BudgetProbe : public Guardian {
 public:
  Status Setup(const ValueList&) override {
    AddPort(ProbePortType(), 64, /*provided=*/true);
    return OkStatus();
  }
  void Main() override {
    for (;;) {
      auto m = Receive(port(0), Micros::max());
      if (!m.ok()) {
        return;
      }
      std::lock_guard<std::mutex> lock(mu_);
      budget_ = m->deadline_at == TimePoint::max()
                    ? Micros::max()
                    : std::chrono::duration_cast<Micros>(
                          m->deadline_at - runtime().clock().Now());
      ++seen_;
    }
  }
  // The budget of the last message, once one has arrived (bounded by a
  // wall-time wait; Micros::min() if none came).
  Micros AwaitBudget() {
    const TimePoint wall_start = Now();
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (seen_ > 0) {
          return budget_;
        }
      }
      if (Now() - wall_start > kWallBudget) {
        return Micros::min();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mu_;
  Micros budget_{0};
  int seen_ = 0;
};

// --- The two boundary states, pinned at the Deadline level ------------------

// Backward clock skew after the budget ran dry: Expired() (a raw now-vs-at_
// comparison) flips back to false, while Remaining() keeps reporting 0
// through its monotonic floor. This disagreement is the state the
// `remaining <= 0` guard in ReliableSend exists for.
TEST(DeadlineBoundary, BackwardSkewFloorKeepsZeroRemainingUnexpired) {
  SimulatedClock sim;
  Deadline d(Micros(1'000), sim.NodeView(9));
  sim.StepNode(9, Micros(1'000));  // the node reaches the deadline exactly
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.Remaining(), Micros(0));  // floor pinned at zero
  sim.StepNode(9, Micros(-400));  // backward skew: now < at_ again
  EXPECT_FALSE(d.Expired());            // the raw check says "time left"
  EXPECT_EQ(d.Remaining(), Micros(0));  // the clamp says the budget is gone
}

// Sub-microsecond remainder: Remaining() truncates to whole Micros, so the
// last fraction of a microsecond reads as 0 while Expired() is still
// false. No skew involved — plain forward time hits this on every deadline
// that doesn't land on a microsecond boundary.
TEST(DeadlineBoundary, SubMicrosecondRemainderIsZeroRemainingUnexpired) {
  SimulatedClock sim;
  Deadline d(Micros(10), &sim);
  sim.AdvanceTo(sim.Now() + Micros(9) + std::chrono::nanoseconds(500));
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), Micros(0));
}

// --- ReliableSend at the boundary (the satellite-1 regression) --------------

// Walks ReliableSend into the exact state above: the first attempt's ack
// wait is woken 500ns short of the overall deadline, so the retry loop
// re-checks with Expired() == false and Remaining() == 0. The fixed loop
// books that as deadline_exceeded after 1 attempt; the pre-fix loop pushed
// min(ack_timeout, 0) == 0 into SyncSend and burned the remaining attempts
// as zero-timeout polls, exiting via `exhausted` with attempts == 3.
TEST(ReliableSendDeadlineBoundary, ZeroRemainingBudgetIsDeadlineExceeded) {
  SimulatedClock sim;
  const TimePoint wall_start = Now();
  sim.StartAutoStep();
  SystemConfig config;
  config.seed = 11;
  config.sim_clock = &sim;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
  Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
  SilentSink* sink = *b.Create<SilentSink>("sink", "sink", {});
  const PortName target = sink->ProvidedPorts()[0];
  system.network().SetPartitioned(a.id(), b.id(), true);
  ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
  // From here the clock is stepped by hand: the auto-stepper would land
  // every wake exactly on its deadline, and this test needs the 500ns
  // overshoot.
  sim.StopAutoStep();

  ReliableSendOptions options;
  options.deadline = Micros(10'000);
  options.ack_timeout = Micros(9'999);  // attempt 1 wakes 1us short...
  options.max_attempts = 3;
  options.initial_backoff = Micros(0);  // no backoff sleep in the way
  options.jitter = 0.0;

  const size_t base_waiters = sim.WaiterCount();
  const TimePoint t0 = sim.Now();
  Result<ReliableSendResult> result = Status(Code::kInternal, "not run");
  std::thread caller([&] {
    result = ReliableSend(*sender, target, "put", {Value::Int(1)}, options);
  });
  // The partitioned send drops at send time, so the one new waiter is the
  // attempt's ack wait (deadline t0 + 9999us).
  ASSERT_TRUE(sim.WaitForWaiters(base_waiters + 1, kWallBudget));
  // ...and the wake overshoots it by half a microsecond, leaving 500ns of
  // budget: Expired() false, Remaining() 0.
  sim.AdvanceTo(t0 + Micros(9'999) + std::chrono::nanoseconds(500));
  caller.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kTimeout);
  EXPECT_NE(result.status().message().find("deadline exceeded"),
            std::string::npos)
      << result.status().message();
  MetricsRegistry& metrics = system.metrics();
  EXPECT_EQ(metrics.counter("sendprims.reliable.attempts")->value(), 1u);
  EXPECT_EQ(metrics.counter("sendprims.reliable.deadline_exceeded")->value(),
            1u);
  EXPECT_EQ(metrics.counter("sendprims.reliable.exhausted")->value(), 0u);
  // The per-call outcome ledger still sums: calls == ok + exhausted
  // + deadline_exceeded + hard_fail.
  EXPECT_EQ(metrics.counter("sendprims.reliable.calls")->value(), 1u);
  EXPECT_EQ(metrics.counter("sendprims.sync.calls")->value(), 1u);
  EXPECT_LT(Now() - wall_start, kWallBudget);
  // Teardown (joining guardian threads) may need virtual-time steps; the
  // system destructs before `sim`, whose destructor stops the stepper.
  sim.StartAutoStep();
}

// --- The Micros sentinel audit (satellite 2) --------------------------------

// Micros::max() must mean "no deadline". Before the audit, SyncSend built
// Deadline(Micros::max()) directly, which overflowed Now() + timeout into
// the past: an *infinite* timeout behaved as an *expired* one and every
// such send died instantly.
TEST(MicrosSentinels, SyncSendMaxTimeoutIsInfiniteNotExpired) {
  SimulatedClock sim;
  sim.StartAutoStep();
  const TimePoint wall_start = Now();
  {
    SystemConfig config;
    config.seed = 12;
    config.sim_clock = &sim;
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    SilentSink* sink = *b.Create<SilentSink>("sink", "sink", {});
    const Status st =
        SyncSend(*sender, sink->ProvidedPorts()[0], "put", {Value::Int(7)},
                 Micros::max(), a.NextDedupSeq());
    EXPECT_TRUE(st.ok()) << st.message();
  }
  sim.StopAutoStep();
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

// ReliableSendOptions.deadline == 0 means "no overall deadline", not "a
// deadline that already passed": the call must run its attempts normally.
TEST(MicrosSentinels, ReliableSendZeroDeadlineMeansDisabled) {
  SimulatedClock sim;
  sim.StartAutoStep();
  {
    SystemConfig config;
    config.seed = 13;
    config.sim_clock = &sim;
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    SilentSink* sink = *b.Create<SilentSink>("sink", "sink", {});
    ReliableSendOptions options;
    options.deadline = Micros(0);  // disabled, not expired
    auto result = ReliableSend(*sender, sink->ProvidedPorts()[0], "put",
                               {Value::Int(2)}, options);
    EXPECT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(
        system.metrics().counter("sendprims.reliable.deadline_exceeded")
            ->value(),
        0u);
  }
  sim.StopAutoStep();
}

// Receive with a 0 timeout is an immediate poll: it returns kTimeout on an
// empty port without registering for a clock step (on a SimulatedClock a
// genuine wait would block forever here — nobody is stepping).
TEST(MicrosSentinels, ReceiveZeroTimeoutIsAnImmediatePoll) {
  SimulatedClock sim;
  sim.StartAutoStep();
  SystemConfig config;
  config.seed = 14;
  config.sim_clock = &sim;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  Guardian* g = *a.Create<ShellGuardian>("shell", "poller", {});
  sim.StopAutoStep();
  const TimePoint wall_start = Now();
  Port* port = g->AddPort(WorkPortType(), 4);
  auto m = g->Receive(port, Micros(0));
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), Code::kTimeout);
  EXPECT_LT(Now() - wall_start, kWallBudget);
  sim.StartAutoStep();  // teardown may need steps
}

// --- Queue-expiry shedding rolls back the dedup mark (satellite 4) ----------

// A tracked message whose budget dies while queued is discarded at
// dequeue — and the dedup mark must be rolled back with it, or the
// sender's in-deadline retry of the same dedup_seq would be suppressed as
// a "duplicate" of an operation that never executed. The retry must
// execute exactly once.
TEST(QueueExpiry, DequeueShedUnmarksSoInDeadlineRetryExecutesOnce) {
  SimulatedClock sim;
  sim.StartAutoStep();
  const TimePoint wall_start = Now();
  {
    SystemConfig config;
    config.seed = 15;
    config.sim_clock = &sim;
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("gated", MakeFactory<GatedSink>());
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    GatedSink* sink = *b.Create<GatedSink>("gated", "sink", {});
    const PortName work = sink->ProvidedPorts()[0];
    const PortName ctrl = sink->ProvidedPorts()[1];
    MetricsRegistry& metrics = system.metrics();

    // One logical operation: both the original and the retry carry seq.
    const uint64_t seq = a.NextDedupSeq();
    ASSERT_TRUE(sender
                    ->SendFull(work, "put", {Value::Int(1)}, PortName{},
                               PortName{}, seq, /*deadline_micros=*/50'000)
                    .ok());
    ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
    // Alive on arrival (not shed), marked seen, parked in the queue.
    EXPECT_EQ(metrics.counter("deliver.expired.shed")->value(), 0u);
    EXPECT_EQ(metrics.counter("deliver.expired.queue")->value(), 0u);

    // The budget dies in the queue; then the gate opens and the dequeue
    // path discards the corpse and rolls the mark back.
    sim.Advance(Micros(200'000));
    ASSERT_TRUE(sender
                    ->SendFull(ctrl, "go", {}, PortName{}, PortName{},
                               /*dedup_seq=*/0, /*deadline_micros=*/0)
                    .ok());
    while (metrics.counter("deliver.expired.queue")->value() == 0 &&
           Now() - wall_start < kWallBudget) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(metrics.counter("deliver.expired.queue")->value(), 1u);
    EXPECT_EQ(sink->executed(), 0);

    // The in-deadline retry of the SAME dedup_seq must execute — the
    // shed-then-unmark made the receiver forget it ever saw seq.
    ASSERT_TRUE(sender
                    ->SendFull(work, "put", {Value::Int(1)}, PortName{},
                               PortName{}, seq,
                               /*deadline_micros=*/10'000'000)
                    .ok());
    ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
    while (sink->executed() == 0 && Now() - wall_start < kWallBudget) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(sink->executed(), 1);
    EXPECT_EQ(metrics.counter("deliver.dup.suppressed")->value(), 0u);
    EXPECT_EQ(metrics.counter("deliver.expired.queue")->value(), 1u);
  }
  sim.StopAutoStep();
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

// A hop always costs at least 1us of budget. With a zero-latency link
// under virtual time, the network-observed age is exactly 0 virtual
// microseconds — no residual wall time leaks in — so without the floor a
// 1us budget would cross the hop unspent and execute at the very instant
// it should have died (this is how chaos seed 1001's overload storm leaked
// doomed ops: a negative jitter draw clamped the storm delay to zero).
TEST(ArrivalShed, OneMicroBudgetNeverSurvivesAZeroLatencyHop) {
  SimulatedClock sim;
  sim.StartAutoStep();
  const TimePoint wall_start = Now();
  {
    SystemConfig config;
    config.seed = 16;
    config.sim_clock = &sim;
    config.default_link.latency = Micros(0);
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("gated", MakeFactory<GatedSink>());
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    GatedSink* sink = *b.Create<GatedSink>("gated", "sink", {});
    const PortName work = sink->ProvidedPorts()[0];
    const PortName ctrl = sink->ProvidedPorts()[1];
    MetricsRegistry& metrics = system.metrics();

    // Open the gate first: the sink is parked in Receive on the work
    // port, ready to execute anything the arrival gate lets through.
    ASSERT_TRUE(sender
                    ->SendFull(ctrl, "go", {}, PortName{}, PortName{},
                               /*dedup_seq=*/0, /*deadline_micros=*/0)
                    .ok());
    ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));

    ASSERT_TRUE(sender
                    ->SendFull(work, "put", {Value::Int(1)}, PortName{},
                               PortName{}, a.NextDedupSeq(),
                               /*deadline_micros=*/1)
                    .ok());
    ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
    EXPECT_EQ(metrics.counter("deliver.expired.shed")->value(), 1u);
    EXPECT_EQ(sink->executed(), 0);
  }
  sim.StopAutoStep();
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

// --- Idle-link reassembler sweep (satellite 3) ------------------------------

// The in-Add age sweep only runs when packets arrive. A fragment lost on a
// link that then goes idle used to pin its partial (and payload bytes)
// forever; WaitQuiescent/Report now sweep every node's reassembler so
// quiescence reclaims it.
TEST(ReassemblerSweep, IdlePartialIsReclaimedAtQuiescence) {
  SimulatedClock sim;
  sim.StartAutoStep();
  SystemConfig config;
  config.seed = 16;
  config.sim_clock = &sim;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");

  Bytes message(256, 0xCD);
  auto frags = Fragment(BufferSlice(std::move(message)), /*msg_id=*/99,
                        a.id(), b.id(), /*max_payload=*/64);
  ASSERT_GT(frags.size(), 1u);
  // Only the first fragment ever arrives; the link then goes idle.
  system.network().Send(std::move(frags[0]));
  ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
  EXPECT_EQ(system.metrics().counter("net.reassembly.expired")->value(), 0u);

  // Three virtual seconds beat the 2s partial-expiry horizon. No traffic
  // flows, so only the quiescence sweep can reclaim the partial.
  sim.Advance(Micros(3'000'000));
  ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
  EXPECT_EQ(system.metrics().counter("net.reassembly.expired")->value(), 1u);
}

// --- Inherited budgets fail fast (§16 propagation) --------------------------

// A handler whose caller's budget is already gone must not start a nested
// call at all: RemoteCall checks the thread's inherited deadline before
// every attempt.
TEST(InheritedBudget, RemoteCallFailsFastOnExhaustedInheritedDeadline) {
  SimulatedClock sim;
  sim.StartAutoStep();
  SystemConfig config;
  config.seed = 17;
  config.sim_clock = &sim;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
  Guardian* caller = *a.Create<ShellGuardian>("shell", "caller", {});
  SilentSink* sink = *b.Create<SilentSink>("sink", "sink", {});
  sim.StopAutoStep();

  SetCurrentDeadlineAt(a.clock().Now());  // inherited budget: spent
  RemoteCallOptions options;
  options.timeout = Micros(5'000'000);  // irrelevant: inherited wins
  auto reply = RemoteCall(*caller, sink->ProvidedPorts()[0], "put",
                          {Value::Int(3)}, WorkPortType(), options);
  SetCurrentDeadlineAt(TimePoint::max());

  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), Code::kTimeout);
  EXPECT_NE(reply.status().message().find("inherited deadline"),
            std::string::npos)
      << reply.status().message();
  EXPECT_EQ(
      system.metrics().counter("sendprims.call.deadline_exceeded")->value(),
      1u);
  // It failed before the first attempt: nothing was sent.
  EXPECT_EQ(system.metrics().counter("sendprims.call.attempts")->value(), 0u);
  sim.StartAutoStep();  // teardown may need steps
}

TEST(InheritedBudget, FailoverCallFailsFastOnExhaustedInheritedDeadline) {
  SimulatedClock sim;
  sim.StartAutoStep();
  SystemConfig config;
  config.seed = 18;
  config.sim_clock = &sim;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
  Guardian* caller = *a.Create<ShellGuardian>("shell", "caller", {});
  SilentSink* s1 = *b.Create<SilentSink>("sink", "s1", {});
  SilentSink* s2 = *b.Create<SilentSink>("sink", "s2", {});
  sim.StopAutoStep();

  SetCurrentDeadlineAt(a.clock().Now());
  RemoteCallOptions per_target;
  per_target.timeout = Micros(5'000'000);
  auto result = FailoverCall(
      *caller, {s1->ProvidedPorts()[0], s2->ProvidedPorts()[0]}, "put",
      {Value::Int(4)}, WorkPortType(), per_target);
  SetCurrentDeadlineAt(TimePoint::max());

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kTimeout);
  EXPECT_NE(result.status().message().find("inherited deadline"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(
      system.metrics().counter("sendprims.failover.deadline_exceeded")
          ->value(),
      1u);
  EXPECT_EQ(system.metrics().counter("sendprims.call.calls")->value(), 0u);
  sim.StartAutoStep();  // teardown may need steps
}

// The ack-waiting rungs of the §3 ladder, each as one call whose 5 s
// per-attempt timeout only the inherited budget can cut short.
struct AckPrimitive {
  const char* name;
  const char* spent_counter;  // where a spent inherited budget is counted
  Status (*send)(Guardian& sender, const PortName& to);
};

const AckPrimitive kAckPrimitives[] = {
    {"SyncSend", "sendprims.sync.timeouts",
     [](Guardian& sender, const PortName& to) {
       return SyncSend(sender, to, "put", {Value::Int(5)}, Micros(5'000'000),
                       sender.runtime().NextDedupSeq());
     }},
    {"ReliableSend", "sendprims.reliable.deadline_exceeded",
     [](Guardian& sender, const PortName& to) {
       ReliableSendOptions options;
       options.ack_timeout = Micros(5'000'000);
       return ReliableSend(sender, to, "put", {Value::Int(5)}, options)
           .status();
     }},
};

// SyncSend and ReliableSend check the inherited deadline too: with the
// budget already gone they fail before sending anything.
TEST(InheritedBudget, AckPrimitivesFailFastOnExhaustedInheritedDeadline) {
  for (const AckPrimitive& primitive : kAckPrimitives) {
    SCOPED_TRACE(primitive.name);
    SimulatedClock sim;
    sim.StartAutoStep();
    SystemConfig config;
    config.seed = 19;
    config.sim_clock = &sim;
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("sink", MakeFactory<SilentSink>());
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    SilentSink* sink = *b.Create<SilentSink>("sink", "sink", {});
    MetricsRegistry& metrics = system.metrics();
    const uint64_t sent_before = metrics.counter("node.messages_sent")->value();

    SetCurrentDeadlineAt(a.clock().Now());  // inherited budget: spent
    const Status st = primitive.send(*sender, sink->ProvidedPorts()[0]);
    SetCurrentDeadlineAt(TimePoint::max());

    EXPECT_EQ(st.code(), Code::kTimeout) << st.message();
    EXPECT_EQ(metrics.counter(primitive.spent_counter)->value(), 1u);
    EXPECT_EQ(metrics.counter("node.messages_sent")->value(), sent_before);
  }
}

// With budget D left upstream, a 5 s attempt timeout is clipped to D: the
// receiver never sees more than D. Links have zero latency and the clock is
// not stepped during the call, so the receiver sees exactly what was
// stamped and host load cannot move virtual time under the send.
TEST(InheritedBudget, AckPrimitivesStampNoMoreThanTheInheritedBudget) {
  constexpr Micros kInherited(200'000);
  for (const AckPrimitive& primitive : kAckPrimitives) {
    SCOPED_TRACE(primitive.name);
    SimulatedClock sim;
    sim.StartAutoStep();
    SystemConfig config;
    config.seed = 20;
    config.sim_clock = &sim;
    config.default_link.latency = Micros(0);
    System system(config);
    NodeRuntime& a = system.AddNode("a");
    NodeRuntime& b = system.AddNode("b");
    a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
    b.RegisterGuardianType("probe", MakeFactory<BudgetProbe>());
    Guardian* sender = *a.Create<ShellGuardian>("shell", "sender", {});
    BudgetProbe* probe = *b.Create<BudgetProbe>("probe", "probe", {});
    ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
    sim.StopAutoStep();

    SetCurrentDeadlineAt(a.clock().Now() + kInherited);
    const Status st = primitive.send(*sender, probe->ProvidedPorts()[0]);
    SetCurrentDeadlineAt(TimePoint::max());

    EXPECT_TRUE(st.ok()) << st.message();
    const Micros seen = probe->AwaitBudget();
    EXPECT_GT(seen, Micros(0));
    EXPECT_LE(seen, kInherited);
    sim.StartAutoStep();  // teardown may need steps
  }
}

// The flow-control wait is part of the attempt. The destination sits in a
// full nack's congested hold for W of an inherited budget D while a
// RemoteCall waits on a silent server: the call returns by D (not D + W),
// and the server is promised at most the D - W left after the wait. The
// test steps the clock by hand, so the hold ends exactly at W and the call
// can time out only once the server has the request.
TEST(InheritedBudget, FlowWaitCountsAgainstTheAttempt) {
  constexpr Micros kInherited(1'000'000);  // D
  constexpr Micros kHold(300'000);         // W
  SimulatedClock sim;
  sim.StartAutoStep();
  const TimePoint wall_start = Now();
  SystemConfig config;
  config.seed = 21;
  config.sim_clock = &sim;
  config.default_link.latency = Micros(0);
  config.flow.reopen_initial = kHold;
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  a.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  b.RegisterGuardianType("probe", MakeFactory<BudgetProbe>());
  Guardian* caller = *a.Create<ShellGuardian>("shell", "caller", {});
  BudgetProbe* server = *b.Create<BudgetProbe>("probe", "server", {});
  const PortName target = server->ProvidedPorts()[0];
  ASSERT_TRUE(system.WaitQuiescent(Millis(2'000)));
  sim.StopAutoStep();

  a.flow().OnFullNack(target, /*queue_depth=*/64, /*capacity=*/64);
  const size_t base_waiters = sim.WaiterCount();
  const TimePoint t0 = a.clock().Now();
  Result<RemoteReply> reply = Status(Code::kInternal, "not run");
  Micros took{0};
  std::atomic<bool> returned{false};
  std::thread call([&] {
    SetCurrentDeadlineAt(t0 + kInherited);
    RemoteCallOptions options;
    options.timeout = Micros(5'000'000);
    reply = RemoteCall(*caller, target, "call", {Value::Int(6)},
                       ProbeReplyType(), options);
    took = std::chrono::duration_cast<Micros>(a.clock().Now() - t0);
    returned = true;
  });
  // The call waits out the hold, then the request reaches the server with
  // no virtual time passing (zero latency)...
  ASSERT_TRUE(sim.WaitForWaiters(base_waiters + 1, kWallBudget));
  sim.AdvanceTo(t0 + kHold);
  const Micros seen = server->AwaitBudget();
  // ...and nothing answers it before the inherited deadline. A call still
  // waiting a wall second later overshoots D; auto-stepping lets it finish
  // and fail the checks below.
  sim.AdvanceTo(t0 + kInherited);
  for (int ms = 0; ms < 1'000 && !returned; ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sim.StartAutoStep();
  call.join();

  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), Code::kTimeout);
  EXPECT_LE(took, kInherited);
  EXPECT_GT(seen, Micros(0));
  EXPECT_LE(seen, kInherited - kHold);
  EXPECT_EQ(system.metrics().counter("flow.sends_deferred")->value(), 1u);
  EXPECT_LT(Now() - wall_start, kWallBudget);
}

}  // namespace
}  // namespace guardians
