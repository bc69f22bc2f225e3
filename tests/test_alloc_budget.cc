// Allocation budget for the zero-copy wire path.
//
// A global operator-new interposer counts heap allocations made while a
// thread-local gate is open. The tests open the gate around exactly the
// region under measurement (never around gtest assertions, which allocate
// for their messages) and assert the wire hot path stays within a fixed
// allocation budget per message — the regression guard for the refcounted
// buffer work: a reintroduced payload clone or per-fragment vector copy
// shows up here as a budget overrun.
//
// Not tsan-labeled: the gate is thread-local, so only allocations made by
// the measuring thread count (never a Network worker's or another
// guardian's) and the numbers are exactly reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "src/common/buffer.h"
#include "src/guardian/system.h"
#include "src/obs/trace.h"
#include "src/sendprims/remote_call.h"
#include "src/wire/envelope.h"
#include "src/wire/packet.h"

namespace guardians {
namespace {

std::atomic<uint64_t> g_allocations{0};
thread_local bool t_counting = false;

// Opens the counting gate for one scope and reports the delta.
class AllocationMeter {
 public:
  AllocationMeter() : start_(g_allocations.load(std::memory_order_relaxed)) {
    t_counting = true;
  }
  ~AllocationMeter() { t_counting = false; }
  uint64_t Stop() {
    t_counting = false;
    return g_allocations.load(std::memory_order_relaxed) - start_;
  }

 private:
  uint64_t start_;
};

}  // namespace
}  // namespace guardians

// The interposer itself: count while the gate is open, allocate as usual.
void* operator new(std::size_t size) {
  if (guardians::t_counting) {
    guardians::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (guardians::t_counting) {
    guardians::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace guardians {
namespace {

Envelope SmallEnvelope() {
  Envelope env;
  env.msg_id = 1;
  env.src_node = 1;
  env.target = PortName{2, 3, 0, 0xABCD};
  env.command = "tick";
  env.args = {Value::Int(42)};
  return env;
}

TEST(AllocBudgetTest, UnfragmentedSendToDeliverPathIsBounded) {
  // The steady-state hot path for a small message: encode once, wrap the
  // bytes (buffer adoption), one single-fragment packet, reassembler
  // passthrough. Budget rationale: ~3 for the encoder vector + Result
  // plumbing, 2 for buffer adoption (control block may be separate), 1 for
  // the packets vector — with slack for library-version noise, but far
  // below what any reintroduced payload copy chain would cost.
  constexpr uint64_t kBudget = 12;

  Reassembler reassembler;
  const Envelope env = SmallEnvelope();
  // Warm up once outside the meter (lazy statics, first-touch pools).
  {
    auto warm = EncodeEnvelope(env, DefaultLimits());
    ASSERT_TRUE(warm.ok());
    auto packets = Fragment(std::move(*warm), 0, 1, 2, 1024);
    auto out = reassembler.Add(std::move(packets[0]), Now());
    ASSERT_TRUE(out.ok());
  }

  uint64_t allocations = 0;
  bool ok = true;
  std::optional<BufferSlice> delivered;
  {
    AllocationMeter meter;
    auto bytes = EncodeEnvelope(env, DefaultLimits());
    ok = bytes.ok();
    if (ok) {
      auto packets =
          Fragment(std::move(*bytes), /*msg_id=*/1, 1, 2, /*max_payload=*/1024);
      auto out = reassembler.Add(std::move(packets[0]), Now());
      ok = out.ok() && out->has_value();
      if (ok) {
        delivered = std::move(**out);
      }
    }
    allocations = meter.Stop();
  }
  ASSERT_TRUE(ok);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_LE(allocations, kBudget)
      << "unfragmented send->deliver allocated " << allocations
      << " times; the zero-copy path budget is " << kBudget;
}

TEST(AllocBudgetTest, FragmentationAddsNoPerFragmentPayloadAllocations) {
  // A 4-fragment message: fragmentation must cost one packets vector, not
  // one payload clone per fragment, and reassembly completes by view.
  const Bytes message(256, 0x5A);
  Reassembler reassembler;
  {  // warm-up
    auto packets = Fragment(BufferSlice(message), 0, 1, 2, 64);
    for (auto& p : packets) {
      ASSERT_TRUE(reassembler.Add(std::move(p), Now()).ok());
    }
  }

  const uint64_t copied_before = BufferStats::BytesCopied();
  uint64_t allocations = 0;
  bool completed = false;
  Bytes fresh = message;
  {
    AllocationMeter meter;
    BufferSlice slice(std::move(fresh));  // adopt a fresh buffer
    auto packets = Fragment(std::move(slice), /*msg_id=*/1, 1, 2, 64);
    for (auto& p : packets) {
      auto out = reassembler.Add(std::move(p), Now());
      if (out.ok() && out->has_value()) {
        completed = true;
      }
    }
    allocations = meter.Stop();
  }
  ASSERT_TRUE(completed);
  // Adoption + packets vector + the reassembler's partial bookkeeping
  // (map node, frags/have vectors). The old subrange-copy path added 4
  // payload clones on top; a regression busts this budget immediately.
  EXPECT_LE(allocations, 14u);
  EXPECT_EQ(BufferStats::BytesCopied() - copied_before, 0u)
      << "fragment + reassemble must not copy payload bytes";
}

PortType PingType() {
  return PortType("alloc_ping",
                  {MessageSig{"ping", {ArgType::Of(TypeTag::kInt)}, {"pong"}}});
}

PortType PongType() {
  return PortType("alloc_pong",
                  {MessageSig{"pong", {ArgType::Of(TypeTag::kInt)}, {}}});
}

TEST(AllocBudgetTest, RemoteCallRoundTripIsPinned) {
  // A steady-state RemoteCall, counted on the calling thread: the reply
  // port, the flow slot, the tracked send (type check, encode, fragment,
  // hand-off to the network), the request's delivery into the server's
  // node (call traffic to an idle shard runs on the calling thread) and
  // the receive of the reply. The server and the reply's delivery run on
  // other threads and are not counted. Pinned at the count measured once
  // the request began to be delivered inline, with the delivery path's
  // per-batch vectors reused and the send's type check no longer copying
  // the PortType and MessageSig: 7. It was 8, without the request's
  // delivery, once the send and recv trace hops stopped formatting their
  // detail strings. Before that it was 10, once the single-port
  // Receive stopped building a vector and the last attempt began handing
  // its arguments to the send instead of copying them. Recycling retired
  // reply ports had brought it to 13; with a fresh Port per call (its
  // PortType, its deque and a type registration rendering two canonical
  // strings) the same round trip made 26.
  constexpr uint64_t kPinned = 7;

  SystemConfig config;
  config.seed = 5;
  config.default_link.latency = Micros(0);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (NodeRuntime* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* client = *a.Create<ShellGuardian>("shell", "client", {});
  Guardian* server = *b.Create<ShellGuardian>("shell", "server", {});
  Port* in = server->AddPort(PingType(), 16, /*provided=*/true);
  const PortName server_port = in->name();
  server->Fork("pong", [server, in] {
    for (;;) {
      auto m = server->Receive(in, Micros::max());
      if (!m.ok()) {
        return;
      }
      (void)server->Send(m->reply_to, "pong", std::move(m->args));
    }
  });

  const PortType pong = PongType();
  RemoteCallOptions options;
  options.timeout = Millis(5000);
  options.max_attempts = 1;
  for (int n = 0; n < 64; ++n) {  // warm-up: flow window, dedup session
    ASSERT_TRUE(RemoteCall(*client, server_port, "ping", {Value::Int(n)},
                           pong, options)
                    .ok());
  }

  constexpr int kSamples = 32;
  uint64_t most = 0;
  int failed = 0;
  for (int n = 0; n < kSamples; ++n) {
    ValueList args = {Value::Int(n)};
    uint64_t allocations = 0;
    bool ok = false;
    {
      AllocationMeter meter;
      auto reply = RemoteCall(*client, server_port, "ping", std::move(args),
                              pong, options);
      ok = reply.ok();
      allocations = meter.Stop();
    }
    failed += ok ? 0 : 1;
    most = std::max(most, allocations);
  }
  EXPECT_EQ(failed, 0);
  EXPECT_LE(most, kPinned)
      << "a steady-state RemoteCall round trip allocated " << most
      << " times on the calling thread; pinned at " << kPinned;
}

TEST(AllocBudgetTest, NoReplySendIsPinned) {
  // A plain no-wait Guardian::Send at link > 0, counted on the sending
  // thread: type check, encode, fragment and hand-off to the network (the
  // packet is heaped for the shard worker, never delivered inline). Pinned
  // at the count measured once the type check stopped copying the
  // registered PortType and MessageSig: 3 — the encode buffer, its
  // adoption into a shared slice, and the packets vector.
  constexpr uint64_t kPinned = 3;

  SystemConfig config;
  config.seed = 6;
  config.default_link.latency = Micros(200);
  System system(config);
  NodeRuntime& a = system.AddNode("a");
  NodeRuntime& b = system.AddNode("b");
  for (NodeRuntime* node : {&a, &b}) {
    node->RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  }
  Guardian* client = *a.Create<ShellGuardian>("shell", "client", {});
  Guardian* server = *b.Create<ShellGuardian>("shell", "server", {});
  const PortName server_port = server->AddPort(PongType(), 1024)->name();
  for (int n = 0; n < 64; ++n) {  // warm-up: trace and link counters
    ASSERT_TRUE(client->Send(server_port, "pong", {Value::Int(n)}).ok());
  }
  system.network().DrainForTesting();

  constexpr int kSamples = 32;
  uint64_t most = 0;
  int failed = 0;
  for (int n = 0; n < kSamples; ++n) {
    ValueList args = {Value::Int(n)};
    uint64_t allocations = 0;
    bool ok = false;
    {
      AllocationMeter meter;
      ok = client->Send(server_port, "pong", std::move(args)).ok();
      allocations = meter.Stop();
    }
    failed += ok ? 0 : 1;
    most = std::max(most, allocations);
  }
  EXPECT_EQ(failed, 0);
  EXPECT_LE(most, kPinned)
      << "a no-reply Send allocated " << most
      << " times on the sending thread; pinned at " << kPinned;
}

TEST(AllocBudgetTest, HopTraceRecordAllocatesNothing) {
  // Once a trace exists, recording a hop is a few stores: the hot points
  // pass raw fields (node ids, fragment numbers, a port name, the command)
  // and nothing is formatted until the trace is read. A saturated trace
  // only counts what it no longer stores.
  TraceBuffer traces;
  const PortName server{2, 2, 0, 0xABCD};
  const PortName client{1, 2, 0, 0xBCDE};
  const std::string put = "put";
  const std::string got = "got";
  traces.Record(7, 1, "send", TraceDetail::CommandTo(put, server));
  traces.Record(8, 1, "send", TraceDetail::CommandTo(put, server));
  for (int i = 1; i < 256; ++i) {  // trace 8 reaches the event cap
    traces.Record(8, 0, "net.delivered", TraceDetail::Link(1, 2, 0, 1));
  }

  auto round_trip = [&](uint64_t trace) {
    traces.Record(trace, 0, "net.delivered", TraceDetail::Link(1, 2, 0, 2));
    traces.Record(trace, 0, "net.delivered", TraceDetail::Link(1, 2, 1, 2));
    traces.Record(trace, 2, "port.enqueued", TraceDetail::Port(server));
    traces.Record(trace, 2, "recv", TraceDetail::CommandOn(put, server));
    traces.Record(trace, 2, "send", TraceDetail::CommandTo(got, client));
    traces.Record(trace, 0, "net.delivered", TraceDetail::Link(2, 1, 0, 1));
    traces.Record(trace, 1, "port.enqueued", TraceDetail::Port(client));
    traces.Record(trace, 1, "recv", TraceDetail::CommandOn(got, client));
  };
  uint64_t live = 0;
  uint64_t saturated = 0;
  {
    AllocationMeter meter;
    round_trip(7);
    live = meter.Stop();
  }
  {
    AllocationMeter meter;
    round_trip(8);
    saturated = meter.Stop();
  }
  EXPECT_EQ(live, 0u) << "8 hop records into a live trace allocated";
  EXPECT_EQ(saturated, 0u) << "8 hop records into a full trace allocated";
  EXPECT_EQ(traces.Events(7).size(), 9u);
  EXPECT_EQ(traces.suppressed_events(), 8u);
  EXPECT_NE(traces.DumpTrace(7).find("recv  got on port(n1/g2.0)"),
            std::string::npos);
}

}  // namespace
}  // namespace guardians
