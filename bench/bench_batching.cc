// Experiment BATCH — batched delivery drains (DESIGN.md §12).
//
// The delivery engine used to pay one shard-lock round-trip, one global
// stats-lock acquisition, one sink call and one receiver condvar wake per
// packet. Batched drains pay each of those once per drained batch instead.
// This bench floods 8 nodes through a 4-shard network with small
// single-fragment messages (the hot-path shape: the per-packet work is
// tiny, so the per-packet *overheads* dominate) and sweeps
// delivery_batch_max. Each node's sink is a faithful miniature of the
// receive path: one mutex held per sink call, per-packet CRC/reassembly/
// decode inside it, then one mailbox push + condvar notify per call with a
// real consumer thread on the other end — the wake that batching amortizes.
//
// Two properties are checked, not just measured, by the custom main:
//  - determinism: loss/corruption/duplication are decided at Send() from
//    one seeded rng, so outcome counts must be bit-identical at every
//    batch size (hard failure if not) — batch_max may only change the
//    cost of the outcomes, never the outcomes;
//  - speedup: delivered messages/sec at batch_max=64 vs batch_max=1 on 4
//    shards is printed and recorded in BENCH_batching.json (hard failure
//    below 1.4x).
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/wire/envelope.h"
#include "src/wire/packet.h"

namespace guardians {
namespace {

constexpr size_t kShards = 4;
constexpr int kNodes = 8;
constexpr int kMessagesPerNode = 25000;
constexpr size_t kBlobBytes = 64;     // small messages: overhead-bound
constexpr uint64_t kMaxPayload = 1024;  // single fragment each

struct RunOutcome {
  uint64_t dropped = 0;
  uint64_t corrupted = 0;
  uint64_t duplicated = 0;
  uint64_t delivered = 0;
  uint64_t decoded = 0;
  double best_msgs_per_sec = 0;
};
std::map<int, RunOutcome>& Outcomes() {
  static std::map<int, RunOutcome> outcomes;
  return outcomes;
}

// The receive side of one node, shaped like NodeRuntime + Port: a batch
// sink that locks once per call, does the real per-packet work (CRC via
// Reassembler::Add, envelope decode), then hands the decoded count to a
// mailbox in one push + one notify — and a consumer thread that drains the
// mailbox, standing in for the guardian process the wake is for.
struct NodeSink {
  std::mutex mu;            // the "reassembler + dedup" lock
  Reassembler reassembler{4096};
  uint64_t decoded = 0;

  std::mutex mailbox_mu;    // the "port" lock
  std::condition_variable mailbox_cv;
  std::deque<uint64_t> mailbox;
  bool closed = false;
  std::thread consumer;

  NodeSink() {
    consumer = std::thread([this] {
      std::unique_lock<std::mutex> lock(mailbox_mu);
      for (;;) {
        mailbox_cv.wait(lock, [this] { return closed || !mailbox.empty(); });
        if (!mailbox.empty()) {
          mailbox.pop_front();
        } else if (closed) {
          return;
        }
      }
    });
  }

  ~NodeSink() {
    {
      std::lock_guard<std::mutex> lock(mailbox_mu);
      closed = true;
    }
    mailbox_cv.notify_all();
    consumer.join();
  }

  void Deliver(std::vector<Packet>&& batch) {
    uint64_t batch_decoded = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      const TimePoint now = Now();
      for (Packet& packet : batch) {
        auto added = reassembler.Add(std::move(packet), now);
        if (!added.ok() || !added->has_value()) {
          continue;  // corrupt fragment (or incomplete, not at this size)
        }
        auto env = DecodeEnvelope(**added, DefaultLimits(), nullptr);
        if (env.ok()) {
          ++batch_decoded;
        }
      }
      decoded += batch_decoded;
    }
    if (batch_decoded > 0) {
      {
        std::lock_guard<std::mutex> lock(mailbox_mu);
        mailbox.push_back(batch_decoded);
      }
      mailbox_cv.notify_all();  // ONE wake per sink call: what batching buys
    }
  }
};

void BM_DeliveryBatching(benchmark::State& state) {
  const size_t batch_max = static_cast<size_t>(state.range(0));

  Envelope proto;
  proto.src_node = kNodes + 1;
  proto.target = PortName{1, 1, 0, 0x1234};
  proto.command = "burst";
  proto.args = {Value::Blob(Bytes(kBlobBytes, 0x5C))};
  auto encoded = EncodeEnvelope(proto, DefaultLimits());
  if (!encoded.ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  // One shared buffer; every Fragment below slices it (refbumps, no clones).
  const BufferSlice message(std::move(*encoded));

  RunOutcome outcome;
  for (auto _ : state) {
    Network network(/*seed=*/4242, nullptr, nullptr, kShards, batch_max);
    // Zero latency: packets are due the moment they are sent, so the
    // workers drain continuously and the engine itself is the bottleneck.
    // A pinch of loss, corruption and duplication keeps the determinism
    // check honest.
    network.SetDefaultLink(
        LinkParams{Micros(0), Micros(0), 0.01, 0.005, 0, 0.01});
    std::vector<NodeId> dsts;
    std::vector<std::unique_ptr<NodeSink>> sinks;
    for (int i = 0; i < kNodes; ++i) {
      const NodeId id = network.AddNode("n" + std::to_string(i));
      auto sink = std::make_unique<NodeSink>();
      NodeSink* raw = sink.get();
      network.SetBatchSink(id, [raw](std::vector<Packet>&& batch) {
        raw->Deliver(std::move(batch));
      });
      dsts.push_back(id);
      sinks.push_back(std::move(sink));
    }
    const NodeId sender = network.AddNode("sender");

    // Pre-build every packet: encoding and fragmentation are send-side
    // work the batching PR does not touch, and at 64-byte payloads they
    // would otherwise dominate the injection loop and mask the engine.
    // The Send() calls — where every wire outcome is rolled — stay inside
    // the timed region, in a fixed order, so determinism is still what is
    // being exercised.
    std::vector<Packet> prebuilt;
    prebuilt.reserve(static_cast<size_t>(kMessagesPerNode) * kNodes);
    uint64_t msg_id = 0;
    for (int m = 0; m < kMessagesPerNode; ++m) {
      for (const NodeId dst : dsts) {
        auto packets = Fragment(message, ++msg_id, sender, dst, kMaxPayload);
        for (auto& packet : packets) {
          prebuilt.push_back(std::move(packet));
        }
      }
    }

    const TimePoint begin = Now();
    for (const Packet& packet : prebuilt) {
      network.Send(packet);  // by-value copy: the prototype stays intact
    }
    network.DrainForTesting();
    const double seconds =
        static_cast<double>(ToMicros(Now() - begin)) / 1e6;
    state.SetIterationTime(seconds);

    const NetworkStats stats = network.stats();
    outcome.dropped = stats.packets_dropped;
    outcome.corrupted = stats.packets_corrupted;
    outcome.duplicated = stats.packets_duplicated;
    outcome.delivered = stats.packets_delivered;
    outcome.decoded = 0;
    for (const auto& sink : sinks) {
      outcome.decoded += sink->decoded;
    }
    const double mps =
        seconds > 0 ? static_cast<double>(outcome.decoded) / seconds : 0;
    if (mps > outcome.best_msgs_per_sec) {
      outcome.best_msgs_per_sec = mps;
    }
  }

  state.counters["batch_max"] = static_cast<double>(batch_max);
  state.counters["delivered"] = static_cast<double>(outcome.delivered);
  state.counters["decoded"] = static_cast<double>(outcome.decoded);
  state.counters["delivered_msgs_per_s"] =
      benchmark::Counter(outcome.best_msgs_per_sec);
  state.SetItemsProcessed(state.iterations() * kMessagesPerNode * kNodes);
  Outcomes()[static_cast<int>(batch_max)] = outcome;
}

// Verifies the two BATCH properties over the collected outcomes and writes
// BENCH_batching.json. Returns 0 on success.
int CheckAndRecord() {
  auto& outcomes = Outcomes();
  if (outcomes.empty()) {
    return 0;  // filtered run (--benchmark_filter): nothing to check
  }
  BenchJson json("BENCH_batching.json");
  int failures = 0;
  const RunOutcome* base = nullptr;
  for (const auto& [batch_max, outcome] : outcomes) {
    json.Record("delivery_batching/batch_max:" + std::to_string(batch_max),
                {{"batch_max", static_cast<double>(batch_max)},
                 {"dropped", static_cast<double>(outcome.dropped)},
                 {"corrupted", static_cast<double>(outcome.corrupted)},
                 {"duplicated", static_cast<double>(outcome.duplicated)},
                 {"delivered", static_cast<double>(outcome.delivered)},
                 {"decoded", static_cast<double>(outcome.decoded)},
                 {"msgs_per_sec", outcome.best_msgs_per_sec}});
    if (base == nullptr) {
      base = &outcome;
      continue;
    }
    if (outcome.dropped != base->dropped ||
        outcome.corrupted != base->corrupted ||
        outcome.duplicated != base->duplicated ||
        outcome.delivered != base->delivered ||
        outcome.decoded != base->decoded) {
      std::fprintf(
          stderr,
          "BATCH FAIL: outcomes at batch_max=%d diverge from baseline "
          "(drop %llu vs %llu, corrupt %llu vs %llu, dup %llu vs %llu, "
          "delivered %llu vs %llu, decoded %llu vs %llu)\n",
          batch_max, static_cast<unsigned long long>(outcome.dropped),
          static_cast<unsigned long long>(base->dropped),
          static_cast<unsigned long long>(outcome.corrupted),
          static_cast<unsigned long long>(base->corrupted),
          static_cast<unsigned long long>(outcome.duplicated),
          static_cast<unsigned long long>(base->duplicated),
          static_cast<unsigned long long>(outcome.delivered),
          static_cast<unsigned long long>(base->delivered),
          static_cast<unsigned long long>(outcome.decoded),
          static_cast<unsigned long long>(base->decoded));
      ++failures;
    }
  }
  if (outcomes.count(1) != 0 && outcomes.count(64) != 0) {
    const double speedup =
        outcomes[64].best_msgs_per_sec / outcomes[1].best_msgs_per_sec;
    json.Record("delivery_batching/speedup_64v1", {{"speedup", speedup}});
    std::printf(
        "BATCH: delivered-messages/sec at batch_max=64 vs 1 on %zu shards "
        "= %.2fx (outcome counts identical across batch sizes)\n",
        kShards, speedup);
    if (speedup < 1.4) {
      std::fprintf(stderr, "BATCH FAIL: speedup %.2fx < 1.4x floor\n",
                   speedup);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace guardians

BENCHMARK(guardians::BM_DeliveryBatching)
    ->ArgNames({"batch_max"})
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return guardians::CheckAndRecord();
}
