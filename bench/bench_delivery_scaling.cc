// Experiment DELIV — the sharded delivery engine.
//
// §3.4 promises best-effort *unordered* delivery with silent discard, so
// nothing constrains ordering across destinations: the network may deliver
// to different nodes in parallel. This bench sweeps delivery worker count
// on a fixed 8-node burst workload where every delivery does the real
// receive-side work (CRC verify, reassembly, envelope decode) plus a fixed
// per-packet service time — the worker is occupied for the duration of the
// sink call, as it is in the runtime — and measures aggregate delivery
// throughput. With one worker all service time serializes; with N workers
// the shards overlap it, so the measured speedup reflects delivery
// concurrency rather than host core count (CI containers may have 1 core).
//
// Two properties are checked, not just measured, by the custom main:
//  - determinism: drop/corruption decisions are made at Send() time from
//    one seeded rng, so their counts must be bit-identical at every worker
//    count (hard failure if not);
//  - scaling: aggregate delivery throughput at 4 workers vs 1 is printed
//    and recorded in BENCH_delivery.json (hard failure below 1.2x; the
//    acceptance target is 2x on idle multi-core hardware).
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/wire/envelope.h"
#include "src/wire/packet.h"

namespace guardians {
namespace {

constexpr int kNodes = 8;
constexpr int kMessagesPerNode = 60;
constexpr size_t kBlobBytes = 8 * 1024;  // ~9 fragments per message at 1 KB
constexpr uint64_t kMaxPayload = 1024;
// Per-packet receive-side service time, spent inside the sink call while
// the delivery worker is occupied.
constexpr auto kServiceTime = Micros(50);

// Results per worker count, cross-checked after all runs.
struct RunOutcome {
  uint64_t dropped = 0;
  uint64_t corrupted = 0;
  uint64_t delivered = 0;
  uint64_t decoded = 0;
  double best_packets_per_sec = 0;
};
std::map<int, RunOutcome>& Outcomes() {
  static std::map<int, RunOutcome> outcomes;
  return outcomes;
}

// The receive side of one node: what NodeRuntime::DeliverPacket does up to
// the port push — serialize on a per-node lock, reassemble, decode.
struct NodeSink {
  std::mutex mu;
  Reassembler reassembler{4096};
  uint64_t decoded = 0;
};

void BM_DeliveryScaling(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));

  // One canonical message: a command with an 8 KB blob argument.
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
    Network network(/*seed=*/1234, nullptr, nullptr, workers);
    // Zero latency, a pinch of loss and corruption: the engine itself is
    // the bottleneck, and the drop accounting must stay seed-deterministic.
    network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0.01, 0.005, 0});
    std::vector<NodeId> dsts;
    std::vector<std::unique_ptr<NodeSink>> sinks;
    for (int i = 0; i < kNodes; ++i) {
      const NodeId id = network.AddNode("n" + std::to_string(i));
      auto sink = std::make_unique<NodeSink>();
      NodeSink* raw = sink.get();
      network.SetSink(id, [raw](Packet&& packet) {
        std::this_thread::sleep_for(kServiceTime);
        std::lock_guard<std::mutex> lock(raw->mu);
        auto added = raw->reassembler.Add(std::move(packet), Now());
        if (!added.ok() || !added->has_value()) {
          return;  // corrupt fragment or message still incomplete
        }
        auto env = DecodeEnvelope(**added, DefaultLimits(), nullptr);
        if (env.ok()) {
          ++raw->decoded;
        }
      });
      dsts.push_back(id);
      sinks.push_back(std::move(sink));
    }
    const NodeId sender = network.AddNode("sender");

    // The burst: every node gets kMessagesPerNode multi-fragment messages,
    // round-robin so all shards stay busy. Timed manually so the custom
    // main can compute the 4-vs-1 speedup from the same numbers.
    const TimePoint begin = Now();
    uint64_t msg_id = 0;
    for (int m = 0; m < kMessagesPerNode; ++m) {
      for (const NodeId dst : dsts) {
        auto packets = Fragment(message, ++msg_id, sender, dst, kMaxPayload);
        for (auto& packet : packets) {
          network.Send(std::move(packet));
        }
      }
    }
    network.DrainForTesting();
    const double seconds =
        static_cast<double>(ToMicros(Now() - begin)) / 1e6;
    state.SetIterationTime(seconds);

    const NetworkStats stats = network.stats();
    outcome.dropped = stats.packets_dropped;
    outcome.corrupted = stats.packets_corrupted;
    outcome.delivered = stats.packets_delivered;
    outcome.decoded = 0;
    for (const auto& sink : sinks) {
      outcome.decoded += sink->decoded;
    }
    const double pps =
        seconds > 0 ? static_cast<double>(stats.packets_delivered) / seconds
                    : 0;
    if (pps > outcome.best_packets_per_sec) {
      outcome.best_packets_per_sec = pps;
    }
    state.counters["packets"] = static_cast<double>(stats.packets_sent);
  }

  state.counters["workers"] = static_cast<double>(workers);
  state.counters["dropped"] = static_cast<double>(outcome.dropped);
  state.counters["corrupted"] = static_cast<double>(outcome.corrupted);
  state.counters["decoded"] = static_cast<double>(outcome.decoded);
  state.counters["delivered_pkts_per_s"] =
      benchmark::Counter(outcome.best_packets_per_sec);
  state.SetItemsProcessed(state.iterations() * kMessagesPerNode * kNodes);
  Outcomes()[static_cast<int>(workers)] = outcome;
}

// Verifies the two DELIV properties over the collected outcomes and writes
// BENCH_delivery.json. Returns 0 on success.
int CheckAndRecord() {
  auto& outcomes = Outcomes();
  if (outcomes.empty()) {
    return 0;  // filtered run (--benchmark_filter): nothing to check
  }
  BenchJson json("BENCH_delivery.json");
  int failures = 0;
  const RunOutcome* base = nullptr;
  for (const auto& [workers, outcome] : outcomes) {
    json.Record("delivery_scaling/workers:" + std::to_string(workers),
                {{"workers", static_cast<double>(workers)},
                 {"dropped", static_cast<double>(outcome.dropped)},
                 {"corrupted", static_cast<double>(outcome.corrupted)},
                 {"delivered", static_cast<double>(outcome.delivered)},
                 {"decoded", static_cast<double>(outcome.decoded)},
                 {"packets_per_sec", outcome.best_packets_per_sec}});
    if (base == nullptr) {
      base = &outcome;
      continue;
    }
    if (outcome.dropped != base->dropped ||
        outcome.corrupted != base->corrupted ||
        outcome.delivered != base->delivered ||
        outcome.decoded != base->decoded) {
      std::fprintf(stderr,
                   "DELIV FAIL: outcomes at %d workers diverge from "
                   "baseline (drop %llu vs %llu, corrupt %llu vs %llu, "
                   "decoded %llu vs %llu)\n",
                   workers,
                   static_cast<unsigned long long>(outcome.dropped),
                   static_cast<unsigned long long>(base->dropped),
                   static_cast<unsigned long long>(outcome.corrupted),
                   static_cast<unsigned long long>(base->corrupted),
                   static_cast<unsigned long long>(outcome.decoded),
                   static_cast<unsigned long long>(base->decoded));
      ++failures;
    }
  }
  if (outcomes.count(1) != 0 && outcomes.count(4) != 0) {
    const double speedup = outcomes[4].best_packets_per_sec /
                           outcomes[1].best_packets_per_sec;
    json.Record("delivery_scaling/speedup_4v1", {{"speedup", speedup}});
    std::printf("DELIV: aggregate delivery speedup 4 workers vs 1 = %.2fx "
                "(drop/corrupt counts identical across worker counts)\n",
                speedup);
    // The acceptance target is 2x on idle multi-core hardware; fail hard
    // only below a loose floor so loaded CI machines don't flake.
    if (speedup < 1.2) {
      std::fprintf(stderr, "DELIV FAIL: speedup %.2fx < 1.2x floor\n",
                   speedup);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace guardians

BENCHMARK(guardians::BM_DeliveryScaling)
    ->ArgNames({"workers"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return guardians::CheckAndRecord();
}
