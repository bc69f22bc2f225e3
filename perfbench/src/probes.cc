// Side-timed layer probes: the codec, fragmentation and WAL calls timed in
// isolation on inputs shaped like the workload's. They only feed per-layer
// metrics; no end-to-end metric reads them.
#include <cstdio>
#include <string>

#include "perfbench/src/harness.h"
#include "src/store/stable_store.h"
#include "src/store/wal.h"
#include "src/wire/packet.h"

namespace guardians::perfbench {
namespace {

// Runs `body` in rounds until `budget_ns` has passed and returns the mean
// microseconds per call.
template <typename Body>
double TimePerCall(int64_t budget_ns, Body body) {
  constexpr int kRound = 64;
  int64_t calls = 0;
  const int64_t start = NowNs();
  int64_t now = start;
  while (now - start < budget_ns) {
    for (int i = 0; i < kRound; ++i) {
      body();
    }
    calls += kRound;
    now = NowNs();
  }
  return static_cast<double>(now - start) / 1e3 / static_cast<double>(calls);
}

constexpr int64_t kBudgetNs = 100'000'000;  // per probe and shape

// Wal::Append of `record`, timed in rounds on a fresh store each so the
// in-memory log stays small; store set-up is not timed.
double TimeWalAppend(const Bytes& record, uint64_t* sink) {
  constexpr int kRound = 256;
  int64_t timed_ns = 0;
  int64_t calls = 0;
  while (timed_ns < kBudgetNs) {
    StableStore store;
    Wal wal(&store, "perfbench-probe");
    const int64_t start = NowNs();
    for (int i = 0; i < kRound; ++i) {
      *sink += wal.Append(record).ok() ? 1 : 0;
    }
    timed_ns += NowNs() - start;
    calls += kRound;
  }
  return static_cast<double>(timed_ns) / 1e3 / static_cast<double>(calls);
}

}  // namespace

ProbeResult RunProbes(const std::vector<WireShape>& shapes,
                      const WireLimits& limits) {
  ProbeResult result;
  double weight_sum = 0;
  uint64_t sink = 0;
  for (const WireShape& shape : shapes) {
    auto encoded = EncodeEnvelope(shape.envelope, limits);
    if (!encoded.ok()) {
      std::fprintf(stderr, "probe: encode failed: %s\n",
                   encoded.status().ToString().c_str());
      continue;
    }
    const Bytes bytes = *encoded;
    const double encode_us = TimePerCall(kBudgetNs, [&] {
      auto e = EncodeEnvelope(shape.envelope, limits);
      sink += e.ok() ? e->size() : 0;
    });
    const double decode_us = TimePerCall(kBudgetNs, [&] {
      auto d = DecodeEnvelope(bytes, limits, nullptr);
      sink += d.ok() ? d->args.size() : 0;
    });
    const Buffer buffer = Buffer::Adopt(Bytes(bytes));
    const double fragment_us = TimePerCall(kBudgetNs, [&] {
      auto packets = Fragment(BufferSlice(buffer), 1, 1, 2,
                              limits.max_packet_payload, 1, 1);
      sink += packets.size();
    });
    const double wal_us = TimeWalAppend(bytes, &sink);
    result.encode_us += shape.weight * encode_us;
    result.decode_us += shape.weight * decode_us;
    result.fragment_us += shape.weight * fragment_us;
    result.wal_append_us += shape.weight * wal_us;
    result.wal_record_bytes +=
        shape.weight * static_cast<double>(bytes.size());
    weight_sum += shape.weight;
  }
  if (weight_sum > 0) {
    result.encode_us /= weight_sum;
    result.decode_us /= weight_sum;
    result.fragment_us /= weight_sum;
    result.wal_append_us /= weight_sum;
    result.wal_record_bytes /= weight_sum;
  }
  if (sink == 0) {
    std::fprintf(stderr, "probe: no probe call succeeded\n");
  }
  return result;
}

}  // namespace guardians::perfbench
