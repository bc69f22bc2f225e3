// Shared machinery of the real-path benchmark: the workload interface,
// in-memory span tracing, process resource readings and the snapshot of
// every runtime counter the per-layer metrics are derived from.
#ifndef GUARDIANS_PERFBENCH_SRC_HARNESS_H_
#define GUARDIANS_PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/guardian/system.h"
#include "src/wire/envelope.h"

namespace guardians::perfbench {

// ---------------------------------------------------------------------------
// Output checks. A failed check makes the whole run incorrect; it is never
// merely counted.
class Checks {
 public:
  void Fail(const std::string& what);
  bool ok() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Spans. Recorded only while tracing is on, into a per-thread buffer, and
// written out when the run ends. Spans of one op share `req`, the request
// id the benchmark carries in the message args. `parent` is the enclosing
// span on the same thread; a span caused by a message from another thread
// has parent 0 and is attached to its request's root span when derived.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
};

// While tracing is on, one request in kTraceOneIn is traced (request ids
// whose low bits are a per-client counter), so that the spans of a 20 s
// run stay within a few hundred MB. Every span of a request is recorded or
// none is.
inline constexpr uint64_t kTraceOneIn = 4;

bool TracingOn();
void SetTracing(bool on);
int64_t NowNs();

class ScopedSpan {
 public:
  // Does nothing unless tracing is on and `req` is sampled.
  ScopedSpan(const char* name, uint64_t req, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool on_;
};

// Every span recorded so far, from all threads.
std::vector<Span> CollectSpans();

// The spans of a benchmark server handling request `req`: the wait in
// Receive, and the handling from Receive returning to `handle_end`, with
// the reply Send from `send_start` inside it (0: no reply).
void RecordHandled(uint64_t req, int64_t wait_start, int64_t handle_start,
                   int64_t send_start, int64_t handle_end);

// ---------------------------------------------------------------------------
// Process resources.
struct Rusage {
  double cpu_us = 0;      // user + system
  double steal_s = 0;     // host-wide CPU time the hypervisor withheld
  uint64_t csw = 0;       // voluntary + involuntary context switches
  double peak_rss_mb = 0;
};
Rusage ReadRusage();
int CountThreads();

// ---------------------------------------------------------------------------
// Everything the per-layer metrics read from the runtime, at one instant.
struct Snapshot {
  int64_t at_ns = 0;
  Rusage rusage;
  std::map<std::string, uint64_t> counters;
  uint64_t msgs_delivered = 0;  // sum of NodeStats.messages_delivered
  uint64_t msgs_sent = 0;       // sum of NodeStats.messages_sent
  NetworkStats net;
  uint64_t buffer_copied = 0;
  uint64_t buffer_allocs = 0;
  uint64_t store_appends = 0;
  uint64_t store_bytes = 0;
  std::vector<uint64_t> delivery_latency_buckets;
  std::vector<uint64_t> defer_wait_buckets;
};
// `full` false reads only what the end-to-end metrics need (time, rusage,
// delivered messages), so window boundaries stay cheap.
Snapshot TakeSnapshot(System& system, bool full);

uint64_t CounterDelta(const Snapshot& a, const Snapshot& b,
                      const std::string& name);
// Sum of the deltas of every counter whose name starts with `prefix` and
// ends with `suffix`.
uint64_t CounterDeltaMatching(const Snapshot& a, const Snapshot& b,
                              const std::string& prefix,
                              const std::string& suffix);
// Quantile q of the histogram difference b - a, by linear interpolation
// inside the bucket (upper bounds `bounds`; the overflow bucket reports
// its lower bound).
double HistogramQuantile(const std::vector<uint64_t>& bounds,
                         const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b, double q);

// Exact quantile of unsorted samples (sorts a copy); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// A workload: a world built inside one System, driven by closed-loop
// clients. Every method except RunOp runs on the main thread.
struct WireShape {
  double weight = 1;
  Envelope envelope;
};

// A per-layer metric with its unit and the base its ratio was taken over
// ("journaled 1200 / ops 1200"), printed beside it.
struct LayerMetric {
  double value = 0;
  std::string unit;
  std::string base;
};
using LayerTable = std::map<std::string, LayerMetric>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Construct a fresh System, boot its nodes and guardians, and run the
  // first op. Returns the wall seconds from System construction to the
  // first op's reply. Any previous world is destroyed first.
  virtual double Setup() = 0;
  virtual int clients() const = 0;
  // Ops of the warm-up, across all clients: about 1.5 s on an idle host.
  virtual uint64_t warmup_ops() const = 0;
  // One closed-loop op of client `c`. Returns false when the op failed
  // (non-ok status, failure reply, timeout, miscount); output mismatches
  // are also reported to `checks`.
  virtual bool RunOp(int c) = 0;
  virtual System& system() = 0;
  // Name of the span that covers one whole op (its request's root).
  virtual const char* RootSpan() const = 0;
  // Checks made once every client has stopped.
  virtual void FinalChecks() {}
  // Envelopes shaped like the workload's requests, for the wire probes.
  virtual std::vector<WireShape> Shapes() const = 0;
  // Workload-specific per-layer metrics gathered during the traced phase
  // (`ops` is the traced phase's completed op count).
  virtual void LayerMetrics(uint64_t ops, LayerTable* out) const {
    (void)ops;
    (void)out;
  }
  // Forget per-layer samples (called when the traced phase begins).
  virtual void ResetLayerSamples() {}

  Checks& checks() { return checks_; }

 protected:
  Checks checks_;
};

// Two nodes at link latency 0: "client", with one shell guardian per client,
// and "server", with one `server_type` guardian per client, created by that
// client through the server's primordial guardian.
struct ClientServerWorld {
  std::unique_ptr<System> system;
  std::vector<Guardian*> shells;
  std::vector<PortName> servers;        // each server guardian's port 0
  std::vector<Guardian*> server_guardians;
};
Status BuildClientServer(uint64_t seed, const std::string& server_type,
                         NodeRuntime::Factory factory, int clients,
                         ClientServerWorld* world);

std::unique_ptr<Workload> MakeRpcSmall(uint64_t seed);
std::unique_ptr<Workload> MakeStreamPut(uint64_t seed);
std::unique_ptr<Workload> MakeAirlineWan(uint64_t seed);

// Side-timed layer probes; they feed per-layer metrics only. Each is a
// weighted mean over the shapes. The WAL probe appends records the size of
// the shape's encoded envelope: the runtime journals requests and replies
// of that shape.
struct ProbeResult {
  double encode_us = 0;
  double decode_us = 0;
  double fragment_us = 0;
  double wal_append_us = 0;
  double wal_record_bytes = 0;
};
ProbeResult RunProbes(const std::vector<WireShape>& shapes,
                      const WireLimits& limits);

}  // namespace guardians::perfbench

#endif  // GUARDIANS_PERFBENCH_SRC_HARNESS_H_
