#include "perfbench/src/harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/common/buffer.h"
#include "src/sendprims/remote_call.h"

namespace guardians::perfbench {

// --- Checks ------------------------------------------------------------------

void Checks::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the first few; one wrong answer already fails the run.
  if (failures_.size() < 16) {
    failures_.push_back(what);
  }
}

bool Checks::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty();
}

std::vector<std::string> Checks::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

// --- Spans -------------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span_id{1};

// Per-thread span buffers. Runtime threads (guardian processes, delivery
// workers) come and go, so each buffer is owned by the global list, not by
// its thread, and outlives it.
struct SpanBuffers {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

SpanBuffers& Buffers() {
  static SpanBuffers* buffers = new SpanBuffers();
  return *buffers;
}

std::vector<Span>& ThreadBuffer() {
  thread_local std::vector<Span>* buffer = [] {
    SpanBuffers& all = Buffers();
    std::lock_guard<std::mutex> lock(all.mu);
    all.buffers.push_back(std::make_unique<std::vector<Span>>());
    all.buffers.back()->reserve(1 << 14);
    return all.buffers.back().get();
  }();
  return *buffer;
}

}  // namespace

bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

bool Traced(uint64_t req) { return TracingOn() && req % kTraceOneIn == 0; }

uint64_t NewSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

// For spans whose request id is known only at their end.
void RecordSpan(const Span& span) {
  if (Traced(span.req)) {
    ThreadBuffer().push_back(span);
  }
}

}  // namespace

ScopedSpan::ScopedSpan(const char* name, uint64_t req, uint64_t parent)
    : on_(Traced(req)) {
  if (!on_) {
    return;
  }
  span_.name = name;
  span_.req = req;
  span_.parent = parent;
  span_.id = NewSpanId();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) {
    return;
  }
  span_.end_ns = NowNs();
  ThreadBuffer().push_back(span_);
}

std::vector<Span> CollectSpans() {
  SpanBuffers& all = Buffers();
  std::lock_guard<std::mutex> lock(all.mu);
  std::vector<Span> spans;
  for (const auto& buffer : all.buffers) {
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  }
  return spans;
}

void RecordHandled(uint64_t req, int64_t wait_start, int64_t handle_start,
                   int64_t send_start, int64_t handle_end) {
  if (!Traced(req)) {
    return;
  }
  const uint64_t handle_id = NewSpanId();
  RecordSpan({"guardian.receive_wait", wait_start, handle_start, NewSpanId(),
              0, req});
  RecordSpan({"guardian.handle", handle_start, handle_end, handle_id, 0, req});
  if (send_start != 0) {
    RecordSpan({"guardian.send", send_start, handle_end, NewSpanId(),
                handle_id, req});
  }
}

// --- Client/server world ---------------------------------------------------------

Status BuildClientServer(uint64_t seed, const std::string& server_type,
                         NodeRuntime::Factory factory, int clients,
                         ClientServerWorld* world) {
  SystemConfig config;
  config.seed = seed;
  config.default_link.latency = Micros(0);
  world->system = std::make_unique<System>(config);
  NodeRuntime& client = world->system->AddNode("client");
  NodeRuntime& server = world->system->AddNode("server");
  server.RegisterGuardianType(server_type, std::move(factory));
  client.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
  for (int c = 0; c < clients; ++c) {
    const std::string index = std::to_string(c);
    const std::string server_name = server_type + "-" + index;
    auto shell = client.Create<ShellGuardian>("shell", "client-" + index, {});
    if (!shell.ok()) {
      return shell.status();
    }
    world->shells.push_back(*shell);
    auto ports = CreateGuardianAt(**shell, server.PrimordialPort(),
                                  server_type, server_name, {},
                                  /*persistent=*/false, Millis(5000));
    if (!ports.ok()) {
      return ports.status();
    }
    Guardian* guardian = server.FindGuardianByName(server_name);
    if (ports->size() != 1 || guardian == nullptr) {
      return Status(Code::kInternal, "remote creation of " + server_type +
                                         " gave no guardian");
    }
    world->servers.push_back((*ports)[0]);
    world->server_guardians.push_back(guardian);
  }
  return OkStatus();
}

// --- Process resources ---------------------------------------------------------

Rusage ReadRusage() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Rusage out;
  out.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1e6 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  out.csw = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  // /proc/stat "cpu" line: user nice system idle iowait irq softirq steal.
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      out.steal_s = static_cast<double>(v[7]) /
                    static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    std::fclose(f);
  }
  return out;
}

int CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  int count = 0;
  while (struct dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++count;
    }
  }
  closedir(dir);
  return count;
}

// --- Snapshots ------------------------------------------------------------------

Snapshot TakeSnapshot(System& system, bool full) {
  Snapshot snap;
  snap.at_ns = NowNs();
  snap.rusage = ReadRusage();
  const size_t nodes = system.node_count();
  for (size_t i = 0; i < nodes; ++i) {
    NodeRuntime& node = system.node(static_cast<NodeId>(i + 1));
    const NodeStats stats = node.stats();
    snap.msgs_delivered += stats.messages_delivered;
    snap.msgs_sent += stats.messages_sent;
    if (full) {
      snap.store_appends += node.stable_store().append_count();
      snap.store_bytes += node.stable_store().TotalBytes();
    }
  }
  if (!full) {
    return snap;
  }
  MetricsRegistry& metrics = system.metrics();
  snap.counters = metrics.CounterSnapshot();
  snap.net = system.network().stats();
  snap.buffer_copied = BufferStats::BytesCopied();
  snap.buffer_allocs = BufferStats::Allocs();
  snap.delivery_latency_buckets =
      metrics.histogram("net.delivery_latency_us")->BucketCounts();
  snap.defer_wait_buckets =
      metrics.histogram("flow.defer_wait_us")->BucketCounts();
  return snap;
}

uint64_t CounterDelta(const Snapshot& a, const Snapshot& b,
                      const std::string& name) {
  auto value = [&name](const Snapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(b) - value(a);
}

uint64_t CounterDeltaMatching(const Snapshot& a, const Snapshot& b,
                              const std::string& prefix,
                              const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : b.counters) {
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    auto before = a.counters.find(name);
    total += value - (before == a.counters.end() ? 0 : before->second);
  }
  return total;
}

double HistogramQuantile(const std::vector<uint64_t>& bounds,
                         const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b, double q) {
  if (b.size() != bounds.size() + 1) {
    return 0;
  }
  std::vector<uint64_t> diff(b.size());
  uint64_t total = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    diff[i] = b[i] - (i < a.size() ? a[i] : 0);
    total += diff[i];
  }
  if (total == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < diff.size(); ++i) {
    const double next = seen + static_cast<double>(diff[i]);
    if (next >= rank && diff[i] > 0) {
      const double lo = i == 0 ? 0 : static_cast<double>(bounds[i - 1]);
      if (i == bounds.size()) {
        return lo;
      }
      const double hi = static_cast<double>(bounds[i]);
      return lo + (hi - lo) * (rank - seen) / static_cast<double>(diff[i]);
    }
    seen = next;
  }
  return static_cast<double>(bounds.back());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  const size_t k = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

}  // namespace guardians::perfbench
