// perfbench: the real-path benchmark of the guardian runtime.
//
//   perfbench --workload <rpc_small|stream_put|airline_wan> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Each workload builds its world inside one System with the default
// SystemConfig (4 delivery shards, batch 64, flow control on); only the
// workload inputs — link latency, payload sizes, client counts and scripts —
// differ, and they are generated from --seed. Clients run closed loops: each
// waits for its op to complete before starting the next.
//
// A run sets up the world many times (setup_s), keeps the last one, warms it
// up with a fixed amount of work, and then measures for --seconds in 1 s
// windows.
// With --trace 0 the whole measured phase is untraced and the end-to-end
// metrics are printed. With --trace 1 the first half is untraced and the
// second half traced; the per-layer metrics come from the traced half, and
// the tracing overhead is the traced ops_per_s against the untraced half.
//
// Every line but the last is for people; the last line is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A failed output check prints correct=false and exits 1.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/src/harness.h"

namespace guardians::perfbench {
namespace {

// Set-up runs back to back in 15 slots of 100 ms (at least one set-up
// each), so that set-up time, too, can be taken at zero host steal.
constexpr int kSetupSlots = 15;
constexpr int64_t kSetupSlotNs = 100'000'000;
// The warm-up ends after the workload's warmup_ops() ops, or this long.
constexpr int64_t kWarmupCapNs = 20'000'000'000;
constexpr int64_t kWindowNs = 1'000'000'000;
constexpr size_t kSpansWritten = 5000;
// A failed op misses every latency limit.
constexpr double kFailedLatencyUs = 1e12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        return false;
      }
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 600) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "rpc_small") {
    return MakeRpcSmall(args.seed);
  }
  if (args.workload == "stream_put") {
    return MakeStreamPut(args.seed);
  }
  if (args.workload == "airline_wan") {
    return MakeAirlineWan(args.seed);
  }
  return nullptr;
}

// --- Closed-loop clients --------------------------------------------------

struct OpSample {
  int64_t end_ns = 0;
  double latency_us = 0;
  bool ok = false;
};

class Clients {
 public:
  explicit Clients(Workload& workload) : workload_(workload) {
    samples_.resize(static_cast<size_t>(workload.clients()));
    for (int c = 0; c < workload.clients(); ++c) {
      threads_.emplace_back([this, c] { Loop(c); });
    }
  }
  ~Clients() { Stop(); }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  void Stop() {
    stop_ = true;
    for (auto& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
  }

  // Ops finished so far, by every client.
  uint64_t done() const { return done_.load(std::memory_order_relaxed); }

  // Ops that completed in [from, to), across every client. Only valid
  // after Stop().
  std::vector<OpSample> CompletedIn(int64_t from, int64_t to) const {
    std::vector<OpSample> out;
    for (const auto& samples : samples_) {
      for (const OpSample& s : samples) {
        if (s.end_ns >= from && s.end_ns < to) {
          out.push_back(s);
        }
      }
    }
    return out;
  }

 private:
  void Loop(int c) {
    auto& samples = samples_[static_cast<size_t>(c)];
    samples.reserve(1 << 18);
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t start = NowNs();
      const bool ok = workload_.RunOp(c);
      const int64_t end = NowNs();
      samples.push_back(
          {end, static_cast<double>(end - start) / 1e3, ok});
      done_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Workload& workload_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> done_{0};
  std::vector<std::vector<OpSample>> samples_;  // per client
  std::vector<std::thread> threads_;             // last: uses the above
};

void SleepUntilNs(int64_t at_ns) {
  const int64_t now = NowNs();
  if (at_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(at_ns - now));
  }
}

// A measured phase: light snapshots at every 1 s window boundary, full
// ones at both ends.
struct Phase {
  Snapshot begin;
  Snapshot end;
  std::vector<Snapshot> bounds;  // windows + 1 entries
  int threads = 0;               // sampled mid-phase
};

Phase Measure(System& system, int windows) {
  Phase phase;
  phase.begin = TakeSnapshot(system, /*full=*/true);
  phase.bounds.push_back(phase.begin);
  for (int w = 0; w < windows; ++w) {
    SleepUntilNs(phase.begin.at_ns + (w + 1) * kWindowNs);
    phase.bounds.push_back(TakeSnapshot(system, /*full=*/false));
    if (w == windows / 2) {
      phase.threads = CountThreads();
    }
  }
  phase.end = TakeSnapshot(system, /*full=*/true);
  phase.bounds.back() = phase.end;
  return phase;
}

// --- End-to-end metrics ------------------------------------------------------

struct EndToEnd {
  double ops_per_s = 0;
  double msgs_per_s = 0;
  double cpu_us_per_op = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  size_t samples = 0;
  double seconds = 0;
  size_t windows = 0;
  std::vector<double> window_ops_per_s;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_steal;  // CPUs withheld by the host
};

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

// A slope is fitted only over this many windows whose steal spans this
// many CPUs; fewer, or a narrower span, give it no lever arm.
constexpr size_t kMinFitWindows = 8;
constexpr double kMinStealRange = 0.2;

// The value a per-window metric takes when the host withholds no CPU. On a
// shared host other tenants withhold whole CPUs for seconds to minutes at a
// time (steal in /proc/stat), and throughput falls and latency rises with
// the CPU withheld; that is no property of the program. Fits the windows'
// values against their steal by least squares, keeps the slope only if it
// has the sign interference gives (`sign` +1: the metric grows with steal,
// -1: it shrinks) and the fit has a lever arm (kMinFitWindows,
// kMinStealRange), and returns the median of the values moved along that
// slope to zero steal. Without steal, or when the fit would give a value
// that is not positive, that is the plain median of the windows.
double AtZeroSteal(const std::vector<double>& steal,
                   const std::vector<double>& values, double sign) {
  const size_t n = values.size();
  if (n == 0) {
    return 0;
  }
  double mean_x = 0;
  double mean_y = 0;
  double lo = steal[0];
  double hi = steal[0];
  for (size_t i = 0; i < n; ++i) {
    mean_x += steal[i] / static_cast<double>(n);
    mean_y += values[i] / static_cast<double>(n);
    lo = std::min(lo, steal[i]);
    hi = std::max(hi, steal[i]);
  }
  double sxx = 0;
  double sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxx += (steal[i] - mean_x) * (steal[i] - mean_x);
    sxy += (steal[i] - mean_x) * (values[i] - mean_y);
  }
  double slope = n >= kMinFitWindows && hi - lo >= kMinStealRange && sxx > 0
                     ? sxy / sxx
                     : 0;
  if (slope * sign < 0) {
    slope = 0;
  }
  std::vector<double> at_zero(n);
  for (size_t i = 0; i < n; ++i) {
    at_zero[i] = values[i] - slope * steal[i];
  }
  const double fitted = Median(std::move(at_zero));
  return fitted > 0 ? fitted : Median(values);
}

// AtZeroSteal for a time that barely moves until steal is heavy, so that a
// line fitted where every point is heavy overshoots: it is held at the
// lowest value observed.
double LatencyAtZeroSteal(const std::vector<double>& steal,
                          const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  return std::max(AtZeroSteal(steal, values, +1),
                  *std::min_element(values.begin(), values.end()));
}

// The end-to-end values of one measured phase: the rates, CPU per op and
// p50 are AtZeroSteal over its 1 s windows; a window's latency quantiles are
// over the ops that completed in it. p99 grows with steal far from
// linearly, so it is the median over the half of the windows with the least
// steal. Failures count over every window.
EndToEnd Summarize(const Phase& phase, const Clients& clients) {
  EndToEnd e;
  e.windows = phase.bounds.size() - 1;
  std::vector<double> steal, ops_rates, msg_rates;
  std::vector<double> op_steal, cpu_per_op, p50s;
  for (size_t w = 0; w < e.windows; ++w) {
    const Snapshot& a = phase.bounds[w];
    const Snapshot& b = phase.bounds[w + 1];
    const double dt = static_cast<double>(b.at_ns - a.at_ns) / 1e9;
    const double withheld = (b.rusage.steal_s - a.rusage.steal_s) / dt;
    uint64_t ok = 0;
    std::vector<double> latencies;
    for (const OpSample& s : clients.CompletedIn(a.at_ns, b.at_ns)) {
      ++e.attempted;
      if (s.ok) {
        ++ok;
      } else {
        ++e.failed;
      }
      latencies.push_back(s.ok ? s.latency_us : kFailedLatencyUs);
    }
    e.completed += ok;
    e.samples += latencies.size();
    steal.push_back(withheld);
    ops_rates.push_back(static_cast<double>(ok) / dt);
    msg_rates.push_back(
        static_cast<double>(b.msgs_delivered - a.msgs_delivered) / dt);
    e.window_p99_us.push_back(Quantile(latencies, 0.99));
    if (ok > 0) {
      op_steal.push_back(withheld);
      cpu_per_op.push_back((b.rusage.cpu_us - a.rusage.cpu_us) /
                           static_cast<double>(ok));
      p50s.push_back(Quantile(latencies, 0.50));
    }
  }
  e.window_ops_per_s = ops_rates;
  e.window_steal = steal;
  e.ops_per_s = AtZeroSteal(steal, ops_rates, -1);
  e.msgs_per_s = AtZeroSteal(steal, msg_rates, -1);
  e.cpu_us_per_op = AtZeroSteal(op_steal, cpu_per_op, +1);
  e.window_p50_us = p50s;
  e.p50_us = LatencyAtZeroSteal(op_steal, p50s);

  std::vector<size_t> order(e.windows);
  for (size_t w = 0; w < e.windows; ++w) {
    order[w] = w;
  }
  std::stable_sort(order.begin(), order.end(), [&steal](size_t x, size_t y) {
    return steal[x] < steal[y];
  });
  std::vector<double> quiet_p99;
  for (size_t i = 0; i < (e.windows + 1) / 2; ++i) {
    quiet_p99.push_back(e.window_p99_us[order[i]]);
  }
  e.p99_us = Median(quiet_p99);
  e.seconds = static_cast<double>(phase.end.at_ns - phase.begin.at_ns) / 1e9;
  return e;
}

// --- Spans --------------------------------------------------------------------

struct SpanStats {
  std::unordered_map<std::string, std::vector<double>> durations_us;
  std::unordered_map<std::string, double> self_us;  // summed per name
  std::vector<double> transit_us;
  size_t roots = 0;
  size_t count = 0;
};

// Resolves cross-thread parents (a span with no parent, other than a root
// or a receive wait, belongs to its request's root span), computes each
// span's self time (its duration minus the union of its children's
// intervals) and the transit time of every call (the call span minus the
// server's handle span of the same request: the last handle that starts
// inside the call, which for a window is the flush). Writes the spans of
// the first traced ops as CSV when `out` is non-empty.
SpanStats DeriveSpans(const char* root, const std::string& out) {
  std::vector<Span> spans = CollectSpans();
  SpanStats stats;
  stats.count = spans.size();
  std::unordered_map<uint64_t, size_t> root_by_req;
  std::unordered_map<uint64_t, std::vector<size_t>> handles_by_req;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0 && std::strcmp(spans[i].name, root) == 0) {
      root_by_req[spans[i].req] = i;
    }
    if (std::strcmp(spans[i].name, "guardian.handle") == 0) {
      handles_by_req[spans[i].req].push_back(i);
    }
  }
  stats.roots = root_by_req.size();
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    if (s.parent == 0 && std::strcmp(s.name, root) != 0 &&
        std::strcmp(s.name, "guardian.receive_wait") != 0) {
      auto it = root_by_req.find(s.req);
      if (it != root_by_req.end()) {
        s.parent = spans[it->second].id;
      }
    }
    if (s.parent != 0) {
      children[s.parent].push_back(i);
    }
  }
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    stats.durations_us[s.name].push_back(dur);
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const int64_t lo = std::max(s.start_ns, spans[c].start_ns);
        const int64_t hi = std::min(s.end_ns, spans[c].end_ns);
        if (lo < hi) {
          covered.emplace_back(lo, hi);
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered_ns += hi - from;
        reach = hi;
      }
    }
    stats.self_us[s.name] += dur - static_cast<double>(covered_ns) / 1e3;
    if (std::strcmp(s.name, "sendprims.call") == 0) {
      const Span* handle = nullptr;
      for (size_t h : handles_by_req[s.req]) {
        const Span& cand = spans[h];
        if (cand.start_ns >= s.start_ns && cand.end_ns <= s.end_ns &&
            (handle == nullptr || cand.start_ns > handle->start_ns)) {
          handle = &cand;
        }
      }
      if (handle != nullptr) {
        stats.transit_us.push_back(
            dur - static_cast<double>(handle->end_ns - handle->start_ns) /
                      1e3);
      }
    }
  }
  if (!out.empty()) {
    // The spans of the first kSpansWritten traced ops, so the file stays
    // a few MB whatever the throughput.
    std::vector<std::pair<int64_t, uint64_t>> roots;
    for (const auto& [req, i] : root_by_req) {
      roots.emplace_back(spans[i].start_ns, req);
    }
    std::sort(roots.begin(), roots.end());
    roots.resize(std::min(roots.size(), kSpansWritten));
    std::unordered_map<uint64_t, bool> written;
    for (const auto& [start, req] : roots) {
      written[req] = true;
    }
    const int64_t origin = roots.empty() ? 0 : roots[0].first;
    std::ofstream csv(out, std::ios::trunc);
    csv << "name,start_ns,end_ns,id,parent,req\n";
    for (const Span& s : spans) {
      if (written.count(s.req) > 0) {
        csv << s.name << ',' << (s.start_ns - origin) << ','
            << (s.end_ns - origin) << ',' << s.id << ',' << s.parent << ','
            << s.req << '\n';
      }
    }
    if (!csv) {
      std::fprintf(stderr, "could not write spans to %s\n", out.c_str());
    }
  }
  return stats;
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// One number formatted by `format`, which must take exactly one double.
std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// The end-to-end metrics of BENCHMARK.json, in its order.
std::vector<Metric> EndToEndMetrics(const EndToEnd& e, double setup_s,
                                    size_t setups, double peak_rss_mb,
                                    uint64_t warmup_ops) {
  const std::string fit = "at zero host steal, from " +
                          std::to_string(e.windows) + " 1 s windows";
  return {
      {"setup_s", setup_s, "s",
       "at zero host steal, from the medians of " +
           std::to_string(kSetupSlots) + " 100 ms slots; " +
           std::to_string(setups) + " set-ups"},
      {"ops_per_s", e.ops_per_s, "1/s",
       fit + "; " + std::to_string(e.completed) + " ops in " +
           Fmt("%.2f s", e.seconds)},
      {"msgs_per_s", e.msgs_per_s, "1/s", fit},
      {"op_p50_us", e.p50_us, "us",
       fit + "; " + std::to_string(e.samples) + " samples"},
      {"cpu_us_per_op", e.cpu_us_per_op, "us", fit},
      {"peak_rss_mb", peak_rss_mb, "MB",
       "getrusage maxrss after set-up and " + std::to_string(warmup_ops) +
           " warm-up ops; " + Fmt("%.0f MB", ReadRusage().peak_rss_mb) +
           " at the end of the run"},
  };
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);

  std::vector<double> slot_steal, slot_setup_s;
  size_t setups = 0;
  for (int k = 0; k < kSetupSlots; ++k) {
    const Rusage before = ReadRusage();
    const int64_t start = NowNs();
    std::vector<double> times;
    do {
      const double s = workload->Setup();
      if (s < 0) {
        for (const auto& f : workload->checks().failures()) {
          std::fprintf(stderr, "setup failed: %s\n", f.c_str());
        }
        return 1;
      }
      times.push_back(s);
    } while (NowNs() - start < kSetupSlotNs);
    const double dt = static_cast<double>(NowNs() - start) / 1e9;
    slot_steal.push_back((ReadRusage().steal_s - before.steal_s) / dt);
    slot_setup_s.push_back(Median(times));
    setups += times.size();
  }
  const double setup_s = LatencyAtZeroSteal(slot_steal, slot_setup_s);
  System& system = workload->system();

  const int untraced_windows =
      args.trace ? std::max(1, args.seconds / 2) : args.seconds;
  const int traced_windows =
      args.trace ? std::max(1, args.seconds - untraced_windows) : 0;

  // Warm-up: a fixed amount of work, outside every count. Memory is read
  // at its end, so peak_rss_mb measures the same work on every run, however
  // fast the host let it run.
  Clients clients(*workload);
  const int64_t warmup_start = NowNs();
  while (clients.done() < workload->warmup_ops() &&
         NowNs() - warmup_start < kWarmupCapNs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t warmup_ops = clients.done();
  const double peak_rss_mb = ReadRusage().peak_rss_mb;
  const Phase untraced = Measure(system, untraced_windows);
  Phase traced;
  if (args.trace) {
    workload->ResetLayerSamples();
    SetTracing(true);
    traced = Measure(system, traced_windows);
    SetTracing(false);
  }
  clients.Stop();
  workload->FinalChecks();

  const EndToEnd e = Summarize(untraced, clients);
  std::vector<Metric> e2e =
      EndToEndMetrics(e, setup_s, setups, peak_rss_mb, warmup_ops);
  // Printed, but not JSON end-to-end metrics: failed_frac is 0 on a healthy
  // tree, and p99 swings with host steal beyond any usable bound.
  std::vector<Metric> table = e2e;
  table.push_back({"op_p99_us", e.p99_us, "us",
                   "median over the quieter half of the windows"});
  table.push_back({"failed_frac", Ratio(static_cast<double>(e.failed),
                                        static_cast<double>(e.attempted)),
                   "ratio",
                   "failed " + std::to_string(e.failed) + " / attempted " +
                       std::to_string(e.attempted)});
  PrintTable(args.trace ? "end-to-end (untraced half of this run):"
                        : "end-to-end:",
             table);
  std::printf("  ops/s by window:");
  for (double r : e.window_ops_per_s) {
    std::printf(" %.0f", r);
  }
  std::printf("\n  op p50 us by window:");
  for (double r : e.window_p50_us) {
    std::printf(" %.1f", r);
  }
  std::printf("\n  op p99 us by window:");
  for (double r : e.window_p99_us) {
    std::printf(" %.0f", r);
  }
  std::printf("\n  CPUs withheld by the host (steal) by window:");
  for (double r : e.window_steal) {
    std::printf(" %.2f", r);
  }
  std::printf("\n");

  uint64_t attempted = e.attempted;
  uint64_t failed = e.failed;
  std::vector<Metric> out = e2e;
  if (args.trace) {
    const EndToEnd t = Summarize(traced, clients);
    attempted += t.attempted;
    failed += t.failed;
    const Snapshot& a = traced.begin;
    const Snapshot& b = traced.end;
    const double ops = static_cast<double>(t.completed);
    const std::string per_op = " / ops " + std::to_string(t.completed);
    const double msgs = static_cast<double>(b.msgs_sent - a.msgs_sent);
    const std::string per_msg =
        " / msgs sent " + std::to_string(b.msgs_sent - a.msgs_sent);
    auto count = [&](const char* name) {
      return static_cast<double>(CounterDelta(a, b, name));
    };
    auto with_base = [](const char* what, double v, const std::string& base) {
      return std::string(what) + " " + Fmt("%.0f", v) + base;
    };

    const SpanStats spans =
        DeriveSpans(workload->RootSpan(), args.spans_out);
    auto span_q = [&](const char* name, double q) {
      auto it = spans.durations_us.find(name);
      return it == spans.durations_us.end() ? 0.0 : Quantile(it->second, q);
    };
    auto span_n = [&](const char* name) {
      auto it = spans.durations_us.find(name);
      return std::to_string(it == spans.durations_us.end()
                                ? 0
                                : it->second.size()) +
             " spans";
    };
    auto self_per_op = [&](const char* name) {
      auto it = spans.self_us.find(name);
      return it == spans.self_us.end()
                 ? 0.0
                 : it->second / static_cast<double>(
                                    std::max<size_t>(spans.roots, 1));
    };

    const double appends = static_cast<double>(b.store_appends -
                                               a.store_appends);
    const double store_bytes = static_cast<double>(b.store_bytes) -
                               static_cast<double>(a.store_bytes);
    const ProbeResult probe = RunProbes(workload->Shapes(), system.limits());

    const double batch_packets = static_cast<double>(
        CounterDeltaMatching(a, b, "net.shard.", ".batch.packets"));
    const double batch_drains = static_cast<double>(
        CounterDeltaMatching(a, b, "net.shard.", ".batch.drains"));
    const std::vector<uint64_t> latency_bounds =
        system.metrics().histogram("net.delivery_latency_us")->bounds();
    const std::vector<uint64_t> defer_bounds =
        system.metrics().histogram("flow.defer_wait_us")->bounds();

    LayerTable layer;
    const std::string na = "not exercised by this workload";
    layer["guardian.port_depth.max"] = {0, "count", na};
    layer["guardian.port_depth.mean"] = {0, "count", na};
    layer["airline.retries_per_txn"] = {0, "count", na};
    workload->LayerMetrics(t.completed, &layer);

    layer["sendprims.call_us.p50"] = {span_q("sendprims.call", 0.5), "us",
                                      span_n("sendprims.call")};
    layer["sendprims.call_us.p99"] = {span_q("sendprims.call", 0.99), "us",
                                      span_n("sendprims.call")};
    layer["sendprims.attempts_per_call"] = {
        Ratio(count("sendprims.call.attempts"), count("sendprims.call.calls")),
        "count",
        with_base("attempts", count("sendprims.call.attempts"),
                  " / calls " + Fmt("%.0f", count("sendprims.call.calls")))};
    layer["runtime.transit_us.p50"] = {
        Quantile(spans.transit_us, 0.5), "us",
        std::to_string(spans.transit_us.size()) + " call/handle pairs"};
    layer["runtime.transit_us.p99"] = {
        Quantile(spans.transit_us, 0.99), "us",
        std::to_string(spans.transit_us.size()) + " call/handle pairs"};
    layer["guardian.handle_us.p50"] = {span_q("guardian.handle", 0.5), "us",
                                       span_n("guardian.handle")};
    layer["guardian.receive_wait_us.p50"] = {
        span_q("guardian.receive_wait", 0.5), "us",
        span_n("guardian.receive_wait")};
    layer["guardian.send_us.p50"] = {span_q("guardian.send", 0.5), "us",
                                     span_n("guardian.send")};
    layer["guardian.send_us.p99"] = {span_q("guardian.send", 0.99), "us",
                                     span_n("guardian.send")};
    layer["guardian.dedup_journaled_per_op"] = {
        Ratio(count("node.dedup.journaled"), ops), "count",
        with_base("journaled", count("node.dedup.journaled"), per_op)};
    layer["wire.encode_us"] = {probe.encode_us, "us",
                               "side-timed on the workload's envelopes"};
    layer["wire.decode_us"] = {probe.decode_us, "us",
                               "side-timed on the workload's envelopes"};
    layer["wire.fragment_us"] = {probe.fragment_us, "us",
                                 "side-timed on the workload's envelopes"};
    layer["wire.packets_per_msg"] = {
        Ratio(static_cast<double>(b.net.packets_sent - a.net.packets_sent),
              msgs),
        "count",
        with_base("packets",
                  static_cast<double>(b.net.packets_sent - a.net.packets_sent),
                  per_msg)};
    layer["wire.bytes_per_msg"] = {
        Ratio(static_cast<double>(b.net.bytes_sent - a.net.bytes_sent), msgs),
        "bytes",
        with_base("bytes",
                  static_cast<double>(b.net.bytes_sent - a.net.bytes_sent),
                  per_msg)};
    layer["common.buffer_allocs_per_msg"] = {
        Ratio(static_cast<double>(b.buffer_allocs - a.buffer_allocs), msgs),
        "count",
        with_base("allocs",
                  static_cast<double>(b.buffer_allocs - a.buffer_allocs),
                  per_msg)};
    layer["common.buffer_bytes_copied_per_msg"] = {
        Ratio(static_cast<double>(b.buffer_copied - a.buffer_copied), msgs),
        "bytes",
        with_base("bytes copied",
                  static_cast<double>(b.buffer_copied - a.buffer_copied),
                  per_msg)};
    layer["net.batch_mean"] = {
        Ratio(batch_packets, batch_drains), "count",
        with_base("packets", batch_packets,
                  " / drains " + Fmt("%.0f", batch_drains))};
    layer["net.delivery_latency_us.p50"] = {
        HistogramQuantile(latency_bounds, a.delivery_latency_buckets,
                          b.delivery_latency_buckets, 0.5),
        "us", "from the net.delivery_latency_us buckets"};
    layer["net.delivery_latency_us.p99"] = {
        HistogramQuantile(latency_bounds, a.delivery_latency_buckets,
                          b.delivery_latency_buckets, 0.99),
        "us", "from the net.delivery_latency_us buckets"};
    layer["flow.sends_deferred_per_op"] = {
        Ratio(count("flow.sends_deferred"), ops), "count",
        with_base("deferred", count("flow.sends_deferred"), per_op)};
    layer["flow.defer_wait_us.p99"] = {
        HistogramQuantile(defer_bounds, a.defer_wait_buckets,
                          b.defer_wait_buckets, 0.99),
        "us", "from the flow.defer_wait_us buckets"};
    layer["store.appends_per_op"] = {
        Ratio(appends, ops), "count", with_base("appends", appends, per_op)};
    layer["store.bytes_per_op"] = {
        Ratio(store_bytes, ops), "bytes",
        with_base("stable-store growth", store_bytes, per_op)};
    layer["store.wal_append_us"] = {
        probe.wal_append_us, "us",
        "side-timed Wal::Append of " + Fmt("%.0f", probe.wal_record_bytes) +
            " B (the encoded envelope)"};
    layer["airline.msgs_per_txn"] = {
        Ratio(static_cast<double>(b.msgs_delivered - a.msgs_delivered), ops),
        "count",
        with_base("delivered",
                  static_cast<double>(b.msgs_delivered - a.msgs_delivered),
                  per_op)};
    layer["runtime.csw_per_op"] = {
        Ratio(static_cast<double>(b.rusage.csw - a.rusage.csw), ops), "count",
        with_base("context switches",
                  static_cast<double>(b.rusage.csw - a.rusage.csw), per_op)};
    layer["runtime.threads"] = {static_cast<double>(traced.threads), "count",
                                "tasks in /proc/self/task mid-phase"};
    layer["untraced.op_p99_us"] = {
        e.p99_us, "us", "op_p99_us of this run's untraced half, no bound"};
    layer["trace.ops_per_s"] = {t.ops_per_s, "1/s",
                                "traced half, at zero host steal"};
    layer["trace.overhead_pct"] = {
        100.0 * (1.0 - Ratio(t.ops_per_s, e.ops_per_s)), "%",
        "traced ops_per_s " + Fmt("%.1f", t.ops_per_s) + " vs untraced " +
            Fmt("%.1f", e.ops_per_s)};
    layer["trace.spans"] = {static_cast<double>(spans.count), "count",
                            std::to_string(spans.roots) + " ops traced, 1 in " +
                                std::to_string(kTraceOneIn)};
    for (const char* name :
         {"sendprims.call", "guardian.handle", "guardian.send",
          "stream.window", "airline.txn"}) {
      layer[std::string("trace.self_us_per_op.") + name] = {
          self_per_op(name), "us", span_n(name)};
    }

    out.clear();
    for (const auto& [name, m] : layer) {
      out.push_back({name, m.value, m.unit, m.base});
    }
    PrintTable("per-layer (traced half of this run):", out);
  }

  const bool correct = workload->checks().ok();
  for (const auto& f : workload->checks().failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (attempted == 0) {
    std::fprintf(stderr, "no op completed in the measured phase\n");
    return 1;
  }
  PrintJson(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace guardians::perfbench

int main(int argc, char** argv) {
  guardians::perfbench::Args args;
  if (!guardians::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <rpc_small|stream_put|"
                 "airline_wan> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <file>]\n");
    return 2;
  }
  return guardians::perfbench::Run(args);
}
