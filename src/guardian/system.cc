#include "src/guardian/system.h"

#include <cassert>
#include <thread>

#include "src/common/buffer.h"
#include "src/fault/crashpoint.h"
#include "src/obs/trace.h"

namespace guardians {

System::System(SystemConfig config)
    : config_(config),
      clock_(config.sim_clock != nullptr
                 ? static_cast<const ClockSource*>(config.sim_clock)
                 : WallClock::Get()),
      rng_(config.seed),
      traces_(clock_),
      network_(config.seed ^ 0xA5A5A5A5ull, &metrics_, &traces_,
               config.delivery_shards, config.delivery_batch_max, clock_) {
  network_.SetDefaultLink(config_.default_link);
  auto counter = [this](const char* name) { return metrics_.counter(name); };
  sendprim_counters_.call = {counter("sendprims.call.calls"),
                             counter("sendprims.call.attempts"),
                             counter("sendprims.call.timeouts"),
                             counter("sendprims.call.deadline_exceeded")};
  sendprim_counters_.sync = {counter("sendprims.sync.calls"),
                             counter("sendprims.sync.timeouts"),
                             counter("sendprims.sync.expired"),
                             counter("sendprims.sync.full_nacks")};
  sendprim_counters_.reliable = {
      counter("sendprims.reliable.calls"),
      counter("sendprims.reliable.attempts"),
      counter("sendprims.reliable.timeouts"),
      counter("sendprims.reliable.deadline_exceeded"),
      counter("sendprims.reliable.ok"),
      counter("sendprims.reliable.hard_fail"),
      counter("sendprims.reliable.full_nacks"),
      counter("sendprims.reliable.exhausted"),
      metrics_.histogram("sendprims.reliable.backoff_us")};
  sendprim_counters_.failover = {
      counter("sendprims.failover.calls"),
      counter("sendprims.failover.failovers"),
      counter("sendprims.failover.quarantine_skips"),
      counter("sendprims.failover.deadline_exceeded")};
  // System-defined port types every node may rely on.
  Status st = port_types_.Register(PrimordialPortType());
  assert(st.ok());
  st = port_types_.Register(CreationReplyPortType());
  assert(st.ok());
  st = port_types_.Register(AckPortType());
  assert(st.ok());
  (void)st;
}

System::~System() {
  // Stop nodes (joins all guardian processes) before the network dies.
  // (No nodes_mu_: a supervisor must be stopped before its System dies.)
  for (auto& node : nodes_) {
    node->Crash();
  }
  // Then stop the delivery workers before the member destructors free the
  // node runtimes: a sink call already in flight runs DeliverBatch on a
  // raw NodeRuntime*, and nodes_ (declared after network_) is destroyed
  // first.
  network_.Shutdown();
}

NodeRuntime& System::AddNode(const std::string& name) {
  const NodeId id = network_.AddNode(name);
  auto runtime = std::make_unique<NodeRuntime>(this, id, name, rng_.NextU64());
  NodeRuntime* raw = runtime.get();
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes_.push_back(std::move(runtime));
  }
  network_.SetBatchSink(id, [raw](std::vector<Packet>&& batch) {
    // Inline call traffic runs this on the sender's thread. Deliver under
    // the shard worker's context — no fault scope, no trace, no deadline —
    // so crashpoint attribution and nested sends are the same on either
    // thread, and hand the sender its own context back untouched.
    ScopedFaultScope no_fault_scope(nullptr);
    const uint64_t trace_id = CurrentTraceId();
    const TimePoint deadline_at = CurrentDeadlineAt();
    SetCurrentTraceId(0);
    SetCurrentDeadlineAt(TimePoint::max());
    raw->DeliverBatch(std::move(batch));
    SetCurrentTraceId(trace_id);
    SetCurrentDeadlineAt(deadline_at);
  });
  Status booted = raw->Restart();
  assert(booted.ok());
  (void)booted;
  return *raw;
}

const ClockSource* System::clock_for_node(NodeId id) const {
  if (config_.sim_clock != nullptr) {
    return config_.sim_clock->NodeView(id);
  }
  return clock_;
}

NodeRuntime& System::node(NodeId id) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  assert(id >= 1 && id <= nodes_.size());
  return *nodes_[id - 1];
}

size_t System::node_count() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  return nodes_.size();
}

void System::SetHealthOracle(HealthOracle quarantined) {
  std::lock_guard<std::mutex> lock(oracle_mu_);
  quarantined_ = std::move(quarantined);
}

bool System::NodeQuarantined(NodeId id) {
  HealthOracle oracle;
  {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle = quarantined_;
  }
  // Invoked outside the lock: the oracle takes the supervisor's own mutex.
  return oracle && oracle(id);
}

// The quiescence barrier is harness machinery, so its own budget and
// settle windows are *wall* time even on a simulated clock — but then the
// in-flight packets it waits for are scheduled at virtual deliver_at
// instants, so the barrier advances virtual time to the next pending
// deadline whenever the drain stalls (redundant, and harmless, when an
// auto-stepper is already driving the clock).
bool System::WaitQuiescent(Micros deadline, Micros settle,
                           int stable_rounds) {
  const TimePoint give_up = Now() + deadline;
  int rounds = 0;
  uint64_t last_sent = network_.stats().packets_sent;
  while (rounds < stable_rounds) {
    if (Now() > give_up) {
      return false;
    }
    DrainNetwork(give_up);
    std::this_thread::sleep_for(settle);
    if (config_.sim_clock != nullptr) {
      config_.sim_clock->AdvanceToNextDeadline();
    }
    const uint64_t sent = network_.stats().packets_sent;
    if (sent == last_sent) {
      ++rounds;
    } else {
      rounds = 0;
      last_sent = sent;
    }
  }
  DrainNetwork(give_up);
  SweepReassemblers();
  return true;
}

void System::SweepReassemblers() {
  // The in-Add reassembly sweep only runs when packets arrive, so a link
  // that goes idle after a lost fragment would pin its partials forever;
  // quiescence and reports are the natural moments to reclaim them.
  std::vector<NodeRuntime*> nodes;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes.reserve(nodes_.size());
    for (auto& node : nodes_) {
      nodes.push_back(node.get());
    }
  }
  for (NodeRuntime* node : nodes) {
    node->SweepReassembler();
  }
}

void System::DrainNetwork(TimePoint wall_give_up) {
  if (config_.sim_clock == nullptr) {
    network_.DrainForTesting();
    return;
  }
  while (!network_.DrainForTesting(Millis(1))) {
    if (Now() > wall_give_up) {
      return;
    }
    config_.sim_clock->AdvanceToNextDeadline();
  }
}

void System::SyncBufferStats() {
  std::lock_guard<std::mutex> lock(buffer_sync_mu_);
  const uint64_t copied = BufferStats::BytesCopied();
  const uint64_t allocs = BufferStats::Allocs();
  if (copied > buffer_copied_synced_) {
    metrics_.counter("buffer.bytes_copied")->Inc(copied -
                                                 buffer_copied_synced_);
    buffer_copied_synced_ = copied;
  }
  if (allocs > buffer_allocs_synced_) {
    metrics_.counter("buffer.allocs")->Inc(allocs - buffer_allocs_synced_);
    buffer_allocs_synced_ = allocs;
  }
}

std::string System::Report() {
  SyncBufferStats();
  SweepReassemblers();
  std::string out = "=== system report ===\n";
  std::vector<NodeRuntime*> nodes;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    nodes.reserve(nodes_.size());
    for (auto& node : nodes_) {
      nodes.push_back(node.get());
    }
  }
  for (NodeRuntime* node : nodes) {
    out += node->Report();
  }
  out += metrics_.Report();
  out += "traces: " + std::to_string(traces_.trace_count()) + " held, " +
         std::to_string(traces_.evicted_traces()) + " evicted\n";
  return out;
}

}  // namespace guardians
