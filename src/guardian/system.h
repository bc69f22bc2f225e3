// System: a whole distributed system — the network plus its nodes, the
// shared guardian-header library (port types), and the system-wide wire
// limits (Section 3.3: "the meaning of a type must be fixed and invariant
// over all the nodes").
//
// In the paper this is the world itself; here it is the root object an
// application or experiment constructs. Everything inside is deterministic
// given the seed and the interleaving of real threads.
#ifndef GUARDIANS_SRC_GUARDIAN_SYSTEM_H_
#define GUARDIANS_SRC_GUARDIAN_SYSTEM_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/guardian/node_runtime.h"
#include "src/guardian/port_registry.h"
#include "src/net/flow.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/wire/limits.h"

namespace guardians {

struct SystemConfig {
  uint64_t seed = 1;
  WireLimits limits;
  LinkParams default_link;
  // Delivery worker threads in the network, sharded by destination node.
  // Drop/corruption outcomes are seed-deterministic at any worker count
  // (decided at Send time); this only changes delivery parallelism.
  size_t delivery_shards = Network::kDefaultShards;
  // Due packets a delivery worker drains per wake (DESIGN.md §12): the
  // shard lock, the destination node's reassembly/dedup/port locks, and
  // the receiver wake are paid once per batch instead of once per packet.
  // Outcome counts are bit-identical at every value (all loss/corruption/
  // duplication is decided at Send); 1 restores the exact pre-batching
  // one-packet-per-wake engine.
  size_t delivery_batch_max = Network::kDefaultBatchMax;
  // Credit-based flow control (DESIGN.md §11): per-(destination port) AIMD
  // windows paced by receiver-advertised credit.
  FlowControlConfig flow;
  // Capacity of the transient ack port SyncSend creates per call. Sized for
  // duplicate-ack storms: under dup_prob every retry of a tracked send can
  // earn a replacement ack, and a burst of stale acks must not evict the
  // real one (satellite bugfix — this was a hardcoded 4).
  size_t sync_ack_capacity = 64;
  // Time source selection (borrowed; must outlive the System). Null: the
  // wall clock, bit-for-bit the pre-virtual-time behaviour. Non-null: the
  // whole stack — network delivery heaps, flow-control holds, send
  // primitive deadlines and backoffs, reassembly expiry, supervisor polls
  // — runs on this simulated clock, and each node sees it through its own
  // per-node view (so chaos skew/drift events can make nodes disagree
  // about now).
  SimulatedClock* sim_clock = nullptr;
  // Receiver-side dedup-session GC: sessions with no tracked activity for
  // this long (on the node's clock) are dropped — bounded memory for
  // long-lived systems. 0 disables the sweep (the default; at-most-once
  // across arbitrary silence). Chaos runs enable it to expose clock-skew
  // interactions with the at-most-once window.
  Micros dedup_session_idle{0};
};

class System {
 public:
  explicit System(SystemConfig config = {});
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Boots a node (with its primordial guardian already running).
  NodeRuntime& AddNode(const std::string& name);

  NodeRuntime& node(NodeId id);
  size_t node_count() const;

  Network& network() { return network_; }
  // The system-wide (base) time source; never null.
  const ClockSource* clock() const { return clock_; }
  // The node's own view of time: a per-node skewable view when running on
  // a simulated clock, the shared base source otherwise.
  const ClockSource* clock_for_node(NodeId id) const;
  SimulatedClock* sim_clock() const { return config_.sim_clock; }
  PortTypeRegistry& port_types() { return port_types_; }
  const WireLimits& limits() const { return config_.limits; }
  const SystemConfig& config() const { return config_; }

  MetricsRegistry& metrics() { return metrics_; }
  TraceBuffer& traces() { return traces_; }

  // The send primitives' (src/sendprims) counters, resolved once at
  // construction so a call's bookkeeping is relaxed atomic increments, not
  // a registry lookup under the registry mutex per update.
  struct SendPrimCounters {
    struct {
      Counter *calls, *attempts, *timeouts, *deadline_exceeded;
    } call;
    struct {
      Counter *calls, *timeouts, *expired, *full_nacks;
    } sync;
    struct {
      Counter *calls, *attempts, *timeouts, *deadline_exceeded, *ok,
          *hard_fail, *full_nacks, *exhausted;
      Histogram* backoff_us;
    } reliable;
    struct {
      Counter *calls, *failovers, *quarantine_skips, *deadline_exceeded;
    } failover;
  };
  const SendPrimCounters& sendprim_counters() const {
    return sendprim_counters_;
  }

  // Node-health oracle, installed by an attached fault Supervisor (see
  // src/fault/supervisor.h) and consulted by FailoverCall: true when the
  // supervisor has quarantined the node as crash-looping. Kept as an
  // injected function so the send primitives need no fault-layer types.
  using HealthOracle = std::function<bool(NodeId)>;
  void SetHealthOracle(HealthOracle quarantined);
  // False when no oracle is installed (no supervisor: nothing is known).
  bool NodeQuarantined(NodeId id);

  // Quiescence barrier: block until the network drains AND stays drained —
  // no new packet is sent for `stable_rounds` consecutive `settle`-long
  // windows. DrainForTesting alone is not quiescence: a delivered message
  // may wake a guardian that replies, re-filling the network after the
  // drain returns. Chaos epochs check global invariants only at points
  // like this. Returns false if the system would not settle within
  // `deadline` (a guardian ping-ponging forever).
  bool WaitQuiescent(Micros deadline = Millis(5000),
                     Micros settle = Millis(1), int stable_rounds = 2);

  // Text snapshot of the whole system: every node's NodeRuntime::Report()
  // (port depths and drop reasons) plus the metrics registry dump and the
  // trace-buffer occupancy. What the benches and demos print.
  std::string Report();

  // Expire stale reassembly partials on every node now (the per-node
  // in-Add sweep only runs when packets arrive). Called by WaitQuiescent
  // and Report; callable directly from tests.
  void SweepReassemblers();

  // Mirror the process-global BufferStats copy/alloc counters into the
  // registry as `buffer.bytes_copied` / `buffer.allocs`. Delta-based: the
  // globals are process-wide (common cannot depend on obs), so each call
  // publishes only what accrued since this System's last sync. Called by
  // Report(); callable directly when scraping counters between reports.
  void SyncBufferStats();

 private:
  // Drain the network; on a simulated clock, step virtual time to the
  // next pending deadline whenever the drain stalls (packets heaped at
  // future virtual deliver_at instants only become due when stepped).
  void DrainNetwork(TimePoint wall_give_up);

  SystemConfig config_;
  const ClockSource* clock_;  // borrowed (or the shared WallClock)
  Rng rng_;
  // Observability must outlive (and be constructed before) the network and
  // the nodes: both cache Counter*/Histogram* pointers into the registry.
  MetricsRegistry metrics_;
  SendPrimCounters sendprim_counters_;
  TraceBuffer traces_;
  Network network_;
  PortTypeRegistry port_types_;
  // Guards nodes_ (the supervisor scans from its own thread while tests
  // may still be adding nodes); NodeRuntime pointers themselves are stable.
  mutable std::mutex nodes_mu_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::mutex oracle_mu_;
  HealthOracle quarantined_;
  // BufferStats values already published to the registry (guarded by
  // buffer_sync_mu_, so concurrent syncs never double-count a delta).
  std::mutex buffer_sync_mu_;
  uint64_t buffer_copied_synced_ = 0;
  uint64_t buffer_allocs_synced_ = 0;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_SYSTEM_H_
