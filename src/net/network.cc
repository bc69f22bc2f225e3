#include "src/net/network.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/common/log.h"

namespace guardians {

namespace {
// Set while this thread runs a sink (on a worker or inline). A send made
// from inside a delivery always goes through the shard heap: delivering it
// in place would nest one node's sink inside another's.
thread_local bool t_in_sink = false;
}  // namespace

Network::Network(uint64_t seed, MetricsRegistry* metrics, TraceBuffer* traces,
                 size_t shards, size_t batch_max, const ClockSource* clock)
    : clock_(clock != nullptr ? clock : WallClock::Get()), rng_(seed),
      metrics_(metrics), traces_(traces),
      batch_max_(std::max<size_t>(batch_max, 1)) {
  if (metrics_ != nullptr) {
    delivery_latency_ = metrics_->histogram("net.delivery_latency_us");
    corrupted_ = metrics_->counter("net.corrupted");
    dup_injected_ = metrics_->counter("net.dup.injected");
    reorder_released_ = metrics_->counter("net.reorder.released");
    delivered_inline_ = metrics_->counter("net.delivered_inline");
  }
  shards_.reserve(std::max<size_t>(shards, 1));
  for (size_t k = 0; k < std::max<size_t>(shards, 1); ++k) {
    auto shard = std::make_unique<Shard>();
    if (metrics_ != nullptr) {
      const std::string prefix = "net.shard." + std::to_string(k) + ".";
      shard->enqueued = metrics_->counter(prefix + "enqueued");
      shard->delivered = metrics_->counter(prefix + "delivered");
      shard->dropped = metrics_->counter(prefix + "dropped");
      shard->batch_drains = metrics_->counter(prefix + "batch.drains");
      shard->batch_packets = metrics_->counter(prefix + "batch.packets");
      shard->batch_size = metrics_->histogram(
          prefix + "batch.size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { ShardLoop(*raw); });
  }
}

Network::~Network() { Shutdown(); }

void Network::Shutdown() {
  uint64_t abandoned_holds = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;  // already shut down
    }
    stopped_ = true;
    // Packets still captured by a reorder hold will never be released;
    // count them dropped so conservation holds, and free the drain
    // barrier from waiting on them.
    abandoned_holds = held_.size();
    stats_.packets_dropped += abandoned_holds;
    for (const InFlight& entry : held_) {
      CountDrop(entry.packet, "net.drop.holdback_shutdown");
    }
    held_.clear();
    held_pairs_.clear();
    held_max_ = 0;
  }
  if (abandoned_holds > 0) {
    FinishMany(abandoned_holds);
  }
  stopping_.store(true);
  for (auto& shard : shards_) {
    // Lock-then-notify so a worker between its predicate check and its
    // wait cannot miss the stop signal; then wait out an inline delivery
    // still running the shard's sinks (its holder notifies on release).
    std::unique_lock<std::mutex> lock(shard->mu);
    shard->cv.notify_all();
    clock_->WaitUntil(shard->cv, lock, TimePoint::max(),
                      [&] { return !shard->busy; });
  }
  for (auto& shard : shards_) {
    shard->worker.join();
  }
  // Unblock any drainer waiting on packets the stopped workers abandoned.
  { std::lock_guard<std::mutex> lock(drain_mu_); }
  drained_cv_.notify_all();
}

NodeId Network::AddNode(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  node_names_.push_back(name);
  node_up_.push_back(true);
  sinks_.emplace_back();
  return static_cast<NodeId>(node_names_.size());
}

std::string Network::NodeName(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > node_names_.size()) {
    return "?";
  }
  return node_names_[id - 1];
}

size_t Network::node_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_names_.size();
}

void Network::SetSink(NodeId node, PacketSink sink) {
  // Wrapped so the engine has exactly one (batched) delivery path; a
  // per-packet sink just sees the batch unrolled in order.
  SetBatchSink(node, [sink = std::move(sink)](std::vector<Packet>&& batch) {
    for (Packet& packet : batch) {
      sink(std::move(packet));
    }
  });
}

void Network::SetBatchSink(NodeId node, PacketBatchSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(node >= 1 && node <= sinks_.size());
  sinks_[node - 1] = std::move(sink);
}

void Network::SetNodeUp(NodeId node, bool up) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(node >= 1 && node <= node_up_.size());
  node_up_[node - 1] = up;
}

bool Network::IsNodeUp(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return node >= 1 && node <= node_up_.size() && node_up_[node - 1];
}

void Network::SetDefaultLink(const LinkParams& params) {
  std::lock_guard<std::mutex> lock(mu_);
  default_link_ = params;
  ++link_epoch_;
}

void Network::SetLink(NodeId a, NodeId b, const LinkParams& params) {
  std::lock_guard<std::mutex> lock(mu_);
  links_[LinkKey(a, b)] = params;
  links_[LinkKey(b, a)] = params;
  ++link_epoch_;
}

LinkParams Network::GetLink(NodeId from, NodeId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = links_.find(LinkKey(from, to));
  return it != links_.end() ? it->second : default_link_;
}

void Network::SetPartitioned(NodeId a, NodeId b, bool cut) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cut) {
    partitions_.insert(LinkKey(a, b));
    partitions_.insert(LinkKey(b, a));
  } else {
    partitions_.erase(LinkKey(a, b));
    partitions_.erase(LinkKey(b, a));
  }
  ++link_epoch_;
}

void Network::SetPartitionedOneWay(NodeId from, NodeId to, bool cut) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cut) {
    oneway_partitions_.insert(LinkKey(from, to));
  } else {
    oneway_partitions_.erase(LinkKey(from, to));
  }
  ++link_epoch_;
}

bool Network::IsPartitioned(NodeId from, NodeId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t key = LinkKey(from, to);
  return partitions_.count(key) > 0 || oneway_partitions_.count(key) > 0;
}

uint64_t Network::link_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return link_epoch_;
}

void Network::Send(Packet packet, bool call_traffic) {
  InFlight entry;
  std::optional<InFlight> duplicate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.packets_sent;
    stats_.bytes_sent += packet.WireSize();
    LinkCounters* link_counters = CountersForLink(packet.src, packet.dst);
    if (link_counters != nullptr) {
      link_counters->sent->Inc();
    }

    const bool src_ok = packet.src >= 1 && packet.src <= node_up_.size() &&
                        node_up_[packet.src - 1];
    const bool partitioned =
        packet.src != packet.dst &&
        partitions_.count(LinkKey(packet.src, packet.dst)) > 0;
    const bool cut_oneway =
        packet.src != packet.dst &&
        oneway_partitions_.count(LinkKey(packet.src, packet.dst)) > 0;
    if (!src_ok || partitioned || cut_oneway) {
      ++stats_.packets_dropped;
      CountDrop(packet, !src_ok        ? TracePoint("net.drop.src_down")
                        : partitioned ? TracePoint("net.drop.partition")
                                      : TracePoint("net.drop.partition_oneway"));
      return;
    }

    LinkParams link = default_link_;
    if (packet.src != packet.dst) {
      auto it = links_.find(LinkKey(packet.src, packet.dst));
      if (it != links_.end()) {
        link = it->second;
      }
    } else {
      link = LinkParams{Micros(0), Micros(0), 0.0, 0.0, 0.0};
    }

    if (rng_.NextBool(link.drop_prob)) {
      ++stats_.packets_dropped;
      CountDrop(packet, "net.drop.loss");
      return;
    }
    if (!packet.payload.empty() && rng_.NextBool(link.corrupt_prob)) {
      // Flip one byte; the error-detection bits will reject the packet at
      // the receiving node (it keeps its stale CRC on purpose).
      // MutableData copy-on-writes this one fragment's view, so sibling
      // fragments and any duplicate injected below share storage with each
      // other but never see the flipped byte... unless the duplicate is
      // cloned *from* the corrupted packet, which is exactly the old
      // deep-copy behavior: corruption-then-dup yields two bad twins.
      const size_t at = rng_.NextBelow(packet.payload.size());
      packet.payload.MutableData()[at] ^=
          static_cast<uint8_t>(1 + rng_.NextBelow(255));
      ++stats_.packets_corrupted;
      if (link_counters != nullptr) {
        link_counters->corrupted->Inc();
        corrupted_->Inc();
      }
      if (traces_ != nullptr) {
        traces_->Record(packet.trace_id, 0, "net.corrupted",
                        TraceDetail::Link(packet.src, packet.dst));
      }
    }

    // Each copy rolls its own latency/jitter, so a duplicate reorders
    // freely against the original (it may even arrive first).
    auto roll_delay = [&]() {
      int64_t delay_us = ToMicros(link.latency);
      if (link.jitter.count() > 0) {
        delay_us += static_cast<int64_t>(
            rng_.NextNormal(0.0, static_cast<double>(link.jitter.count())));
      }
      if (link.bytes_per_micro > 0.0) {
        delay_us += static_cast<int64_t>(
            static_cast<double>(packet.WireSize()) / link.bytes_per_micro);
      }
      return std::max<int64_t>(delay_us, 0);
    };

    entry.sent_at = clock_->Now();
    entry.deliver_at = entry.sent_at + Micros(roll_delay());
    entry.seq = seq_++;

    if (rng_.NextBool(link.dup_prob)) {
      // The network invents a second in-flight copy of the same packet
      // (§1.1: the network may duplicate messages). Both copies resolve
      // independently downstream, so packets_delivered + packets_dropped
      // balances against packets_sent + packets_duplicated.
      ++stats_.packets_duplicated;
      if (dup_injected_ != nullptr) dup_injected_->Inc();
      if (link_counters != nullptr) {
        link_counters->duplicated->Inc();
      }
      if (traces_ != nullptr) {
        traces_->Record(packet.trace_id, 0, "net.duplicated",
                        TraceDetail::Link(packet.src, packet.dst,
                                          packet.frag_index,
                                          packet.frag_count));
      }
      InFlight copy;
      copy.sent_at = entry.sent_at;
      copy.deliver_at = entry.sent_at + Micros(roll_delay());
      copy.seq = seq_++;
      copy.packet = packet;  // payload is a shared view: the twin costs a
                             // refcount bump, not a byte clone
      duplicate.emplace(std::move(copy));
    }
    entry.packet = std::move(packet);

    // Reordering storm: a held link captures decided packets instead of
    // scheduling them (the dice above rolled exactly as usual, so counts
    // and the rng stream are unchanged); ReleaseHeld re-schedules them
    // shuffled. Held copies are in flight — drains wait for the release.
    if (!held_pairs_.empty() &&
        held_pairs_.count(LinkKey(entry.packet.src, entry.packet.dst)) > 0) {
      const uint64_t copies = duplicate.has_value() ? 2 : 1;
      if (held_.size() + copies <= held_max_) {
        in_flight_.fetch_add(copies, std::memory_order_acq_rel);
        held_.push_back(std::move(entry));
        if (duplicate.has_value()) {
          held_.push_back(std::move(*duplicate));
        }
        return;
      }
    }
  }

  // The drop/corrupt/latency/duplication dice are cast; hand the copy (or
  // copies — a duplicate shares the destination, hence the shard) to its
  // destination's shard. in_flight_ rises before the worker can resolve
  // the packets, so DrainForTesting never observes a false zero.
  const uint64_t copies = duplicate.has_value() ? 2 : 1;
  in_flight_.fetch_add(copies, std::memory_order_acq_rel);
  if (duplicate.has_value()) {
    EnqueueToShard(std::move(entry));
    EnqueueToShard(std::move(*duplicate));
    return;
  }
  const bool deliver_inline =
      call_traffic && !t_in_sink && entry.deliver_at == entry.sent_at;
  EnqueueToShard(std::move(entry), deliver_inline);
}

void Network::EnqueueToShard(InFlight&& entry, bool deliver_inline) {
  Shard& shard = ShardFor(entry.packet.dst);
  std::unique_lock<std::mutex> lock(shard.mu);
  if (stopping_.load()) {
    // Workers are gone; the packet silently vanishes (it was "in
    // flight" when the world stopped), and the drain barrier must not
    // wait on it.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  if (shard.enqueued != nullptr) {
    shard.enqueued->Inc();
  }
  if (deliver_inline && !shard.busy && shard.heap.empty()) {
    // Nothing is queued ahead of this packet and nobody runs the shard's
    // sinks: claim the shard and deliver on this thread. Sends that find
    // the shard busy meanwhile queue without a wake, so before releasing
    // drain one batch that came due, then wake the worker only for what
    // is left.
    shard.busy = true;
    lock.unlock();
    shard.batch.clear();
    shard.batch.push_back(std::move(entry));
    if (delivered_inline_ != nullptr) {
      delivered_inline_->Inc();
    }
    RunBatch(shard);
    lock.lock();
    if (!stopping_.load()) {
      DrainDue(shard, lock);
    }
    shard.busy = false;
    const bool wake_worker = stopping_.load() || !shard.heap.empty();
    lock.unlock();
    if (wake_worker) {
      shard.cv.notify_all();
    }
    return;
  }
  const bool was_empty = shard.heap.empty();
  const TimePoint old_front_due =
      was_empty ? TimePoint{} : shard.heap.front().deliver_at;
  shard.heap.push_back(std::move(entry));
  std::push_heap(shard.heap.begin(), shard.heap.end(), DueLater{});
  // Wake coalescing: the worker only needs a signal when the heap went
  // empty -> non-empty (it may be in its indefinite wait) or when a new
  // entry preempts the front (its timed wait would end too late). A
  // backlogged shard — front already due — never needs one: the worker is
  // either draining or about to re-check the heap, so the common saturated
  // Send pays no futex wake at all. Neither does a busy shard: its holder
  // re-checks the heap before it lets go.
  const bool wake_worker =
      !shard.busy &&
      (was_empty || shard.heap.front().deliver_at < old_front_due);
  lock.unlock();
  if (wake_worker) {
    shard.cv.notify_all();
  }
}

void Network::HoldLink(NodeId a, NodeId b, size_t max_held) {
  std::lock_guard<std::mutex> lock(mu_);
  held_pairs_.insert(LinkKey(a, b));
  held_pairs_.insert(LinkKey(b, a));
  held_max_ = std::max(held_max_, max_held);
  ++link_epoch_;
}

void Network::ReleaseHeld(uint64_t shuffle_seed) {
  std::vector<InFlight> held;
  {
    std::lock_guard<std::mutex> lock(mu_);
    held = std::move(held_);
    held_.clear();
    held_pairs_.clear();
    held_max_ = 0;
    ++link_epoch_;
    if (!held.empty()) {
      // Fisher–Yates on a dedicated rng (the send-path dice stream must
      // not depend on how many packets a hold captured), then deliver_at
      // offsets one microsecond apart so each destination's heap pops
      // the shuffled order verbatim, at any shard/batch configuration.
      Rng shuffle(shuffle_seed ^ 0x5EED0DE2ull);
      for (size_t i = held.size(); i > 1; --i) {
        std::swap(held[i - 1], held[shuffle.NextBelow(i)]);
      }
      const TimePoint now = clock_->Now();
      for (size_t i = 0; i < held.size(); ++i) {
        held[i].deliver_at = now + Micros(static_cast<int64_t>(i));
      }
      if (reorder_released_ != nullptr) reorder_released_->Inc(held.size());
    }
  }
  for (InFlight& entry : held) {
    EnqueueToShard(std::move(entry));
  }
}

size_t Network::held_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_.size();
}

void Network::DrainForTesting() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0 ||
           stopping_.load();
  });
}

bool Network::DrainForTesting(Micros wall_timeout) {
  std::unique_lock<std::mutex> lock(drain_mu_);
  return drained_cv_.wait_for(lock, wall_timeout, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0 ||
           stopping_.load();
  });
}

NetworkStats Network::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Network::LinkCounters* Network::CountersForLink(NodeId src, NodeId dst) {
  if (metrics_ == nullptr) {
    return nullptr;
  }
  const uint64_t key = LinkKey(src, dst);
  auto it = link_counters_.find(key);
  if (it == link_counters_.end()) {
    auto name_of = [this](NodeId id) {
      return (id >= 1 && id <= node_names_.size()) ? node_names_[id - 1]
                                                   : "?";
    };
    const std::string prefix =
        "net.link." + name_of(src) + "->" + name_of(dst) + ".";
    LinkCounters counters;
    counters.sent = metrics_->counter(prefix + "sent");
    counters.delivered = metrics_->counter(prefix + "delivered");
    counters.dropped = metrics_->counter(prefix + "dropped");
    counters.corrupted = metrics_->counter(prefix + "corrupted");
    counters.duplicated = metrics_->counter(prefix + "duplicated");
    it = link_counters_.emplace(key, counters).first;
  }
  return &it->second;
}

void Network::CountDrop(const Packet& packet, TracePoint point) {
  if (metrics_ != nullptr) {
    metrics_->counter(point.name())->Inc();
    LinkCounters* link_counters = CountersForLink(packet.src, packet.dst);
    if (link_counters != nullptr) {
      link_counters->dropped->Inc();
    }
  }
  if (traces_ != nullptr) {
    traces_->Record(packet.trace_id, 0, point,
                    TraceDetail::Link(packet.src, packet.dst,
                                      packet.frag_index, packet.frag_count));
  }
}

void Network::ShardLoop(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    if (stopping_.load()) {
      return;
    }
    if (shard.busy || shard.heap.empty()) {
      // Idle, or an inline sender holds the shard (it wakes us on release
      // if work remains).
      clock_->WaitUntil(shard.cv, lock, TimePoint::max(), [&] {
        return stopping_.load() || (!shard.busy && !shard.heap.empty());
      });
      continue;
    }
    const TimePoint due = shard.heap.front().deliver_at;
    if (clock_->Now() < due) {
      // Sleep until the front is due; an entry that preempts it, an inline
      // claim, or stop ends the wait early.
      clock_->WaitUntil(shard.cv, lock, due, [&] {
        return stopping_.load() || shard.busy || shard.heap.empty() ||
               shard.heap.front().deliver_at < due;
      });
      continue;
    }
    shard.busy = true;
    DrainDue(shard, lock);
    shard.busy = false;
    if (stopping_.load()) {
      shard.cv.notify_all();  // Shutdown may be waiting for !busy
    }
  }
}

void Network::DrainDue(Shard& shard, std::unique_lock<std::mutex>& lock) {
  // One lock acquisition drains every due entry (bounded by batch_max_),
  // in heap order — so per-destination delivery order is exactly what
  // the one-packet-per-wake engine produced.
  const TimePoint now = clock_->Now();
  shard.batch.clear();
  while (!shard.heap.empty() && shard.batch.size() < batch_max_ &&
         shard.heap.front().deliver_at <= now) {
    std::pop_heap(shard.heap.begin(), shard.heap.end(), DueLater{});
    shard.batch.push_back(std::move(shard.heap.back()));
    shard.heap.pop_back();
  }
  if (shard.batch.empty()) {
    return;
  }
  // Deliver outside the shard lock: a sink may immediately Send (e.g. a
  // system failure reply) or hand off to guardian processes, and other
  // shards' sinks run concurrently with this one.
  lock.unlock();
  RunBatch(shard);
  lock.lock();
}

void Network::RunBatch(Shard& shard) {
  const size_t n = shard.batch.size();
  if (shard.batch_drains != nullptr) {
    shard.batch_drains->Inc();
    shard.batch_packets->Inc(n);
    shard.batch_size->Observe(n);
  }
  t_in_sink = true;
  DeliverBatch(shard);
  t_in_sink = false;
  FinishMany(n);
}

void Network::DeliverBatch(Shard& shard) {
  // Group by destination, preserving first-appearance order so a given
  // seed produces the same sink-call sequence at every batch size. The
  // scan is linear in (groups × batch): a shard owns few destinations and
  // batches are small, so this beats a map per drain. Groups (and their
  // member vectors) are reused across drains, so a steady drain allocates
  // nothing here.
  size_t used = 0;
  for (InFlight& entry : shard.batch) {
    const NodeId dst = entry.packet.dst;
    Group* group = nullptr;
    for (size_t g = 0; g < used; ++g) {
      if (shard.groups[g].dst == dst) {
        group = &shard.groups[g];
        break;
      }
    }
    if (group == nullptr) {
      if (used == shard.groups.size()) {
        shard.groups.emplace_back();
      }
      group = &shard.groups[used++];
      group->dst = dst;
    }
    group->members.push_back(std::move(entry));
  }
  for (size_t g = 0; g < used; ++g) {
    DeliverGroup(shard, shard.groups[g].dst, shard.groups[g].members);
    shard.groups[g].members.clear();  // empty for the next drain
  }
}

void Network::DeliverGroup(Shard& shard, NodeId dst,
                           std::vector<InFlight>& group) {
  PacketBatchSink sink;
  std::vector<Packet>& deliverable = shard.deliverable;
  deliverable.clear();
  {
    // One stats-lock round-trip covers the whole group — at batch_max 1
    // this is the old per-packet acquisition, bit for bit.
    std::lock_guard<std::mutex> lock(mu_);
    const bool ok = dst >= 1 && dst <= node_up_.size() &&
                    node_up_[dst - 1] && sinks_[dst - 1];
    if (ok) {
      sink = sinks_[dst - 1];
      stats_.packets_delivered += group.size();
      const TimePoint handoff_now = clock_->Now();
      for (InFlight& entry : group) {
        // Stamp the time this packet spent inside the network, measured
        // entirely on the network's own clock — the receiver decrements
        // any relative deadline budget by this, never by comparing
        // timestamps across (possibly skewed) node clocks.
        entry.packet.age_micros =
            std::max<int64_t>(ToMicros(handoff_now - entry.sent_at), 0);
        if (delivery_latency_ != nullptr) {
          delivery_latency_->Observe(
              static_cast<uint64_t>(entry.packet.age_micros));
        }
        LinkCounters* link_counters = CountersForLink(entry.packet.src, dst);
        if (link_counters != nullptr) {
          link_counters->delivered->Inc();
        }
        deliverable.push_back(std::move(entry.packet));
      }
    } else {
      stats_.packets_dropped += group.size();
      for (const InFlight& entry : group) {
        CountDrop(entry.packet, "net.drop.dst_down");
      }
    }
  }
  if (sink) {
    // Recorded outside mu_, which every Send takes, and before the sink
    // runs, so each packet's net.delivered still precedes its port hop.
    if (traces_ != nullptr) {
      for (const Packet& packet : deliverable) {
        traces_->Record(packet.trace_id, 0, "net.delivered",
                        TraceDetail::Link(packet.src, dst, packet.frag_index,
                                          packet.frag_count));
      }
    }
    if (shard.delivered != nullptr) {
      shard.delivered->Inc(deliverable.size());
    }
    sink(std::move(deliverable));
    deliverable.clear();  // whatever the sink did not consume
  } else if (shard.dropped != nullptr) {
    shard.dropped->Inc(group.size());
  }
}

void Network::FinishMany(uint64_t n) {
  if (in_flight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    // Synchronize with a drainer between its predicate check and its wait.
    { std::lock_guard<std::mutex> lock(drain_mu_); }
    drained_cv_.notify_all();
  }
}

}  // namespace guardians
