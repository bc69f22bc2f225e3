// Packets, fragmentation and reassembly (Section 3.3: "the system is
// responsible for the low-level protocols involved in actually transmitting
// a message, e.g., breaking a large message into packets and reassembling
// the packets, use of redundant information for error detection").
//
// A message is delivered to the target port only "when the message is
// entirely and correctly received at the receiving node (i.e., all packets
// have arrived, and the bits of the message are not in error, as is
// indicated by the error detection bits)". Corrupt or incomplete messages
// are silently dropped, which the upper layers observe as a timeout.
#ifndef GUARDIANS_SRC_WIRE_PACKET_H_
#define GUARDIANS_SRC_WIRE_PACKET_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/value/port_name.h"

namespace guardians {

struct Packet {
  uint64_t msg_id = 0;
  uint64_t trace_id = 0;  // carried beside the payload so the network can
                          // attribute per-hop drop events to a trace
  // Sending node's incarnation (the §10 dedup session id, random per
  // boot; 0 = unknown/legacy). Reassembly keys partials on it so a
  // restarted node reusing a msg_id can never complete a message half
  // made of pre-crash fragments — each fragment passes its own CRC, so
  // nothing downstream would catch the splice.
  uint64_t src_session = 0;
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t frag_index = 0;
  uint32_t frag_count = 1;
  // A view into the message's single encode buffer: copying a Packet (for
  // duplicate injection) bumps a refcount instead of cloning the bytes.
  // Mutation (test corruption, fault injection) must go through
  // payload.MutableData(), whose copy-on-write keeps shared-buffer twins
  // and sibling fragments intact.
  BufferSlice payload;
  uint32_t crc = 0;  // CRC over payload; the error detection bits
  // Time this packet spent inside the network (queueing + link latency),
  // stamped by the delivery worker at handoff. In-memory metadata, not
  // wire-encoded: it is how the receiving node decrements the envelope's
  // relative deadline budget (§16) without ever comparing absolute
  // timestamps across skewed clocks.
  int64_t age_micros = 0;

  // Recompute and store the CRC (after constructing / corrupting payload).
  void Seal();
  // Do the error detection bits accept this packet?
  bool Verify() const;

  size_t WireSize() const { return payload.size() + 32; }
};

// Split an encoded message into CRC-sealed packets of at most
// `max_payload` bytes each. Every fragment carries the message's trace id
// and the sender's incarnation session. Fragment payloads are sub-views of
// the message slice — no payload bytes are copied, regardless of fragment
// count. (Bytes rvalues convert implicitly: `Fragment(enc.Take(), ...)`
// adopts the encoder's storage as the shared message buffer.)
std::vector<Packet> Fragment(BufferSlice message, uint64_t msg_id, NodeId src,
                             NodeId dst, uint64_t max_payload,
                             uint64_t trace_id = 0, uint64_t src_session = 0);

// Per-node packet reassembler. Not thread-safe; callers serialize.
class Reassembler {
 public:
  // Partials that received no fragment for this long are expired on the
  // next sweep: steady fragment loss must not pin dead partials' payload
  // bytes forever, nor let crash-era garbage outlive recent in-progress
  // messages under count pressure.
  static constexpr Micros kDefaultExpiry = Micros(2'000'000);

  // `max_partial` bounds concurrently-incomplete messages (oldest evicted
  // beyond it); `expiry` is the age horizon above (0 disables age expiry).
  explicit Reassembler(size_t max_partial = 1024,
                       Micros expiry = kDefaultExpiry)
      : max_partial_(max_partial), expiry_(expiry) {}

  // Feed one packet (consumed: its payload slice is moved into the
  // partial). Returns:
  //  - the full message as one contiguous slice when this packet completed
  //    a message. When every fragment is an adjacent view of the sender's
  //    single encode buffer (no corruption-COW along the way), completion
  //    is a zero-copy spanning view; otherwise one pre-sized gather. An
  //    unfragmented message passes its slice straight through.
  //  - std::nullopt when more packets are needed,
  //  - kCorrupt when the packet fails its CRC or is inconsistent (dropped;
  //    any partial state for that message is discarded).
  // Partials are keyed by (src, src_session, msg_id): two senders minting
  // the same msg_id toward one destination reassemble independently, and a
  // restarted sender (fresh session) can never complete a message begun by
  // its previous incarnation. The first packet carrying a *new* session
  // for a source drops that source's surviving partials outright — they
  // belong to a dead incarnation and can never complete legitimately.
  // The caller supplies "now": NodeRuntime runs the age sweep on the node's
  // own (possibly simulated, possibly skewed) clock. When a message
  // completes and `age_micros_out` is non-null it receives the message's
  // network age: for an unfragmented message the packet's own age, for a
  // fragmented one the oldest fragment's send-to-completion span (its
  // network age plus the time it waited in the partial for its siblings) —
  // the amount a relative deadline budget must be decremented by at this
  // hop.
  Result<std::optional<BufferSlice>> Add(Packet&& packet, TimePoint now,
                                         int64_t* age_micros_out = nullptr);

  size_t partial_count() const { return partial_.size(); }
  uint64_t corrupt_dropped() const { return corrupt_dropped_; }
  // Partials discarded by the age sweep / by a source's session change.
  uint64_t expired() const { return expired_; }
  uint64_t session_dropped() const { return session_dropped_; }

  // Drop partials idle past the age horizon *now*, regardless of packet
  // arrivals. Add() only sweeps when fed, so a link that goes idle after a
  // lost fragment would otherwise pin its partials' payload bytes forever;
  // quiescence barriers and reports call this to reclaim them.
  void SweepExpired(TimePoint now);

 private:
  struct Key {
    NodeId src = 0;
    uint64_t session = 0;
    uint64_t msg_id = 0;
    bool operator==(const Key& other) const {
      return src == other.src && session == other.session &&
             msg_id == other.msg_id;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.msg_id * 0x9E3779B97F4A7C15ull;
      h ^= k.session + (h << 12) + (h >> 4);
      h ^= static_cast<uint64_t>(k.src) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  struct Partial {
    // Slices share the sender's encode buffer; storing them costs refcount
    // bumps, not byte copies.
    std::vector<BufferSlice> frags;
    // Explicit received-flags: an empty payload is a valid fragment body,
    // so emptiness cannot double as "not yet seen".
    std::vector<uint8_t> have;
    uint32_t received = 0;
    size_t total_bytes = 0;  // pre-sizes the gather on completion
    uint64_t first_seen_seq = 0;
    TimePoint last_update{};  // refreshed per accepted fragment: a partial
                              // still making progress is not stale
    // Earliest (arrival - network age) over accepted fragments: the send
    // instant of the oldest fragment, projected onto this node's clock.
    // now - earliest_send at completion is the message's total age.
    TimePoint earliest_send = TimePoint::max();
  };

  void EvictOldestIfNeeded();
  // Drop partials idle past the horizon. Amortized: Add sweeps at most
  // once per expiry_/4, so the scan cost never dominates the hot path.
  void ExpireStale(TimePoint now);
  // A new incarnation of `src` appeared: its predecessor's partials are
  // unfinishable garbage.
  void DropSourcePartials(NodeId src);

  size_t max_partial_;
  Micros expiry_;
  TimePoint last_sweep_{};
  uint64_t seq_ = 0;
  uint64_t corrupt_dropped_ = 0;
  uint64_t expired_ = 0;
  uint64_t session_dropped_ = 0;
  std::unordered_map<Key, Partial, KeyHash> partial_;
  std::unordered_map<NodeId, uint64_t> sessions_;  // src -> latest session
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_WIRE_PACKET_H_
