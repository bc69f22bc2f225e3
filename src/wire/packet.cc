#include "src/wire/packet.h"

#include <algorithm>

#include "src/wire/crc32.h"

namespace guardians {

void Packet::Seal() { crc = Crc32(payload); }

bool Packet::Verify() const { return crc == Crc32(payload); }

std::vector<Packet> Fragment(BufferSlice message, uint64_t msg_id, NodeId src,
                             NodeId dst, uint64_t max_payload,
                             uint64_t trace_id, uint64_t src_session) {
  std::vector<Packet> packets;
  if (max_payload == 0) {
    max_payload = 1;
  }
  const uint32_t count = static_cast<uint32_t>(
      message.empty() ? 1 : (message.size() + max_payload - 1) / max_payload);
  packets.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Packet p;
    p.msg_id = msg_id;
    p.trace_id = trace_id;
    p.src_session = src_session;
    p.src = src;
    p.dst = dst;
    p.frag_index = i;
    p.frag_count = count;
    if (count == 1) {
      p.payload = std::move(message);
    } else {
      // A sub-view of the one encode buffer: all fragments share storage.
      const size_t begin = static_cast<size_t>(i) * max_payload;
      p.payload = message.Sub(begin, max_payload);
    }
    p.Seal();
    packets.push_back(std::move(p));
  }
  return packets;
}

Result<std::optional<BufferSlice>> Reassembler::Add(Packet&& packet,
                                                    TimePoint now,
                                                    int64_t* age_micros_out) {
  if (expiry_.count() > 0 && now - last_sweep_ >= expiry_ / 4) {
    ExpireStale(now);
    last_sweep_ = now;
  }
  if (packet.src_session != 0) {
    auto [session_it, fresh_src] =
        sessions_.try_emplace(packet.src, packet.src_session);
    if (!fresh_src && session_it->second != packet.src_session) {
      // First packet from a new incarnation of this source: everything the
      // old incarnation left half-assembled is unfinishable.
      DropSourcePartials(packet.src);
      session_it->second = packet.src_session;
    }
  }
  const Key key{packet.src, packet.src_session, packet.msg_id};
  if (!packet.Verify()) {
    ++corrupt_dropped_;
    partial_.erase(key);
    return Status(Code::kCorrupt, "packet failed error detection");
  }
  if (packet.frag_count == 0 || packet.frag_index >= packet.frag_count) {
    ++corrupt_dropped_;
    partial_.erase(key);
    return Status(Code::kCorrupt, "inconsistent fragment header");
  }
  if (packet.frag_count == 1) {
    // Unfragmented: the payload slice passes straight through, zero-copy.
    if (age_micros_out != nullptr) {
      *age_micros_out = packet.age_micros;
    }
    return std::optional<BufferSlice>(std::move(packet.payload));
  }

  auto it = partial_.find(key);
  if (it == partial_.end()) {
    EvictOldestIfNeeded();
    Partial fresh;
    fresh.frags.resize(packet.frag_count);
    fresh.have.assign(packet.frag_count, 0);
    fresh.first_seen_seq = seq_++;
    fresh.last_update = now;
    it = partial_.emplace(key, std::move(fresh)).first;
  }
  Partial& part = it->second;
  part.last_update = now;
  if (part.frags.size() != packet.frag_count) {
    // Two messages with clashing ids or a corrupted count: drop everything.
    partial_.erase(it);
    ++corrupt_dropped_;
    return Status(Code::kCorrupt, "fragment count mismatch");
  }
  if (!part.have[packet.frag_index]) {
    part.have[packet.frag_index] = 1;
    part.total_bytes += packet.payload.size();
    // Project this fragment's send instant onto the local clock; the
    // partial remembers the earliest so the completed message's age covers
    // both network transit and the wait for sibling fragments.
    const TimePoint frag_sent = now - Micros(packet.age_micros);
    if (frag_sent < part.earliest_send) {
      part.earliest_send = frag_sent;
    }
    part.frags[packet.frag_index] = std::move(packet.payload);
    ++part.received;
  }
  if (part.received < packet.frag_count) {
    return std::optional<BufferSlice>(std::nullopt);
  }
  // At most one gather: when every fragment is still an adjacent view of
  // the sender's encode buffer this is a zero-copy spanning slice.
  BufferSlice message = GatherSlices(part.frags, part.total_bytes);
  if (age_micros_out != nullptr) {
    *age_micros_out =
        part.earliest_send == TimePoint::max()
            ? packet.age_micros
            : std::max<int64_t>(ToMicros(now - part.earliest_send), 0);
  }
  partial_.erase(it);
  return std::optional<BufferSlice>(std::move(message));
}

void Reassembler::SweepExpired(TimePoint now) {
  if (expiry_.count() == 0) {
    return;
  }
  ExpireStale(now);
  last_sweep_ = now;
}

void Reassembler::EvictOldestIfNeeded() {
  if (partial_.size() < max_partial_) {
    return;
  }
  auto oldest = partial_.begin();
  for (auto it = partial_.begin(); it != partial_.end(); ++it) {
    if (it->second.first_seen_seq < oldest->second.first_seen_seq) {
      oldest = it;
    }
  }
  partial_.erase(oldest);
}

void Reassembler::ExpireStale(TimePoint now) {
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (now - it->second.last_update > expiry_) {
      it = partial_.erase(it);
      ++expired_;
    } else {
      ++it;
    }
  }
}

void Reassembler::DropSourcePartials(NodeId src) {
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (it->first.src == src) {
      it = partial_.erase(it);
      ++session_dropped_;
    } else {
      ++it;
    }
  }
}

}  // namespace guardians
