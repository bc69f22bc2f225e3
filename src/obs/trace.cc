#include "src/obs/trace.h"

#include <algorithm>
#include <sstream>

namespace guardians {

namespace {
thread_local uint64_t t_current_trace_id = 0;
thread_local TimePoint t_current_deadline_at = TimePoint::max();

// Hops a new trace has room for before its first growth: one traced
// round trip, so the common short trace allocates its storage once.
constexpr size_t kFirstHops = 16;
}  // namespace

uint64_t CurrentTraceId() { return t_current_trace_id; }
void SetCurrentTraceId(uint64_t id) { t_current_trace_id = id; }

TimePoint CurrentDeadlineAt() { return t_current_deadline_at; }
void SetCurrentDeadlineAt(TimePoint at) { t_current_deadline_at = at; }

TraceDetail TraceDetail::Link(uint32_t src, uint32_t dst, uint32_t frag_index,
                              uint32_t frag_count) {
  TraceDetail detail;
  detail.shape_ = Shape::kLink;
  detail.src_ = src;
  detail.dst_ = dst;
  detail.frag_index_ = frag_index;
  detail.frag_count_ = frag_count;
  return detail;
}

TraceDetail TraceDetail::Port(const PortName& port) {
  TraceDetail detail;
  detail.shape_ = Shape::kPort;
  detail.port_ = port;
  return detail;
}

TraceDetail TraceDetail::CommandTo(std::string_view command,
                                   const PortName& to) {
  TraceDetail detail = Port(to);
  detail.shape_ = Shape::kCommandTo;
  detail.command_ = command;
  return detail;
}

TraceDetail TraceDetail::CommandOn(std::string_view command,
                                   const PortName& on) {
  TraceDetail detail = CommandTo(command, on);
  detail.shape_ = Shape::kCommandOn;
  return detail;
}

TraceBuffer::TraceBuffer(const ClockSource* clock, size_t max_traces,
                         size_t max_events_per_trace)
    : clock_(clock),
      max_traces_(max_traces),
      max_events_per_trace_(max_events_per_trace) {}

void TraceBuffer::Record(uint64_t trace_id, uint32_t node, TracePoint point,
                         TraceDetail detail) {
  if (trace_id == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    while (traces_.size() >= max_traces_ && !order_.empty()) {
      traces_.erase(order_.front());
      order_.pop_front();
      ++evicted_;
    }
    it = traces_.emplace(trace_id, Trace{}).first;
    it->second.hops.reserve(std::min(kFirstHops, max_events_per_trace_));
    order_.push_back(trace_id);
  }
  Trace& trace = it->second;
  if (trace.hops.size() >= max_events_per_trace_) {
    ++trace.suppressed;
    ++suppressed_;
    return;
  }
  Hop& hop = trace.hops.emplace_back();
  hop.at = clock_->Now();
  hop.point = point.name();
  hop.node = node;
  hop.shape = detail.shape_;
  hop.src = detail.src_;
  hop.dst = detail.dst_;
  hop.frag_index = detail.frag_index_;
  hop.frag_count = detail.frag_count_;
  hop.port_node = detail.port_.node;
  hop.port_guardian = detail.port_.guardian;
  hop.port_index = detail.port_.port_index;
  if (detail.command_.size() <= sizeof(hop.command)) {
    hop.command_size = static_cast<uint8_t>(detail.command_.size());
    detail.command_.copy(hop.command, hop.command_size);
  } else {
    // A command too long for the inline field: format this one event now.
    detail.note_ = FormatDetail(hop, trace, detail.command_);
    hop.shape = TraceDetail::Shape::kNote;
  }
  if (hop.shape == TraceDetail::Shape::kNote) {
    hop.note = static_cast<uint32_t>(trace.notes.size());
    trace.notes.push_back(std::move(detail.note_));
  }
}

std::string TraceBuffer::FormatDetail(const Hop& hop, const Trace& trace,
                                      std::string_view command) {
  using Shape = TraceDetail::Shape;
  if (command.empty()) {
    command = std::string_view(hop.command, hop.command_size);
  }
  const PortName port{hop.port_node, hop.port_guardian, hop.port_index, 0};
  switch (hop.shape) {
    case Shape::kNone:
      return std::string();
    case Shape::kNote:
      return trace.notes[hop.note];
    case Shape::kLink: {
      std::string out = "n" + std::to_string(hop.src) + "->n" +
                        std::to_string(hop.dst);
      if (hop.frag_count != 0) {
        out += " frag " + std::to_string(hop.frag_index + 1) + "/" +
               std::to_string(hop.frag_count);
      }
      return out;
    }
    case Shape::kPort:
      return port.ToString();
    case Shape::kCommandTo:
      return std::string(command) + " -> " + port.ToString();
    case Shape::kCommandOn:
      return port.IsNull() ? std::string(command)
                           : std::string(command) + " on " + port.ToString();
  }
  return std::string();
}

std::string TraceBuffer::DumpTrace(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "trace " << trace_id << ":";
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    os << " (not recorded)\n";
    return os.str();
  }
  os << "\n";
  const Trace& trace = it->second;
  const TimePoint t0 = trace.hops.empty() ? TimePoint{} : trace.hops.front().at;
  for (const Hop& hop : trace.hops) {
    os << "  +" << ToMicros(hop.at - t0) << "us";
    if (hop.node != 0) {
      os << "  n" << hop.node;
    } else {
      os << "  net";
    }
    os << "  " << hop.point;
    const std::string detail = FormatDetail(hop, trace);
    if (!detail.empty()) {
      os << "  " << detail;
    }
    os << "\n";
  }
  if (trace.suppressed > 0) {
    os << "  (+" << trace.suppressed << " events beyond buffer bound)\n";
  }
  return os.str();
}

bool TraceBuffer::HasTrace(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.count(trace_id) > 0;
}

std::vector<TraceEvent> TraceBuffer::Events(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> events;
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    return events;
  }
  const Trace& trace = it->second;
  events.reserve(trace.hops.size());
  for (const Hop& hop : trace.hops) {
    events.push_back(
        TraceEvent{hop.at, hop.node, hop.point, FormatDetail(hop, trace)});
  }
  return events;
}

std::optional<uint64_t> TraceBuffer::FindTraceWithPoint(
    const std::string& point_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    auto found = traces_.find(*it);
    if (found == traces_.end()) {
      continue;
    }
    for (const Hop& hop : found->second.hops) {
      if (std::string_view(hop.point).substr(0, point_prefix.size()) ==
          point_prefix) {
        return *it;
      }
    }
  }
  return std::nullopt;
}

size_t TraceBuffer::trace_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

uint64_t TraceBuffer::evicted_traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

uint64_t TraceBuffer::suppressed_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  order_.clear();
  evicted_ = 0;
  suppressed_ = 0;
}

}  // namespace guardians
