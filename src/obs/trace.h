// Trace-ID propagation and the bounded in-memory trace buffer.
//
// Every message gets a 64-bit trace id, stamped into the Envelope at the
// first Send of a causal chain and carried through fragmentation,
// reassembly, reply ports, system failure(...) replies and receipt acks.
// Each layer records per-hop events (send, net delivery or drop with
// reason, port enqueue or drop with reason, receive) into the system's
// TraceBuffer, so a lost airline transaction can be followed hop-by-hop
// with DumpTrace(id) — the §3.4 "silent discard" made observable.
//
// Propagation uses a thread-local current trace id: Receive sets it from
// the dequeued message, Send inherits it (or mints a fresh one when the
// thread has no active trace). This matches the process model — a guardian
// process handles one message at a time — and costs nothing on the wire
// beyond the 8-byte envelope field.
//
// Recording is on every message's path, so a hop event is stored as the
// raw fields its caller already holds (a static point name, node ids,
// fragment numbers, a port name, the command in an inline buffer) and is
// formatted to text only when the trace is read.
#ifndef GUARDIANS_SRC_OBS_TRACE_H_
#define GUARDIANS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/value/port_name.h"

namespace guardians {

// The calling thread's active trace id; 0 means "no active trace". A new
// logical operation (e.g. one clerk transaction) clears it so the next Send
// starts a fresh trace.
uint64_t CurrentTraceId();
void SetCurrentTraceId(uint64_t id);

// The calling thread's inherited deadline: the instant, on the handling
// node's own clock, at which the message currently being processed runs
// out of budget. TimePoint::max() means "no deadline". Receive sets it
// from the dequeued message (unconditionally, so a budget never leaks
// from one message into the next); nested sends (RemoteCall/FailoverCall)
// clamp their own budgets to it — deadline propagation rides the same
// thread-local channel as the trace id, at zero wire cost beyond the
// envelope's relative-budget field.
TimePoint CurrentDeadlineAt();
void SetCurrentDeadlineAt(TimePoint at);

// The layer and outcome of a hop, e.g. "send", "net.drop.loss",
// "port.drop.retired", "recv". Only a string literal converts to one (the
// conversion runs at compile time), so a stored event keeps the pointer.
class TracePoint {
 public:
  consteval TracePoint(const char* name) : name_(name) {}
  const char* name() const { return name_; }

 private:
  const char* name_;
};

// What a hop event says beyond its point, as the fields the caller holds.
// A free-text note (drop reasons, chaos.*, supervisor.*, flow.*) converts
// implicitly; the hot hops use the numeric shapes, which format on read.
class TraceDetail {
 public:
  TraceDetail() = default;
  TraceDetail(std::string note)
      : shape_(Shape::kNote), note_(std::move(note)) {}
  TraceDetail(const char* note) : TraceDetail(std::string(note)) {}

  // "n1->n2", or "n1->n2 frag 1/2" when frag_count is nonzero.
  static TraceDetail Link(uint32_t src, uint32_t dst,
                          uint32_t frag_index = 0, uint32_t frag_count = 0);
  // "port(n2/g1.0)".
  static TraceDetail Port(const PortName& port);
  // "put -> port(n2/g1.0)".
  static TraceDetail CommandTo(std::string_view command, const PortName& to);
  // "put on port(n2/g1.0)", or "put" alone when `on` is null.
  static TraceDetail CommandOn(std::string_view command,
                               const PortName& on = PortName{});

 private:
  friend class TraceBuffer;
  enum class Shape : uint8_t { kNone, kNote, kLink, kPort, kCommandTo,
                               kCommandOn };

  Shape shape_ = Shape::kNone;
  uint32_t src_ = 0;
  uint32_t dst_ = 0;
  uint32_t frag_index_ = 0;
  uint32_t frag_count_ = 0;
  PortName port_;
  std::string_view command_;  // the caller's; copied only when stored
  std::string note_;
};

// One hop event as read back. `node` is the node that observed the event
// (0 for the network itself).
struct TraceEvent {
  TimePoint at;
  uint32_t node = 0;
  std::string point;
  std::string detail;
};

// Bounded, thread-safe store of per-trace event lists, stamped on the
// clock the system runs on. When the trace cap is hit the oldest trace is
// evicted; when one trace's event cap is hit further events for it are
// counted but not stored (the dump says so).
class TraceBuffer {
 public:
  explicit TraceBuffer(const ClockSource* clock = WallClock::Get(),
                       size_t max_traces = 4096,
                       size_t max_events_per_trace = 256);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // No-op when trace_id is 0 (untraced message).
  void Record(uint64_t trace_id, uint32_t node, TracePoint point,
              TraceDetail detail = TraceDetail());

  // Human-readable hop-by-hop dump; timestamps relative to the first event.
  std::string DumpTrace(uint64_t trace_id) const;

  bool HasTrace(uint64_t trace_id) const;
  std::vector<TraceEvent> Events(uint64_t trace_id) const;

  // The most recently started trace containing an event whose point starts
  // with `point_prefix` (e.g. "port.drop" to sample a lost message).
  std::optional<uint64_t> FindTraceWithPoint(
      const std::string& point_prefix) const;

  size_t trace_count() const;
  uint64_t evicted_traces() const;
  uint64_t suppressed_events() const;
  void Clear();

 private:
  // A stored event: fixed-size, no heap of its own. Which fields mean
  // something depends on `shape`.
  struct Hop {
    TimePoint at;
    const char* point = nullptr;
    uint32_t node = 0;
    uint32_t src = 0;
    uint32_t dst = 0;
    uint32_t frag_index = 0;
    uint32_t frag_count = 0;
    uint32_t port_node = 0;
    uint32_t port_index = 0;
    uint32_t note = 0;  // index into Trace::notes
    uint64_t port_guardian = 0;
    TraceDetail::Shape shape = TraceDetail::Shape::kNone;
    uint8_t command_size = 0;
    char command[22];
  };
  struct Trace {
    std::vector<Hop> hops;
    std::vector<std::string> notes;
    uint64_t suppressed = 0;  // events beyond max_events_per_trace_
  };

  // The event's detail text; `command` overrides the inline one.
  static std::string FormatDetail(const Hop& hop, const Trace& trace,
                                  std::string_view command = {});

  const ClockSource* clock_;
  mutable std::mutex mu_;
  const size_t max_traces_;
  const size_t max_events_per_trace_;
  uint64_t evicted_ = 0;
  uint64_t suppressed_ = 0;
  std::unordered_map<uint64_t, Trace> traces_;
  std::deque<uint64_t> order_;  // insertion order, for eviction & sampling
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_OBS_TRACE_H_
