#include "src/sendprims/sync_send.h"

#include <algorithm>

#include "src/guardian/node_runtime.h"
#include "src/guardian/system.h"

namespace guardians {

Status SyncSend(Guardian& sender, const PortName& to,
                const std::string& command, ValueList args, Micros timeout,
                uint64_t dedup_seq) {
  NodeRuntime& rt = sender.runtime();
  const auto& counters = rt.system().sendprim_counters().sync;
  counters.calls->Inc();
  // Micros::max() is explicitly infinite — constructing a Deadline from it
  // would overflow Now() + timeout into the past and expire immediately,
  // the exact expired-vs-unset confusion the 0-sentinel audit exists to
  // remove.
  const Deadline deadline = timeout == Micros::max()
                                ? Deadline::Infinite(&rt.clock())
                                : Deadline(timeout, &rt.clock());
  // Defer-before-send: claim a slot of the destination's congestion window
  // first. When the window is closed (or the destination is in a congested
  // hold after a full nack) the message waits here, at the sender, instead
  // of being shed at the receiver's port.
  FlowSlot slot = rt.flow().Acquire(to, deadline);
  if (!slot.ok()) {
    counters.timeouts->Inc();
    return Status(Code::kTimeout, "flow window closed until deadline");
  }
  // Ack-port capacity comes from the system config (sync_ack_capacity):
  // under dup_prob a burst of duplicate/stale acks used to evict the real
  // ack from a hardcoded 4-slot buffer, turning a delivered message into a
  // spurious timeout + retry.
  // Stamp the remaining budget onto the wire (§16): the receiver
  // decrements it by observed network age and sheds the message instead
  // of executing it once it is gone. A budget that is already spent here
  // (the flow wait consumed it) is stamped as the 1µs floor rather than
  // 0 — on the wire 0 means "no deadline", and an expired budget must
  // never widen into an unbudgeted send.
  uint64_t budget_micros = 0;
  if (!deadline.IsInfinite()) {
    budget_micros = static_cast<uint64_t>(
        std::max<int64_t>(deadline.Remaining().count(), 1));
  }
  Port* ack_port =
      sender.AddPort(AckPortType(), rt.system().config().sync_ack_capacity);
  auto sent = sender.SendFull(to, command, std::move(args), PortName{},
                              ack_port->name(), dedup_seq, budget_micros);
  if (!sent.ok()) {
    sender.RetirePort(ack_port);
    return sent.status();
  }
  const std::string want = std::to_string(*sent);

  for (;;) {
    auto received = sender.Receive(ack_port, deadline.Remaining());
    if (!received.ok()) {
      if (received.status().code() == Code::kTimeout) {
        counters.timeouts->Inc();
      }
      sender.RetirePort(ack_port);
      return received.status();
    }
    if (received->command == kFailureCommand) {
      const bool expired_nack =
          !received->args.empty() &&
          received->args[0].is(TypeTag::kString) &&
          received->args[0].string_value().rfind("deadline expired", 0) == 0;
      if (expired_nack) {
        // The receiver shed the message because our budget died in flight
        // (or in its queue). That is a deadline outcome, not congestion:
        // kTimeout, so ReliableSend books it against the overall deadline
        // instead of fast-retrying into a window that has nothing to do
        // with it.
        counters.expired->Inc();
        sender.RetirePort(ack_port);
        return Status(Code::kTimeout, received->args[0].string_value());
      }
      // A full-port nack delivered to the ack port (flow control routes
      // the §3.4 failure here when the send carried an ack port): the
      // message was shed. Fail fast with kPortFull — no need to wait out
      // the ack timeout — and let the caller's retry be paced by the
      // congestion window, whose halving was applied when the nack's fc
      // fields were consumed on the delivery path.
      counters.full_nacks->Inc();
      sender.RetirePort(ack_port);
      return Status(Code::kPortFull,
                    received->args.empty()
                        ? "message shed at target port"
                        : received->args[0].ToString());
    }
    if (received->command == "ack" && !received->args.empty() &&
        received->args[0].is(TypeTag::kString) &&
        received->args[0].string_value() == want) {
      sender.RetirePort(ack_port);
      return OkStatus();
    }
    // A stale or foreign ack; keep waiting until the deadline.
    if (deadline.Expired()) {
      counters.timeouts->Inc();
      sender.RetirePort(ack_port);
      return Status(Code::kTimeout, "no receipt acknowledgement");
    }
  }
}

}  // namespace guardians
