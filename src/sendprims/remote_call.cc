#include "src/sendprims/remote_call.h"

#include <algorithm>

#include "src/guardian/node_runtime.h"
#include "src/guardian/system.h"

namespace guardians {

Result<RemoteReply> RemoteCall(Guardian& caller, const PortName& to,
                               const std::string& command, ValueList args,
                               const PortType& reply_type,
                               const RemoteCallOptions& options) {
  const auto& counters = caller.runtime().system().sendprim_counters().call;
  counters.calls->Inc();
  const ClockSource& clock = caller.runtime().clock();
  // Inherit the caller's propagated deadline (§16): a handler that fans
  // out nested calls must never promise downstream more time than its own
  // caller has left. Set by Receive from the message being handled;
  // TimePoint::max() when the current message carried no budget.
  const TimePoint inherited_at = CurrentDeadlineAt();
  Port* reply_port = caller.AddPort(reply_type, /*capacity=*/8);
  Status last(Code::kTimeout, "no attempts made");
  RemoteReply reply;
  // One dedup sequence number and one reply port for the whole call:
  // every attempt is the same logical request, so the receiver executes at
  // most one and a replayed cached reply still lands where we are waiting.
  const uint64_t dedup_seq = caller.runtime().NextDedupSeq();
  for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
    Micros effective = options.timeout;
    if (inherited_at != TimePoint::max()) {
      const TimePoint now = clock.Now();
      if (now >= inherited_at) {
        // The inherited budget is gone: another attempt could only
        // produce a reply nobody upstream is still waiting for.
        counters.deadline_exceeded->Inc();
        last = Status(Code::kTimeout,
                      "inherited deadline exhausted before attempt " +
                          std::to_string(attempt));
        break;
      }
      effective = std::min(
          effective, std::chrono::duration_cast<Micros>(inherited_at - now));
    }
    reply.attempts = attempt;
    counters.attempts->Inc();
    // Defer-before-send against the destination's congestion window; a
    // window that stays closed for the attempt's whole timeout counts as
    // a timed-out attempt (the receiver is that congested).
    FlowSlot slot = caller.runtime().flow().Acquire(
        to, effective == Micros::max() ? Deadline::Infinite(&clock)
                                       : Deadline(effective, &clock));
    if (!slot.ok()) {
      last = Status(Code::kTimeout, "flow window closed for remote call");
      counters.timeouts->Inc();
      continue;
    }
    // Stamp this attempt's budget onto the wire so the server sheds the
    // request instead of executing it once we have stopped waiting.
    const uint64_t budget_micros =
        effective == Micros::max()
            ? 0
            : static_cast<uint64_t>(std::max<int64_t>(effective.count(), 1));
    auto sent = caller.SendFull(to, command, args, reply_port->name(),
                                PortName{}, dedup_seq, budget_micros);
    if (!sent.ok()) {
      // Local errors (type error, encode failure, node down) will not be
      // cured by retrying.
      caller.RetirePort(reply_port);
      return sent.status();
    }
    auto received = caller.Receive(reply_port, effective);
    if (!received.ok()) {
      last = received.status();  // timeout or node down
      if (received.status().code() == Code::kNodeDown) {
        break;
      }
      counters.timeouts->Inc();
      continue;
    }
    if (received->command == kFailureCommand &&
        attempt < options.max_attempts) {
      // e.g. "target port doesn't exist" because the server is recovering,
      // or "no room at target port" (a flow nack — the window was already
      // halved when the nack's fc fields were consumed); retrying is as
      // sound as retrying after a timeout.
      last = Status(Code::kUnreachable, received->args.empty()
                                            ? "failure"
                                            : received->args[0].ToString());
      continue;
    }
    // A good reply is the call-pattern's credit: request/reply traffic
    // carries no receipt acks, so without this the window could only ever
    // shrink.
    slot.Success();
    reply.command = received->command;
    reply.args = std::move(received->args);
    caller.RetirePort(reply_port);
    return reply;
  }
  caller.RetirePort(reply_port);
  return last;
}

Result<std::vector<PortName>> CreateGuardianAt(
    Guardian& caller, const PortName& primordial,
    const std::string& type_name, const std::string& guardian_name,
    ValueList creation_args, bool persistent, Micros timeout,
    int max_attempts) {
  RemoteCallOptions options;
  options.timeout = timeout;
  // Safe despite creation being non-idempotent: duplicates are suppressed
  // at the target, and remote creation is keyed by guardian name there.
  options.max_attempts = max_attempts;
  GUARDIANS_ASSIGN_OR_RETURN(
      RemoteReply reply,
      RemoteCall(caller, primordial, "create_guardian",
                 {Value::Str(type_name), Value::Str(guardian_name),
                  Value::Array(std::move(creation_args)),
                  Value::Bool(persistent)},
                 CreationReplyPortType(), options));
  if (reply.command == "refused") {
    return Status(Code::kPermissionDenied,
                  reply.args.empty() ? "refused"
                                     : reply.args[0].string_value());
  }
  if (reply.command == kFailureCommand) {
    return Status(Code::kUnreachable,
                  reply.args.empty() ? "failure"
                                     : reply.args[0].string_value());
  }
  if (reply.command != "created" || reply.args.size() != 1 ||
      !reply.args[0].is(TypeTag::kArray)) {
    return Status(Code::kInternal, "malformed creation reply");
  }
  std::vector<PortName> ports;
  for (const auto& v : reply.args[0].items()) {
    GUARDIANS_ASSIGN_OR_RETURN(PortName pn, v.AsPort());
    ports.push_back(pn);
  }
  return ports;
}

}  // namespace guardians
