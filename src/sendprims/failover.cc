#include "src/sendprims/failover.h"

#include <algorithm>

#include "src/guardian/node_runtime.h"
#include "src/guardian/system.h"

namespace guardians {

Result<FailoverResult> FailoverCall(Guardian& caller,
                                    const std::vector<PortName>& targets,
                                    const std::string& command,
                                    const ValueList& args,
                                    const PortType& reply_type,
                                    const RemoteCallOptions& per_target) {
  System& system = caller.runtime().system();
  const auto& counters = system.sendprim_counters().failover;
  counters.calls->Inc();

  // Replica order: healthy first. A replica the supervisor has quarantined
  // is known to be crash-looping, so trying it first would burn a full
  // per-target timeout; it is demoted to a last resort (not skipped
  // outright — the caller's list is still exhausted before giving up).
  std::vector<size_t> order;
  std::vector<size_t> demoted;
  order.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    (system.NodeQuarantined(targets[i].node) ? demoted : order).push_back(i);
  }
  if (!demoted.empty()) {
    counters.quarantine_skips->Inc(demoted.size());
    order.insert(order.end(), demoted.begin(), demoted.end());
  }

  // Inherited deadline split (§16): when this call runs under a propagated
  // budget, each replica gets an equal share of whatever remains at the
  // moment its attempt starts — a slow first replica must not eat the
  // whole budget and turn every later replica into a zero-time attempt.
  const ClockSource& clock = caller.runtime().clock();
  const TimePoint inherited_at = CurrentDeadlineAt();

  Status last(Code::kUnreachable, "no targets");
  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const size_t i = order[attempt];
    if (attempt > 0) {
      // Attempting the next replica because the previous one failed us.
      counters.failovers->Inc();
    }
    RemoteCallOptions opts = per_target;
    if (inherited_at != TimePoint::max()) {
      const TimePoint now = clock.Now();
      if (now >= inherited_at) {
        counters.deadline_exceeded->Inc();
        last = Status(Code::kTimeout,
                      "inherited deadline exhausted after " +
                          std::to_string(attempt) + " of " +
                          std::to_string(order.size()) + " replicas");
        break;
      }
      const int64_t left_us =
          std::chrono::duration_cast<Micros>(inherited_at - now).count();
      const int64_t targets_left = static_cast<int64_t>(order.size() - attempt);
      opts.timeout = std::min(
          per_target.timeout, Micros(std::max<int64_t>(
                                  left_us / targets_left, 1)));
    }
    auto reply =
        RemoteCall(caller, targets[i], command, args, reply_type, opts);
    if (!reply.ok()) {
      if (reply.status().code() == Code::kTypeError ||
          reply.status().code() == Code::kEncodeError) {
        return reply.status();  // local problem; no replica will differ
      }
      last = reply.status();
      continue;
    }
    if (reply->command == kFailureCommand) {
      last = Status(Code::kUnreachable,
                    reply->args.empty() ? "failure"
                                        : reply->args[0].string_value());
      continue;
    }
    FailoverResult out;
    out.reply = reply.take();
    out.target_index = static_cast<int>(i);
    return out;
  }
  return last;
}

}  // namespace guardians
