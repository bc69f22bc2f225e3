#include "src/sendprims/reliable_send.h"

#include <algorithm>
#include <thread>

#include "src/common/rng.h"
#include "src/guardian/node_runtime.h"
#include "src/guardian/system.h"
#include "src/sendprims/sync_send.h"

namespace guardians {

Result<ReliableSendResult> ReliableSend(Guardian& sender, const PortName& to,
                                        const std::string& command,
                                        const ValueList& args,
                                        const ReliableSendOptions& options) {
  const auto& counters =
      sender.runtime().system().sendprim_counters().reliable;
  counters.calls->Inc();

  Rng rng = sender.runtime().ForkRng();
  ReliableSendResult result;
  Status last(Code::kTimeout, "no attempts made");
  double backoff_us =
      static_cast<double>(options.initial_backoff.count());
  // One dedup sequence number for the whole call: every resend is the same
  // logical operation, so the receiver executes at most one of them.
  const uint64_t dedup_seq = sender.runtime().NextDedupSeq();
  const ClockSource& clock = sender.runtime().clock();
  const Deadline overall = options.deadline.count() > 0
                               ? Deadline(options.deadline, &clock)
                               : Deadline::Infinite(&clock);
  for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
    // Zero-remaining boundary: Remaining() can be 0µs while Expired() is
    // still false — the clamped floor after a backward clock-skew step, or
    // the clock landing exactly on the deadline between the two reads.
    // Before the fix, min(ack_timeout, 0) pushed a 0 timeout into
    // SyncSend, which reads 0 as an immediate poll — the attempt burned a
    // send and a dedup-tracked retry on a budget that was already gone.
    // A non-positive remaining budget IS the deadline being exceeded.
    const Micros remaining = overall.Remaining();
    if (overall.Expired() ||
        (!overall.IsInfinite() && remaining.count() <= 0)) {
      counters.deadline_exceeded->Inc();
      return Status(Code::kTimeout, "reliable send deadline exceeded after " +
                                        std::to_string(result.attempts) +
                                        " attempts");
    }
    result.attempts = attempt;
    counters.attempts->Inc();
    Status st = SyncSend(sender, to, command, args,
                         overall.IsInfinite()
                             ? options.ack_timeout
                             : std::min(options.ack_timeout, remaining),
                         dedup_seq);
    if (st.ok()) {
      counters.ok->Inc();
      return result;
    }
    if (st.code() != Code::kTimeout && st.code() != Code::kPortFull) {
      // Type error, node down, ...: retrying cannot help. Counted so the
      // per-call outcome breakdown (.ok + .exhausted + .deadline_exceeded
      // + .hard_fail) sums to .calls.
      counters.hard_fail->Inc();
      return st;
    }
    if (st.code() == Code::kPortFull) {
      // A fast full-port nack: the receiver shed the message and the
      // congestion window already halved. Retry without the blind
      // exponential backoff — the window's congested hold paces the next
      // SyncSend at the receiver's actual recovery rate.
      counters.full_nacks->Inc();
      last = st;
      continue;
    }
    counters.timeouts->Inc();
    last = st;
    if (attempt < options.max_attempts && backoff_us > 0.0) {
      // ±jitter around the current backoff step, capped at max_backoff and
      // never sleeping past the overall deadline.
      double jittered =
          backoff_us * (1.0 + options.jitter * (2.0 * rng.NextDouble() - 1.0));
      jittered = std::clamp(
          jittered, 0.0, static_cast<double>(options.max_backoff.count()));
      if (!overall.IsInfinite()) {
        jittered = std::min(
            jittered, static_cast<double>(overall.Remaining().count()));
      }
      const Micros delay(static_cast<int64_t>(jittered));
      if (delay.count() > 0) {
        counters.backoff_us->Observe(static_cast<uint64_t>(delay.count()));
        clock.SleepFor(delay);
        result.total_backoff += delay;
      }
      backoff_us = std::min(
          backoff_us * options.backoff_multiplier,
          static_cast<double>(options.max_backoff.count()));
    }
  }
  counters.exhausted->Inc();
  return last;
}

}  // namespace guardians
