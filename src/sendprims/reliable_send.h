// ReliableSend: at-least-once delivery built above the primitives.
//
// Section 3: "The no-wait send can usually ensure message delivery. The
// synchronization send can guarantee delivery (if it terminates)." Neither
// survives loss by itself; the guarantee the paper wants applications to
// build is this loop — send, await the receipt, resend on timeout — which
// is possible precisely because the chosen primitive composes.
//
// One dedup sequence number spans all attempts, so the receiver's
// at-most-once layer (DESIGN.md §10) acks resends without re-delivering
// them. Each attempt is a SyncSend under the rules every primitive shares
// (send_ladder.cc). A full-port nack is retried at once, paced by the
// window's congested hold; only timeouts back off. Outcomes are counted so
// .ok + .exhausted + .deadline_exceeded + .hard_fail sums to .calls.
#ifndef GUARDIANS_SRC_SENDPRIMS_RELIABLE_SEND_H_
#define GUARDIANS_SRC_SENDPRIMS_RELIABLE_SEND_H_

#include <string>

#include "src/guardian/guardian.h"

namespace guardians {

struct ReliableSendOptions {
  Micros ack_timeout{Millis(100)};  // per-attempt wait for the receipt
  int max_attempts = 10;
  // Exponential backoff between timed-out attempts, so a resend storm does
  // not deepen the overload that timed the ack out: initial_backoff *
  // backoff_multiplier^(attempt-1), capped at max_backoff, ±jitter.
  // initial_backoff = 0 retries at once.
  Micros initial_backoff{Millis(1)};
  Micros max_backoff{Millis(50)};
  double backoff_multiplier = 2.0;
  double jitter = 0.5;
  // Overall bound across every attempt and backoff sleep, clipped by the
  // inherited deadline (§16); 0 disables it. Once it is spent the call
  // fails with kTimeout (sendprims.reliable.deadline_exceeded).
  Micros deadline{0};
};

struct ReliableSendResult {
  int attempts = 0;  // sends performed (≥1 extra wire message each: the ack)
  Micros total_backoff{0};  // time spent sleeping between attempts
};

// Blocks until the target process has received (one copy of) the message,
// or attempts are exhausted (kTimeout: the guarantee is conditional on
// termination, exactly as the paper says).
Result<ReliableSendResult> ReliableSend(Guardian& sender, const PortName& to,
                                        const std::string& command,
                                        const ValueList& args,
                                        const ReliableSendOptions& options);

}  // namespace guardians

#endif  // GUARDIANS_SRC_SENDPRIMS_RELIABLE_SEND_H_
