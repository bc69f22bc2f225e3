// The synchronization send (Section 3, primitive 2): "The sending process
// waits until the message has been received by the target process" — the
// primitive of Hoare's CSP.
//
// Built, as the paper argues it can be, on the no-wait send: the message
// carries a hidden acknowledgement port, and the system acks when (and
// only when) a receive in the target guardian dequeues it. The extra wire
// message is intrinsic to the primitive; the SEND experiment measures it.
#ifndef GUARDIANS_SRC_SENDPRIMS_SYNC_SEND_H_
#define GUARDIANS_SRC_SENDPRIMS_SYNC_SEND_H_

#include <string>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/guardian/guardian.h"

namespace guardians {

// Blocks the calling process until the target process has received the
// message, or the timeout expires (a node failure would otherwise block the
// caller forever — "a subsequent node failure will disrupt communication").
// A kTimeout result leaves the true state unknown: the message may yet be
// received.
//
// A nonzero `dedup_seq` makes the send tracked for at-most-once execution:
// the receiving node suppresses re-deliveries of the same (session, seq) —
// including our own resends — but still acknowledges their receipt, so a
// retry loop above this primitive terminates without re-executing.
//
// The per-attempt rules are the ones every primitive shares
// (send_ladder.cc): the timeout is clipped by the inherited deadline (§16),
// and a spent one fails with kTimeout unsent; the wait for a flow slot
// (§11) counts against it; a full-port nack fails fast with kPortFull.
Status SyncSend(Guardian& sender, const PortName& to,
                const std::string& command, ValueList args, Micros timeout,
                uint64_t dedup_seq = 0);

}  // namespace guardians

#endif  // GUARDIANS_SRC_SENDPRIMS_SYNC_SEND_H_
