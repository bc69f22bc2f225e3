// FailoverCall: availability from redundant guardians.
//
// The paper's introduction lists "the potential for better reliability and
// higher availability" among the advantages of distribution: a service
// offered by guardians at several nodes stays reachable when a node is
// down. Nothing new is needed from the system — port names are values, so
// a client simply holds several and tries them in order, exactly the kind
// of application protocol the no-wait send + timeout was chosen to permit.
//
// Guarantees under the at-most-once layer (DESIGN.md §10), made precise:
//
//  - Per replica: at most one execution. Each target gets its own dedup
//    sequence number (a fresh RemoteCall), so retries *against one
//    replica* never double-execute there, even across that replica's
//    crash-and-recovery while its reply cache survives.
//  - Across replicas: at most one execution PER REPLICA TRIED, not one
//    overall. Replicas are distinct guardians with distinct state and
//    distinct dedup tables; when failover moves on after a timeout, the
//    earlier target may still have performed the request even though its
//    reply was lost. Nothing correlates the two attempts.
//  - Across demotion: quarantine only reorders the try list. A demoted
//    replica that recovers mid-call is still tried (at the back), under
//    the same rules; a replica tried *before* it was quarantined may have
//    executed. Demotion never cancels an execution already performed.
//
// So FailoverCall is exactly-once only when the request is idempotent
// across replicas (e.g. reads, or writes the replicas reconcile), or when
// the replicas share the deduplicating resource. For single-home
// non-idempotent state, use RemoteCall with retries against the one home.
#ifndef GUARDIANS_SRC_SENDPRIMS_FAILOVER_H_
#define GUARDIANS_SRC_SENDPRIMS_FAILOVER_H_

#include <vector>

#include "src/sendprims/remote_call.h"

namespace guardians {

struct FailoverResult {
  RemoteReply reply;
  int target_index = -1;  // which replica answered
};

// Try `targets` in order with the given per-target options; the first
// non-failure reply wins. kUnreachable when every replica failed.
// Replicas whose node a fault Supervisor has quarantined (known
// crash-looping — see System::NodeQuarantined) are demoted to the end of
// the order instead of burning a full per-target timeout up front;
// target_index always refers to the caller's original list. Under an
// inherited deadline (§16) each replica gets an even share of what is left.
Result<FailoverResult> FailoverCall(Guardian& caller,
                                    const std::vector<PortName>& targets,
                                    const std::string& command,
                                    const ValueList& args,
                                    const PortType& reply_type,
                                    const RemoteCallOptions& per_target);

}  // namespace guardians

#endif  // GUARDIANS_SRC_SENDPRIMS_FAILOVER_H_
