// The remote transaction send (Section 3, primitive 3): "The sending
// process waits for a response from the receiving process that the command
// has been carried out" — Brinch Hansen's primitive, and the shape of
// remote invocation.
//
// Built on the no-wait send: the request carries an ephemeral reply port;
// the caller blocks on it with a timeout. On timeout "nothing is known
// about the true state of affairs" (Section 3.5), but every call is
// tracked — one dedup sequence number spans all attempts and the receiving
// node executes at most one (DESIGN.md §10) — so retrying a
// non-idempotent request is safe.
#ifndef GUARDIANS_SRC_SENDPRIMS_REMOTE_CALL_H_
#define GUARDIANS_SRC_SENDPRIMS_REMOTE_CALL_H_

#include <string>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/guardian/guardian.h"

namespace guardians {

struct RemoteCallOptions {
  // Per-attempt receive timeout ("the expression e would cause a delay long
  // enough to permit the request to complete under reasonable
  // circumstances").
  Micros timeout{Millis(500)};
  // Total attempts; >1 is sound even for non-idempotent requests, since
  // re-deliveries are answered from the receiver's reply cache. On
  // exhaustion the one execution may still have happened (Section 3.5).
  int max_attempts = 1;
};

struct RemoteReply {
  std::string command;  // one of the declared replies, or "failure"
  ValueList args;
  int attempts = 0;     // how many sends it took
};

// Send `command` to `to` and wait for any reply on a fresh reply port of
// `reply_type`. System failure(...) messages count as replies (command
// "failure") on the final attempt but trigger a retry while attempts
// remain, like timeouts do. Each attempt's timeout is clipped by the
// inherited deadline (§16) and covers the flow-slot wait; the request is
// stamped with what is left, and the reply is awaited that long
// (send_ladder.cc). A spent budget fails with kTimeout unsent.
Result<RemoteReply> RemoteCall(Guardian& caller, const PortName& to,
                               const std::string& command, ValueList args,
                               const PortType& reply_type,
                               const RemoteCallOptions& options = {});

// Ask `primordial` (another node's primordial port) to create a guardian
// there, returning its provided ports. Retrying is safe: the request is
// tracked and the target keys creation by guardian name, so retries — even
// across a crash of the target — converge on the one guardian made.
Result<std::vector<PortName>> CreateGuardianAt(
    Guardian& caller, const PortName& primordial,
    const std::string& type_name, const std::string& guardian_name,
    ValueList creation_args, bool persistent, Micros timeout,
    int max_attempts = 3);

}  // namespace guardians

#endif  // GUARDIANS_SRC_SENDPRIMS_REMOTE_CALL_H_
