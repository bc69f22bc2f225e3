// CreateGuardianAt, the remote-creation flow over RemoteCall. RemoteCall
// itself is one rung of the send ladder (send_ladder.cc).
#include "src/sendprims/remote_call.h"

#include "src/guardian/node_runtime.h"

namespace guardians {

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
