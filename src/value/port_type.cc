#include "src/value/port_type.h"

#include <sstream>

#include "src/common/bytes.h"

namespace guardians {

bool ArgType::Matches(const Value& v) const {
  if (tag == TypeTag::kAny) {
    return true;
  }
  if (v.tag() != tag) {
    return false;
  }
  if (tag == TypeTag::kAbstract) {
    return v.abstract_value()->TypeName() == abstract_name;
  }
  return true;
}

std::string ArgType::Canonical() const {
  if (tag == TypeTag::kAbstract) {
    return "abstract<" + abstract_name + ">";
  }
  return std::string(TypeTagName(tag));
}

std::string MessageSig::Canonical() const {
  std::ostringstream os;
  os << command << '(';
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << args[i].Canonical();
  }
  os << ')';
  if (!replies.empty()) {
    os << " replies(";
    for (size_t i = 0; i < replies.size(); ++i) {
      if (i > 0) {
        os << ',';
      }
      os << replies[i];
    }
    os << ')';
  }
  return os.str();
}

PortType::PortType(std::string name, std::vector<MessageSig> sigs)
    : name_(std::move(name)), sigs_(std::move(sigs)) {
  hash_ = Fnv1a64(Canonical());
}

std::string PortType::Canonical() const {
  std::ostringstream os;
  os << "port " << name_ << " {";
  for (const auto& sig : sigs_) {
    os << ' ' << sig.Canonical() << ';';
  }
  os << " }";
  return os.str();
}

const MessageSig& FailureSig() {
  static const MessageSig failure{
      kFailureCommand, {ArgType::Of(TypeTag::kString)}, {}};
  return failure;
}

const MessageSig* PortType::Find(const std::string& command) const {
  if (command == kFailureCommand) {
    return &FailureSig();
  }
  for (const auto& sig : sigs_) {
    if (sig.command == command) {
      return &sig;
    }
  }
  return nullptr;
}

Status PortType::Check(const std::string& command, const ValueList& args,
                       bool has_reply_port) const {
  const MessageSig* sig = Find(command);
  if (sig == nullptr) {
    return Status(Code::kTypeError, "port type '" + name_ +
                                        "' has no command '" + command + "'");
  }
  if (args.size() != sig->args.size()) {
    std::ostringstream os;
    os << "command '" << command << "' of port type '" << name_ << "' takes "
       << sig->args.size() << " argument(s), got " << args.size();
    return Status(Code::kTypeError, os.str());
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!sig->args[i].Matches(args[i])) {
      std::ostringstream os;
      os << "argument " << i << " of '" << command << "': expected "
         << sig->args[i].Canonical() << ", got "
         << TypeTagName(args[i].tag());
      return Status(Code::kTypeError, os.str());
    }
  }
  if (has_reply_port && sig->replies.empty() && command != kFailureCommand) {
    return Status(Code::kTypeError,
                  "command '" + command +
                      "' declares no replies but a replyto port was given");
  }
  return OkStatus();
}

bool PortType::ExpectsReply(const std::string& command) const {
  const MessageSig* sig = Find(command);
  return sig != nullptr && !sig->replies.empty();
}

}  // namespace guardians
