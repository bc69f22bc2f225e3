#include "src/guardian/port_registry.h"

namespace guardians {

Status PortTypeRegistry::Register(const PortType& type) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(type.hash());
  if (it != types_.end()) {
    // Equal structures render equal canonical text, so the common case
    // (the same header compiled against again) needs no rendering; only a
    // structural difference is checked against the canonical texts.
    const PortType& known = it->second;
    if (known.name() == type.name() &&
        known.signatures() == type.signatures()) {
      return OkStatus();
    }
    if (known.Canonical() != type.Canonical()) {
      return Status(Code::kInternal, "port type hash collision for '" +
                                         type.name() + "'");
    }
    return OkStatus();
  }
  types_.emplace(type.hash(), type);
  return OkStatus();
}

const PortType* PortTypeRegistry::Lookup(uint64_t hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = types_.find(hash);
  return it == types_.end() ? nullptr : &it->second;
}

bool PortTypeRegistry::Knows(uint64_t hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  return types_.count(hash) > 0;
}

size_t PortTypeRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return types_.size();
}

}  // namespace guardians
