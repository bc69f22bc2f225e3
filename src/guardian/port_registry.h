// PortTypeRegistry: the analog of CLU's "library containing descriptions of
// guardian headers" (Section 3.2). Every port type in the system is
// registered here by its canonical hash; every send command is checked
// against the registered description before any bits go on the wire, giving
// the same guarantee as the paper's compile-time checking.
#ifndef GUARDIANS_SRC_GUARDIAN_PORT_REGISTRY_H_
#define GUARDIANS_SRC_GUARDIAN_PORT_REGISTRY_H_

#include <mutex>
#include <unordered_map>

#include "src/common/status.h"
#include "src/value/port_type.h"

namespace guardians {

class PortTypeRegistry {
 public:
  // Idempotent for identical definitions (the same header may be "compiled
  // against" at many nodes); conflicting redefinition of a hash is internal
  // corruption and fails.
  Status Register(const PortType& type);

  // The registered type, or null when the hash is unknown. Entries are
  // never replaced or removed and map nodes do not move, so the pointer
  // stays valid for the registry's lifetime.
  const PortType* Lookup(uint64_t hash) const;
  bool Knows(uint64_t hash) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, PortType> types_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_GUARDIAN_PORT_REGISTRY_H_
