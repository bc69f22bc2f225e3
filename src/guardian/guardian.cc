#include "src/guardian/guardian.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/common/bytes.h"
#include "src/common/log.h"
#include "src/fault/crashpoint.h"
#include "src/guardian/node_runtime.h"
#include "src/guardian/system.h"
#include "src/obs/trace.h"

namespace guardians {

void Guardian::Attach(NodeRuntime* rt, GuardianId gid, std::string gname,
                      uint64_t seal) {
  runtime_ = rt;
  id_ = gid;
  name_ = std::move(gname);
  seal_ = seal;
}

NodeId Guardian::node() const { return runtime_->id(); }

Port* Guardian::AddPort(const PortType& type, size_t capacity,
                        bool provided) {
  std::lock_guard<std::mutex> lock(ports_mu_);
  const uint32_t index = next_index_++;
  if (!provided) {
    auto pooled = pool_.find({type.hash(), capacity});
    if (pooled != pool_.end() && !pooled->second.empty()) {
      // Recycle a retired object: its type was registered when it was
      // made. Re-keying the map node moves the object from its old name to
      // the new one without allocating.
      Port* p = pooled->second.back();
      pooled->second.pop_back();
      auto node = by_index_.extract(p->name().port_index);
      assert(!node.empty());
      p->Reuse(index);
      node.key() = index;
      by_index_.insert(std::move(node));
      return p;
    }
  }
  PortName pn;
  pn.node = runtime_->id();
  pn.guardian = id_;
  pn.port_index = index;
  pn.type_hash = type.hash();
  // "Compile" the header into the system-wide library so any sender can
  // check against it.
  Status registered = runtime_->system().port_types().Register(type);
  if (!registered.ok()) {
    GLOG_ERROR << "port type registration failed: " << registered;
  }
  ports_.push_back(std::make_unique<Port>(pn, type, &mailbox_, capacity));
  Port* p = ports_.back().get();
  by_index_.emplace(index, p);
  if (provided) {
    provided_.push_back(pn);
  }
  return p;
}

void Guardian::RetirePort(Port* p) {
  if (!p->Retire()) {
    return;  // already retired (and pooled, if it went through here)
  }
  std::lock_guard<std::mutex> lock(ports_mu_);
  pool_[{p->type().hash(), p->capacity()}].push_back(p);
}

std::vector<PortName> Guardian::ProvidedPorts() const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  return provided_;
}

Port* Guardian::port(size_t i) const {
  Port* p = FindPort(static_cast<uint32_t>(i));
  assert(p != nullptr);
  return p;
}

Port* Guardian::FindPort(uint32_t index) const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  auto it = by_index_.find(index);
  return it == by_index_.end() ? nullptr : it->second;
}

bool Guardian::PortIndexIssued(uint32_t index) const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  return index < next_index_;
}

Status Guardian::Send(const PortName& to, const std::string& command,
                      ValueList args) {
  return SendFull(to, command, std::move(args), PortName{}, PortName{})
      .status();
}

Status Guardian::Send(const PortName& to, const std::string& command,
                      ValueList args, const PortName& reply_to) {
  return SendFull(to, command, std::move(args), reply_to, PortName{})
      .status();
}

Result<uint64_t> Guardian::SendFull(const PortName& to,
                                    const std::string& command,
                                    ValueList args, const PortName& reply_to,
                                    const PortName& ack_to,
                                    uint64_t dedup_seq,
                                    uint64_t deadline_micros) {
  Envelope env;
  env.msg_id = runtime_->NextMsgId();
  if (dedup_seq != 0) {
    // Tracked send: the receiver deduplicates on (session, seq), so every
    // retry of one logical operation must pass the same seq back in.
    env.session_id = runtime_->SendSession();
    env.dedup_seq = dedup_seq;
  }
  // Join the causal chain this process is working in, or start a new trace
  // (identified by this message's globally unique id) at an origin send.
  uint64_t trace_id = CurrentTraceId();
  if (trace_id == 0) {
    trace_id = env.msg_id;
    SetCurrentTraceId(trace_id);
  }
  env.trace_id = trace_id;
  env.src_node = runtime_->id();
  env.target = to;
  env.reply_to = reply_to;
  env.ack_to = ack_to;
  env.deadline_micros = deadline_micros;
  env.command = command;
  env.args = std::move(args);
  const uint64_t msg_id = env.msg_id;
  GUARDIANS_RETURN_IF_ERROR(runtime_->Transmit(std::move(env)));
  return msg_id;
}

Result<Received> Guardian::Receive(std::span<Port* const> ports,
                                   Micros timeout) {
  assert(!ports.empty());
  for (Port* p : ports) {
    assert(p->mailbox() == &mailbox_ &&
           "only processes within a guardian can receive from its ports");
    (void)p;
  }
  const ClockSource& clock = runtime_->clock();
  const Deadline deadline = timeout == Micros::max()
                                ? Deadline::Infinite(&clock)
                                : Deadline(timeout, &clock);
  std::unique_lock<std::mutex> lock(mailbox_.mu);
  // Priority scan of the port list, lazily discarding entries whose
  // propagated deadline budget died while they sat in the queue (§16): a
  // backed-up port drains dead work at dequeue speed instead of executing
  // it. Finishing a dead entry (failure nack, dedup rollback, metrics)
  // takes node locks, so it happens outside the mailbox lock.
  auto pop_live = [&]() -> std::optional<Received> {
    for (Port* p : ports) {
      while (p->HasMessageLocked()) {
        Received message = p->PopLocked();
        if (message.deadline_at == TimePoint::max() ||
            clock.Now() < message.deadline_at) {
          return message;
        }
        lock.unlock();
        runtime_->FinishExpiredAtDequeue(std::move(message));
        lock.lock();
      }
    }
    return std::nullopt;
  };
  // A wait that ends at the deadline scans once more: a message may have
  // arrived with the timeout.
  bool timed_out = false;
  for (;;) {
    if (mailbox_.closed) {
      return Status(Code::kNodeDown, "guardian's node is down");
    }
    if (std::optional<Received> message = pop_live()) {
      lock.unlock();
      runtime_->NoteReceived(*message);
      if (!message->ack_to.IsNull()) {
        // The synchronization send's receipt notification: the message
        // has now been received by the target process.
        runtime_->SendAck(*message);
      }
      return std::move(*message);
    }
    if (timed_out) {
      return Status(Code::kTimeout,
                    "receive timed out; nothing is known about the true "
                    "state of affairs");
    }
    // A predicate wait, which also covers whatever arrived while the scan
    // dropped the lock. Under a simulated clock the wait itself drops the
    // lock to register, and a bare wait would lose a close or an arrival
    // notified in that gap — forever, when the deadline is infinite.
    timed_out = deadline.Expired() ||
                !clock.WaitUntil(mailbox_.cv, lock, deadline.at(), [&] {
                  return mailbox_.closed ||
                         std::ranges::any_of(ports, &Port::HasMessageLocked);
                });
  }
}

namespace {
// Authenticator over a sealed handle: without the guardian-private seal,
// neither the handle nor the check field can be forged consistently.
uint64_t TokenMac(GuardianId owner, uint64_t seal, uint64_t sealed_handle) {
  uint64_t material[3] = {owner, seal, sealed_handle};
  return Fnv1a64(material, sizeof(material));
}
}  // namespace

Token Guardian::Seal(uint64_t handle) {
  Token t;
  t.owner = id_;
  t.handle = handle ^ seal_;  // hidden from everyone without the seal
  t.seal = TokenMac(id_, seal_, t.handle);
  return t;
}

Result<uint64_t> Guardian::Unseal(const Token& token) const {
  if (token.owner != id_ || token.seal != TokenMac(id_, seal_, token.handle)) {
    return Status(Code::kBadToken,
                  "token was not sealed by this guardian (or was sealed by a "
                  "previous incarnation)");
  }
  return token.handle ^ seal_;
}

void Guardian::Fork(std::string process_name, std::function<void()> body) {
  // Guardian processes run under the owning node's fault scope, so armed
  // crashpoints attribute their stable-storage work to the right node; a
  // triggered crashpoint throws to abandon the doomed operation and must
  // end the process here rather than escape into std::thread.
  NodeRuntime* node = runtime_;
  processes_.Fork(name_ + "/" + process_name,
                  [node, body = std::move(body)] {
                    ScopedFaultScope scope(node);
                    try {
                      body();
                    } catch (const CrashPointTriggered&) {
                      // The node is crashing; this process dies with it.
                    }
                  });
}

void Guardian::ReapProcesses() { processes_.Reap(); }

bool Guardian::Closed() const {
  std::lock_guard<std::mutex> lock(mailbox_.mu);
  return mailbox_.closed;
}

std::vector<Guardian::PortStat> Guardian::PortStats() const {
  std::lock_guard<std::mutex> lock(ports_mu_);
  std::vector<PortStat> stats;
  stats.reserve(ports_.size());
  for (const auto& p : ports_) {
    PortStat ps;
    ps.name = p->name().ToString();
    ps.type_name = p->type().name();
    ps.depth = p->depth();
    ps.capacity = p->capacity();
    ps.enqueued = p->enqueued();
    ps.discarded_full = p->discarded_full();
    ps.discarded_retired = p->discarded_retired();
    ps.control_overflow = p->control_overflow();
    ps.retired = p->retired();
    stats.push_back(std::move(ps));
  }
  return stats;
}

Wal* Guardian::OpenLog(const std::string& resource) {
  std::lock_guard<std::mutex> lock(wals_mu_);
  auto it = wals_.find(resource);
  if (it != wals_.end()) {
    return it->second.get();
  }
  auto wal = std::make_unique<Wal>(&runtime_->stable_store(),
                                   "g/" + name_ + "/" + resource);
  Wal* raw = wal.get();
  wals_.emplace(resource, std::move(wal));
  return raw;
}

void Guardian::CloseMailbox() {
  {
    std::lock_guard<std::mutex> lock(mailbox_.mu);
    mailbox_.closed = true;
  }
  mailbox_.cv.notify_all();
}

void Guardian::JoinProcesses() { processes_.JoinAll(); }

}  // namespace guardians
