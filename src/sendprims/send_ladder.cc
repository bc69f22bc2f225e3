// The §3 send ladder: the paper picks the no-wait send because the other
// sends "can be implemented by it". This is that construction, written
// once — one attempt path and one retry loop, of which SyncSend,
// ReliableSend, RemoteCall and FailoverCall are thin instantiations. Each
// attempt runs under one Deadline (its timeout, clipped by the call's own
// deadline and then by the inherited one, DESIGN.md §16) that covers its
// flow slot (§11) and sets the budget its no-wait send stamps and its wait
// for the ack or reply lasts.
#include <algorithm>
#include <numeric>
#include <optional>

#include "src/common/rng.h"
#include "src/guardian/node_runtime.h"
#include "src/guardian/system.h"
#include "src/obs/trace.h"
#include "src/sendprims/failover.h"
#include "src/sendprims/reliable_send.h"
#include "src/sendprims/remote_call.h"
#include "src/sendprims/sync_send.h"

namespace guardians {
namespace {

// What a whole call may spend: its own deadline (`own` <= 0: none), clipped
// by the inherited one.
class CallBudget {
 public:
  explicit CallBudget(const ClockSource& clock, Micros own = Micros(0))
      : clock_(clock),
        own_(own.count() > 0 ? Deadline(own, &clock)
                             : Deadline::Infinite(&clock)),
        inherited_at_(CurrentDeadlineAt()) {}

  // Time left, floored at 0; Micros::max() when unbounded.
  Micros Remaining() const {
    return std::min(own_.Remaining(), InheritedLeft());
  }
  // Under 1 µs left is spent, even while Deadline::Expired() reads false
  // (a sub-microsecond rest, or a backward skew step).
  bool Spent() const { return Remaining().count() <= 0; }
  // `timeout` clipped to a 1/`ways` share of the time left (at least 1 µs).
  Micros Clip(Micros timeout, int64_t ways = 1) const {
    if (own_.IsInfinite() && inherited_at_ == TimePoint::max()) return timeout;
    return std::min(timeout,
                    Micros(std::max<int64_t>(Remaining().count() / ways, 1)));
  }
  // A spent budget's kTimeout, naming the inherited deadline if it ran out.
  Status Exceeded(const std::string& when) const {
    const bool inherited = InheritedLeft().count() <= 0;
    return Status(Code::kTimeout, std::string(inherited ? "inherited " : "") +
                                      "deadline exceeded " + when);
  }

 private:
  Micros InheritedLeft() const {
    if (inherited_at_ == TimePoint::max()) return Micros::max();
    const TimePoint now = clock_.Now();
    return now >= inherited_at_
               ? Micros(0)
               : std::chrono::duration_cast<Micros>(inherited_at_ - now);
  }

  const ClockSource& clock_;
  const Deadline own_;
  const TimePoint inherited_at_;  // TimePoint::max(): none
};

// Retires an ephemeral ack or reply port on every way out of its scope.
class EphemeralPort {
 public:
  EphemeralPort(Guardian& owner, const PortType& type, size_t capacity)
      : owner_(owner), port_(owner.AddPort(type, capacity)) {}
  ~EphemeralPort() { owner_.RetirePort(port_); }
  EphemeralPort(const EphemeralPort&) = delete;
  EphemeralPort& operator=(const EphemeralPort&) = delete;
  Port* get() const { return port_; }

 private:
  Guardian& owner_;
  Port* const port_;
};

// Where a call's events are counted; null entries are not.
struct Ledger {
  Counter *attempts = nullptr, *timeouts = nullptr, *expired = nullptr,
          *full_nacks = nullptr, *deadline_exceeded = nullptr, *ok = nullptr,
          *hard_fail = nullptr, *exhausted = nullptr;
};

struct CallSpec {
  const PortName& to;
  const std::string& command;
  uint64_t dedup_seq = 0;  // shared by every attempt (0 = untracked)
  // The one parameter separating primitives 2 and 3. RemoteCall: any
  // message on this port answers. Null (SyncSend): each attempt waits on a
  // fresh ack port for the ack matching its message id.
  Port* reply_port = nullptr;
  Micros attempt_timeout{0};
  int max_attempts = 1;
  const CallBudget& budget;
  // ReliableSend's backoff after a timed-out attempt; null: retry at once.
  const ReliableSendOptions* backoff = nullptr;
  Rng* rng = nullptr;
  Histogram* backoff_us = nullptr;
  Ledger attempt{};  // ReliableSend counts each attempt as a SyncSend too
  Ledger call{};
};

struct CallResult {
  Status status{Code::kTimeout, "no attempts"};  // or why the last failed
  int attempts = 0;
  Micros total_backoff{0};
  Received reply;  // RemoteCall's answer
};

// kFailure: a failure(...) reply while attempts remain. kHardError: a local
// send error or node down, which retrying cannot help.
enum class Outcome { kOk, kTimeout, kExpired, kFull, kFailure, kHardError };

Outcome Attempt(Guardian& caller, const CallSpec& spec, ValueList args,
                bool final_attempt, CallResult& out) {
  NodeRuntime& rt = caller.runtime();
  // One deadline covers the flow wait and what is stamped for the rest.
  // Micros::max() is infinite: Deadline(Micros::max()) would overflow
  // Now() + timeout into the past.
  const Micros limit = spec.budget.Clip(spec.attempt_timeout);
  const Deadline deadline = limit == Micros::max()
                                ? Deadline::Infinite(&rt.clock())
                                : Deadline(limit, &rt.clock());
  // Defer-before-send: while the destination's window is closed or in a
  // congested hold, the message waits here instead of being shed at the
  // receiver's port.
  FlowSlot slot = rt.flow().Acquire(spec.to, deadline);
  if (!slot.ok()) {
    out.status = Status(Code::kTimeout, "flow window closed until deadline");
    return Outcome::kTimeout;
  }
  std::optional<EphemeralPort> ack;
  if (spec.reply_port == nullptr) {
    ack.emplace(caller, AckPortType(), rt.system().config().sync_ack_capacity);
  }
  Port* const port = ack ? ack->get() : spec.reply_port;
  // Stamp what is left onto the wire so the receiver sheds the message
  // once nobody waits for it. A budget the flow wait used up goes out as
  // 1 µs: on the wire 0 means "no deadline".
  const uint64_t budget_micros =
      deadline.IsInfinite() ? 0
                            : static_cast<uint64_t>(std::max<int64_t>(
                                  deadline.Remaining().count(), 1));
  auto sent = caller.SendFull(spec.to, spec.command, std::move(args),
                              ack ? PortName{} : port->name(),
                              ack ? port->name() : PortName{}, spec.dedup_seq,
                              budget_micros);
  if (!sent.ok()) {
    out.status = sent.status();
    return Outcome::kHardError;
  }
  // Wait for the answer exactly as long as the receiver was promised,
  // counted from the hand-off: the network charges the message's age only
  // from there, so the receiver may act until then, and an answer to work
  // done at the edge of the budget must still find us waiting.
  const Deadline answer_by =
      deadline.IsInfinite() ? deadline
                            : Deadline(Micros(budget_micros), &rt.clock());
  const std::string want = ack ? std::to_string(*sent) : std::string();
  for (;;) {
    auto received = caller.Receive(port, answer_by.Remaining());
    if (!received.ok()) {
      out.status = received.status();
      return out.status.code() == Code::kTimeout ? Outcome::kTimeout
                                                 : Outcome::kHardError;
    }
    const ValueList& why = received->args;
    const bool failure = received->command == kFailureCommand;
    if (!ack) {
      if (failure && !final_attempt) {
        // The server is recovering, or shed the request: retried like a
        // timeout while attempts remain, the answer on the last one.
        out.status = Status(Code::kUnreachable,
                            why.empty() ? "failure" : why[0].ToString());
        return Outcome::kFailure;
      }
      slot.Success();  // the call pattern's credit: replies carry none
      out.reply = std::move(*received);
      return Outcome::kOk;
    }
    if (failure) {
      // The receiver shed it: its budget died in flight or in the queue (a
      // deadline outcome, not congestion), or its port was full (fail fast;
      // the window halved on the nack and its congested hold paces the
      // retry).
      const bool expired =
          !why.empty() && why[0].is(TypeTag::kString) &&
          why[0].string_value().starts_with("deadline expired");
      out.status = expired ? Status(Code::kTimeout, why[0].string_value())
                           : Status(Code::kPortFull,
                                    why.empty() ? "message shed at target port"
                                                : why[0].ToString());
      return expired ? Outcome::kExpired : Outcome::kFull;
    }
    if (received->command == "ack" && !why.empty() &&
        why[0].is(TypeTag::kString) && why[0].string_value() == want) {
      return Outcome::kOk;
    }
    if (answer_by.Expired()) {  // only stale or foreign acks came
      out.status = Status(Code::kTimeout, "no receipt acknowledgement");
      return Outcome::kTimeout;
    }
  }
}

void Count(const CallSpec& spec, Counter* Ledger::*event) {
  for (const Ledger* ledger : {&spec.attempt, &spec.call}) {
    if (Counter* counter = ledger->*event) counter->Inc();
  }
}

CallResult RunCall(Guardian& caller, const CallSpec& spec, ValueList args) {
  CallResult out;
  double backoff_us =
      spec.backoff ? static_cast<double>(spec.backoff->initial_backoff.count())
                   : 0.0;
  for (int attempt = 1; attempt <= spec.max_attempts; ++attempt) {
    if (spec.budget.Spent()) {
      Count(spec, &Ledger::deadline_exceeded);
      out.status = spec.budget.Exceeded(
          "after " + std::to_string(out.attempts) + " attempts");
      return out;
    }
    out.attempts = attempt;
    Count(spec, &Ledger::attempts);
    // The last attempt hands the arguments over; earlier ones send copies.
    const bool final_attempt = attempt == spec.max_attempts;
    switch (Attempt(caller, spec, final_attempt ? std::move(args) : args,
                    final_attempt, out)) {
      case Outcome::kOk:
        Count(spec, &Ledger::ok);
        out.status = OkStatus();
        return out;
      case Outcome::kHardError:
        Count(spec, &Ledger::hard_fail);
        return out;
      case Outcome::kFull:  // no backoff: the congested hold paces it
        Count(spec, &Ledger::full_nacks);
        continue;
      case Outcome::kFailure:
        continue;
      case Outcome::kExpired:
        Count(spec, &Ledger::expired);
        break;
      case Outcome::kTimeout:
        Count(spec, &Ledger::timeouts);
        break;
    }
    if (final_attempt || backoff_us <= 0.0) continue;
    // ±jitter around the current step, capped at max_backoff and never
    // sleeping past the budget.
    const ReliableSendOptions& b = *spec.backoff;
    double jittered =
        backoff_us * (1.0 + b.jitter * (2.0 * spec.rng->NextDouble() - 1.0));
    jittered = std::min(
        std::clamp(jittered, 0.0, static_cast<double>(b.max_backoff.count())),
        static_cast<double>(spec.budget.Remaining().count()));
    const Micros delay(static_cast<int64_t>(jittered));
    if (delay.count() > 0) {
      spec.backoff_us->Observe(static_cast<uint64_t>(delay.count()));
      caller.runtime().clock().SleepFor(delay);
      out.total_backoff += delay;
    }
    backoff_us = std::min(backoff_us * b.backoff_multiplier,
                          static_cast<double>(b.max_backoff.count()));
  }
  Count(spec, &Ledger::exhausted);
  return out;
}

}  // namespace

Status SyncSend(Guardian& sender, const PortName& to,
                const std::string& command, ValueList args, Micros timeout,
                uint64_t dedup_seq) {
  const auto& c = sender.runtime().system().sendprim_counters().sync;
  c.calls->Inc();
  const CallBudget budget(sender.runtime().clock());
  return RunCall(sender,
                 {.to = to, .command = command, .dedup_seq = dedup_seq,
                  .attempt_timeout = timeout, .budget = budget,
                  .call = {.timeouts = c.timeouts, .expired = c.expired,
                           .full_nacks = c.full_nacks,
                           .deadline_exceeded = c.timeouts}},
                 std::move(args))
      .status;
}

Result<ReliableSendResult> ReliableSend(Guardian& sender, const PortName& to,
                                        const std::string& command,
                                        const ValueList& args,
                                        const ReliableSendOptions& options) {
  const auto& c = sender.runtime().system().sendprim_counters();
  c.reliable.calls->Inc();
  Rng rng = sender.runtime().ForkRng();
  const uint64_t dedup_seq = sender.runtime().NextDedupSeq();
  const CallBudget budget(sender.runtime().clock(), options.deadline);
  // Every attempt is a synchronization send, and counts as one.
  CallResult result = RunCall(
      sender,
      {.to = to, .command = command, .dedup_seq = dedup_seq,
       .attempt_timeout = options.ack_timeout,
       .max_attempts = options.max_attempts, .budget = budget,
       .backoff = &options, .rng = &rng,
       .backoff_us = c.reliable.backoff_us,
       .attempt = {.attempts = c.sync.calls, .timeouts = c.sync.timeouts,
                   .expired = c.sync.expired,
                   .full_nacks = c.sync.full_nacks},
       .call = {.attempts = c.reliable.attempts,
                .timeouts = c.reliable.timeouts,
                .expired = c.reliable.timeouts,
                .full_nacks = c.reliable.full_nacks,
                .deadline_exceeded = c.reliable.deadline_exceeded,
                .ok = c.reliable.ok, .hard_fail = c.reliable.hard_fail,
                .exhausted = c.reliable.exhausted}},
      args);
  if (!result.status.ok()) return result.status;
  return ReliableSendResult{result.attempts, result.total_backoff};
}

Result<RemoteReply> RemoteCall(Guardian& caller, const PortName& to,
                               const std::string& command, ValueList args,
                               const PortType& reply_type,
                               const RemoteCallOptions& options) {
  const auto& c = caller.runtime().system().sendprim_counters().call;
  c.calls->Inc();
  const CallBudget budget(caller.runtime().clock());
  // One reply port for every attempt, so a replayed cached reply still
  // lands where we are waiting.
  const EphemeralPort reply_port(caller, reply_type, /*capacity=*/8);
  CallResult result = RunCall(
      caller,
      {.to = to, .command = command,
       .dedup_seq = caller.runtime().NextDedupSeq(),
       .reply_port = reply_port.get(), .attempt_timeout = options.timeout,
       .max_attempts = options.max_attempts, .budget = budget,
       .call = {.attempts = c.attempts, .timeouts = c.timeouts,
                .deadline_exceeded = c.deadline_exceeded}},
      std::move(args));
  if (!result.status.ok()) return result.status;
  return RemoteReply{std::move(result.reply.command),
                     std::move(result.reply.args), result.attempts};
}

Result<FailoverResult> FailoverCall(Guardian& caller,
                                    const std::vector<PortName>& targets,
                                    const std::string& command,
                                    const ValueList& args,
                                    const PortType& reply_type,
                                    const RemoteCallOptions& per_target) {
  System& system = caller.runtime().system();
  const auto& counters = system.sendprim_counters().failover;
  counters.calls->Inc();
  // Replica order: healthy first. A replica the supervisor has quarantined
  // is known to be crash-looping, so trying it first would burn a full
  // per-target timeout; it is demoted to a last resort (not skipped
  // outright — the caller's list is still exhausted before giving up).
  std::vector<size_t> order(targets.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const auto demoted =
      std::stable_partition(order.begin(), order.end(), [&](size_t i) {
        return !system.NodeQuarantined(targets[i].node);
      });
  counters.quarantine_skips->Inc(order.end() - demoted);
  // Under an inherited budget each replica gets an even share of what is
  // left when its turn comes: a slow first replica must not turn every
  // later one into a zero-time attempt.
  const CallBudget budget(caller.runtime().clock());
  Status last(Code::kUnreachable, "no targets");
  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const size_t i = order[attempt];
    if (attempt > 0) counters.failovers->Inc();  // the last one failed us
    if (budget.Spent()) {
      counters.deadline_exceeded->Inc();
      last = budget.Exceeded("after " + std::to_string(attempt) + " of " +
                             std::to_string(order.size()) + " replicas");
      break;
    }
    RemoteCallOptions opts = per_target;
    opts.timeout = budget.Clip(per_target.timeout,
                               static_cast<int64_t>(order.size() - attempt));
    auto reply =
        RemoteCall(caller, targets[i], command, args, reply_type, opts);
    if (!reply.ok()) {
      if (reply.status().code() == Code::kTypeError ||
          reply.status().code() == Code::kEncodeError) {
        return reply.status();  // local problem; no replica will differ
      }
      last = reply.status();
      continue;
    }
    if (reply->command == kFailureCommand) {
      last = Status(Code::kUnreachable,
                    reply->args.empty() ? "failure"
                                        : reply->args[0].string_value());
      continue;
    }
    FailoverResult out;
    out.reply = reply.take();
    out.target_index = static_cast<int>(i);
    return out;
  }
  return last;
}

}  // namespace guardians
