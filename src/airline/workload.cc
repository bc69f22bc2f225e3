#include "src/airline/workload.h"

#include <cstdio>

#include "src/obs/trace.h"
#include "src/sendprims/remote_call.h"

namespace guardians {

int64_t FlightNo(int region, int index) {
  return static_cast<int64_t>(region) * 1000 + index;
}

int RegionOfFlight(int64_t flight) { return static_cast<int>(flight / 1000); }

std::string DateString(int day_index) {
  // 1979-09-01 plus day_index days, across month lengths (non-leap 1979).
  static const int kMonthDays[] = {31, 28, 31, 30, 31, 30,
                                   31, 31, 30, 31, 30, 31};
  int year = 1979;
  int month = 8;  // 0-based September
  int day = day_index;
  for (;;) {
    const int in_month = kMonthDays[month];
    if (day < in_month) {
      break;
    }
    day -= in_month;
    if (++month == 12) {
      month = 0;
      ++year;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", year,
                static_cast<unsigned>(month + 1) % 100u,
                static_cast<unsigned>(day + 1) % 100u);
  return buf;
}

std::vector<std::vector<ClerkOp>> GenerateTransactions(
    const WorkloadParams& params) {
  Rng rng(params.seed);
  std::vector<std::vector<ClerkOp>> scripts;
  scripts.reserve(params.transactions);
  for (int t = 0; t < params.transactions; ++t) {
    const int home_region = params.regions > 0 ? t % params.regions : 0;
    std::vector<ClerkOp> ops;
    int performed = 0;
    for (int i = 0; i < params.ops_per_transaction; ++i) {
      ClerkOp op;
      const int region =
          rng.NextBool(params.local_fraction)
              ? home_region
              : static_cast<int>(rng.NextBelow(params.regions));
      op.flight = FlightNo(
          region, static_cast<int>(rng.NextBelow(params.flights_per_region)));
      op.date = DateString(static_cast<int>(rng.NextBelow(params.dates)));
      if (performed > 0 && rng.NextBool(params.undo_fraction)) {
        op.kind = ClerkOp::Kind::kUndoLast;
      } else if (rng.NextBool(params.cancel_fraction)) {
        op.kind = ClerkOp::Kind::kCancel;
      } else {
        op.kind = ClerkOp::Kind::kReserve;
      }
      ++performed;
      ops.push_back(std::move(op));
    }
    ops.push_back(ClerkOp{ClerkOp::Kind::kDone, 0, ""});
    scripts.push_back(std::move(ops));
  }
  return scripts;
}

Clerk::Clerk(Guardian& shell, std::string passenger)
    : shell_(shell), passenger_(std::move(passenger)) {
  term_ = shell_.AddPort(TermPortType(), /*capacity=*/128);
}

Clerk::~Clerk() { shell_.RetirePort(term_); }

PortName Clerk::term_port() const { return term_->name(); }

TransSummary Clerk::RunTransaction(const PortName& user_port,
                                   const std::vector<ClerkOp>& ops,
                                   Micros op_timeout, int max_retries) {
  TransSummary summary;

  // Each transaction is one causal chain: drop whatever trace this clerk
  // thread was in so the first send below mints a fresh trace id.
  SetCurrentTraceId(0);

  RemoteCallOptions start_options;
  start_options.timeout = op_timeout;
  start_options.max_attempts = 2;
  auto started = RemoteCall(
      shell_, user_port, "start_transaction",
      {Value::Str(passenger_), Value::OfPort(term_->name())},
      TransStartedReplyType(), start_options);
  if (!started.ok() || started->command != "trans_started") {
    return summary;
  }
  summary.started = true;
  const PortName trans = started->args[0].port_value();

  // Drain anything stale on the terminal before starting.
  while (shell_.Receive(term_, Micros(0)).ok()) {
  }

  for (const auto& op : ops) {
    int attempts_left = max_retries;
    for (;;) {
      Status sent;
      switch (op.kind) {
        case ClerkOp::Kind::kReserve:
          sent = shell_.Send(trans, "reserve",
                             {Value::Int(op.flight), Value::Str(op.date)});
          break;
        case ClerkOp::Kind::kCancel:
          sent = shell_.Send(trans, "cancel",
                             {Value::Int(op.flight), Value::Str(op.date)});
          break;
        case ClerkOp::Kind::kUndoLast:
          sent = shell_.Send(trans, "undo_last", {});
          break;
        case ClerkOp::Kind::kDone:
          sent = shell_.Send(trans, "done", {});
          break;
      }
      if (!sent.ok()) {
        ++summary.outcomes["send_error"];
        break;
      }
      auto response = shell_.Receive(term_, op_timeout);
      if (!response.ok()) {
        ++summary.outcomes["no_response"];
        break;  // move on; the transaction process may have missed the op
      }
      if (response->command == "trans_done") {
        summary.completed = true;
        auto reserves = response->args[0].field("reserves");
        if (reserves.ok()) {
          summary.reserves_standing = reserves->int_value();
        }
        return summary;
      }
      ++summary.outcomes[response->command];
      if (response->command == "cant_communicate" &&
          op.kind == ClerkOp::Kind::kReserve && attempts_left > 0) {
        // The clerk asks to retry; reserve is idempotent so this is safe.
        --attempts_left;
        ++summary.retries;
        continue;
      }
      break;
    }
  }
  return summary;
}

}  // namespace guardians
