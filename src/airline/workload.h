// Workload generation and the clerk driver for the airline experiments.
//
// The paper's clerks are humans at terminals; the substitution (DESIGN.md)
// is a scripted clerk that drives a UserGuardian through the same message
// protocol: start_transaction, then reserve/cancel/undo requests on the
// transaction port, results arriving on the clerk's terminal port.
#ifndef GUARDIANS_SRC_AIRLINE_WORKLOAD_H_
#define GUARDIANS_SRC_AIRLINE_WORKLOAD_H_

#include <map>
#include <string>
#include <vector>

#include "src/airline/types.h"
#include "src/common/rng.h"
#include "src/guardian/node_runtime.h"

namespace guardians {

// Flight numbering convention: region r owns flights r*1000 .. r*1000+999.
int64_t FlightNo(int region, int index);
int RegionOfFlight(int64_t flight);
// Day 0 = "1979-09-01"; increments are calendar-correct enough for keys.
std::string DateString(int day_index);

struct ClerkOp {
  enum class Kind { kReserve, kCancel, kUndoLast, kDone };
  Kind kind = Kind::kReserve;
  int64_t flight = 0;
  std::string date;
};

struct WorkloadParams {
  int regions = 1;
  int flights_per_region = 4;
  int dates = 8;
  int transactions = 16;
  int ops_per_transaction = 6;  // excluding the final done
  double cancel_fraction = 0.2;
  double undo_fraction = 0.05;
  // Fraction of a clerk's requests that target its *own* region (Figure 2's
  // "speed of access" claim needs a locality knob).
  double local_fraction = 1.0;
  uint64_t seed = 7;
};

// One op script per transaction, each ending with kDone. `home_region` of
// transaction t is t % params.regions.
std::vector<std::vector<ClerkOp>> GenerateTransactions(
    const WorkloadParams& params);

// Result of driving one transaction through a UserGuardian.
struct TransSummary {
  bool started = false;
  bool completed = false;        // trans_done received
  std::map<std::string, int> outcomes;  // term command -> count
  int retries = 0;               // reserve resends after cant_communicate
  int64_t reserves_standing = 0;  // from the trans_done summary
};

// A scripted reservations clerk: owns a terminal port on `shell` (the
// guardian that "manages the display"), and runs transactions against a
// user guardian.
class Clerk {
 public:
  // `shell` must outlive the Clerk. `passenger` identifies the customer.
  Clerk(Guardian& shell, std::string passenger);
  ~Clerk();

  // Drive one scripted transaction. `op_timeout` bounds each wait for a
  // terminal response; `max_retries` resends a reserve after
  // cant_communicate (sound: reserve is idempotent).
  TransSummary RunTransaction(const PortName& user_port,
                              const std::vector<ClerkOp>& ops,
                              Micros op_timeout, int max_retries = 2);

  PortName term_port() const;

 private:
  Guardian& shell_;
  std::string passenger_;
  Port* term_;
};

}  // namespace guardians

#endif  // GUARDIANS_SRC_AIRLINE_WORKLOAD_H_
