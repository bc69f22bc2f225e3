// airline_wan: the paper's airline reservation system over a 200 us link.
//
// BuildAirline with 2 regions of 4 flights (serializer organization,
// logging on); 4 clerk threads, each at its home region's node, run seeded
// GenerateTransactions scripts (6 ops each, 70% to the clerk's own region)
// through Clerk::RunTransaction. One op is one transaction. This exercises
// the application protocol — 4-hop forwarding with the reply bypassing the
// regional manager (Fig. 4), WAL appends, timed waits on a non-zero link —
// and supplies the stable-storage writes neither other workload makes.
//
// Each script is one passenger's, rerun by its clerk whenever the clerk's
// scripts come round again, so the flights' state stops growing once every
// script has run (repeat customers; the warm-up covers the first pass).
// Flights have room for every passenger, so every reserve is answered ok or
// pre_reserved, and the outcome of a script follows from the seats its
// passenger holds when it starts: the benchmark checks each transaction's
// replies and standing reservations against that model, and at the end the
// flights' reservations against the seats the models say are held.
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/airline/airline_system.h"
#include "src/airline/trans_history.h"
#include "src/airline/workload.h"

namespace guardians::perfbench {
namespace {

constexpr int kClerks = 4;
constexpr int kRegions = 2;
constexpr int kFlightsPerRegion = 4;
constexpr int kScriptsPerClerk = 512;
// Room for every passenger a run can make, so no reserve is refused.
constexpr int kCapacity = 1 << 30;

using Seats = std::set<std::pair<int64_t, std::string>>;  // (flight, date)

// What a transaction must report when nothing fails: the terminal replies
// by command and TransHistory's standing reserves.
struct Expected {
  std::map<std::string, int> outcomes;
  int64_t reserves_standing = 0;
};

// Runs `script` for a passenger holding `held`, which becomes the seats the
// passenger holds after the done-time cancels.
Expected Model(const std::vector<ClerkOp>& script, Seats* held) {
  Expected expected;
  TransHistory history;
  for (const ClerkOp& op : script) {
    switch (op.kind) {
      case ClerkOp::Kind::kReserve:
        if (held->insert({op.flight, op.date}).second) {
          history.AddReserve(op.flight, op.date);
          ++expected.outcomes["ok"];
        } else {
          ++expected.outcomes["pre_reserved"];
        }
        break;
      case ClerkOp::Kind::kCancel:
        history.AddCancel(op.flight, op.date);
        ++expected.outcomes["deferred"];
        break;
      case ClerkOp::Kind::kUndoLast:
        ++expected.outcomes[history.UndoLast() ? "undone" : "illegal"];
        break;
      case ClerkOp::Kind::kDone:
        for (const auto& cancel : history.CancelsToPerform()) {
          held->erase({cancel.flight, cancel.date});
        }
        break;
    }
  }
  expected.reserves_standing = history.ActiveReserves();
  return expected;
}

class AirlineWan : public Workload {
 public:
  explicit AirlineWan(uint64_t seed) : seed_(seed) {
    for (int c = 0; c < kClerks; ++c) {
      WorkloadParams params;
      params.regions = kRegions;
      params.flights_per_region = kFlightsPerRegion;
      params.transactions = kScriptsPerClerk * kRegions;
      params.ops_per_transaction = 6;
      params.local_fraction = 0.7;
      params.seed = seed * kClerks + static_cast<uint64_t>(c) + 1;
      auto all = GenerateTransactions(params);
      // Script t's home region is t % regions; keep the clerk's own.
      std::vector<std::vector<ClerkOp>> mine;
      for (size_t t = static_cast<size_t>(c % kRegions); t < all.size();
           t += kRegions) {
        mine.push_back(std::move(all[t]));
      }
      scripts_.push_back(std::move(mine));
    }
  }

  double Setup() override {
    system_.reset();
    shells_.clear();
    user_ports_.clear();
    txns_.assign(kClerks, 0);
    held_.assign(kClerks, std::vector<Held>(kScriptsPerClerk));
    uncertain_ = false;
    const int64_t start = NowNs();
    SystemConfig config;
    config.seed = seed_;
    config.default_link.latency = Micros(200);
    system_ = std::make_unique<System>(config);
    AirlineParams params;
    params.regions = kRegions;
    params.flights_per_region = kFlightsPerRegion;
    params.capacity = kCapacity;
    params.organization = FlightOrganization::kSerializer;
    params.logging = true;
    auto topology = BuildAirline(*system_, params);
    if (!topology.ok()) {
      checks_.Fail("BuildAirline: " + topology.status().ToString());
      return -1;
    }
    topology_ = *topology;
    for (int c = 0; c < kClerks; ++c) {
      const int region = c % kRegions;
      NodeRuntime& node = system_->node(topology_.region_nodes[region]);
      if (!node.KnowsGuardianType("shell")) {
        node.RegisterGuardianType("shell", MakeFactory<ShellGuardian>());
      }
      auto shell = node.Create<ShellGuardian>(
          "shell", "clerk-" + std::to_string(c), {});
      if (!shell.ok()) {
        checks_.Fail("create clerk shell: " + shell.status().ToString());
        return -1;
      }
      shells_.push_back(*shell);
      user_ports_.push_back(topology_.user_ports[region]);
    }
    if (!RunOp(0)) {
      checks_.Fail("first transaction failed");
      return -1;
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  int clients() const override { return kClerks; }

  uint64_t warmup_ops() const override { return 2000; }

  bool RunOp(int c) override {
    const uint64_t n = txns_[c]++;
    const uint64_t req = (static_cast<uint64_t>(c + 1) << 40) | n;
    const size_t script = n % scripts_[c].size();
    TransSummary summary;
    {
      ScopedSpan span("airline.txn", req);
      Clerk clerk(*shells_[c],
                  "c" + std::to_string(c) + "s" + std::to_string(script));
      summary = clerk.RunTransaction(user_ports_[c], scripts_[c][script],
                                     Millis(5000));
    }
    Held& held = held_[c][script];
    if (TracingOn()) {
      retries_.fetch_add(static_cast<uint64_t>(summary.retries));
    }
    if (!summary.completed || summary.retries > 0 ||
        summary.outcomes.count("cant_communicate") > 0 ||
        summary.outcomes.count("no_response") > 0 ||
        summary.outcomes.count("send_error") > 0) {
      // A timeout leaves the reservation state unknown (Section 3.5), and
      // with it every later outcome of this passenger's script.
      held.known = false;
      uncertain_ = true;
      return false;
    }
    if (!held.known) {
      return true;
    }
    const Expected expected = Model(scripts_[c][script], &held.seats);
    if (summary.outcomes != expected.outcomes ||
        summary.reserves_standing != expected.reserves_standing) {
      checks_.Fail("transaction " + std::to_string(req) +
                   " replies differ from its script's model");
      held.known = false;
      return false;
    }
    return true;
  }

  System& system() override { return *system_; }

  const char* RootSpan() const override { return "airline.txn"; }

  void FinalChecks() override {
    int64_t reserved = 0;
    int flights = 0;
    for (NodeId node_id : topology_.region_nodes) {
      NodeRuntime& node = system_->node(node_id);
      for (GuardianId gid = 2; gid < 256; ++gid) {
        auto* flight = dynamic_cast<FlightGuardian*>(node.FindGuardian(gid));
        if (flight == nullptr) {
          continue;
        }
        ++flights;
        const FlightDb db = flight->SnapshotDb();
        if (!db.CheckInvariants()) {
          checks_.Fail("flight " + std::to_string(db.flight_no()) +
                       " violates its invariants");
        }
        const FlightDb::Stats stats = db.GetStats();
        reserved += stats.reservations + stats.wait_listed;
      }
    }
    if (flights != kRegions * kFlightsPerRegion) {
      checks_.Fail("found " + std::to_string(flights) + " flights, built " +
                   std::to_string(kRegions * kFlightsPerRegion));
    }
    size_t held = 0;
    for (const auto& clerk : held_) {
      for (const Held& h : clerk) {
        held += h.seats.size();
      }
    }
    if (!uncertain_ && reserved != static_cast<int64_t>(held)) {
      checks_.Fail("flights hold " + std::to_string(reserved) +
                   " reservations, the passengers' models " +
                   std::to_string(held));
    }
  }

  std::vector<WireShape> Shapes() const override {
    WireShape shape;
    Envelope& env = shape.envelope;
    env.command = "reserve";
    env.target = topology_.regional_ports.empty()
                     ? PortName{}
                     : topology_.regional_ports[0];
    env.reply_to = env.target;
    env.session_id = 1;
    env.dedup_seq = 1;
    env.deadline_micros = 500000;
    env.args = {Value::Int(FlightNo(1, 3)), Value::Str("c3s123"),
                Value::Str(DateString(7))};
    return {shape};
  }

  void ResetLayerSamples() override { retries_ = 0; }

  void LayerMetrics(uint64_t ops, LayerTable* out) const override {
    (*out)["airline.retries_per_txn"] = {
        ops == 0 ? 0 : static_cast<double>(retries_.load()) /
                           static_cast<double>(ops),
        "count",
        "retries " + std::to_string(retries_.load()) + " / txns " +
            std::to_string(ops)};
  }

 private:
  const uint64_t seed_;
  // The seats a script's passenger holds, while its outcomes are known.
  struct Held {
    Seats seats;
    bool known = true;
  };

  std::vector<std::vector<std::vector<ClerkOp>>> scripts_;  // per clerk
  std::unique_ptr<System> system_;
  AirlineTopology topology_;
  std::vector<Guardian*> shells_;
  std::vector<PortName> user_ports_;
  // txns_[c] and held_[c] are touched by clerk c only.
  std::vector<uint64_t> txns_;
  std::vector<std::vector<Held>> held_;
  std::atomic<bool> uncertain_{false};
  std::atomic<uint64_t> retries_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeAirlineWan(uint64_t seed) {
  return std::make_unique<AirlineWan>(seed);
}

}  // namespace guardians::perfbench
