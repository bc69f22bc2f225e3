// rpc_small: closed-loop RemoteCall echo at link latency 0.
//
// Two caller threads, each on its own shell guardian at node "client",
// call their own echo guardian at node "server" (created remotely through
// the server's primordial guardian). One op is one RemoteCall of
// echo(int request id, 32 B blob). This exercises the per-call path — the
// fresh reply port, the flow slot, the tracked send with its dedup journal
// entry and the thread handoffs — and bypasses batching, fragmentation,
// flight logging and timed waits on a non-zero link.
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/sendprims/remote_call.h"

namespace guardians::perfbench {
namespace {

constexpr int kCallers = 2;
constexpr size_t kBlobBytes = 32;
constexpr size_t kBlobPool = 64;

PortType EchoPortType() {
  return PortType("perfbench_echo",
                  {MessageSig{"echo",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {"echoed"}}});
}

PortType EchoReplyType() {
  return PortType("perfbench_echo_reply",
                  {MessageSig{"echoed",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {}}});
}

// Replies with its arguments. Spans: the wait in Receive, and the handling
// from Receive returning to the reply Send returning, with the Send inside.
class EchoGuardian : public Guardian {
 public:
  Status Setup(const ValueList& args) override {
    (void)args;
    AddPort(EchoPortType(), Port::kDefaultCapacity, /*provided=*/true);
    return OkStatus();
  }

  void Main() override {
    Port* in = port(0);
    for (;;) {
      const int64_t wait_start = NowNs();
      auto received = Receive(in, Micros::max());
      if (!received.ok()) {
        return;
      }
      const int64_t handle_start = NowNs();
      const uint64_t req =
          static_cast<uint64_t>(received->args[0].int_value());
      const int64_t send_start = NowNs();
      Status st = Send(received->reply_to, "echoed",
                       std::move(received->args));
      (void)st;  // a lost reply shows up as the caller's timeout
      RecordHandled(req, wait_start, handle_start, send_start, NowNs());
    }
  }
};

class RpcSmall : public Workload {
 public:
  explicit RpcSmall(uint64_t seed) : seed_(seed) {
    Rng rng(seed ^ 0x5250435f534d414cull);
    for (int c = 0; c < kCallers; ++c) {
      std::vector<Bytes> pool;
      for (size_t i = 0; i < kBlobPool; ++i) {
        Bytes blob(kBlobBytes);
        for (auto& b : blob) {
          b = static_cast<uint8_t>(rng.NextBelow(256));
        }
        pool.push_back(std::move(blob));
      }
      blobs_.push_back(std::move(pool));
    }
  }

  double Setup() override {
    world_ = ClientServerWorld();
    calls_.assign(kCallers, 0);
    const int64_t start = NowNs();
    Status built = BuildClientServer(seed_, "perfbench_echo",
                                     MakeFactory<EchoGuardian>(), kCallers,
                                     &world_);
    if (!built.ok()) {
      checks_.Fail("build the echo world: " + built.ToString());
      return -1;
    }
    if (!RunOp(0)) {
      checks_.Fail("first echo call failed");
      return -1;
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  int clients() const override { return kCallers; }

  uint64_t warmup_ops() const override { return 40000; }

  bool RunOp(int c) override {
    const uint64_t n = ++calls_[c];
    const uint64_t req = (static_cast<uint64_t>(c + 1) << 40) | n;
    const Bytes& blob = blobs_[c][n % kBlobPool];
    RemoteCallOptions options;
    options.timeout = Millis(5000);
    ScopedSpan span("sendprims.call", req);
    auto reply = RemoteCall(*world_.shells[c], world_.servers[c], "echo",
                            {Value::Int(static_cast<int64_t>(req)),
                             Value::Blob(blob)},
                            EchoReplyType(), options);
    if (!reply.ok() || reply->command != "echoed") {
      return false;
    }
    if (reply->args.size() != 2 ||
        reply->args[0].int_value() != static_cast<int64_t>(req) ||
        reply->args[1].bytes_value() != blob) {
      checks_.Fail("echo reply differs from the request " +
                   std::to_string(req));
      return false;
    }
    return true;
  }

  System& system() override { return *world_.system; }

  const char* RootSpan() const override { return "sendprims.call"; }

  std::vector<WireShape> Shapes() const override {
    WireShape shape;
    shape.envelope.command = "echo";
    shape.envelope.target =
        world_.servers.empty() ? PortName{} : world_.servers[0];
    shape.envelope.reply_to = shape.envelope.target;
    shape.envelope.session_id = 1;
    shape.envelope.dedup_seq = 1;
    shape.envelope.deadline_micros = 5000000;
    shape.envelope.args = {Value::Int(int64_t{1} << 40 | 12345),
                           Value::Blob(blobs_[0][0])};
    return {shape};
  }

 private:
  const uint64_t seed_;
  std::vector<std::vector<Bytes>> blobs_;
  ClientServerWorld world_;
  std::vector<uint64_t> calls_;  // calls_[c] is touched by client c only
};

}  // namespace

std::unique_ptr<Workload> MakeRpcSmall(uint64_t seed) {
  return std::make_unique<RpcSmall>(seed);
}

}  // namespace guardians::perfbench
