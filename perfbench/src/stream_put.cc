// stream_put: closed-loop windows of no-wait sends at link latency 0.
//
// Two sender threads, each on its own shell guardian at node "client",
// stream to their own sink guardian at node "server" (created remotely
// through the server's primordial guardian). One op is one window: 31
// no-wait `put`s and one `flush` RemoteCall whose reply carries the sink's
// count — the paper's "several messages, one response" pattern. Payloads
// are 64 B, with 1 in 8 at 4 KiB so that fragmentation and reassembly
// (1024 B packets) are on the path. This exercises the per-message wire
// cost, batched drains, DeliverBatch and Port::PushBatch, and bypasses the
// reply-port churn of one RemoteCall per message.
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/sendprims/remote_call.h"

namespace guardians::perfbench {
namespace {

constexpr int kSenders = 2;
constexpr int kPutsPerWindow = 31;
constexpr size_t kSmallBytes = 64;
constexpr size_t kLargeBytes = 4096;
constexpr size_t kSizePool = 4096;
constexpr size_t kVariants = 8;

PortType SinkPortType() {
  return PortType("perfbench_sink",
                  {MessageSig{"put",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kBytes)},
                              {}},
                   MessageSig{"flush", {ArgType::Of(TypeTag::kInt)},
                              {"flushed"}}});
}

PortType SinkReplyType() {
  return PortType("perfbench_sink_reply",
                  {MessageSig{"flushed",
                              {ArgType::Of(TypeTag::kInt),
                               ArgType::Of(TypeTag::kInt)},
                              {}}});
}

// Counts puts and their payload bytes; a flush answers with both and
// starts a new window.
class SinkGuardian : public Guardian {
 public:
  Status Setup(const ValueList& args) override {
    (void)args;
    AddPort(SinkPortType(), Port::kDefaultCapacity, /*provided=*/true);
    return OkStatus();
  }

  void Main() override {
    Port* in = port(0);
    int64_t count = 0;
    int64_t bytes = 0;
    for (;;) {
      const int64_t wait_start = NowNs();
      auto received = Receive(in, Micros::max());
      if (!received.ok()) {
        return;
      }
      const int64_t handle_start = NowNs();
      const uint64_t req =
          static_cast<uint64_t>(received->args[0].int_value());
      int64_t send_start = 0;
      if (received->command == "put") {
        ++count;
        bytes += static_cast<int64_t>(received->args[1].bytes_value().size());
      } else {
        send_start = NowNs();
        Status st = Send(received->reply_to, "flushed",
                         {Value::Int(count), Value::Int(bytes)});
        (void)st;  // a lost reply shows up as the sender's timeout
        count = 0;
        bytes = 0;
      }
      RecordHandled(req, wait_start, handle_start, send_start, NowNs());
    }
  }
};

class StreamPut : public Workload {
 public:
  explicit StreamPut(uint64_t seed) : seed_(seed) {
    Rng rng(seed ^ 0x53545245414d5055ull);
    auto random_blob = [&rng](size_t size) {
      Bytes blob(size);
      for (auto& b : blob) {
        b = static_cast<uint8_t>(rng.NextBelow(256));
      }
      return blob;
    };
    for (size_t v = 0; v < kVariants; ++v) {
      small_.push_back(random_blob(kSmallBytes));
      large_.push_back(random_blob(kLargeBytes));
    }
    for (int s = 0; s < kSenders; ++s) {
      std::vector<bool> large(kSizePool);
      for (size_t i = 0; i < kSizePool; ++i) {
        large[i] = rng.NextBelow(8) == 0;
      }
      large_at_.push_back(std::move(large));
    }
  }

  double Setup() override {
    world_ = ClientServerWorld();
    windows_.assign(kSenders, 0);
    const int64_t start = NowNs();
    Status built = BuildClientServer(seed_, "perfbench_sink",
                                     MakeFactory<SinkGuardian>(), kSenders,
                                     &world_);
    if (!built.ok()) {
      checks_.Fail("build the sink world: " + built.ToString());
      return -1;
    }
    if (!RunOp(0)) {
      checks_.Fail("first window failed");
      return -1;
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  int clients() const override { return kSenders; }

  uint64_t warmup_ops() const override { return 5000; }

  bool RunOp(int s) override {
    const uint64_t n = ++windows_[s];
    const uint64_t req = (static_cast<uint64_t>(s + 1) << 40) | n;
    Guardian& shell = *world_.shells[s];
    ScopedSpan window("stream.window", req);
    int64_t bytes = 0;
    for (int i = 0; i < kPutsPerWindow; ++i) {
      const size_t pick = (n * kPutsPerWindow + static_cast<size_t>(i));
      const Bytes& blob = large_at_[s][pick % kSizePool]
                              ? large_[pick % kVariants]
                              : small_[pick % kVariants];
      bytes += static_cast<int64_t>(blob.size());
      ScopedSpan send("guardian.send", req, window.id());
      Status st = shell.Send(world_.servers[s], "put",
                             {Value::Int(static_cast<int64_t>(req)),
                              Value::Blob(blob)});
      if (!st.ok()) {
        return false;
      }
    }
    if (TracingOn()) {
      std::lock_guard<std::mutex> lock(depth_mu_);
      depth_samples_.push_back(
          static_cast<double>(world_.server_guardians[s]->port(0)->depth()));
    }
    RemoteCallOptions options;
    options.timeout = Millis(5000);
    ScopedSpan call("sendprims.call", req, window.id());
    auto reply = RemoteCall(shell, world_.servers[s], "flush",
                            {Value::Int(static_cast<int64_t>(req))},
                            SinkReplyType(), options);
    if (!reply.ok() || reply->command != "flushed") {
      return false;
    }
    if (reply->args.size() != 2 ||
        reply->args[0].int_value() != kPutsPerWindow ||
        reply->args[1].int_value() != bytes) {
      checks_.Fail("window " + std::to_string(req) + " flushed " +
                   (reply->args.empty() ? std::string("nothing")
                                        : reply->args[0].ToString()) +
                   " puts, sent " + std::to_string(kPutsPerWindow));
      return false;
    }
    return true;
  }

  System& system() override { return *world_.system; }

  const char* RootSpan() const override { return "stream.window"; }

  std::vector<WireShape> Shapes() const override {
    std::vector<WireShape> shapes(2);
    for (size_t i = 0; i < shapes.size(); ++i) {
      Envelope& env = shapes[i].envelope;
      env.command = "put";
      env.target = world_.servers.empty() ? PortName{} : world_.servers[0];
      env.args = {Value::Int(int64_t{1} << 40 | 12345),
                  Value::Blob(i == 0 ? small_[0] : large_[0])};
    }
    shapes[0].weight = 7.0 / 8.0;
    shapes[1].weight = 1.0 / 8.0;
    return shapes;
  }

  void ResetLayerSamples() override {
    std::lock_guard<std::mutex> lock(depth_mu_);
    depth_samples_.clear();
  }

  void LayerMetrics(uint64_t ops, LayerTable* out) const override {
    (void)ops;
    std::lock_guard<std::mutex> lock(depth_mu_);
    const std::string base =
        std::to_string(depth_samples_.size()) + " samples, 1 per window";
    double max = 0;
    for (double d : depth_samples_) {
      max = std::max(max, d);
    }
    (*out)["guardian.port_depth.max"] = {max, "count", base};
    (*out)["guardian.port_depth.mean"] = {Mean(depth_samples_), "count",
                                          base};
  }

 private:
  const uint64_t seed_;
  std::vector<Bytes> small_;
  std::vector<Bytes> large_;
  std::vector<std::vector<bool>> large_at_;  // per sender, seeded sizes
  ClientServerWorld world_;
  std::vector<uint64_t> windows_;  // windows_[s] is touched by sender s only
  mutable std::mutex depth_mu_;
  std::vector<double> depth_samples_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamPut(uint64_t seed) {
  return std::make_unique<StreamPut>(seed);
}

}  // namespace guardians::perfbench
