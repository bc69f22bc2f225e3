// Lifecycle races of the sharded delivery engine: concurrent
// AddNode/Send/SetSink, Shutdown with packets in flight on every shard,
// sinks that re-send while a drain barrier is waiting, and inline
// delivery of call traffic on the sending thread. Run under the tsan
// preset (GUARDIANS_SANITIZE=thread) via the "tsan" ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"

namespace guardians {
namespace {

Packet MakePacket(NodeId src, NodeId dst, uint64_t id, size_t size = 16) {
  Packet p;
  p.msg_id = id;
  p.src = src;
  p.dst = dst;
  p.payload = Bytes(size, static_cast<uint8_t>(id));
  p.Seal();
  return p;
}

TEST(NetworkLifecycleTest, ConcurrentAddNodeSendAndSetSink) {
  Network network(11, nullptr, nullptr, /*shards=*/4);
  network.SetDefaultLink(LinkParams{Micros(50), Micros(0), 0, 0, 0});
  std::atomic<uint64_t> delivered{0};
  constexpr int kSeedNodes = 4;
  for (int i = 0; i < kSeedNodes; ++i) {
    const NodeId id = network.AddNode("seed" + std::to_string(i));
    network.SetSink(id, [&](Packet&&) { delivered.fetch_add(1); });
  }

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        switch (i % 8) {
          case 0: {
            // Grow the node set while traffic flows.
            const NodeId id = network.AddNode("t" + std::to_string(t) + "n" +
                                              std::to_string(i));
            network.SetSink(id, [&](Packet&&) { delivered.fetch_add(1); });
            break;
          }
          case 1:
            // Replace a sink that delivery workers may be reading.
            network.SetSink(1 + (i % kSeedNodes),
                            [&](Packet&&) { delivered.fetch_add(1); });
            break;
          default: {
            const NodeId dst =
                static_cast<NodeId>(1 + (t * kOpsPerThread + i) %
                                            network.node_count());
            network.Send(MakePacket(1 + (i % kSeedNodes), dst,
                                    static_cast<uint64_t>(i)));
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  network.DrainForTesting();

  // Every accepted packet resolved exactly once: delivered or counted as a
  // drop — nothing lost to the engine itself, nothing double-counted.
  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_sent);
  EXPECT_EQ(delivered.load(), stats.packets_delivered);
}

TEST(NetworkLifecycleTest, ShutdownWithPacketsInFlightOnEveryShard) {
  constexpr size_t kShards = 4;
  Network network(13, nullptr, nullptr, kShards);
  std::atomic<bool> shutdown_returned{false};
  std::atomic<int> sink_after_shutdown{0};
  constexpr int kNodes = 8;  // every shard owns two destinations
  for (int i = 0; i < kNodes; ++i) {
    const NodeId id = network.AddNode("n" + std::to_string(i));
    network.SetSink(id, [&](Packet&&) {
      if (shutdown_returned.load()) {
        sink_after_shutdown.fetch_add(1);
      }
    });
  }
  // Long latency: the packets are still queued on their shards' timing
  // heaps when Shutdown runs.
  network.SetDefaultLink(LinkParams{Millis(200), Micros(0), 0, 0, 0});
  for (int i = 0; i < kNodes; ++i) {
    for (int m = 0; m < 8; ++m) {
      network.Send(MakePacket(1, static_cast<NodeId>(1 + i),
                              static_cast<uint64_t>(i * 100 + m)));
    }
  }
  network.Shutdown();
  shutdown_returned.store(true);
  // "No sink runs after Shutdown returns" — give a straggler a chance to
  // prove us wrong before asserting.
  std::this_thread::sleep_for(Millis(250));
  EXPECT_EQ(sink_after_shutdown.load(), 0);
  // Drain after shutdown must not hang on the abandoned packets.
  network.DrainForTesting();
}

TEST(NetworkLifecycleTest, ConcurrentSendsDuringShutdown) {
  Network network(17, nullptr, nullptr, /*shards=*/3);
  network.SetDefaultLink(LinkParams{Micros(20), Micros(0), 0, 0, 0});
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  network.SetSink(b, [](Packet&&) {});

  std::atomic<bool> stop{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < 3; ++t) {
    senders.emplace_back([&] {
      uint64_t id = 0;
      while (!stop.load()) {
        network.Send(MakePacket(a, b, ++id));
      }
    });
  }
  std::this_thread::sleep_for(Millis(20));
  network.Shutdown();  // must not deadlock against in-flight Sends
  stop.store(true);
  for (auto& thread : senders) {
    thread.join();
  }
  // Sends that raced the shutdown were silently discarded, never delivered
  // partially; a second Shutdown is a no-op.
  network.Shutdown();
}

TEST(NetworkLifecycleTest, SinkResendsWhileDraining) {
  // A sink that forwards to the next node exercises re-entrant Send from
  // delivery workers; DrainForTesting must wait for the whole cascade.
  Network network(19, nullptr, nullptr, /*shards=*/4);
  network.SetDefaultLink(LinkParams{Micros(10), Micros(0), 0, 0, 0});
  constexpr int kNodes = 6;
  constexpr uint64_t kHops = 40;
  std::atomic<uint64_t> hops{0};
  std::vector<NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    ids.push_back(network.AddNode("hop" + std::to_string(i)));
  }
  for (int i = 0; i < kNodes; ++i) {
    const NodeId next = ids[(i + 1) % kNodes];
    network.SetSink(ids[i], [&, next](Packet&& p) {
      if (hops.fetch_add(1) + 1 < kHops) {
        network.Send(MakePacket(p.dst, next, p.msg_id + 1));
      }
    });
  }
  network.Send(MakePacket(ids[0], ids[1], 1));
  network.DrainForTesting();
  EXPECT_GE(hops.load(), kHops);
  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.packets_delivered, stats.packets_sent);
}

TEST(NetworkLifecycleTest, InlineDeliveryKeepsPerDestinationOrder) {
  // Two call senders (eligible for inline delivery) and one put sender
  // aimed at one node on one shard: every sender's packets arrive in send
  // order, and the node's sink never runs concurrently with itself,
  // whichever thread — a worker or a sender — happens to run it.
  MetricsRegistry metrics;
  Network network(23, &metrics, nullptr, /*shards=*/1);
  network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0, 0, 0});
  const NodeId dst = network.AddNode("dst");
  constexpr int kSenders = 3;  // 0 and 1 send call traffic, 2 puts
  constexpr uint64_t kPerSender = 3000;
  std::vector<NodeId> srcs;
  for (int t = 0; t < kSenders; ++t) {
    srcs.push_back(network.AddNode("src" + std::to_string(t)));
  }
  // Touched only inside the sink, read after the drain barrier.
  std::vector<uint64_t> next(kSenders + 2, 0);
  uint64_t out_of_order = 0;
  std::atomic<bool> in_sink{false};
  std::atomic<int> overlapping{0};
  network.SetSink(dst, [&](Packet&& p) {
    if (in_sink.exchange(true)) {
      overlapping.fetch_add(1);
    }
    const uint64_t seq = p.msg_id % kPerSender;
    if (seq != next[p.src]) {
      ++out_of_order;
    }
    next[p.src] = seq + 1;
    in_sink.store(false);
  });

  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerSender; ++i) {
        network.Send(MakePacket(srcs[t], dst, t * kPerSender + i),
                     /*call_traffic=*/t < 2);
      }
    });
  }
  for (auto& thread : senders) {
    thread.join();
  }
  network.DrainForTesting();

  EXPECT_EQ(overlapping.load(), 0);
  EXPECT_EQ(out_of_order, 0u);
  for (int t = 0; t < kSenders; ++t) {
    EXPECT_EQ(next[srcs[t]], kPerSender) << "sender " << t;
  }
  // Inline deliveries are drains: the shard's ledger and batch counters
  // still cover every packet.
  EXPECT_EQ(metrics.CounterValue("net.shard.0.enqueued"),
            kSenders * kPerSender);
  EXPECT_EQ(metrics.CounterValue("net.shard.0.delivered"),
            kSenders * kPerSender);
  EXPECT_EQ(metrics.CounterValue("net.shard.0.batch.packets"),
            kSenders * kPerSender);
  EXPECT_LE(metrics.CounterValue("net.delivered_inline"),
            2 * kPerSender);
}

TEST(NetworkLifecycleTest, SendFromInsideASinkNeverGoesInline) {
  // A call-traffic send to an idle shard is delivered on the sending
  // thread; the same send made from inside that delivery is heaped for
  // the destination's worker instead of nesting one sink in another.
  MetricsRegistry metrics;
  Network network(29, &metrics, nullptr, /*shards=*/2);
  network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0, 0, 0});
  const NodeId a = network.AddNode("a");  // shard 0
  const NodeId b = network.AddNode("b");  // shard 1
  std::thread::id a_thread;
  std::thread::id b_thread;
  network.SetSink(a, [&](Packet&& p) {
    a_thread = std::this_thread::get_id();
    network.Send(MakePacket(a, b, p.msg_id + 1), /*call_traffic=*/true);
  });
  network.SetSink(b, [&](Packet&&) { b_thread = std::this_thread::get_id(); });
  network.Send(MakePacket(b, a, 1), /*call_traffic=*/true);
  network.DrainForTesting();

  EXPECT_EQ(a_thread, std::this_thread::get_id());  // the outer send: inline
  EXPECT_NE(b_thread, std::thread::id());
  EXPECT_NE(b_thread, std::this_thread::get_id());  // the nested one: worker
  EXPECT_EQ(metrics.CounterValue("net.delivered_inline"), 1u);
}

TEST(NetworkLifecycleTest, ShutdownWaitsOutAnInlineDelivery) {
  // Shutdown with a sink running on a sender's thread: it returns only
  // after that sink has, and no sink runs after it returns — a
  // call-traffic send racing the shutdown is silently discarded.
  Network network(31, nullptr, nullptr, /*shards=*/2);
  network.SetDefaultLink(LinkParams{Micros(0), Micros(0), 0, 0, 0});
  const NodeId a = network.AddNode("a");
  const NodeId b = network.AddNode("b");
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> shutdown_returned{false};
  std::atomic<int> sink_after_shutdown{0};
  std::atomic<int> deliveries{0};
  network.SetSink(b, [&](Packet&&) {
    if (shutdown_returned.load()) {
      sink_after_shutdown.fetch_add(1);
    }
    deliveries.fetch_add(1);
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(Millis(1));
    }
  });
  std::thread sender([&] {
    network.Send(MakePacket(a, b, 1), /*call_traffic=*/true);
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(Millis(1));
  }
  std::thread stopper([&] {
    network.Shutdown();
    shutdown_returned.store(true);
  });
  std::this_thread::sleep_for(Millis(50));
  EXPECT_FALSE(shutdown_returned.load()) << "Shutdown left a sink running";
  release.store(true);
  sender.join();
  stopper.join();
  EXPECT_TRUE(shutdown_returned.load());
  network.Send(MakePacket(a, b, 2), /*call_traffic=*/true);
  EXPECT_EQ(deliveries.load(), 1);
  EXPECT_EQ(sink_after_shutdown.load(), 0);
  network.DrainForTesting();
}

TEST(NetworkLifecycleTest, DropDecisionsIdenticalAcrossWorkerCounts) {
  // Loss/corruption are decided at Send() time from one seeded rng, so the
  // counts must be bit-identical at every worker count for the same
  // sequence of Sends.
  auto run = [](size_t shards) {
    Network network(123, nullptr, nullptr, shards);
    network.SetDefaultLink(LinkParams{Micros(10), Micros(5), 0.2, 0.1, 0});
    const NodeId a = network.AddNode("a");
    std::vector<NodeId> dsts;
    for (int i = 0; i < 8; ++i) {
      const NodeId id = network.AddNode("d" + std::to_string(i));
      network.SetSink(id, [](Packet&&) {});
      dsts.push_back(id);
    }
    for (int i = 0; i < 2000; ++i) {
      network.Send(MakePacket(a, dsts[i % dsts.size()],
                              static_cast<uint64_t>(i)));
    }
    network.DrainForTesting();
    return network.stats();
  };
  const NetworkStats one = run(1);
  for (size_t shards : {2u, 4u, 8u}) {
    const NetworkStats many = run(shards);
    EXPECT_EQ(many.packets_dropped, one.packets_dropped) << shards;
    EXPECT_EQ(many.packets_corrupted, one.packets_corrupted) << shards;
    EXPECT_EQ(many.packets_delivered, one.packets_delivered) << shards;
  }
}

}  // namespace
}  // namespace guardians
