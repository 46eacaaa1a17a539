// Concurrency tests: the SPSC ring under a real producer/consumer pair, the
// obs metrics registry under concurrent writers + snapshot readers + Reset,
// and the multi-worker EnginePool (shard routing, merge-on-read state
// invariants, fused concurrent parallel groups).
//
// This whole file is the ThreadSanitizer CI target (ci.yml `tsan` job):
// every test here must stay TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/analysis.h"
#include "mrpc/engine_pool.h"
#include "mrpc/ring.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "rpc/intern.h"

namespace adn {
namespace {

using mrpc::EnginePool;
using mrpc::SpscRing;
using rpc::Value;

// --- SpscRing under two real threads -----------------------------------------

TEST(SpscRingStress, TwoThreadCountAndChecksum) {
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);

  uint64_t expected_sum = 0;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < kItems; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    expected_sum += x;
  }

  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};
  std::thread consumer([&] {
    uint64_t count = 0;
    uint64_t local_sum = 0;
    while (count < kItems) {
      if (std::optional<uint64_t> v = ring.TryPop()) {
        local_sum += *v;
        ++count;
      } else {
        std::this_thread::yield();
      }
    }
    popped.store(count, std::memory_order_release);
    sum.store(local_sum, std::memory_order_release);
  });

  uint64_t y = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < kItems; ++i) {
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    while (!ring.TryPush(y)) std::this_thread::yield();
  }
  consumer.join();

  EXPECT_EQ(popped.load(), kItems);
  EXPECT_EQ(sum.load(), expected_sum);
  EXPECT_EQ(ring.enqueued(), kItems);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingStress, TwoThreadMoveOnlyOrdered) {
  constexpr int kItems = 50'000;
  SpscRing<std::unique_ptr<int>> ring(16);

  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) {
      std::optional<std::unique_ptr<int>> v;
      while (!(v = ring.TryPop()).has_value()) std::this_thread::yield();
      if (*v == nullptr || **v != i) {
        ok.store(false, std::memory_order_release);
        return;
      }
    }
  });
  for (int i = 0; i < kItems; ++i) {
    auto p = std::make_unique<int>(i);
    while (!ring.TryPush(std::move(p))) {
      std::this_thread::yield();
      // TryPush only consumes the value on success.
    }
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
}

TEST(SpscRingStress, TwoThreadBurstPopAgainstScalarProducer) {
  // Consumer drains with TryPopBurst while the producer pushes one at a
  // time: the burst drain's single acquire must still see fully published
  // slot contents (this is the exact shape the EnginePool worker loop runs).
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);

  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    uint64_t out[48];
    uint64_t expect = 0;
    while (expect < kItems) {
      const size_t got = ring.TryPopBurst(out, 48);
      if (got == 0) {
        std::this_thread::yield();
        continue;
      }
      for (size_t i = 0; i < got; ++i) {
        if (out[i] != expect++) {
          ok.store(false, std::memory_order_release);
          return;
        }
      }
    }
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    while (!ring.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
}

TEST(SpscRingStress, TwoThreadBurstPushBurstPopMoveOnly) {
  // Both ends bursty, move-only payloads: TryPushBurst's single release
  // must publish every slot it filled, and partially accepted bursts must
  // leave the rejected tail intact for retry.
  constexpr int kItems = 50'000;
  SpscRing<std::unique_ptr<int>> ring(16);

  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    std::unique_ptr<int> out[8];
    int expect = 0;
    while (expect < kItems) {
      const size_t got = ring.TryPopBurst(out, 8);
      if (got == 0) {
        std::this_thread::yield();
        continue;
      }
      for (size_t i = 0; i < got; ++i) {
        if (out[i] == nullptr || *out[i] != expect++) {
          ok.store(false, std::memory_order_release);
          return;
        }
      }
    }
  });
  std::unique_ptr<int> in[8];
  int next = 0;
  while (next < kItems) {
    size_t n = 0;
    while (n < 8 && next + static_cast<int>(n) < kItems) {
      in[n] = std::make_unique<int>(next + static_cast<int>(n));
      ++n;
    }
    size_t sent = 0;
    while (sent < n) {
      const size_t accepted = ring.TryPushBurst(in + sent, n - sent);
      sent += accepted;
      if (accepted == 0) std::this_thread::yield();
    }
    next += static_cast<int>(n);
  }
  consumer.join();
  EXPECT_TRUE(ok.load());
}

TEST(SpscRingStress, ArenaMessagesHandOffAndRecycleAcrossThreads) {
  // The zero-allocation data plane's lifecycle under real threads: a single
  // producer leases an arena per message (ArenaPool::Acquire is single-
  // consumer), the lease rides the ring inside the moved Message, and the
  // CONSUMER thread's destruction releases the arena back to the pool
  // (Release is multi-producer). Two rings/consumers make the release side
  // genuinely concurrent — TSan runs this file in CI.
  constexpr int kItems = 20'000;
  constexpr int kConsumers = 2;
  common::ArenaPool pool(1024);
  const rpc::FieldId seq_fid = rpc::InternFieldName("seq_text");
  std::vector<std::unique_ptr<SpscRing<rpc::Message>>> rings;
  for (int c = 0; c < kConsumers; ++c) {
    rings.push_back(std::make_unique<SpscRing<rpc::Message>>(64));
  }

  std::atomic<bool> ok{true};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      for (int i = c; i < kItems; i += kConsumers) {
        std::optional<rpc::Message> m;
        while (!(m = rings[static_cast<size_t>(c)]->TryPop()).has_value()) {
          std::this_thread::yield();
        }
        const rpc::Value* v = m->FindField(seq_fid);
        if (v == nullptr || !m->arena_backed() ||
            v->AsText() != "m" + std::to_string(i)) {
          ok.store(false, std::memory_order_release);
          return;
        }
        // `m` destroyed here: the arena lease is released on THIS thread.
      }
    });
  }
  for (int i = 0; i < kItems; ++i) {
    rpc::Message m = rpc::Message::WithArena(pool);
    m.set_id(static_cast<uint64_t>(i));
    m.SetText(seq_fid, "m" + std::to_string(i));
    auto& ring = *rings[static_cast<size_t>(i % kConsumers)];
    while (!ring.TryPush(std::move(m))) std::this_thread::yield();
  }
  for (auto& t : consumers) t.join();
  EXPECT_TRUE(ok.load());
  // Steady state must run on recycled arenas, not fresh heap: Acquire only
  // creates when the free list is empty, i.e. when every arena is leased,
  // so created() is bounded by the most leases alive at once. Those are 64
  // queued per ring, plus one per consumer (popped, so its slot is free
  // again, but not yet destroyed and released), plus the one the producer
  // is building. Everything else is reuse.
  EXPECT_GT(pool.reused(), 0u);
  EXPECT_LE(pool.created(), static_cast<uint64_t>(kConsumers * (64 + 1) + 1));
  EXPECT_EQ(pool.created() + pool.reused(), static_cast<uint64_t>(kItems));
}

// --- obs::EventRing under real producer/consumer threads ---------------------

TEST(EventRingStress, TwoThreadEmitDrainLosslessWithRetry) {
  // Trace-record transport analogue of TwoThreadCountAndChecksum: a real
  // producer emitting 64-byte TraceEvents against a real consumer draining
  // in bursts. With the producer retrying on full, every event must arrive
  // exactly once with its payload intact.
  constexpr uint64_t kItems = 200'000;
  obs::EventRing ring(256);

  std::atomic<uint64_t> drained{0};
  std::atomic<uint64_t> sum{0};
  std::thread consumer([&] {
    obs::TraceEvent buf[64];
    uint64_t count = 0;
    uint64_t local_sum = 0;
    while (count < kItems) {
      const size_t n = ring.Drain(buf, 64);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (size_t i = 0; i < n; ++i) local_sum += buf[i].arg;
      count += n;
    }
    drained.store(count, std::memory_order_release);
    sum.store(local_sum, std::memory_order_release);
  });

  uint64_t expected_sum = 0;
  for (uint64_t i = 0; i < kItems; ++i) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBurst;
    e.span_id = i + 1;
    e.arg = i * 2654435761ULL;
    expected_sum += e.arg;
    while (!ring.TryEmit(e)) std::this_thread::yield();
  }
  consumer.join();

  EXPECT_EQ(drained.load(), kItems);
  EXPECT_EQ(sum.load(), expected_sum);
  EXPECT_EQ(ring.emitted(), kItems);  // accepted events, not attempts
  EXPECT_EQ(ring.size(), 0u);
}

TEST(EventRingStress, EvictionIsDropCountedNeverBlocking) {
  // The telemetry-loss contract: a producer that never retries must never
  // block or lose events silently — what the consumer sees plus dropped()
  // accounts for every attempt, and the survivors keep FIFO order.
  constexpr uint64_t kAttempts = 100'000;
  constexpr uint64_t kCapacity = 64;
  obs::EventRing ring(kCapacity);
  auto emit = [&ring](uint64_t i) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBurst;
    e.arg = i + 1;  // strictly increasing payload: FIFO check is a < chain
    (void)ring.TryEmit(e);  // full ring drops — by design, never waits
  };

  // Overfill before any consumer runs: the first kCapacity events land and
  // the rest are dropped, so eviction is exercised by construction, not by
  // the producer out-running a consumer.
  constexpr uint64_t kPrefill = 2 * kCapacity;
  for (uint64_t i = 0; i < kPrefill; ++i) emit(i);
  EXPECT_EQ(ring.dropped(), kPrefill - kCapacity);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> drained{0};
  std::atomic<bool> ordered{true};
  std::thread consumer([&] {
    obs::TraceEvent buf[32];
    uint64_t count = 0;
    uint64_t last_seen = 0;
    for (;;) {
      const size_t n = ring.Drain(buf, 32);
      for (size_t i = 0; i < n; ++i) {
        if (buf[i].arg <= last_seen && count + i > 0) {
          ordered.store(false, std::memory_order_release);
        }
        last_seen = buf[i].arg;
      }
      count += n;
      if (n == 0) {
        if (done.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
      }
    }
    drained.store(count, std::memory_order_release);
  });

  for (uint64_t i = kPrefill; i < kAttempts; ++i) emit(i);
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_TRUE(ordered.load());
  EXPECT_EQ(drained.load() + ring.dropped(), kAttempts);
  EXPECT_EQ(ring.emitted(), drained.load());
  EXPECT_GE(ring.dropped(), kPrefill - kCapacity);
}

TEST(EventRingStress, RegistryDrainAllAccountsEveryEmitAcrossThreads) {
  // Multi-producer shape of the real system: several worker threads each
  // emitting into their own registry-owned ring while one collector thread
  // drains concurrently. Every attempt ends up drained or drop-counted.
  auto& registry = obs::EventRingRegistry::Default();
  registry.Reset();

  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 20'000;
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      registry.SetThisThreadLabel("stress-" + std::to_string(t));
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kBurst;
        e.span_id = obs::NextSpanId();
        e.arg = i;
        obs::EmitEvent(e);
      }
    });
  }
  start.store(true, std::memory_order_release);

  uint64_t drained = 0;
  std::vector<obs::TraceEvent> out;
  for (int i = 0; i < 50; ++i) {  // drain concurrently with the producers
    out.clear();
    drained += registry.DrainAll(out);
    std::this_thread::yield();
  }
  for (std::thread& th : producers) th.join();
  for (;;) {  // final sweep after the producers stop
    out.clear();
    const size_t n = registry.DrainAll(out);
    if (n == 0) break;
    drained += n;
  }

  EXPECT_EQ(drained + registry.TotalDropped(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  registry.Reset();
}

TEST(EventRingLifecycle, ExitedThreadsDrainExactlyOnceThenRelease) {
  // Workers emit and exit before anyone drains: their rings outlive them
  // until one DrainAll has taken every event and counted it, then go.
  auto& registry = obs::EventRingRegistry::Default();
  registry.Reset();
  obs::SetEnabled(true);
  obs::Counter& events_total =
      obs::MetricsRegistry::Default().GetCounter("adn_obs_events_total");
  const uint64_t counted_before = events_total.Value();

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &registry] {
      registry.SetThisThreadLabel("exiting-" + std::to_string(t));
      for (uint64_t i = 0; i < kPerThread; ++i) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kBurst;
        e.arg = static_cast<uint64_t>(t) * kPerThread + i;  // unique tag
        obs::EmitEvent(e);
      }
    });
  }
  for (std::thread& th : workers) th.join();

  size_t exited_rings = 0;
  for (const auto& rs : registry.Stats()) {
    if (rs.label.substr(0, 8) != "exiting-") continue;
    ++exited_rings;
    EXPECT_EQ(rs.depth, kPerThread);
    EXPECT_EQ(rs.backing_bytes, rs.capacity * sizeof(obs::TraceEvent));
  }
  EXPECT_EQ(exited_rings, static_cast<size_t>(kThreads));

  std::vector<obs::TraceEvent> out;
  ASSERT_EQ(registry.DrainAll(out), kThreads * kPerThread);
  std::vector<int> seen(kThreads * kPerThread, 0);
  for (const obs::TraceEvent& e : out) {
    ASSERT_LT(e.arg, seen.size());
    ++seen[e.arg];
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(seen.size()));
  EXPECT_EQ(events_total.Value() - counted_before, kThreads * kPerThread);

  // That drain released the exited threads' rings; nothing is drained or
  // counted twice afterwards.
  for (const auto& rs : registry.Stats()) {
    EXPECT_NE(rs.label.substr(0, 8), "exiting-");
  }
  out.clear();
  EXPECT_EQ(registry.DrainAll(out), 0u);
  EXPECT_EQ(events_total.Value() - counted_before, kThreads * kPerThread);
  EXPECT_EQ(registry.TotalDropped(), 0u);
  obs::SetEnabled(false);
  registry.Reset();
}

// --- Metrics registry under writers + snapshots + Reset ----------------------

TEST(RegistryStress, ConcurrentWritersSnapshotsAndReset) {
  obs::MetricsRegistry registry;  // private instance: no cross-test bleed

  constexpr int kWriters = 4;
  constexpr int kIterations = 20'000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, t] {
      const std::string label = "writer=\"" + std::to_string(t) + "\"";
      for (int i = 0; i < kIterations; ++i) {
        // Re-resolve every iteration: races Get* against Reset's retirement.
        registry.GetCounter("stress_ops_total", label).Inc();
        registry.GetGauge("stress_depth", label).Set(i);
        registry.GetHistogram("stress_latency_ns", label)
            .Observe(100.0 + i % 1000);
      }
    });
  }
  std::thread reader([&registry, &stop] {
    int resets = 0;
    while (!stop.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot snap = registry.Snapshot();
      // Every sample present in a snapshot must be internally consistent.
      for (const obs::MetricSample& s : snap.samples) {
        if (s.kind == obs::MetricKind::kHistogram) {
          uint64_t total = 0;
          for (uint64_t b : s.bucket_counts) total += b;
          ASSERT_LE(s.count, total + 0u);  // counts published before buckets?
        }
      }
      if (++resets % 16 == 0) registry.Reset();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Post-reset registrations start fresh and export normally.
  registry.Reset();
  registry.GetCounter("stress_ops_total", "writer=\"0\"").Inc(7);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::MetricSample* s =
      snap.Find("stress_ops_total", "writer=\"0\"");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 7.0);
}

TEST(RegistryStress, ResetKeepsOutstandingReferencesWritable) {
  obs::MetricsRegistry registry;
  obs::Counter& stale = registry.GetCounter("gen0_total");
  stale.Inc(3);
  registry.Reset();
  // The retired instrument stays valid writable memory; it is simply no
  // longer exported.
  stale.Inc(2);
  EXPECT_EQ(stale.Value(), 5u);
  EXPECT_EQ(registry.Snapshot().Find("gen0_total"), nullptr);
  // A fresh registration under the same name starts from zero.
  obs::Counter& fresh = registry.GetCounter("gen0_total");
  EXPECT_NE(&fresh, &stale);
  EXPECT_EQ(fresh.Value(), 0u);
}

// --- EnginePool ---------------------------------------------------------------

constexpr size_t kLoggingIdx = 0;
constexpr size_t kAclIdx = 1;

std::vector<std::shared_ptr<const ir::ElementIr>> LogAclElements() {
  auto parsed =
      dsl::ParseProgram(std::string(elements::AclTableSql()) +
                        std::string(elements::LogTableSql()) +
                        std::string(elements::LoggingSql()) +
                        std::string(elements::AclSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl")};
}

std::string UserName(int i) { return "user" + std::to_string(i); }

rpc::Message MakeReq(uint64_t id, const std::string& user) {
  Bytes payload(64, 0xAB);
  return rpc::Message::MakeRequest(
      id, "Obj.Put",
      {{"username", Value(user)}, {"payload", Value(std::move(payload))}});
}

void SeedUsers(EnginePool& pool, int users) {
  rpc::Table* acl =
      pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (int i = 0; i < users; ++i) {
    ASSERT_TRUE(acl->Insert({Value(UserName(i)), Value("W")}).ok());
  }
}

TEST(EnginePool, SameKeyAlwaysLandsOnTheSameWorker) {
  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 32);
  ASSERT_TRUE(pool.Start().ok());

  // Routing is a pure function of the key.
  std::map<std::string, int> routed;
  for (int i = 0; i < 32; ++i) {
    const std::string user = UserName(i);
    const int w = pool.WorkerOfKey(Value(user));
    EXPECT_EQ(w, pool.WorkerOfKey(Value(user)));
    routed[user] = w;
  }
  uint64_t id = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(pool.Submit(MakeReq(++id, UserName(i))), routed[UserName(i)]);
    }
  }
  pool.Stop();

  // Every log row landed on the worker its username routes to, and each
  // worker's ACL shard held exactly the rows its routed users needed (no
  // message was denied).
  EXPECT_EQ(pool.processed(), 50u * 32u);
  EXPECT_EQ(pool.dropped(), 0u);
  for (int w = 0; w < pool.workers(); ++w) {
    const rpc::Table* log =
        pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab");
    ASSERT_NE(log, nullptr);
    for (const rpc::Row& row : log->rows()) {
      EXPECT_EQ(routed[std::string(row[1].AsText())], w)
          << "log row for " << row[1].AsText() << " on wrong worker";
    }
  }
}

TEST(EnginePool, ObsOffStartStopCyclesAccumulateNoRings) {
  // Redeploying the data plane must not pile up telemetry memory: each
  // worker registers a labelled ring, but with obs off it never emits, so
  // the ring is never backed and is released after the worker exits.
  obs::SetEnabled(false);
  auto& registry = obs::EventRingRegistry::Default();
  registry.Reset();
  constexpr int kWorkers = 2;
  const auto elements = LogAclElements();
  size_t max_rings = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    EnginePool::Config config;
    config.workers = kWorkers;
    config.shard_key_field = "username";
    EnginePool pool(elements, {}, config);
    SeedUsers(pool, 8);
    ASSERT_TRUE(pool.Start().ok());
    for (int i = 0; i < 16; ++i) {
      pool.Submit(MakeReq(static_cast<uint64_t>(i + 1), UserName(i % 8)));
    }
    pool.Stop();
    const auto stats = registry.Stats();
    max_rings = std::max(max_rings, stats.size());
    for (const auto& rs : stats) EXPECT_EQ(rs.backing_bytes, 0u) << rs.label;
  }
  // Bounded by one cycle's workers (swept at the next registration), not
  // by the 50 cycles.
  EXPECT_LE(max_rings, static_cast<size_t>(kWorkers));
  registry.Reset();
}

TEST(EnginePool, PingPongSubmitNeverLosesAWakeUp) {
  // One producer, one worker, each Submit waiting for its message to be
  // done: every push races a worker that is spinning down to park. The gap
  // before each push sweeps 0-5 us in 50 ns steps so pushes land at every
  // point of that spin-down. On a 4-vCPU x86 VM, a copy without Submit's
  // fence lost 2-155 wake-ups in most runs, but none in whole stretches of
  // runs (the race needs both threads running at once), so this test can
  // miss that regression. Parks have no timeout, so a lost wake-up (push
  // and park each missing the other's store) would leave the message
  // queued behind a parked worker; waiting through Drain() turns that into
  // a counted lost_wakeups() instead of a hang.
  constexpr uint64_t kRounds = 20'000;
  EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 8);
  ASSERT_TRUE(pool.Start().ok());
  for (uint64_t i = 0; i < kRounds; ++i) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds((i % 100) * 50);
    while (std::chrono::steady_clock::now() < until) {
    }
    pool.Submit(MakeReq(i + 1, UserName(static_cast<int>(i % 8))));
    pool.Drain();
  }
  pool.Stop();
  EXPECT_EQ(pool.processed(), kRounds);
  EXPECT_EQ(pool.lost_wakeups(0), 0u);
}

// Aborts the test binary if it is still alive `limit` after construction:
// a parked worker has no timeout, so a missed wake-up would otherwise hang
// the test instead of failing it.
class Deadline {
 public:
  Deadline(std::string what, std::chrono::seconds limit)
      : what_(std::move(what)), watchdog_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "deadline exceeded: %s\n", what_.c_str());
            std::abort();
          }
        }) {}
  ~Deadline() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    watchdog_.join();
  }
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

 private:
  const std::string what_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread watchdog_;  // last: it reads the members above
};

constexpr auto kWakeDeadline = std::chrono::seconds(10);

// A started pool that has seen no traffic for long enough that every
// worker has parked: whatever runs next reaches a worker only through a
// wake-up.
std::unique_ptr<EnginePool> IdleParkedPool(int workers) {
  EnginePool::Config config;
  config.workers = workers;
  config.shard_key_field = "username";
  auto pool = std::make_unique<EnginePool>(LogAclElements(),
                                           std::vector<int>{}, config);
  SeedUsers(*pool, 8);
  EXPECT_TRUE(pool->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return pool;
}

void ExpectNoLostWakeups(const EnginePool& pool) {
  for (int w = 0; w < pool.workers(); ++w) {
    EXPECT_EQ(pool.lost_wakeups(w), 0u) << "worker " << w;
  }
}

TEST(EnginePoolIdleWake, SwapProgramReachesParkedWorkers) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto pool = IdleParkedPool(workers);
    const Deadline deadline("SwapComplete on a parked pool", kWakeDeadline);
    ASSERT_TRUE(pool->SwapProgram(LogAclElements()).ok());
    while (!pool->SwapComplete()) std::this_thread::yield();
    pool->Stop();
    ExpectNoLostWakeups(*pool);
  }
}

TEST(EnginePoolIdleWake, SlotMigrationReachesParkedWorkers) {
  // A 1-worker pool has no second worker to migrate to, so the smallest
  // case is two workers; three adds a bystander that stays parked.
  for (const int workers : {2, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto pool = IdleParkedPool(workers);
    const Deadline deadline("slot migration on a parked pool", kWakeDeadline);
    const int slot = 0;
    const int to = (pool->WorkerOfSlot(slot) + 1) % workers;
    ASSERT_TRUE(pool->BeginSlotMigration(slot, to).ok());
    while (pool->PumpMigration() != EnginePool::MigrationPhase::kDone) {
      std::this_thread::yield();
    }
    EXPECT_EQ(pool->WorkerOfSlot(slot), to);
    pool->Stop();
    ExpectNoLostWakeups(*pool);
  }
}

TEST(EnginePoolIdleWake, StopReturnsOnParkedWorkers) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto pool = IdleParkedPool(workers);
    const Deadline deadline("Stop on a parked pool", kWakeDeadline);
    pool->Stop();
    ExpectNoLostWakeups(*pool);
  }
}

TEST(EnginePool, ShardTotalsMergeToTheUnshardedResult) {
  constexpr int kUsers = 48;     // seeded with W permission
  constexpr int kStrangers = 8;  // not in ac_tab -> denied
  constexpr uint64_t kMessages = 4'000;

  auto run = [&](int workers) {
    EnginePool::Config config;
    config.workers = workers;
    config.shard_key_field = "username";
    auto pool = std::make_unique<EnginePool>(LogAclElements(),
                                             std::vector<int>{}, config);
    SeedUsers(*pool, kUsers);
    EXPECT_TRUE(pool->Start().ok());
    for (uint64_t id = 1; id <= kMessages; ++id) {
      pool->Submit(MakeReq(
          id, UserName(static_cast<int>(id % (kUsers + kStrangers)))));
    }
    pool->Stop();
    return pool;
  };

  auto one = run(1);
  auto four = run(4);

  EXPECT_EQ(one->processed(), kMessages);
  EXPECT_EQ(four->processed(), kMessages);
  EXPECT_EQ(one->dropped(), four->dropped());
  EXPECT_GT(four->dropped(), 0u);

  // Merge-on-read: the union of the 4 workers' shards is byte-for-byte the
  // single-worker state (log rows are keyed by message id + user, so the
  // content hash is order-insensitive and partition-invariant).
  for (size_t e : {kLoggingIdx, kAclIdx}) {
    EXPECT_EQ(four->MergedStateHash(e), one->MergedStateHash(e));
    auto merged = four->MergedInstance(e);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ((*merged)->StateContentHash(), one->MergedStateHash(e));
  }
  // The ACL table is read-only traffic: sharding round-trips it exactly
  // (the PR 4 migration invariant, live).
  auto merged_acl = four->MergedInstance(kAclIdx);
  ASSERT_TRUE(merged_acl.ok());
  const rpc::Table* acl = (*merged_acl)->FindTable("ac_tab");
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(acl->RowCount(), static_cast<size_t>(kUsers));
  // Log rows partition exactly: per-worker row counts sum to the total.
  size_t log_rows = 0;
  for (int w = 0; w < four->workers(); ++w) {
    log_rows +=
        four->WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
  }
  EXPECT_EQ(log_rows, kMessages);
}

TEST(EnginePool, StateHashInvariantAfterStart) {
  EnginePool::Config config;
  config.workers = 3;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 100);
  const uint64_t seeded_hash =
      pool.FindTemplateInstance("Acl")->StateContentHash();
  ASSERT_TRUE(pool.Start().ok());
  // Sharding the seed state across workers loses nothing.
  EXPECT_EQ(pool.MergedStateHash(kAclIdx), seeded_hash);
  pool.Stop();
}

TEST(EnginePool, MissingShardKeyFallsBackToIdRouting) {
  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "no_such_field";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 4);
  ASSERT_TRUE(pool.Start().ok());
  std::vector<int> seen(4, 0);
  for (uint64_t id = 1; id <= 256; ++id) {
    const int w = pool.Submit(MakeReq(id, UserName(static_cast<int>(id % 4))));
    EXPECT_EQ(w, pool.WorkerOfKey(Value(static_cast<int64_t>(id))));
    ++seen[static_cast<size_t>(w)];
  }
  pool.Stop();
  // Id hashing spreads load across every worker.
  for (int count : seen) EXPECT_GT(count, 0);
}

// --- Live reconfiguration (docs/RECONFIG.md) ----------------------------------

constexpr size_t kQuotaIdx = 2;

// Logging + Acl + Quota: an append-only log, a read-only keyed table, and a
// keyed table mutated on every message — the three state shapes the live
// migration protocol must carry (log rows stay put, ACL rows bulk-copy,
// quota rows need the mutation delta).
std::vector<std::shared_ptr<const ir::ElementIr>> LogAclQuotaElements() {
  auto parsed =
      dsl::ParseProgram(std::string(elements::AclTableSql()) +
                        std::string(elements::LogTableSql()) +
                        std::string(elements::QuotaTableSql()) +
                        std::string(elements::LoggingSql()) +
                        std::string(elements::AclSql()) +
                        std::string(elements::QuotaSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl"),
          lowered->FindElement("Quota")};
}

void SeedQuota(EnginePool& pool, int users, int64_t remaining) {
  rpc::Table* quota =
      pool.FindTemplateInstance("Quota")->FindTable("quota");
  for (int i = 0; i < users; ++i) {
    ASSERT_TRUE(quota->Insert({Value(UserName(i)), Value(remaining)}).ok());
  }
}

TEST(EnginePoolReconfig, LiveSlotMigrationUnderTrafficIsLossless) {
  constexpr int kUsers = 32;
  constexpr uint64_t kMessages = 12'000;

  // Reference: the same traffic through one worker, no migrations.
  uint64_t ref_hash[3];
  {
    EnginePool::Config config;
    config.workers = 1;
    config.shard_key_field = "username";
    EnginePool ref(LogAclQuotaElements(), {}, config);
    SeedUsers(ref, kUsers);
    SeedQuota(ref, kUsers, 1'000);
    ASSERT_TRUE(ref.Start().ok());
    for (uint64_t id = 1; id <= kMessages; ++id) {
      ref.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
    }
    ref.Stop();
    ASSERT_EQ(ref.processed(), kMessages);
    ASSERT_EQ(ref.dropped(), 0u);
    for (size_t e = 0; e < 3; ++e) ref_hash[e] = ref.MergedStateHash(e);
  }

  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "username";
  // Small rings keep the control-op barriers short: a ctrl op waits for the
  // ring backlog submitted before it, so backlog depth bounds each phase.
  config.ring_capacity = 256;
  EnginePool pool(LogAclQuotaElements(), {}, config);
  SeedUsers(pool, kUsers);
  SeedQuota(pool, kUsers, 1'000);
  ASSERT_TRUE(pool.Start().ok());

  // Migrate the slots of a handful of live users while their traffic (and
  // everyone else's) keeps flowing; each Begin fires mid-stream, as soon as
  // its window opens and the previous migration finished.
  const std::vector<uint64_t> start_at = {1'000, 4'000, 7'000, 10'000};
  std::vector<int> moved_slot;
  std::vector<int> moved_to;
  size_t next_mig = 0;
  for (uint64_t id = 1; id <= kMessages; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
    if (next_mig < start_at.size() && id >= start_at[next_mig] &&
        !pool.MigrationActive()) {
      const int slot = EnginePool::SlotOfKey(
          Value(UserName(static_cast<int>(next_mig))));
      const int to = (pool.WorkerOfSlot(slot) + 1) % pool.workers();
      ASSERT_TRUE(pool.BeginSlotMigration(slot, to).ok());
      moved_slot.push_back(slot);
      moved_to.push_back(to);
      ++next_mig;
    }
    pool.PumpMigration();
  }
  while (pool.MigrationActive()) {
    pool.PumpMigration();
    std::this_thread::yield();
  }
  pool.Stop();
  ASSERT_EQ(next_mig, start_at.size()) << "every migration should have begun";

  // Zero drops, every message processed exactly once, and the merged state
  // is byte-for-byte the no-migration run — rows moved, none lost or
  // double-applied.
  EXPECT_EQ(pool.processed(), kMessages);
  EXPECT_EQ(pool.dropped(), 0u);
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(pool.MergedStateHash(e), ref_hash[e]) << "element " << e;
  }
  // The flips stuck: each moved slot routes to its destination.
  for (size_t i = 0; i < moved_slot.size(); ++i) {
    EXPECT_EQ(pool.WorkerOfSlot(moved_slot[i]), moved_to[i]);
  }
  // The last migration's stats describe a real live cutover: state moved in
  // bulk before the blackout window, which stayed finite.
  const EnginePool::LiveMigrationStats& stats = pool.migration_stats();
  EXPECT_EQ(stats.slot, moved_slot.back());
  EXPECT_EQ(stats.to, moved_to.back());
  EXPECT_GT(stats.bulk_bytes, 0u);
  EXPECT_GE(stats.blackout_ns, 0);
}

TEST(EnginePoolReconfig, ProgramHotSwapUnderTrafficKeepsState) {
  constexpr int kUsers = 16;
  constexpr uint64_t kBefore = 2'000;
  constexpr uint64_t kAfter = 2'000;

  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, kUsers);
  ASSERT_TRUE(pool.Start().ok());
  ASSERT_TRUE(pool.whole_chain_compiled());
  const uint64_t v0 = pool.program_version();
  EXPECT_GT(v0, 0u);

  for (uint64_t id = 1; id <= kBefore; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
  }

  // Same state tables, new logic: the swapped Acl only admits permission
  // 'X', which nobody holds — a behavioral flip that proves which program
  // each message ran under.
  auto parsed = dsl::ParseProgram(
      std::string(elements::AclTableSql()) +
      std::string(elements::LogTableSql()) +
      std::string(elements::LoggingSql()) + R"(
ELEMENT Acl ON REQUEST {
  INPUT (username TEXT, payload BYTES);
  ON DROP ABORT 'lockdown';
  SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username
    WHERE ac_tab.permission = 'X';
}
)");
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  ASSERT_TRUE(pool.SwapProgram({lowered->FindElement("Logging"),
                                lowered->FindElement("Acl")})
                  .ok());
  EXPECT_GT(pool.program_version(), v0);

  // Messages submitted after SwapProgram returns are behind each worker's
  // swap barrier, so every one runs the new program: all denied.
  for (uint64_t id = kBefore + 1; id <= kBefore + kAfter; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
  }
  pool.Drain();
  EXPECT_TRUE(pool.SwapComplete());
  pool.Stop();

  EXPECT_EQ(pool.processed(), kBefore + kAfter);
  EXPECT_EQ(pool.dropped(), kAfter);
  // State carried over the swap: the ACL rows survived, and Logging (which
  // runs before the drop) kept appending across the boundary.
  auto merged_acl = pool.MergedInstance(kAclIdx);
  ASSERT_TRUE(merged_acl.ok());
  EXPECT_EQ((*merged_acl)->FindTable("ac_tab")->RowCount(),
            static_cast<size_t>(kUsers));
  size_t log_rows = 0;
  for (int w = 0; w < pool.workers(); ++w) {
    log_rows +=
        pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
  }
  EXPECT_EQ(log_rows, kBefore + kAfter);
}

TEST(EnginePoolReconfig, IncompatibleSwapIsRejectedAndHarmless) {
  constexpr int kUsers = 8;
  EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, kUsers);
  ASSERT_TRUE(pool.Start().ok());
  const uint64_t v0 = pool.program_version();

  // The new chain renames/reshapes ac_tab: state cannot carry over, so the
  // swap must be rejected with the running program untouched.
  auto parsed = dsl::ParseProgram(
      "STATE TABLE ac_tab (username TEXT PRIMARY KEY, permission TEXT, "
      "level INT);\n" +
      std::string(elements::LogTableSql()) +
      std::string(elements::LoggingSql()) + R"(
ELEMENT Acl ON REQUEST {
  INPUT (username TEXT, payload BYTES);
  ON DROP ABORT 'permission denied';
  SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username
    WHERE ac_tab.permission = 'W';
}
)");
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  const Status swap = pool.SwapProgram({lowered->FindElement("Logging"),
                                        lowered->FindElement("Acl")});
  ASSERT_FALSE(swap.ok());
  EXPECT_EQ(swap.error().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pool.program_version(), v0);

  // The pool keeps serving under the old program.
  for (uint64_t id = 1; id <= 512; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % kUsers))));
  }
  pool.Stop();
  EXPECT_EQ(pool.processed(), 512u);
  EXPECT_EQ(pool.dropped(), 0u);
}

// --- Fused concurrent parallel groups ----------------------------------------

std::vector<std::shared_ptr<const ir::ElementIr>> IndependentElements() {
  // The bench_parallel chain: three field-disjoint transforms the compiler
  // proves parallelizable (one group).
  const char* kProgram = R"(
ELEMENT Encrypt ON REQUEST {
  INPUT (payload BYTES);
  SELECT *, encrypt(payload, 'key') AS payload FROM input;
}
ELEMENT CompressBlob ON REQUEST {
  INPUT (blob BYTES);
  SELECT *, compress(blob) AS blob FROM input;
}
ELEMENT UserDigest ON REQUEST {
  INPUT (username TEXT);
  SELECT *, hash(username) AS user_digest FROM input;
}
)";
  auto parsed = dsl::ParseProgram(kProgram);
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Encrypt"), lowered->FindElement("CompressBlob"),
          lowered->FindElement("UserDigest")};
}

rpc::Message MakeIndepReq(uint64_t id) {
  Bytes payload(256), blob(256);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((id + i) % 251);
    blob[i] = static_cast<uint8_t>(i % 13);
  }
  return rpc::Message::MakeRequest(
      id, "Indep.Call",
      {{"username", Value("alice")},
       {"payload", Value(std::move(payload))},
       {"blob", Value(std::move(blob))}});
}

TEST(EnginePoolStress, ConcurrentGroupMatchesSequentialExecution) {
  auto elements = IndependentElements();
  std::vector<const ir::ElementIr*> raw;
  for (const auto& e : elements) raw.push_back(e.get());
  const std::vector<int> groups = ir::PartitionIntoParallelGroups(raw);
  ASSERT_EQ(groups, (std::vector<int>{0, 0, 0}))
      << "effect analysis should prove the chain one parallel group";

  constexpr uint64_t kMessages = 2'000;
  auto run = [&](EnginePool::GroupMode mode) {
    EnginePool::Config config;
    config.workers = 1;
    config.group_mode = mode;
    std::map<uint64_t, rpc::Message> outputs;
    config.on_done = [&outputs](int, const rpc::Message& m,
                                const ir::ProcessResult&) {
      outputs.emplace(m.id(), m);  // single worker: no synchronization needed
    };
    EnginePool pool(elements, groups, config);
    EXPECT_EQ(pool.whole_chain_compiled(),
              mode == EnginePool::GroupMode::kSequential);
    EXPECT_TRUE(pool.Start().ok());
    for (uint64_t id = 1; id <= kMessages; ++id) {
      pool.Submit(MakeIndepReq(id));
    }
    pool.Stop();
    EXPECT_EQ(pool.processed(), kMessages);
    EXPECT_EQ(pool.dropped(), 0u);
    return outputs;
  };

  auto sequential = run(EnginePool::GroupMode::kSequential);
  auto concurrent = run(EnginePool::GroupMode::kConcurrent);
  ASSERT_EQ(sequential.size(), concurrent.size());
  for (const auto& [id, seq_msg] : sequential) {
    const auto it = concurrent.find(id);
    ASSERT_NE(it, concurrent.end());
    const rpc::Message& con_msg = it->second;
    for (const rpc::Field& f : seq_msg.fields()) {
      const Value* v = con_msg.FindField(f.name());
      ASSERT_NE(v, nullptr) << f.name();
      EXPECT_EQ(f.value.CompareTo(*v), 0)
          << "field " << f.name() << " diverged on message " << id;
    }
  }
}

TEST(EnginePoolStress, ManyWorkersManyMessages) {
  constexpr uint64_t kMessages = 20'000;
  EnginePool::Config config;
  config.workers = 4;
  config.shard_key_field = "username";
  config.ring_capacity = 128;
  EnginePool pool(LogAclElements(), {}, config);
  SeedUsers(pool, 64);
  ASSERT_TRUE(pool.Start().ok());
  for (uint64_t id = 1; id <= kMessages; ++id) {
    pool.Submit(MakeReq(id, UserName(static_cast<int>(id % 64))));
  }
  pool.Drain();
  EXPECT_EQ(pool.processed(), kMessages);
  pool.Stop();
  EXPECT_EQ(pool.dropped(), 0u);
  size_t log_rows = 0;
  for (int w = 0; w < pool.workers(); ++w) {
    log_rows +=
        pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
  }
  EXPECT_EQ(log_rows, kMessages);
}

TEST(EnginePoolStress, BurstDrainUnderConcurrentProducer) {
  // The burst drain (TryPopBurst + ChainExecutor::ProcessBurst) racing a
  // live producer, across burst sizes including the kMaxBurstLanes maximum
  // and a deliberately tiny ring that forces constant partial bursts and
  // producer backpressure. Totals and per-worker log shards must come out
  // exact; the TSan job proves the drain publishes done/dropped/exec_ns
  // without races.
  for (const size_t burst_size : {4u, 32u, 64u}) {
    SCOPED_TRACE("burst_size=" + std::to_string(burst_size));
    constexpr uint64_t kMessages = 20'000;
    EnginePool::Config config;
    config.workers = 4;
    config.shard_key_field = "username";
    config.ring_capacity = 64;  // smaller than 2 full bursts: partial drains
    config.burst_size = burst_size;
    config.measure_exec = true;  // timed window around the burst path
    EnginePool pool(LogAclElements(), {}, config);
    SeedUsers(pool, 64);
    ASSERT_TRUE(pool.Start().ok());
    ASSERT_TRUE(pool.whole_chain_compiled());
    for (uint64_t id = 1; id <= kMessages; ++id) {
      pool.Submit(MakeReq(id, UserName(static_cast<int>(id % 64))));
    }
    pool.Drain();
    EXPECT_EQ(pool.processed(), kMessages);
    pool.Stop();
    EXPECT_EQ(pool.dropped(), 0u);
    size_t log_rows = 0;
    int64_t exec_ns = 0;
    for (int w = 0; w < pool.workers(); ++w) {
      log_rows +=
          pool.WorkerInstance(w, kLoggingIdx).FindTable("log_tab")->RowCount();
      exec_ns += pool.worker_exec_ns(w);
    }
    EXPECT_EQ(log_rows, kMessages);
    EXPECT_GT(exec_ns, 0);
  }
}

}  // namespace
}  // namespace adn
