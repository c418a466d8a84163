#include "core/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/random.h"
#include "memcomputing/canonical.h"
#include "memcomputing/dmm.h"
#include "oscillator/network.h"

namespace rebooting::core {
namespace {

/// Pins a test to a chosen cache-toggle state and restores the ambient one.
struct ScopedCacheEnabled {
  bool previous = cache_enabled();
  explicit ScopedCacheEnabled(bool on) { set_cache_enabled(on); }
  ~ScopedCacheEnabled() { set_cache_enabled(previous); }
};

std::shared_ptr<const int> boxed(int v) { return std::make_shared<int>(v); }

HashKey128 key_of(std::uint64_t n) {
  HashWriter w;
  w.u64(n);
  return w.finish();
}

/// A key that lands in shard `shard` of `cache` (found by scanning).
template <typename V>
HashKey128 key_in_shard(const ShardedCache<V>& cache, std::size_t shard,
                        std::uint64_t salt) {
  for (std::uint64_t n = salt;; ++n) {
    const HashKey128 k = key_of(n);
    if (cache.shard_index(k) == shard) return k;
  }
}

// ----------------------------------------------------------------- hashing --
// The digest construction is a pinned wire format: these hex values may never
// change, or persisted/logged cache keys stop matching across versions.

TEST(HashWriter, GoldenDigestsPinnedForever) {
  {
    HashWriter w;
    EXPECT_EQ(w.finish().to_hex(), "724bdd6bc2c82792f596331cce0261b9");
  }
  {
    HashWriter w;
    w.u8(0x42);
    EXPECT_EQ(w.finish().to_hex(), "d348b2729f9e3be4fb6e07e2a5471f43");
  }
  {
    HashWriter w;
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.real(3.5);
    w.str("rebooting");
    EXPECT_EQ(w.finish().to_hex(), "92ff45377e292db6e4c9c67d2e60993d");
  }
}

TEST(HashWriter, SameEncodingSameDigestAcrossWriters) {
  HashWriter a, b;
  for (HashWriter* w : {&a, &b}) {
    w->u8(7);
    w->u32(123456u);
    w->u64(~0ull);
    w->real(-1.25);
    w->str("key");
  }
  EXPECT_EQ(a.finish(), b.finish());
  EXPECT_EQ(a.finish().to_hex(), b.finish().to_hex());
}

TEST(HashWriter, LengthPrefixPreventsFieldAliasing) {
  // "ab","c" vs "a","bc": same concatenated bytes, different field
  // boundaries — must not collide (and their digests are pinned too).
  HashWriter a, b;
  a.str("ab");
  a.str("c");
  b.str("a");
  b.str("bc");
  EXPECT_NE(a.finish(), b.finish());
  EXPECT_EQ(a.finish().to_hex(), "8e86b9dbed102d161446b4b6a5f23d07");
  EXPECT_EQ(b.finish().to_hex(), "905b589aabc82004c3f95ffbc73e2329");

  // Same value, different declared width: also distinct.
  HashWriter c, d;
  c.u32(5u);
  d.u64(5ull);
  EXPECT_NE(c.finish(), d.finish());
}

TEST(HashWriter, RealNormalizesNegativeZeroOnly) {
  HashWriter pos, neg;
  pos.real(0.0);
  neg.real(-0.0);
  EXPECT_EQ(pos.finish(), neg.finish());

  // Distinct NaN payloads stay distinct: the encoding identifies values, not
  // "numbers" — aliasing distinct bit patterns is the unsafe direction.
  Real nan1, nan2;
  std::uint64_t bits1 = 0x7FF8000000000001ull, bits2 = 0x7FF8000000000002ull;
  std::memcpy(&nan1, &bits1, sizeof nan1);
  std::memcpy(&nan2, &bits2, sizeof nan2);
  HashWriter a, b;
  a.real(nan1);
  b.real(nan2);
  EXPECT_NE(a.finish(), b.finish());
}

TEST(HashWriter, ExtendAndRefinish) {
  HashWriter w;
  w.u64(1);
  const HashKey128 first = w.finish();
  w.u64(2);
  const HashKey128 second = w.finish();
  EXPECT_NE(first, second);
  EXPECT_EQ(w.size(), 16u);
}

TEST(HashKey, HexFormatHiFirst) {
  HashKey128 k{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  EXPECT_EQ(k.to_hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(HashKey128{}.to_hex(), "00000000000000000000000000000000");
}

// ------------------------------------------------------------------- cache --

TEST(ShardedCache, HitMissCountersExact) {
  CacheConfig cfg;
  cfg.shards = 2;
  cfg.name = "test.counters";
  ShardedCache<int> cache(cfg);
  EXPECT_EQ(cache.get(key_of(1)), nullptr);
  cache.put(key_of(1), boxed(10), 8);
  const auto hit = cache.get(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 10);
  EXPECT_EQ(cache.get(key_of(2)), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 8u);
}

TEST(ShardedCache, LruEvictionOrderWithGetRefresh) {
  CacheConfig cfg;
  cfg.shards = 1;  // one shard so recency is a single total order
  cfg.max_entries = 3;
  cfg.name = "test.lru";
  ShardedCache<int> cache(cfg);
  cache.put(key_of(1), boxed(1), 1);
  cache.put(key_of(2), boxed(2), 1);
  cache.put(key_of(3), boxed(3), 1);
  ASSERT_NE(cache.get(key_of(1)), nullptr);  // 1 is now most recent
  cache.put(key_of(4), boxed(4), 1);         // evicts 2, the true LRU
  EXPECT_NE(cache.get(key_of(1)), nullptr);
  EXPECT_EQ(cache.get(key_of(2)), nullptr);
  EXPECT_NE(cache.get(key_of(3)), nullptr);
  EXPECT_NE(cache.get(key_of(4)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedCache, ShardsEvictIndependently) {
  CacheConfig cfg;
  cfg.shards = 4;
  cfg.max_entries = 8;  // 2 per shard
  cfg.name = "test.shards";
  ShardedCache<int> cache(cfg);
  ASSERT_EQ(cache.shard_count(), 4u);

  // Park one entry in shard 0, then churn shard 1 hard: the shard-0 entry
  // must survive — capacity pressure is per shard, not global.
  const HashKey128 parked = key_in_shard(cache, 0, 1000);
  cache.put(parked, boxed(42), 1);
  // Scan windows must not overlap or two iterations would yield one key: the
  // scan walks upward from the salt, so give each iteration a wide berth.
  for (std::uint64_t n = 0; n < 50; ++n)
    cache.put(key_in_shard(cache, 1, 2000 + 1000 * n), boxed(int(n)), 1);

  const auto survivor = cache.get(parked);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(*survivor, 42);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 3u);  // parked + 2 live in shard 1
  EXPECT_EQ(s.evictions, 48u);
}

TEST(ShardedCache, TtlExpiryIsLazyAndCounted) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.ttl = std::chrono::milliseconds(5);
  cfg.name = "test.ttl";
  ShardedCache<int> cache(cfg);
  cache.put(key_of(1), boxed(1), 1);
  ASSERT_NE(cache.get(key_of(1)), nullptr);  // fresh: still a hit
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(cache.get(key_of(1)), nullptr);  // lapsed: dropped on access
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.expirations, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);  // the expiry counts as a miss too
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(ShardedCache, ByteCapacityExactUnderChurn) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 0;  // bytes only
  cfg.max_bytes = 100;
  cfg.name = "test.bytes";
  ShardedCache<int> cache(cfg);

  // Mirror every operation in a reference model; the cache's byte
  // accounting must match it exactly at every step.
  std::map<std::uint64_t, std::size_t> model;  // insertion irrelevant; size
  Rng rng(7);
  for (int step = 0; step < 500; ++step) {
    const std::uint64_t id = rng.uniform_index(20);
    const std::size_t bytes = 1 + static_cast<std::size_t>(rng.uniform_index(30));
    cache.put(key_of(id), boxed(int(id)), bytes);
    model[id] = bytes;
    // Evictions hit the model too: whatever the cache dropped, drop as well
    // (detectable as ids the cache no longer holds).
    std::size_t live_bytes = 0;
    for (auto it = model.begin(); it != model.end();) {
      if (cache.get(key_of(it->first)) == nullptr) {
        it = model.erase(it);
      } else {
        live_bytes += it->second;
        ++it;
      }
    }
    ASSERT_EQ(cache.stats().bytes, live_bytes) << "step " << step;
    ASSERT_LE(cache.stats().bytes, 100u) << "step " << step;
    ASSERT_EQ(cache.stats().entries, model.size()) << "step " << step;
  }
}

TEST(ShardedCache, ReplaceInPlaceReaccountsBytes) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.name = "test.replace";
  ShardedCache<int> cache(cfg);
  cache.put(key_of(1), boxed(1), 40);
  cache.put(key_of(1), boxed(2), 10);  // replace: old 40 bytes released
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 10u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.evictions, 0u);
  const auto v = cache.get(key_of(1));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 2);
}

TEST(ShardedCache, OversizedValueRefusedNotDestructive) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.max_bytes = 64;
  cfg.name = "test.oversize";
  ShardedCache<int> cache(cfg);
  cache.put(key_of(1), boxed(1), 10);
  cache.put(key_of(2), boxed(2), 1000);  // alone exceeds the budget: refused
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.refused, 1u);
  EXPECT_EQ(s.entries, 1u);  // the resident entry was not wiped for it
  EXPECT_EQ(s.bytes, 10u);
  EXPECT_EQ(cache.get(key_of(2)), nullptr);
}

TEST(ShardedCache, EvictedValueOutlivesEvictionForReaders) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.max_entries = 1;
  cfg.name = "test.pin";
  ShardedCache<int> cache(cfg);
  cache.put(key_of(1), boxed(11), 1);
  const auto held = cache.get(key_of(1));
  ASSERT_NE(held, nullptr);
  cache.put(key_of(2), boxed(22), 1);  // evicts key 1 while we hold it
  EXPECT_EQ(cache.get(key_of(1)), nullptr);
  EXPECT_EQ(*held, 11);  // shared_ptr keeps the evicted value alive
}

TEST(ShardedCache, ClearDropsEntriesKeepsHistory) {
  CacheConfig cfg;
  cfg.shards = 2;
  cfg.name = "test.clear";
  ShardedCache<int> cache(cfg);
  cache.put(key_of(1), boxed(1), 4);
  cache.put(key_of(2), boxed(2), 4);
  cache.clear();
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.inserts, 2u);  // counters are history, not state
}

TEST(CacheRegistry, SnapshotTracksCacheLifetime) {
  const auto count_named = [](const std::string& name) {
    std::size_t n = 0;
    for (const auto& [cache_name, stats] : cache_stats_snapshot())
      if (cache_name == name) ++n;
    return n;
  };
  ASSERT_EQ(count_named("test.registry"), 0u);
  {
    CacheConfig cfg;
    cfg.name = "test.registry";
    ShardedCache<int> cache(cfg);
    cache.put(key_of(1), boxed(1), 16);
    ASSERT_EQ(count_named("test.registry"), 1u);
    for (const auto& [name, stats] : cache_stats_snapshot())
      if (name == "test.registry") {
        EXPECT_EQ(stats.inserts, 1u);
        EXPECT_EQ(stats.entries, 1u);
        EXPECT_EQ(stats.bytes, 16u);
      }
  }
  EXPECT_EQ(count_named("test.registry"), 0u);  // dtor unregistered
}

TEST(CacheRegistry, DestroyingTheOlderSameNameCacheKeepsTheNewerReporting) {
  const auto inserts_named = [](const std::string& name) {
    std::size_t rows = 0;
    std::uint64_t inserts = 0;
    for (const auto& [cache_name, stats] : cache_stats_snapshot())
      if (cache_name == name) {
        ++rows;
        inserts = stats.inserts;
      }
    EXPECT_LE(rows, 1u) << "one row per name";
    return rows == 0 ? std::optional<std::uint64_t>{}
                     : std::optional<std::uint64_t>{inserts};
  };
  CacheConfig cfg;
  cfg.name = "test.registry.owner";
  auto older = std::make_unique<ShardedCache<int>>(cfg);
  older->put(key_of(1), boxed(1), 4);
  ShardedCache<int> newer(cfg);
  for (int k = 0; k < 3; ++k) newer.put(key_of(10 + k), boxed(k), 4);
  EXPECT_EQ(inserts_named(cfg.name), std::optional<std::uint64_t>{3u});

  // The older cache's destructor must not unregister the newer one.
  older.reset();
  EXPECT_EQ(inserts_named(cfg.name), std::optional<std::uint64_t>{3u});
  newer.put(key_of(20), boxed(20), 4);
  EXPECT_EQ(inserts_named(cfg.name), std::optional<std::uint64_t>{4u});
}

TEST(CacheToggle, RuntimeSwitchRoundTrips) {
  const bool ambient = cache_enabled();
  set_cache_enabled(false);
  EXPECT_FALSE(cache_enabled());
  set_cache_enabled(true);
  EXPECT_TRUE(cache_enabled());
  set_cache_enabled(ambient);
}

// ------------------------------------------------------------- MT hammer ---
// Churns one cache from many threads. Green under TSan; the final state must
// still satisfy every accounting invariant.

TEST(ShardedCacheMt, HammerKeepsAccountingCoherent) {
  CacheConfig cfg;
  cfg.shards = 4;
  cfg.max_entries = 64;
  cfg.max_bytes = 4096;
  cfg.name = "test.hammer";
  ShardedCache<int> cache(cfg);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t id = rng.uniform_index(128);
        if (rng.uniform() < 0.5) {
          const auto v = cache.get(key_of(id));
          if (v) {
            observed_hits.fetch_add(1, std::memory_order_relaxed);
            // A hit must carry the value its key was inserted with.
            ASSERT_EQ(*v, static_cast<int>(id));
          }
        } else {
          cache.put(key_of(id), boxed(static_cast<int>(id)),
                    1 + static_cast<std::size_t>(rng.uniform_index(64)));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const CacheStats s = cache.stats();
  EXPECT_LE(s.entries, 64u);
  EXPECT_LE(s.bytes, 4096u);
  EXPECT_EQ(s.hits, observed_hits.load());
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread -
                s.inserts - s.refused);
  EXPECT_GT(s.inserts, 0u);
}

// -------------------------------------------------- golden regression ------
// The engines' trajectories must be bit-identical with the cache layer
// compiled in — both disabled (the null-plan discipline of core/faults.h)
// and enabled-on-a-miss (a miss takes the original code path before caching
// the result). Fingerprints are the FaultGolden / DmmGolden seeds, exactly.

void expect_dmm_golden(const memcomputing::DmmResult& r) {
  EXPECT_EQ(r.steps, 4u);
  EXPECT_EQ(r.sim_time, 0.93332303461574861);
  EXPECT_EQ(r.best_unsatisfied, 0u);
  ASSERT_EQ(r.assignment.size(), 4u);
  EXPECT_FALSE(r.assignment[1]);
  EXPECT_TRUE(r.assignment[2]);
  EXPECT_FALSE(r.assignment[3]);
}

memcomputing::Cnf golden_cnf() {
  memcomputing::Cnf cnf(3);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 3});
  cnf.add_clause({-2, -3});
  return cnf;
}

TEST(CacheGolden, DmmTrajectoryUnchangedWithCacheDisabled) {
  ScopedCacheEnabled off(false);
  const memcomputing::Cnf cnf = golden_cnf();
  Rng rng(42);
  const auto r = memcomputing::solve_dmm_cached(cnf, {}, rng);
  EXPECT_TRUE(r.satisfied);
  expect_dmm_golden(r);
}

TEST(CacheGolden, DmmTrajectoryUnchangedOnCacheMiss) {
  ScopedCacheEnabled on(true);
  memcomputing::dmm_cache().clear();
  const memcomputing::Cnf cnf = golden_cnf();
  Rng rng(42);
  const auto r = memcomputing::solve_dmm_cached(cnf, {}, rng);
  EXPECT_TRUE(r.satisfied);
  expect_dmm_golden(r);  // the miss path is the original solve, bit-exactly

  // And the subsequent hit replays the very same result.
  Rng rng2(42);
  const auto replay = memcomputing::solve_dmm_cached(cnf, {}, rng2);
  EXPECT_TRUE(replay.satisfied);
  expect_dmm_golden(replay);
}

TEST(CacheGolden, OscillatorWaveformUnchangedWithCacheCompiledIn) {
  // The oscillator engine has no cache layer; its fingerprints guard against
  // accidental drift from the cache subsystem riding in the same build.
  oscillator::CoupledOscillatorNetwork net(oscillator::OscillatorParams{}, 2);
  net.set_gate_voltage(0, 0.95);
  net.set_gate_voltage(1, 1.05);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  oscillator::SimulationOptions so;
  so.duration = 5e-6;
  so.dt = 1e-9;
  so.sample_stride = 4;
  const oscillator::Trace tr = net.simulate(so);
  const auto sum = [](const std::vector<Real>& v) {
    Real s = 0.0;
    for (const Real x : v) s += x;
    return s;
  };
  ASSERT_EQ(tr.samples(), 1251u);
  EXPECT_EQ(sum(tr.node_voltage[0]), 1909.7953089683781);
  EXPECT_EQ(sum(tr.node_voltage[1]), 1885.5753216547409);
  EXPECT_EQ(tr.node_voltage[0].back(), 1.6109489971678781);
  EXPECT_EQ(tr.node_voltage[1].back(), 1.2608751183922264);
  EXPECT_EQ(tr.supply_current.back(), 5.0872423209652297e-05);
}

}  // namespace
}  // namespace rebooting::core
