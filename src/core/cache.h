// Content-addressed result caching — the "subgoal cache with canonical
// hashing" primitive the ROADMAP's serving story needs (item 4). Production
// traffic against rebootd is repetitive; the engines' hot paths (quantum
// compilation, DMM solves) are deterministic functions of their canonical
// inputs, so a second identical request should cost a hash lookup, not a
// recompile or a re-solve.
//
// Three pieces live here:
//
//   HashKey128 /       a stable 128-bit content hash over an explicit,
//   HashWriter         length-prefixed, little-endian byte encoding. The
//                      canonicalizers (quantum/canonical.h,
//                      memcomputing/canonical.h) feed their canonical forms
//                      through a HashWriter; equal canonical encodings — and
//                      only those — produce equal keys. The construction is
//                      pinned by a golden digest test (test_cache.cpp), so
//                      the hash is stable across runs, platforms, and
//                      compilers: cache keys may be logged, compared across
//                      shards, or persisted.
//
//   ShardedCache<V>    a sharded LRU cache with per-entry TTL and exact
//                      byte-capacity accounting. Values are
//                      shared_ptr<const V>: readers hold entries alive after
//                      eviction, so get() never returns a dangling pointer
//                      and writers never block on readers. Shard index comes
//                      from key.hi, the intra-shard bucket from key.lo —
//                      independent bits of the same 128-bit digest.
//
//   cache registry     every cache registers its stats under its config
//                      name (the newest live cache of a name reports);
//                      rebootd snapshots the registry into `status` /
//                      `metrics` bodies so `rebootctl top` can show fleet
//                      hit rates without new plumbing per cache.
//
// Telemetry: hits/misses/inserts/evictions count into both the global
// `cache.{hit,miss,insert,evict,expire}` metrics and the per-cache
// `cache.<name>.*` series, with trace instants on the global names.
//
// Kill switch: REBOOTING_CACHE=0 (or "off"/"false") disables every caching
// layer at process start; set_cache_enabled() flips it at runtime for tests.
// Disabled means the wired call sites take their original, pre-cache code
// paths verbatim — the null-plan discipline of core/faults.h, proven by the
// CacheGolden fingerprint tests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.h"

namespace rebooting::core {

/// Process-wide cache switch (default on; REBOOTING_CACHE=0/off/false at
/// startup, or set_cache_enabled(false) at runtime, turns every wired layer
/// back into its original uncached code path).
bool cache_enabled();
void set_cache_enabled(bool on);

// --------------------------------------------------------------- hashing --

/// A 128-bit content hash. Value type; the all-zero key is valid (it is just
/// astronomically unlikely).
struct HashKey128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const HashKey128&) const = default;

  /// 32 lowercase hex digits, hi first — the loggable form.
  std::string to_hex() const;
};

/// std::unordered_map adapter; the digest bits are already uniform.
struct HashKey128Hash {
  std::size_t operator()(const HashKey128& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ull));
  }
};

/// Accumulates a canonical byte encoding and digests it. Every field write
/// is explicit about width and byte order (little-endian), and every
/// variable-length field is length-prefixed, so distinct field sequences can
/// never alias byte-wise ("ab","c" != "a","bc"). Reals are encoded by IEEE-754
/// bit pattern with -0.0 normalized to +0.0 — the only value identification
/// the encoding performs; NaNs of different payloads stay distinct on
/// purpose (aliasing distinct programs is the unsafe direction; missing a
/// hit is merely slow).
class HashWriter {
 public:
  HashWriter() { bytes_.reserve(256); }

  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void real(Real v);
  /// Length-prefixed byte string.
  void str(std::string_view s);

  std::size_t size() const { return bytes_.size(); }

  /// Digest of everything written so far (does not consume; a writer may be
  /// extended and re-finished).
  HashKey128 finish() const;

 private:
  std::string bytes_;
};

// --------------------------------------------------------------- statistics

/// Point-in-time counters of one cache. hits+misses = lookups; `expirations`
/// count TTL-lapsed entries found by get() (each also counts as a miss);
/// `refused` counts put()s whose value alone exceeded a shard's byte budget.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  std::uint64_t refused = 0;
  std::size_t entries = 0;  ///< live entries right now
  std::size_t bytes = 0;    ///< accounted bytes right now
};

/// The process-wide cache registry: owner -> (name, stats snapshot
/// function). Entries are keyed by owner identity, so several live caches
/// may share a name: the snapshot reports each name once, from the newest
/// live registration, and destroying an older cache never hides a newer
/// one. rebootd serves this through `status`/`metrics`; tests use it to
/// assert the wired layers actually count.
void register_cache(const void* owner, const std::string& name,
                    std::function<CacheStats()> fn);
void unregister_cache(const void* owner);
std::vector<std::pair<std::string, CacheStats>> cache_stats_snapshot();

// ------------------------------------------------------------------ cache --

struct CacheConfig {
  /// Shard count, rounded up to a power of two (>= 1). More shards, less
  /// lock contention; the per-shard capacity is the total divided evenly.
  std::size_t shards = 8;
  /// Total entry cap across shards (0 = unlimited).
  std::size_t max_entries = 4096;
  /// Total byte budget across shards (0 = unlimited). Accounting uses the
  /// caller-supplied per-entry size, exact under churn (test_cache.cpp).
  std::size_t max_bytes = std::size_t{64} << 20;
  /// Per-entry time-to-live (0 = entries never expire). Expiry is lazy: a
  /// lapsed entry is dropped by the get() that finds it.
  std::chrono::nanoseconds ttl{0};
  /// Registry / metric name ("quantum.compile", "dmm.solve", "sched.memo").
  std::string name = "cache";
};

namespace detail {

/// The non-template half of ShardedCache: atomic counters, pre-built metric
/// names, registry membership. Out-of-line (cache.cpp) so the header does
/// not pull in telemetry.
class CacheCore {
 public:
  explicit CacheCore(const CacheConfig& config);
  ~CacheCore();

  CacheCore(const CacheCore&) = delete;
  CacheCore& operator=(const CacheCore&) = delete;

  void on_hit();
  void on_miss();
  void on_insert();
  void on_evict();
  void on_expire();
  void on_refuse();

  /// Counters only; the owner fills entries/bytes.
  CacheStats counters() const;

  /// Wires `live` as this cache's registry snapshot function.
  void register_stats(std::function<CacheStats()> live);

  const CacheConfig& config() const { return config_; }
  std::size_t shard_count() const { return shard_count_; }
  std::size_t shard_entry_cap() const { return shard_entry_cap_; }
  std::size_t shard_byte_cap() const { return shard_byte_cap_; }

 private:
  CacheConfig config_;
  std::size_t shard_count_;
  std::size_t shard_entry_cap_;  ///< 0 = unlimited
  std::size_t shard_byte_cap_;   ///< 0 = unlimited
  bool registered_ = false;

  std::atomic<std::uint64_t> hits_{0}, misses_{0}, inserts_{0},
      evictions_{0}, expirations_{0}, refused_{0};
  std::string hit_name_, miss_name_, insert_name_, evict_name_, expire_name_;
};

}  // namespace detail

/// Sharded LRU + TTL cache keyed by HashKey128, storing shared_ptr<const V>.
/// Thread-safe; one mutex per shard, never held across user code. Eviction
/// is strict LRU per shard (get() refreshes recency). The cache participates
/// in the registry under config.name for its whole lifetime.
template <typename V>
class ShardedCache {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ShardedCache(CacheConfig config)
      : core_(config), shards_(core_.shard_count()) {
    core_.register_stats([this] { return stats(); });
  }

  /// The value for `key`, or nullptr on miss / TTL expiry. Counts exactly
  /// one hit or miss per call and refreshes LRU recency on hit.
  std::shared_ptr<const V> get(const HashKey128& key) {
    Shard& shard = shard_of(key);
    std::shared_ptr<const V> value;
    bool expired = false;
    {
      std::lock_guard lock(shard.mutex);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        if (ttl_lapsed(*it->second)) {
          expired = true;
          shard.bytes -= it->second->bytes;
          shard.lru.erase(it->second);
          shard.index.erase(it);
        } else {
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
          value = it->second->value;
        }
      }
    }
    if (value) {
      core_.on_hit();
      return value;
    }
    if (expired) core_.on_expire();
    core_.on_miss();
    return nullptr;
  }

  /// Inserts (or replaces) `key` -> `value`, accounting `bytes` against the
  /// shard's budget and evicting LRU entries until entry and byte caps hold.
  /// A value that alone exceeds the shard byte budget is refused (counted),
  /// keeping one oversized outlier from wiping a whole shard.
  void put(const HashKey128& key, std::shared_ptr<const V> value,
           std::size_t bytes) {
    if (!value) return;
    const std::size_t byte_cap = core_.shard_byte_cap();
    if (byte_cap != 0 && bytes > byte_cap) {
      core_.on_refuse();
      return;
    }
    Shard& shard = shard_of(key);
    std::size_t evicted = 0;
    {
      std::lock_guard lock(shard.mutex);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        // Replace in place; recency bumps like a write should.
        shard.bytes -= it->second->bytes;
        shard.lru.erase(it->second);
        shard.index.erase(it);
      }
      shard.lru.push_front(Entry{key, std::move(value), bytes,
                                 expiry_from_now()});
      shard.index[key] = shard.lru.begin();
      shard.bytes += bytes;
      const std::size_t entry_cap = core_.shard_entry_cap();
      while (shard.lru.size() > 1 &&
             ((entry_cap != 0 && shard.lru.size() > entry_cap) ||
              (byte_cap != 0 && shard.bytes > byte_cap))) {
        const Entry& tail = shard.lru.back();
        shard.bytes -= tail.bytes;
        shard.index.erase(tail.key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
    core_.on_insert();
    for (std::size_t i = 0; i < evicted; ++i) core_.on_evict();
  }

  /// Drops every entry (counters keep their history).
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
      shard.bytes = 0;
    }
  }

  CacheStats stats() const {
    CacheStats s = core_.counters();
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      s.entries += shard.lru.size();
      s.bytes += shard.bytes;
    }
    return s;
  }

  const CacheConfig& config() const { return core_.config(); }
  std::size_t shard_count() const { return core_.shard_count(); }

  /// Which shard a key lands in — exposed for the shard-independence
  /// property test.
  std::size_t shard_index(const HashKey128& key) const {
    return static_cast<std::size_t>(key.hi) & (core_.shard_count() - 1);
  }

 private:
  struct Entry {
    HashKey128 key;
    std::shared_ptr<const V> value;
    std::size_t bytes = 0;
    Clock::time_point expires_at{};  ///< meaningful only when ttl > 0
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<HashKey128, typename std::list<Entry>::iterator,
                       HashKey128Hash>
        index;
    std::size_t bytes = 0;
  };

  Shard& shard_of(const HashKey128& key) { return shards_[shard_index(key)]; }

  bool ttl_lapsed(const Entry& entry) const {
    return core_.config().ttl.count() > 0 && Clock::now() >= entry.expires_at;
  }

  Clock::time_point expiry_from_now() const {
    return core_.config().ttl.count() > 0 ? Clock::now() + core_.config().ttl
                                          : Clock::time_point{};
  }

  detail::CacheCore core_;
  std::vector<Shard> shards_;
};

}  // namespace rebooting::core
