#include "core/cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace rebooting::core {

// ------------------------------------------------------------- kill switch

namespace {

bool cache_env_default() {
  const char* env = std::getenv("REBOOTING_CACHE");
  if (env == nullptr) return true;
  const std::string v(env);
  return !(v == "0" || v == "off" || v == "false" || v == "OFF" ||
           v == "FALSE");
}

std::atomic<bool>& cache_flag() {
  static std::atomic<bool> flag{cache_env_default()};
  return flag;
}

}  // namespace

bool cache_enabled() { return cache_flag().load(std::memory_order_relaxed); }
void set_cache_enabled(bool on) {
  cache_flag().store(on, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- hashing

std::string HashKey128::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i & 7);
    const auto byte = static_cast<unsigned>((word >> shift) & 0xFF);
    out[2 * i] = kDigits[byte >> 4];
    out[2 * i + 1] = kDigits[byte & 0xF];
  }
  return out;
}

void HashWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void HashWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void HashWriter::real(Real v) {
  // Identify -0.0 with +0.0 — builders that compute angles can land on
  // either, and they denote the same rotation. Everything else (including
  // NaN payloads) hashes by exact bit pattern.
  if (v == Real{0}) v = Real{0};
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void HashWriter::str(std::string_view s) {
  u64(s.size());
  bytes_.append(s.data(), s.size());
}

namespace {

// splitmix64 — the mixer behind the xoshiro family (core/random.cpp seeds
// with it too). Two independently-keyed lanes absorb the same byte stream;
// a final cross-mix ties them together. The construction is fixed forever:
// test_cache.cpp pins digests of known inputs, so any change here is a
// deliberate, test-visible cache-format break.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t load_le64(const char* p, std::size_t n) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n; ++i)
    word |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
            << (8 * i);
  return word;
}

}  // namespace

HashKey128 HashWriter::finish() const {
  std::uint64_t a = 0x243F6A8885A308D3ull;  // pi digits — nothing-up-my-sleeve
  std::uint64_t b = 0x13198A2E03707344ull;
  const char* p = bytes_.data();
  std::size_t remaining = bytes_.size();
  while (remaining > 0) {
    const std::size_t n = remaining < 8 ? remaining : 8;
    const std::uint64_t word = load_le64(p, n);
    a = splitmix64(a ^ word);
    b = splitmix64(b + (word ^ 0xA5A5A5A5A5A5A5A5ull));
    p += n;
    remaining -= n;
  }
  // Fold the total length so trailing zero bytes can't alias, then cross-mix.
  a = splitmix64(a ^ bytes_.size());
  b = splitmix64(b + bytes_.size());
  const std::uint64_t hi = splitmix64(a + (b << 1));
  const std::uint64_t lo = splitmix64(b ^ hi);
  return HashKey128{hi, lo};
}

// ---------------------------------------------------------------- registry

namespace {

struct Registry {
  struct Entry {
    const void* owner;
    std::string name;
    std::function<CacheStats()> fn;
  };
  std::mutex mutex;
  // Registration order: status bodies list caches deterministically, and a
  // later entry under a taken name is the newer cache.
  std::vector<Entry> entries;
};

// Leaky singleton: caches with static storage duration unregister during
// process teardown, which must not race static destruction order.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

void register_cache(const void* owner, const std::string& name,
                    std::function<CacheStats()> fn) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::erase_if(r.entries,
                [&](const Registry::Entry& e) { return e.owner == owner; });
  r.entries.push_back({owner, name, std::move(fn)});
}

void unregister_cache(const void* owner) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::erase_if(r.entries,
                [&](const Registry::Entry& e) { return e.owner == owner; });
}

std::vector<std::pair<std::string, CacheStats>> cache_stats_snapshot() {
  std::vector<std::pair<std::string, std::function<CacheStats()>>> fns;
  {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    for (const Registry::Entry& e : r.entries) {
      // One row per name, reported by the newest live cache of that name,
      // at the position where the name first appeared.
      const auto it = std::find_if(fns.begin(), fns.end(), [&](const auto& f) {
        return f.first == e.name;
      });
      if (it == fns.end())
        fns.emplace_back(e.name, e.fn);
      else
        it->second = e.fn;
    }
  }
  std::vector<std::pair<std::string, CacheStats>> out;
  out.reserve(fns.size());
  // Snapshot functions run outside the registry lock — they take shard locks.
  for (auto& [name, fn] : fns) out.emplace_back(name, fn());
  return out;
}

// -------------------------------------------------------------- CacheCore

namespace detail {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  if (n < 2) return 1;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t per_shard(std::size_t total, std::size_t shards) {
  if (total == 0) return 0;
  const std::size_t each = total / shards;
  return each == 0 ? 1 : each;
}

}  // namespace

CacheCore::CacheCore(const CacheConfig& config)
    : config_(config),
      shard_count_(round_up_pow2(config.shards)),
      shard_entry_cap_(per_shard(config.max_entries, shard_count_)),
      shard_byte_cap_(per_shard(config.max_bytes, shard_count_)),
      hit_name_("cache." + config.name + ".hit"),
      miss_name_("cache." + config.name + ".miss"),
      insert_name_("cache." + config.name + ".insert"),
      evict_name_("cache." + config.name + ".evict"),
      expire_name_("cache." + config.name + ".expire") {}

CacheCore::~CacheCore() {
  if (registered_) unregister_cache(this);
}

void CacheCore::register_stats(std::function<CacheStats()> live) {
  register_cache(this, config_.name, std::move(live));
  registered_ = true;
}

// Trace-instant names must be string literals: TELEM_TRACE_INSTANT stores
// the pointer, not a copy. The per-cache series go through telemetry::count,
// which copies.

void CacheCore::on_hit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("cache.hit");
  telemetry::count(hit_name_);
  TELEM_TRACE_INSTANT("cache.hit");
}

void CacheCore::on_miss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("cache.miss");
  telemetry::count(miss_name_);
  TELEM_TRACE_INSTANT("cache.miss");
}

void CacheCore::on_insert() {
  inserts_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("cache.insert");
  telemetry::count(insert_name_);
  TELEM_TRACE_INSTANT("cache.insert");
}

void CacheCore::on_evict() {
  evictions_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("cache.evict");
  telemetry::count(evict_name_);
  TELEM_TRACE_INSTANT("cache.evict");
}

void CacheCore::on_expire() {
  expirations_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("cache.expire");
  telemetry::count(expire_name_);
  TELEM_TRACE_INSTANT("cache.expire");
}

void CacheCore::on_refuse() {
  refused_.fetch_add(1, std::memory_order_relaxed);
  telemetry::count("cache.refuse");
}

CacheStats CacheCore::counters() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.expirations = expirations_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace detail

}  // namespace rebooting::core
