// Sharded, byte-budgeted, single-flight LRU cache: the fleet-scale sharing
// layer (ROADMAP "one engine pass, N clients, M tenants").  One template,
// two instances: TrackCache (clip id, AnnotatorConfig::fingerprint()) ->
// annotation track, shared across tenants and servers; and each
// MediaServer's StreamCache (stream/server.h) -> the served, muxed stream.
//
// The paper computes annotation ONCE upstream precisely so that thousands
// of battery-constrained clients can reuse it.  Any two tenants whose
// configs plan identically hit the same cached track, and any
// plan-affecting difference by construction gets its own entry
// (fingerprints never alias plans; see engine.h).
//
// Structure follows the directory-tracked shared cache-line shape: a fixed
// power-of-two array of independently locked shards, each holding its slice
// of the key space with per-entry sharing metadata (hit count, live
// references) and its own LRU list under a per-shard byte budget.  Fills
// are SINGLE-FLIGHT: when N requests race on a missing key, exactly one
// runs the filler while the rest wait on the shard's condition variable
// and share the result -- the invariant the fleet bench and the
// tests/fleet concurrency stress pin (fills == unique keys).
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/annotation.h"
#include "core/sketch.h"
#include "telemetry/metrics.h"

namespace anno::core {

struct CacheConfig {
  /// Shard count, rounded up to a power of two (>= 1).  More shards =
  /// less lock contention between unrelated keys.
  std::size_t shardCount = 16;
  /// Total byte budget across all shards (each shard gets an equal slice);
  /// 0 = unbounded.  Eviction is LRU within the overfull shard.
  std::size_t byteBudget = 64u << 20;
};

/// Aggregated point-in-time statistics (sums over shards; individually
/// consistent counters, not a single atomic snapshot).
struct CacheStats {
  std::uint64_t hits = 0;        ///< served from a completed entry
  std::uint64_t misses = 0;      ///< no entry: the caller ran the filler
  std::uint64_t fills = 0;       ///< fillers that completed
  std::uint64_t evictions = 0;   ///< entries dropped by the LRU budget
  std::uint64_t singleFlightWaits = 0;  ///< requests that waited on a fill
  double fillSeconds = 0.0;      ///< wall time spent inside fillers
  std::size_t entries = 0;
  std::size_t bytes = 0;

  [[nodiscard]] double hitRate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Per-entry sharing metadata (tests + fleet reports).
template <class Key>
struct CacheEntryInfo {
  Key key;
  std::uint64_t hits = 0;   ///< times served after the fill
  long liveRefs = 0;        ///< value holders outside the cache
  std::size_t bytes = 0;
};

/// The cache.  `Key` must be equality-comparable.  `Traits` supplies, as
/// static members:
///   const char* kMetricPrefix                  instrument name prefix
///   std::uint64_t shardHash(const Key&)        spreads keys over shards
///   std::size_t keyHash(const Key&)            whole-key hash (shard index)
///   ClipId                                     the type eraseClip() takes
///   ClipId clipId(const Key&) (or a const ref)  what eraseClip() matches
///   std::size_t chargeBytes(const Key&, const Value&)  budget charge
template <class Key, class Value, class Traits>
class ShardedCache {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  explicit ShardedCache(CacheConfig cfg = {}) {
    const std::size_t shards =
        std::bit_ceil(cfg.shardCount > 0 ? cfg.shardCount : std::size_t{1});
    shardMask_ = shards - 1;
    shardByteBudget_ = sliceOf(cfg.byteBudget);
    shards_ = std::vector<Shard>(shards);
  }

  /// The entry for `key`, filling it via `fill` (any callable returning
  /// something convertible to ValuePtr) on a miss.  Single-flight: racing
  /// requests for the same missing key run `fill` exactly once.  The filler
  /// runs OUTSIDE the shard lock, so concurrent fills of different keys
  /// proceed in parallel.  Never returns null; a filler that throws (or
  /// returns null) leaves the key absent, propagates to the caller that ran
  /// it, and one waiter retries the fill.
  template <class Fill>
  [[nodiscard]] ValuePtr getOrFill(const Key& key, const Fill& fill) {
    Shard& shard = shardFor(key);
    std::unique_lock<std::mutex> lock(shard.mu);
    for (;;) {
      const auto it = shard.index.find(&key);
      if (it == shard.index.end()) break;
      Entry& entry = *it->second;
      if (entry.value != nullptr) {
        ++entry.hits;
        ++shard.hits;
        telemetry::inc(metrics_.hits);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return entry.value;
      }
      // A racing request is filling this key: wait for it to complete (or
      // abandon on exception) and re-evaluate.  Sharing the in-flight fill
      // instead of running our own is the single-flight contract.
      ++shard.singleFlightWaits;
      telemetry::inc(metrics_.singleFlightWaits);
      shard.cv.wait(lock);
    }
    // Miss: claim the key with an in-flight placeholder, run the filler
    // outside the lock so other keys (and other shards) proceed.
    ++shard.misses;
    telemetry::inc(metrics_.misses);
    // Nothing else erases an in-flight placeholder, so `slot` stays valid.
    shard.lru.push_front(Entry{key, nullptr, 0, 0});
    const EntryIt slot = shard.lru.begin();
    shard.index.emplace(&slot->key, slot);
    lock.unlock();

    ValuePtr value;
    const auto fillStart = std::chrono::steady_clock::now();
    try {
      value = fill();
    } catch (...) {
      lock.lock();
      abandonFill(shard, slot);
      throw;
    }
    const double fillSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fillStart)
            .count();
    lock.lock();
    if (value == nullptr) {
      // Treat a null fill like a throw: don't cache absence.
      abandonFill(shard, slot);
      throw std::logic_error("ShardedCache: filler returned null");
    }
    ++shard.fills;
    shard.fillSeconds += fillSeconds;
    telemetry::inc(metrics_.fills);
    telemetry::observe(metrics_.fillSeconds, fillSeconds);
    slot->value = value;
    slot->bytes = Traits::chargeBytes(key, *value);
    shard.bytes += slot->bytes;
    ++shard.entries;
    shard.lru.splice(shard.lru.begin(), shard.lru, slot);
    evictOverBudget(shard);
    shard.cv.notify_all();
    lock.unlock();
    publishGauges();
    return value;
  }

  /// The entry if present and filled, else null.  Does not touch LRU order
  /// or hit/miss counters (an observation, not a use).
  [[nodiscard]] ValuePtr peek(const Key& key) const {
    Shard& shard = shardFor(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(&key);
    return it == shard.index.end() ? nullptr : it->second->value;
  }

  /// Drops every completed entry of `clipId` (content replaced upstream).
  /// Returns the number of entries removed.  In-flight fills for the clip
  /// are left to finish (their waiters still get a consistent value);
  /// callers key re-ingested content by a NEW clipId (a new revision), so
  /// a stale fill can never serve requests for the new content -- eraseClip
  /// is reclamation, not correctness.
  std::size_t eraseClip(const typename Traits::ClipId& clipId) {
    return eraseIf(
        [&clipId](const Key& k) { return Traits::clipId(k) == clipId; });
  }

  /// Drops every completed entry (in-flight fills are left to finish).
  void clear() {
    (void)eraseIf([](const Key&) { return true; });
  }

  /// Re-budgets the cache mid-run (0 = unbounded) and evicts each shard
  /// down to its new slice -- the cache-squeeze lever degradation drills
  /// pull.  Not safe concurrently with in-flight fills of the same shard
  /// being PUBLISHED (the usual driver calls it between ticks).
  void setByteBudget(std::size_t byteBudget) {
    shardByteBudget_ = sliceOf(byteBudget);
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mu);
      evictOverBudget(shard);
    }
    publishGauges();
  }

  [[nodiscard]] CacheStats stats() const {
    CacheStats out;
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mu);
      out.hits += shard.hits;
      out.misses += shard.misses;
      out.fills += shard.fills;
      out.evictions += shard.evictions;
      out.singleFlightWaits += shard.singleFlightWaits;
      out.fillSeconds += shard.fillSeconds;
      out.entries += shard.entries;
      out.bytes += shard.bytes;
    }
    return out;
  }

  /// Completed entries with their sharing metadata, in no particular order.
  [[nodiscard]] std::vector<CacheEntryInfo<Key>> entries() const {
    std::vector<CacheEntryInfo<Key>> out;
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mu);
      for (const Entry& e : shard.lru) {
        if (e.value == nullptr) continue;
        out.push_back({e.key, e.hits, e.value.use_count() - 1, e.bytes});
      }
    }
    return out;
  }

  /// Registers cache instruments in `registry` and starts recording, named
  /// after Traits::kMetricPrefix (`<p>` below):
  ///   <p>_hits_total / <p>_misses_total, <p>_fills_total,
  ///   <p>_evictions_total, <p>_single_flight_waits_total,
  ///   <p>_fill_seconds, <p>_entries / <p>_bytes.
  /// Detached by default (null handles, zero recording cost).  Attach
  /// before concurrent use; the registry must outlive the cache or be
  /// detached first.
  void attachTelemetry(telemetry::Registry& registry) {
    const std::string p = Traits::kMetricPrefix;
    metrics_.hits = &registry.counter(
        p + "_hits_total", {}, "Requests served from a completed cache entry");
    metrics_.misses = &registry.counter(
        p + "_misses_total", {},
        "Requests that found no entry and triggered a fill");
    metrics_.fills = &registry.counter(
        p + "_fills_total", {},
        "Completed fills == producer runs (engine passes for tracks, "
        "compensate+encode+mux for streams)");
    metrics_.evictions = &registry.counter(
        p + "_evictions_total", {},
        "Entries dropped from the LRU tail under the byte budget");
    metrics_.singleFlightWaits = &registry.counter(
        p + "_single_flight_waits_total", {},
        "Requests that waited on a racing fill instead of running their own");
    metrics_.fillSeconds = &registry.histogram(
        p + "_fill_seconds", telemetry::secondsBuckets(), {},
        "Wall time of one cache fill");
    metrics_.entries = &registry.gauge(p + "_entries", {},
                                       "Completed entries currently cached");
    metrics_.bytes = &registry.gauge(p + "_bytes", {},
                                     "Bytes charged against the budget");
    publishGauges();
  }
  void detachTelemetry() noexcept { metrics_ = Telemetry{}; }

 private:
  struct Entry {
    Key key;
    ValuePtr value;            ///< null while the fill is in flight
    std::uint64_t hits = 0;
    std::size_t bytes = 0;
  };
  using EntryIt = typename std::list<Entry>::iterator;
  /// The index points at the keys stored in the LRU entries (each key is
  /// held once).  The hasher is deliberately not noexcept: libstdc++ then
  /// stores each node's hash, so a lookup never rehashes stored keys.
  struct KeyPtrHash {
    std::size_t operator()(const Key* k) const { return Traits::keyHash(*k); }
  };
  struct KeyPtrEq {
    bool operator()(const Key* a, const Key* b) const { return *a == *b; }
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;       ///< fill completion / abandonment
    /// MRU-first LRU list; the index points into it.
    std::list<Entry> lru;
    std::unordered_map<const Key*, EntryIt, KeyPtrHash, KeyPtrEq> index;
    std::size_t bytes = 0;            ///< completed entries only
    std::size_t entries = 0;          ///< completed entries only
    // Shard-local stats (under mu; aggregated by stats()).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t singleFlightWaits = 0;
    double fillSeconds = 0.0;
  };

  struct Telemetry {
    telemetry::Counter* hits = nullptr;
    telemetry::Counter* misses = nullptr;
    telemetry::Counter* fills = nullptr;
    telemetry::Counter* evictions = nullptr;
    telemetry::Counter* singleFlightWaits = nullptr;
    telemetry::Histogram* fillSeconds = nullptr;
    telemetry::Gauge* entries = nullptr;
    telemetry::Gauge* bytes = nullptr;
  };

  [[nodiscard]] std::size_t sliceOf(std::size_t byteBudget) const noexcept {
    return byteBudget == 0 ? 0 : std::max<std::size_t>(
                                     1, byteBudget / (shardMask_ + 1));
  }

  [[nodiscard]] Shard& shardFor(const Key& key) const {
    return shards_[Traits::shardHash(key) & shardMask_];
  }

  /// Unlinks a completed entry.  Caller holds shard.mu.
  EntryIt drop(Shard& shard, EntryIt it) {
    shard.bytes -= it->bytes;
    --shard.entries;
    shard.index.erase(&it->key);
    return shard.lru.erase(it);
  }

  /// Removes an in-flight placeholder after a failed fill and wakes the
  /// waiters (one of them retries).  Caller holds shard.mu.
  void abandonFill(Shard& shard, EntryIt slot) {
    shard.index.erase(&slot->key);
    shard.lru.erase(slot);
    shard.cv.notify_all();
  }

  /// Evicts from `shard`'s LRU tail until it fits its budget slice.
  /// Caller holds shard.mu.
  void evictOverBudget(Shard& shard) {
    if (shardByteBudget_ == 0) return;
    // Walk from the LRU tail; skip in-flight fills (their waiters hold the
    // key by identity).  Live references do NOT pin an entry -- the
    // shared_ptr keeps evicted values alive for their holders, the
    // directory just stops advertising them -- so eviction always makes
    // progress.
    auto it = shard.lru.end();
    while (shard.bytes > shardByteBudget_ && it != shard.lru.begin()) {
      --it;
      if (it->value == nullptr) continue;
      it = drop(shard, it);
      ++shard.evictions;
      telemetry::inc(metrics_.evictions);
    }
  }

  template <class Pred>
  std::size_t eraseIf(const Pred& pred) {
    std::size_t removed = 0;
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->value != nullptr && pred(it->key)) {
          it = drop(shard, it);
          ++removed;
        } else {
          ++it;
        }
      }
    }
    publishGauges();
    return removed;
  }

  void publishGauges() const {
    if (metrics_.entries == nullptr && metrics_.bytes == nullptr) return;
    const CacheStats s = stats();
    telemetry::set(metrics_.entries, static_cast<std::int64_t>(s.entries));
    telemetry::set(metrics_.bytes, static_cast<std::int64_t>(s.bytes));
  }

  std::size_t shardMask_ = 0;
  std::size_t shardByteBudget_ = 0;  ///< per shard; 0 = unbounded
  mutable std::vector<Shard> shards_;
  Telemetry metrics_;
};

/// Cache key: a caller-defined clip identity (the MediaServer uses
/// "s<server>/name@revision" so re-ingested content can never serve stale
/// tracks) plus the tenant config's plan fingerprint.
struct TrackKey {
  std::string clipId;
  std::uint64_t fingerprint = 0;

  friend bool operator==(const TrackKey&, const TrackKey&) = default;
  friend auto operator<=>(const TrackKey&, const TrackKey&) = default;
};

/// One cached annotation result: everything a serve path needs that is a
/// pure function of (clip content, annotator config).
struct CachedTrack {
  AnnotationTrack track;
  SketchTrack sketches;
  /// Retained-size estimate charged against the byte budget.  Fillers may
  /// leave it 0; the cache then charges estimateTrackBytes().
  std::size_t bytes = 0;
};

using CachedTrackPtr = std::shared_ptr<const CachedTrack>;

/// Retained-size estimate of a cached entry (struct + scene vectors +
/// sketches; key strings are the caller's to add).
[[nodiscard]] std::size_t estimateTrackBytes(const CachedTrack& value);

/// FNV-1a (the config fingerprint's stream) over a clip id and a
/// fingerprint: the track cache's shard spread.
[[nodiscard]] inline std::uint64_t clipShardHash(
    const std::string& clipId, std::uint64_t fingerprint) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : clipId) h = (h ^ c) * 0x100000001b3ULL;
  for (int i = 0; i < 64; i += 8) {
    h = (h ^ ((fingerprint >> i) & 0xFF)) * 0x100000001b3ULL;
  }
  return h;
}

struct TrackCacheTraits {
  static constexpr const char* kMetricPrefix = "anno_track_cache";
  static std::uint64_t shardHash(const TrackKey& k) noexcept {
    return clipShardHash(k.clipId, k.fingerprint);
  }
  static std::size_t keyHash(const TrackKey& k) { return shardHash(k); }
  using ClipId = std::string;
  static const std::string& clipId(const TrackKey& k) noexcept {
    return k.clipId;
  }
  static std::size_t chargeBytes(const TrackKey& k, const CachedTrack& v) {
    return v.bytes != 0 ? v.bytes : estimateTrackBytes(v) + k.clipId.size();
  }
};

using TrackCache = ShardedCache<TrackKey, CachedTrack, TrackCacheTraits>;
using TrackCacheConfig = CacheConfig;
using TrackCacheStats = CacheStats;
using TrackCacheEntryInfo = CacheEntryInfo<TrackKey>;

}  // namespace anno::core
