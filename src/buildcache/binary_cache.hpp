// The rolling binary cache (Spack component 5; Sections 3.1 and 7.2):
// "the Spack build pipeline and rolling binary cache makes packages
// available to all Spack users ... focusing the time to build
// applications on only the dependencies with special requirements."
//
// A thread-safe, hash-addressed build mirror: a support::ShardedCache
// keyed by the concrete spec's DAG hash and weighed in artifact bytes, so
// the steady-state read path (fetch hits, contains, size) takes no lock.
// This module adds the fetch fault/retry loop, the push fault site and
// the transfer model. Fetch latency is modeled (mirror round-trip plus
// size over sustained bandwidth) — the decision logic (what is mirrored,
// what is rebuilt) is fully real.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/spec/spec.hpp"
#include "src/support/hash.hpp"
#include "src/support/sharded_cache.hpp"

namespace benchpark::buildcache {

/// One mirrored build artifact, addressed by the spec's DAG hash.
struct CacheEntry {
  std::string dag_hash;
  std::string short_spec;  // human-readable "name@version" for logs
  std::uint64_t size_bytes = 0;
  /// Push order (process-wide, 1-based). The *rolling* cache evicts the
  /// oldest sequence first when over capacity; an overwrite refreshes it.
  std::uint64_t sequence = 0;
  /// Modeled extra seconds this fetch paid to injected faults (failed
  /// attempts re-request the mirror; latency rules add delay). Set on the
  /// copy fetch() returns, never stored.
  double injected_latency_seconds = 0.0;
};

/// Cumulative counters; snapshot via BinaryCache::stats(). `inserts`
/// counts pushes (persisted as "pushes").
struct CacheStats : support::CacheStats {
  /// Transient fetch attempts that were retried internally.
  std::size_t retries = 0;
};

class BinaryCache {
public:
  /// Default transfer model: 20 ms mirror round-trip latency plus 1 GB/s
  /// sustained download bandwidth.
  BinaryCache() = default;
  BinaryCache(double base_latency_seconds, double bytes_per_second);

  BinaryCache(const BinaryCache&) = delete;
  BinaryCache& operator=(const BinaryCache&) = delete;

  /// Mirror lookup; counts a hit or a miss. The request passes through
  /// the "buildcache.fetch" fault site: transient faults are retried
  /// internally up to fetch_retries() times (each retry paying another
  /// modeled round-trip, accumulated into the returned entry's
  /// injected_latency_seconds); exhausted transients rethrow
  /// TransientError and permanent faults rethrow PermanentError — the
  /// installer falls back to a source build in both cases.
  [[nodiscard]] std::optional<CacheEntry> fetch(const spec::Spec& concrete);

  /// Transparent retries per fetch after the first attempt (default 2).
  void set_fetch_retries(int retries) { fetch_retries_ = retries; }
  [[nodiscard]] int fetch_retries() const { return fetch_retries_; }

  /// Publish a built artifact (every successful source build feeds the
  /// mirror — the paper's rolling cache). Overwrites any entry with the
  /// same DAG hash.
  void push(const spec::Spec& concrete, std::uint64_t size_bytes);

  /// Lookup that does not touch the hit/miss counters.
  [[nodiscard]] bool contains(const spec::Spec& concrete) const {
    return cache_.contains(concrete.dag_hash());
  }

  /// Number of distinct mirrored artifacts.
  [[nodiscard]] std::size_t size() const { return cache_.size(); }

  /// Rolling-cache capacity in bytes; 0 (the default) is unbounded.
  /// When a push takes the cache over capacity, oldest-pushed artifacts
  /// are evicted until it fits again — an artifact larger than the whole
  /// capacity is evicted immediately after its own push.
  void set_capacity_bytes(std::uint64_t bytes) { cache_.set_capacity(bytes); }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return cache_.capacity();
  }
  /// Bytes currently mirrored across all shards.
  [[nodiscard]] std::uint64_t total_bytes() const { return cache_.weight(); }

  [[nodiscard]] CacheStats stats() const;

  /// Every mirrored entry, sorted by push sequence (oldest first) so
  /// persisted snapshots are deterministic. injected_latency_seconds is
  /// transient and always zero here.
  [[nodiscard]] std::vector<CacheEntry> export_entries() const;

  /// Merge a persisted snapshot into the contents and resume the counters
  /// from `stats`. Entries keep their original sequences, so
  /// oldest-sequence-first eviction order survives a persist/reload cycle.
  void restore(const std::vector<CacheEntry>& entries,
               const CacheStats& stats);

  /// Modeled seconds to download size_bytes from the mirror.
  [[nodiscard]] double fetch_cost_seconds(std::uint64_t size_bytes) const;

private:
  struct Traits {
    using Hash = support::TransparentStringHash;
    static std::uint64_t weight(const CacheEntry& e) { return e.size_bytes; }
    static constexpr support::CacheCounterNames kCounters{
        "buildcache.hits", "buildcache.misses", "buildcache.pushes",
        "buildcache.evictions", "buildcache.invalidations"};
    static void on_evict(const std::string& hash, const CacheEntry& e);
  };

  double base_latency_seconds_ = 0.02;
  double bytes_per_second_ = 1.0e9;
  int fetch_retries_ = 2;
  support::ShardedCache<CacheEntry, Traits> cache_;
  std::atomic<std::size_t> retries_{0};
};

}  // namespace benchpark::buildcache
