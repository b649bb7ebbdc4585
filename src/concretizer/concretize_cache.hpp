// Process-wide memo table for concretization results.
//
// Concretization is the dominant cost of a large build farm: every
// experiment-matrix cell and every environment root re-resolves the same
// dependency closures. This cache makes repeated roots resolve exactly
// once per process. Entries are keyed by
//
//   (canonical abstract-spec hash, config fingerprint, repo-stack
//    fingerprint [, unify component])
//
// and hold *shared immutable* concrete specs (shared_ptr<const Spec>),
// so every consumer of a warm entry aliases one resolution. The key is
// built by Concretizer::concretize_all; this module owns the canonical
// spec rendering (constraint-order independent). The table itself is a
// support::ShardedCache counting entries, mirrored into the
// "concretizer.cache.*" obs counters; Concretizer::resolve_root resolves
// through its single-flight get_or_compute, so concurrent misses on one
// root resolve it once.
//
// Invalidation: the config and repo-stack fingerprints in the key make
// stale entries unreachable after any scope or recipe change — there is
// nothing to flush, the old keys simply stop being asked for. Explicit
// invalidate()/clear() exist for the chaos path ("concretizer.resolve"
// fault site): a transient fault treats the entry as poisoned, drops it,
// and re-resolves.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/spec/spec.hpp"
#include "src/support/hash.hpp"
#include "src/support/sharded_cache.hpp"

namespace benchpark::concretizer {

/// Canonical rendering of an abstract spec: identical constraint sets
/// produce identical text regardless of the order constraints were
/// written ("amg2023 ^hypre ^mvapich2" == "amg2023 ^mvapich2 ^hypre");
/// any semantic difference changes it. Variants are name-sorted (map
/// order), dependencies are canonicalized recursively and sorted.
[[nodiscard]] std::string canonical_spec_text(const spec::Spec& abstract);

/// Stable base32 hash of canonical_spec_text (the cache-key component).
[[nodiscard]] std::string canonical_spec_hash(const spec::Spec& abstract);

using ConcretizeCacheStats = support::CacheStats;

struct ConcretizeCacheTraits {
  using Hash = support::TransparentStringHash;
  static std::uint64_t weight(const std::shared_ptr<const spec::Spec>&) {
    return 1;
  }
  static constexpr support::CacheCounterNames kCounters{
      "concretizer.cache.hits", "concretizer.cache.misses",
      "concretizer.cache.inserts", "concretizer.cache.evictions",
      "concretizer.cache.invalidations"};
};

/// Capacity is in entries (0, the default, is unbounded).
class ConcretizationCache
    : public support::ShardedCache<std::shared_ptr<const spec::Spec>,
                                   ConcretizeCacheTraits> {
public:
  using SharedSpec = std::shared_ptr<const spec::Spec>;

  /// The process-wide instance every cache-enabled Concretizer consults.
  static ConcretizationCache& global();

  /// Counted lookup; null on a miss.
  [[nodiscard]] SharedSpec lookup(std::string_view key) {
    return find(key).value_or(nullptr);
  }

  /// Publish a resolution, overwriting any same-key entry. Returns the
  /// shared entry.
  SharedSpec insert(std::string key, spec::Spec concrete) {
    auto shared = std::make_shared<const spec::Spec>(std::move(concrete));
    ShardedCache::insert(std::move(key), shared);
    return shared;
  }
};

}  // namespace benchpark::concretizer
