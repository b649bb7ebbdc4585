// One sharded, copy-on-write memo table: the machinery behind
// buildcache::BinaryCache, concretizer::ConcretizationCache and
// ramble::TemplateCache.
//
// Keys are strings spread over 16 shards. Each shard publishes an
// immutable map through a SnapshotPtr (support/snapshot.hpp), so the hit
// path is one hazard-slot snapshot load plus a heterogeneous string_view
// find: no lock, no temporary key string. Writers copy the shard map under
// the shard mutex, mutate the copy and publish it whole.
//
// Contract (DESIGN.md §12):
//   * single-flight misses: get_or_compute() lets the first miss on a key
//     claim it; concurrent callers for that key wait on the shard and take
//     the published result, counting as hits. A compute that throws
//     publishes nothing and releases the claim, so a waiter claims the key
//     and computes it itself. Claims, waits and notifies live only on the
//     miss path;
//   * capacity is in Traits::weight units (0, the default, is unbounded);
//     over capacity the globally oldest insert sequence is evicted first,
//     and an overwrite refreshes an entry's sequence;
//   * stats() is torn-read-free: effects (evictions, invalidations) are
//     read before their cause (inserts), inserts before misses, with
//     acquire loads pairing the release increments, so a snapshot never
//     shows more evictions or invalidations than inserts, and every
//     counter is monotone between restores;
//   * export_entries() is sorted by sequence; restore() merges entries
//     into the current contents, publishing each touched shard once: a
//     restored entry fills only a key the cache does not hold (an
//     in-process entry is at least as fresh, so it keeps its value and
//     sequence), later inserts sort after every restored sequence, and
//     the counters resume from the persisted ones.
//
// Traits supplies, per cache type:
//   using Hash = ...;                  transparent string hasher (shard
//                                      choice and shard maps)
//   static std::uint64_t weight(const Value&);
//   static constexpr CacheCounterNames kCounters;   obs counter names
//   static void on_evict(const std::string& key, const Value&);  optional
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/support/snapshot.hpp"

namespace benchpark::support {

/// Cumulative counters; snapshot by value via ShardedCache::stats().
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;
  std::size_t evictions = 0;      // dropped to stay under capacity
  std::size_t invalidations = 0;  // dropped explicitly (chaos poisoning)

  [[nodiscard]] std::size_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

/// The trace collector counters a cache mirrors its traffic into.
struct CacheCounterNames {
  std::string_view hits;
  std::string_view misses;
  std::string_view inserts;
  std::string_view evictions;
  std::string_view invalidations;
};

template <typename Value, typename Traits>
class ShardedCache {
public:
  /// One exported or restored entry.
  struct Entry {
    std::string key;
    Value value;
    std::uint64_t sequence = 0;  // insert order, process-wide
  };

  /// What get_or_compute() returns: the value, and whether it came from
  /// the cache (a published entry, or another caller's computation).
  struct Fetched {
    Value value;
    bool hit = false;
  };

  ShardedCache() = default;
  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Lock-free lookup; counts a hit or a miss. On a hit, `sequence` (when
  /// given) receives the entry's insert sequence.
  [[nodiscard]] std::optional<Value> find(std::string_view key,
                                          std::uint64_t* sequence = nullptr) {
    auto map = shard_for(key).snapshot.load();
    auto it = map->find(key);
    if (it == map->end()) {
      count(misses_, Traits::kCounters.misses);
      return std::nullopt;
    }
    count(hits_, Traits::kCounters.hits);
    if (sequence) *sequence = it->second.sequence;
    return it->second.value;
  }

  /// Lookup that moves no counter.
  [[nodiscard]] bool contains(std::string_view key) const {
    auto map = shard_for(key).snapshot.load();
    return map->find(key) != map->end();
  }

  /// Single-flight fetch-or-compute: the first miss on `key` claims it and
  /// runs `compute` (no lock held); concurrent callers for the same key
  /// wait and take the published value as hits. When `compute` throws,
  /// nothing is published, the claim is released and the error
  /// propagates; a waiting caller then claims the key itself.
  template <typename Fn>
  Fetched get_or_compute(std::string_view key, Fn&& compute) {
    Shard& shard = shard_for(key);
    {
      // Lock-free hit path. The value is copied out last, just before
      // the pin is released: bumping the hit counter after the
      // shared_ptr copy instead roughly halved bench_hotpath's 16-thread
      // hot-key throughput on a 4-core x86-64 VM.
      auto map = shard.snapshot.load();
      auto it = map->find(key);
      if (it != map->end()) {
        count(hits_, Traits::kCounters.hits);
        return {it->second.value, true};
      }
    }
    return claim_or_wait(shard, key, std::forward<Fn>(compute));
  }

  /// Publish `value` under `key`, overwriting any same-key entry (it gets
  /// a fresh sequence). Counts an insert.
  void insert(std::string key, Value value) {
    Shard& shard = shard_for(key);
    // Counted before the entry is published so a concurrent evictor or
    // invalidator can never make evictions/invalidations exceed inserts
    // in a stats() snapshot.
    count(inserts_, Traits::kCounters.inserts);
    publish(shard, std::move(key), std::move(value), /*claimed=*/false);
    evict_to_capacity();
  }

  /// Drop one entry (chaos poisoning); false when absent.
  bool invalidate(std::string_view key) {
    if (!erase(shard_for(key), key, /*only_sequence=*/0)) return false;
    count(invalidations_, Traits::kCounters.invalidations);
    return true;
  }

  /// Drop every entry (counters are kept; tests use clear() for
  /// isolation).
  void clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      {
        auto map = shard.snapshot.load();
        for (const auto& [key, slot] : *map) {
          weight_.fetch_sub(Traits::weight(slot.value),
                            std::memory_order_relaxed);
        }
        size_.fetch_sub(map->size(), std::memory_order_relaxed);
      }
      shard.snapshot.store(std::make_shared<const Map>());
    }
  }

  /// Capacity in weight units; 0 is unbounded. Lowering it evicts at once.
  void set_capacity(std::uint64_t capacity) {
    capacity_.store(capacity, std::memory_order_relaxed);
    evict_to_capacity();
  }
  [[nodiscard]] std::uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  /// Number of entries, and their summed weight.
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t weight() const {
    return weight_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] CacheStats stats() const {
    CacheStats out;
    out.evictions = evictions_.load(std::memory_order_acquire);
    out.invalidations = invalidations_.load(std::memory_order_acquire);
    out.inserts = inserts_.load(std::memory_order_acquire);
    out.misses = misses_.load(std::memory_order_acquire);
    out.hits = hits_.load(std::memory_order_acquire);
    return out;
  }

  /// Every entry, oldest sequence first (deterministic persisted
  /// snapshots).
  [[nodiscard]] std::vector<Entry> export_entries() const {
    std::vector<Entry> out;
    for (const auto& shard : shards_) {
      // One guard at a time: hazard slots are a small per-thread budget.
      auto map = shard.snapshot.load();
      for (const auto& [key, slot] : *map) {
        out.push_back({key, slot.value, slot.sequence});
      }
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.sequence < b.sequence;
    });
    return out;
  }

  /// Merge persisted entries (warm start) into the keys the cache does
  /// not hold, keeping their sequences, and resume the counters from
  /// `stats` when given. Restoring is not cache traffic: only the
  /// persisted counters move the stats.
  void restore(std::vector<Entry> entries,
               const std::optional<CacheStats>& stats) {
    {
      std::lock_guard<std::mutex> evict_lock(evict_mu_);
      std::array<std::vector<Entry*>, kShards> by_shard;
      std::uint64_t max_sequence = 0;
      for (auto& e : entries) {
        by_shard[shard_index(e.key)].push_back(&e);
        max_sequence = std::max(max_sequence, e.sequence);
      }
      for (std::size_t i = 0; i < kShards; ++i) {
        if (by_shard[i].empty()) continue;
        Shard& shard = shards_[i];
        std::lock_guard<std::mutex> lock(shard.mu);
        auto next = std::make_shared<Map>(*shard.snapshot.load());
        for (Entry* e : by_shard[i]) {
          if (next->contains(e->key)) continue;
          put(*next, std::move(e->key), std::move(e->value), e->sequence);
        }
        shard.snapshot.store(std::move(next));
      }
      // Later inserts must sort after every restored entry, or eviction
      // order would interleave old and new ones.
      std::uint64_t expected = next_sequence_.load(std::memory_order_relaxed);
      while (expected <= max_sequence &&
             !next_sequence_.compare_exchange_weak(
                 expected, max_sequence + 1, std::memory_order_relaxed)) {
      }
      if (stats) {
        // Reverse of the stats() read order, so a concurrent snapshot
        // never sees more evictions than inserts mid-restore.
        hits_.store(stats->hits, std::memory_order_release);
        misses_.store(stats->misses, std::memory_order_release);
        inserts_.store(stats->inserts, std::memory_order_release);
        invalidations_.store(stats->invalidations,
                             std::memory_order_release);
        evictions_.store(stats->evictions, std::memory_order_release);
      }
    }
    evict_to_capacity();
  }

private:
  static constexpr std::size_t kShards = 16;

  struct Slot {
    Value value;
    std::uint64_t sequence = 0;
  };
  using Map = std::unordered_map<std::string, Slot, typename Traits::Hash,
                                 std::equal_to<>>;
  /// Readers load `snapshot` lock-free; writers serialize on `mu`, copy
  /// the current map, mutate the copy and publish it. `in_flight` holds
  /// the keys claimed by get_or_compute (guarded by `mu`; a handful at
  /// most, so a flat list of views into the claimers' own key arguments,
  /// which outlive their claims); `flight_cv` wakes waiters when a claim
  /// ends.
  struct Shard {
    std::mutex mu;
    SnapshotPtr<Map> snapshot;
    std::vector<std::string_view> in_flight;
    std::condition_variable flight_cv;
  };

  [[nodiscard]] static std::size_t shard_index(std::string_view key) {
    return typename Traits::Hash{}(key) % kShards;
  }
  [[nodiscard]] Shard& shard_for(std::string_view key) const {
    return shards_[shard_index(key)];
  }

  static std::optional<Value> find_in(const Shard& shard,
                                      std::string_view key) {
    auto map = shard.snapshot.load();
    auto it = map->find(key);
    if (it == map->end()) return std::nullopt;
    return it->second.value;
  }

  static void count(std::atomic<std::size_t>& counter,
                    std::string_view obs_name) {
    counter.fetch_add(1, std::memory_order_release);
    obs::TraceCollector::global().counter_add(obs_name);
  }

  /// get_or_compute's miss path, kept out of its inlined hit path.
  template <typename Fn>
  Fetched claim_or_wait(Shard& shard, std::string_view key, Fn&& compute) {
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.flight_cv.wait(lock, [&] {
        return std::find(shard.in_flight.begin(), shard.in_flight.end(),
                         key) == shard.in_flight.end();
      });
      // Published while we waited, or since the lock-free load.
      if (auto hit = find_in(shard, key)) {
        lock.unlock();
        count(hits_, Traits::kCounters.hits);
        return {std::move(*hit), true};
      }
      shard.in_flight.push_back(key);
    }
    count(misses_, Traits::kCounters.misses);
    std::optional<Value> value;
    try {
      value.emplace(std::forward<Fn>(compute)());
      count(inserts_, Traits::kCounters.inserts);
      publish(shard, std::string(key), *value, /*claimed=*/true);
    } catch (...) {
      release_claim(shard, key);
      throw;
    }
    evict_to_capacity();
    return {std::move(*value), false};
  }

  /// Insert-or-overwrite into a shard map copy, keeping size_/weight_
  /// in step (the new weight is added before the old one is taken off,
  /// so a concurrent reader never sees the total wrap below zero).
  void put(Map& map, std::string key, Value value, std::uint64_t sequence) {
    weight_.fetch_add(Traits::weight(value), std::memory_order_relaxed);
    auto [it, fresh] = map.try_emplace(std::move(key));
    if (fresh) {
      size_.fetch_add(1, std::memory_order_relaxed);
    } else {
      weight_.fetch_sub(Traits::weight(it->second.value),
                        std::memory_order_relaxed);
    }
    it->second.value = std::move(value);
    it->second.sequence = sequence;
  }

  void publish(Shard& shard, std::string key, Value value, bool claimed) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto next = std::make_shared<Map>(*shard.snapshot.load());
      if (claimed) std::erase(shard.in_flight, std::string_view(key));
      put(*next, std::move(key), std::move(value),
          next_sequence_.fetch_add(1, std::memory_order_relaxed));
      // The entry becomes visible in the same critical section that ends
      // the claim, so a woken waiter always finds it.
      shard.snapshot.store(std::move(next));
    }
    if (claimed) shard.flight_cv.notify_all();
  }

  /// End a claim without publishing (also after a publish that threw).
  void release_claim(Shard& shard, std::string_view key) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      std::erase(shard.in_flight, key);
    }
    shard.flight_cv.notify_all();
  }

  /// Remove `key` (only when its sequence is `only_sequence`, if nonzero)
  /// and return what was removed.
  std::optional<Slot> erase(Shard& shard, std::string_view key,
                            std::uint64_t only_sequence) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto next = std::make_shared<Map>(*shard.snapshot.load());
    auto it = next->find(key);
    if (it == next->end() ||
        (only_sequence != 0 && it->second.sequence != only_sequence)) {
      return std::nullopt;
    }
    std::optional<Slot> removed(std::move(it->second));
    next->erase(it);
    shard.snapshot.store(std::move(next));
    size_.fetch_sub(1, std::memory_order_relaxed);
    weight_.fetch_sub(Traits::weight(removed->value),
                      std::memory_order_relaxed);
    return removed;
  }

  /// Evict oldest-sequence entries until weight() fits capacity(). Lock
  /// order is evict_mu_ -> shard.mu, never the reverse.
  void evict_to_capacity() {
    auto over = [&] {
      const std::uint64_t capacity = capacity_.load(std::memory_order_relaxed);
      return capacity != 0 &&
             weight_.load(std::memory_order_relaxed) > capacity;
    };
    if (!over()) return;
    std::lock_guard<std::mutex> evict_lock(evict_mu_);
    while (over()) {
      // Find the globally oldest entry from the lock-free snapshots.
      Shard* victim_shard = nullptr;
      std::string victim_key;
      std::uint64_t victim_sequence = UINT64_MAX;
      for (auto& shard : shards_) {
        auto map = shard.snapshot.load();
        for (const auto& [key, slot] : *map) {
          if (slot.sequence < victim_sequence) {
            victim_sequence = slot.sequence;
            victim_key = key;
            victim_shard = &shard;
          }
        }
      }
      if (victim_shard == nullptr) return;  // raced to empty
      // Erase only the exact (key, sequence) pair chosen: a concurrent
      // overwrite refreshed the entry, so leave it and rescan.
      auto removed = erase(*victim_shard, victim_key, victim_sequence);
      if (!removed) continue;
      count(evictions_, Traits::kCounters.evictions);
      const Value& evicted = removed->value;
      if constexpr (requires { Traits::on_evict(victim_key, evicted); }) {
        Traits::on_evict(victim_key, evicted);
      }
    }
  }

  mutable std::array<Shard, kShards> shards_;
  std::mutex evict_mu_;
  std::atomic<std::uint64_t> capacity_{0};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> weight_{0};
  std::atomic<std::uint64_t> next_sequence_{1};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> inserts_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> invalidations_{0};
};

}  // namespace benchpark::support
