#include "src/buildcache/binary_cache.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"

namespace benchpark::buildcache {

BinaryCache::BinaryCache(double base_latency_seconds, double bytes_per_second)
    : base_latency_seconds_(base_latency_seconds),
      bytes_per_second_(bytes_per_second) {}

std::optional<CacheEntry> BinaryCache::fetch(const spec::Spec& concrete) {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan span(collector, "fetch", "buildcache");
  auto hash = concrete.dag_hash();
  if (span.active()) span.annotate("hash", hash);
  // Fault gate before the counters: retried-then-resolved requests count
  // exactly one hit or miss, so cache statistics stay comparable whether
  // or not a chaos plan is active.
  double injected = 0.0;
  const int max_attempts = 1 + std::max(0, fetch_retries_);
  for (int attempt = 1;; ++attempt) {
    try {
      injected += support::fault_hit("buildcache.fetch", hash,
                                     static_cast<std::uint64_t>(attempt));
      break;
    } catch (const TransientError&) {
      if (attempt >= max_attempts) {
        span.annotate("outcome", "transient-exhausted");
        throw;
      }
      retries_.fetch_add(1, std::memory_order_release);
      collector.counter_add("buildcache.retries");
      injected += base_latency_seconds_;  // re-request round trip
    }
  }
  std::uint64_t sequence = 0;
  auto entry = cache_.find(hash, &sequence);
  span.annotate("outcome", entry ? "hit" : "miss");
  if (entry) {
    entry->sequence = sequence;
    entry->injected_latency_seconds = injected;
  }
  return entry;
}

void BinaryCache::push(const spec::Spec& concrete, std::uint64_t size_bytes) {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan span(collector, "push", "buildcache");
  auto hash = concrete.dag_hash();
  if (span.active()) {
    span.annotate("hash", hash);
    span.annotate("bytes", std::to_string(size_bytes));
  }
  support::fault_hit("buildcache.push", hash);
  CacheEntry entry;
  entry.dag_hash = hash;
  entry.short_spec = concrete.short_str();
  entry.size_bytes = size_bytes;
  cache_.insert(std::move(hash), std::move(entry));
}

void BinaryCache::Traits::on_evict(const std::string& hash,
                                   const CacheEntry& e) {
  auto& collector = obs::TraceCollector::global();
  if (collector.enabled()) {
    collector.instant("evict", "buildcache",
                      {{"hash", hash},
                       {"bytes", std::to_string(e.size_bytes)}});
  }
}

CacheStats BinaryCache::stats() const {
  CacheStats s;
  s.retries = retries_.load(std::memory_order_acquire);
  static_cast<support::CacheStats&>(s) = cache_.stats();
  return s;
}

std::vector<CacheEntry> BinaryCache::export_entries() const {
  std::vector<CacheEntry> out;
  for (auto& e : cache_.export_entries()) {
    e.value.sequence = e.sequence;
    out.push_back(std::move(e.value));
  }
  return out;
}

void BinaryCache::restore(const std::vector<CacheEntry>& entries,
                          const CacheStats& stats) {
  std::vector<decltype(cache_)::Entry> restored;
  restored.reserve(entries.size());
  for (CacheEntry entry : entries) {
    entry.injected_latency_seconds = 0.0;  // transient, never persisted
    const std::uint64_t sequence = entry.sequence;
    std::string hash = entry.dag_hash;
    restored.push_back({std::move(hash), std::move(entry), sequence});
  }
  retries_.store(stats.retries, std::memory_order_release);
  cache_.restore(std::move(restored), stats);
}

double BinaryCache::fetch_cost_seconds(std::uint64_t size_bytes) const {
  return base_latency_seconds_ +
         static_cast<double>(size_bytes) / bytes_per_second_;
}

}  // namespace benchpark::buildcache
