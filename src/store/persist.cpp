#include "src/store/persist.hpp"

#include <cstdio>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/buildcache/binary_cache.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/env/environment.hpp"
#include "src/install/installer.hpp"
#include "src/ramble/expansion.hpp"
#include "src/support/hash.hpp"
#include "src/support/sharded_cache.hpp"
#include "src/support/log.hpp"
#include "src/yaml/emitter.hpp"
#include "src/yaml/node.hpp"
#include "src/yaml/parser.hpp"

namespace benchpark::store {

namespace {

constexpr std::string_view kBinaryKind = "binary";
constexpr std::string_view kConcretizeKind = "concretize";
constexpr std::string_view kTemplateKind = "template";
constexpr std::string_view kInstallKind = "install";
constexpr std::string_view kExperimentKind = "experiment";
constexpr std::string_view kMetaKind = "meta";

yaml::EmitOptions emit_opts() {
  yaml::EmitOptions opts;
  // Persisted values that look like numbers/booleans/dates must stay
  // strings under any YAML reader, not just ours.
  opts.quote_numeric_strings = true;
  return opts;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// {spec: <node>, index: {hash: <node>, ...}} — the self-contained
/// closure concrete_spec_from_node needs to rebuild the spec.
void add_closure(const spec::Spec& s, yaml::Node& index) {
  const std::string hash = s.dag_hash();
  if (index.has(hash)) return;
  index[hash] = env::concrete_spec_to_node(s);
  for (const auto& d : s.dependencies()) add_closure(d, index);
}

void put_spec_closure(yaml::Node& root, const spec::Spec& s) {
  root["spec"] = env::concrete_spec_to_node(s);
  yaml::Node index = yaml::Node::make_mapping();
  add_closure(s, index);
  root["index"] = std::move(index);
}

spec::Spec spec_from_closure(const yaml::Node& root) {
  return env::concrete_spec_from_node(root.at("spec"), root.at("index"));
}

install::InstallSource source_from_name(std::string_view name) {
  if (name == "cache") return install::InstallSource::binary_cache;
  if (name == "external") return install::InstallSource::external;
  if (name == "installed") return install::InstallSource::already;
  return install::InstallSource::source_build;
}

void warn_skip(std::string_view kind, const std::string& key,
               const char* what) {
  support::Log::warn("store: skipping " + std::string(kind) + " record '" +
                     key + "': " + what);
}

/// One persisted counter: its field name in a "<cache>.stats" meta record
/// and the stats member it maps to.
using StatField = std::pair<std::string_view, std::size_t*>;

/// The fields of each cache's meta stats record, in the order they have
/// always been written. `retries` is the binary cache's extra counter.
std::vector<StatField> stat_fields(std::string_view meta_key,
                                   support::CacheStats& s,
                                   std::size_t* retries) {
  if (meta_key == "binary.stats") {
    return {{"hits", &s.hits},
            {"misses", &s.misses},
            {"pushes", &s.inserts},
            {"retries", retries},
            {"evictions", &s.evictions}};
  }
  std::vector<StatField> fields{{"hits", &s.hits},
                                {"misses", &s.misses},
                                {"inserts", &s.inserts},
                                {"evictions", &s.evictions}};
  if (meta_key == "concretize.stats") {
    fields.emplace_back("invalidations", &s.invalidations);
  }
  return fields;
}

void put_stats(const StoreHandle& store, std::string_view meta_key,
               support::CacheStats stats, std::size_t retries = 0) {
  yaml::Node n = yaml::Node::make_mapping();
  for (const auto& [name, value] : stat_fields(meta_key, stats, &retries)) {
    n[std::string(name)] = yaml::Node(static_cast<long long>(*value));
  }
  store->put(kMetaKind, meta_key, yaml::emit(n, emit_opts()));
}

/// Read a meta stats record. nullopt when it is absent or unparsable (the
/// latter logs a warning and bumps `skipped`, when given).
std::optional<support::CacheStats> get_stats(const StoreHandle& store,
                                             std::string_view meta_key,
                                             std::size_t* retries = nullptr,
                                             std::size_t* skipped = nullptr) {
  const auto meta = store->get(kMetaKind, meta_key);
  if (!meta) return std::nullopt;
  support::CacheStats stats;
  std::size_t retries_value = 0;
  try {
    yaml::Node n = yaml::parse(*meta);
    for (const auto& [name, value] :
         stat_fields(meta_key, stats, &retries_value)) {
      *value = static_cast<std::size_t>(n.at(std::string(name)).as_int());
    }
  } catch (const std::exception& e) {
    if (skipped) ++*skipped;
    warn_skip(kMetaKind, std::string(meta_key), e.what());
    return std::nullopt;
  }
  if (retries) *retries = retries_value;
  return stats;
}

}  // namespace

// ------------------------------------------------------ global caches

WarmStartReport warm_start_global_caches(const StoreHandle& store) {
  WarmStartReport report;
  if (!store || !store->begin_warm_start()) return report;
  report.attempted = true;

  // Records whose key the cache already holds are skipped before they
  // are decoded: restore() keeps the in-process entry anyway.
  auto& ccache = concretizer::ConcretizationCache::global();
  std::vector<concretizer::ConcretizationCache::Entry> concretized;
  store->for_each(kConcretizeKind, [&](const std::string& key,
                                       const std::string& value) {
    if (ccache.contains(key)) return;
    try {
      yaml::Node n = yaml::parse(value);
      auto s = std::make_shared<const spec::Spec>(spec_from_closure(n));
      const auto seq =
          static_cast<std::uint64_t>(n.at("sequence").as_int());
      concretized.push_back({key, std::move(s), seq});
    } catch (const std::exception& e) {
      ++report.skipped_records;
      warn_skip(kConcretizeKind, key, e.what());
    }
  });
  report.concretize_entries = concretized.size();
  ccache.restore(std::move(concretized),
                 get_stats(store, "concretize.stats", nullptr,
                           &report.skipped_records));

  auto& tcache = ramble::TemplateCache::global();
  std::vector<ramble::TemplateCache::Entry> templates;
  store->for_each(kTemplateKind, [&](const std::string& key,
                                     const std::string& value) {
    try {
      yaml::Node n = yaml::parse(value);
      const auto seq =
          static_cast<std::uint64_t>(n.at("sequence").as_int());
      std::string text = n.at("text").as_string();
      if (tcache.contains(text)) return;
      // Compile first: a corrupt record must not publish anything.
      auto compiled = std::make_shared<const ramble::CompiledTemplate>(text);
      templates.push_back({std::move(text), std::move(compiled), seq});
    } catch (const std::exception& e) {
      ++report.skipped_records;
      warn_skip(kTemplateKind, key, e.what());
    }
  });
  report.template_entries = templates.size();
  tcache.restore(std::move(templates),
                 get_stats(store, "template.stats", nullptr,
                           &report.skipped_records));
  return report;
}

void persist_global_caches(const StoreHandle& store) {
  if (!store) return;
  const auto opts = emit_opts();

  auto& ccache = concretizer::ConcretizationCache::global();
  for (const auto& [key, s, sequence] : ccache.export_entries()) {
    yaml::Node root = yaml::Node::make_mapping();
    put_spec_closure(root, *s);
    root["sequence"] = yaml::Node(static_cast<long long>(sequence));
    store->put(kConcretizeKind, key, yaml::emit(root, opts));
  }
  put_stats(store, "concretize.stats", ccache.stats());

  auto& tcache = ramble::TemplateCache::global();
  for (const auto& [text, compiled, sequence] : tcache.export_entries()) {
    yaml::Node root = yaml::Node::make_mapping();
    root["text"] = yaml::Node(text);
    root["sequence"] = yaml::Node(static_cast<long long>(sequence));
    store->put(kTemplateKind, support::hash_base32(text),
               yaml::emit(root, opts));
  }
  put_stats(store, "template.stats", tcache.stats());
}

// -------------------------------------------------------- binary cache

std::size_t warm_binary_cache(const StoreHandle& store,
                              buildcache::BinaryCache& cache) {
  if (!store) return 0;
  std::vector<buildcache::CacheEntry> entries;
  store->for_each(kBinaryKind, [&](const std::string& key,
                                   const std::string& value) {
    try {
      yaml::Node n = yaml::parse(value);
      buildcache::CacheEntry e;
      e.dag_hash = key;
      e.short_spec = n.at("short_spec").as_string();
      e.size_bytes = static_cast<std::uint64_t>(n.at("size_bytes").as_int());
      e.sequence = static_cast<std::uint64_t>(n.at("sequence").as_int());
      entries.push_back(std::move(e));
    } catch (const std::exception& e) {
      warn_skip(kBinaryKind, key, e.what());
    }
  });
  buildcache::CacheStats stats;
  const auto persisted = get_stats(store, "binary.stats", &stats.retries);
  if (entries.empty() && !persisted) return 0;  // nothing persisted yet
  if (persisted) static_cast<support::CacheStats&>(stats) = *persisted;
  cache.restore(entries, stats);
  return entries.size();
}

void persist_binary_cache(const StoreHandle& store,
                          const buildcache::BinaryCache& cache) {
  if (!store) return;
  const auto opts = emit_opts();
  for (const auto& entry : cache.export_entries()) {
    yaml::Node n = yaml::Node::make_mapping();
    n["short_spec"] = yaml::Node(entry.short_spec);
    n["size_bytes"] = yaml::Node(static_cast<long long>(entry.size_bytes));
    n["sequence"] = yaml::Node(static_cast<long long>(entry.sequence));
    store->put(kBinaryKind, entry.dag_hash, yaml::emit(n, opts));
  }
  const auto stats = cache.stats();
  put_stats(store, "binary.stats", stats, stats.retries);
}

// -------------------------------------------------------- install tree

std::size_t warm_install_tree(const StoreHandle& store,
                              install::InstallTree& tree) {
  if (!store) return 0;
  std::size_t loaded = 0;
  store->for_each(kInstallKind, [&](const std::string& key,
                                    const std::string& value) {
    if (tree.find(key) != nullptr) return;  // fresher in-process record
    try {
      yaml::Node n = yaml::parse(value);
      install::InstallRecord r;
      r.spec = spec_from_closure(n);
      r.prefix = n.at("prefix").as_string();
      r.source = source_from_name(n.at("source").as_string());
      r.simulated_seconds = n.at("simulated_seconds").as_double();
      r.arch_flags = n.at("arch_flags").as_string_or("");
      r.attempts = static_cast<int>(n.at("attempts").as_int_or(1));
      if (n.has("retry_wait_seconds")) {
        r.retry_wait_seconds = n.at("retry_wait_seconds").as_double();
      }
      if (n.has("build_args")) {
        r.build_args = n.at("build_args").as_string_list();
      }
      tree.add(std::move(r));
      ++loaded;
    } catch (const std::exception& e) {
      warn_skip(kInstallKind, key, e.what());
    }
  });
  return loaded;
}

void persist_install_tree(const StoreHandle& store,
                          const install::InstallTree& tree) {
  if (!store) return;
  const auto opts = emit_opts();
  for (const install::InstallRecord* r : tree.all()) {
    yaml::Node n = yaml::Node::make_mapping();
    put_spec_closure(n, r->spec);
    n["prefix"] = yaml::Node(r->prefix);
    n["source"] = yaml::Node(std::string(install_source_name(r->source)));
    n["simulated_seconds"] = yaml::Node(fmt_double(r->simulated_seconds));
    n["arch_flags"] = yaml::Node(r->arch_flags);
    n["attempts"] = yaml::Node(static_cast<long long>(r->attempts));
    n["retry_wait_seconds"] = yaml::Node(fmt_double(r->retry_wait_seconds));
    if (!r->build_args.empty()) {
      yaml::Node args = yaml::Node::make_sequence();
      for (const auto& a : r->build_args) args.push_back(yaml::Node(a));
      n["build_args"] = std::move(args);
    }
    store->put(kInstallKind, r->spec.dag_hash(), yaml::emit(n, opts));
  }
}

// --------------------------------------------------------- experiments

std::optional<ExperimentRecord> load_experiment(const StoreHandle& store,
                                                std::string_view key) {
  if (!store) return std::nullopt;
  auto value = store->get(kExperimentKind, key);
  if (!value) return std::nullopt;
  try {
    yaml::Node n = yaml::parse(*value);
    ExperimentRecord r;
    r.success = n.at("success").as_bool();
    r.timed_out = n.at("timed_out").as_bool();
    r.attempts = static_cast<int>(n.at("attempts").as_int());
    r.retry_wait_seconds = n.at("retry_wait_seconds").as_double();
    r.runtime_seconds = n.at("runtime_seconds").as_double();
    r.output = n.at("output").as_string_or("");
    return r;
  } catch (const std::exception& e) {
    warn_skip(kExperimentKind, std::string(key), e.what());
    return std::nullopt;
  }
}

void save_experiment(const StoreHandle& store, std::string_view key,
                     const ExperimentRecord& record) {
  if (!store) return;
  yaml::Node n = yaml::Node::make_mapping();
  n["success"] = yaml::Node(record.success);
  n["timed_out"] = yaml::Node(record.timed_out);
  n["attempts"] = yaml::Node(static_cast<long long>(record.attempts));
  n["retry_wait_seconds"] = yaml::Node(fmt_double(record.retry_wait_seconds));
  n["runtime_seconds"] = yaml::Node(fmt_double(record.runtime_seconds));
  n["output"] = yaml::Node(record.output);
  store->put(kExperimentKind, key, yaml::emit(n, emit_opts()));
}

}  // namespace benchpark::store
