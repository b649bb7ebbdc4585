#include "replay.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <optional>

#include "src/analysis/analysis.hpp"
#include "src/analysis/history.hpp"
#include "src/benchmarks/fft.hpp"
#include "src/benchmarks/gemm.hpp"
#include "src/benchmarks/ptrans.hpp"
#include "src/concretizer/concretize_cache.hpp"
#include "src/env/environment.hpp"
#include "src/pkg/repo.hpp"
#include "src/ramble/application.hpp"
#include "src/ramble/expansion.hpp"
#include "src/ramble/modifier.hpp"
#include "src/runtime/simexec.hpp"
#include "src/sched/scheduler.hpp"
#include "src/store/persist.hpp"
#include "src/support/fs_util.hpp"
#include "src/yaml/emitter.hpp"
#include "src/yaml/parser.hpp"

namespace perfbench {

namespace bp = benchpark;
using bp::ramble::PreparedExperiment;
using bp::ramble::Workspace;

void clear_process_caches() {
  bp::concretizer::ConcretizationCache::global().clear();
  bp::ramble::TemplateCache::global().clear();
}

double LayerSink::mean(const std::string& name) const {
  auto it = sum.find(name);
  return it == sum.end() || campaigns == 0
             ? 0.0
             : it->second / static_cast<double>(campaigns);
}

void LayerSink::sample(const std::string& name, double value) {
  auto& [total, count] = samples[name];
  total += value;
  ++count;
}

double LayerSink::sample_mean(const std::string& name) const {
  auto it = samples.find(name);
  return it == samples.end() ? 0.0 : it->second.first /
                                         static_cast<double>(it->second.second);
}

std::string mask_numbers(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size();) {
    if (std::isdigit(static_cast<unsigned char>(text[i]))) {
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) ||
              std::string_view(".eE+-").find(text[i]) !=
                  std::string_view::npos)) {
        ++i;
      }
      out += '#';
    } else {
      out += text[i++];
    }
  }
  return out;
}

namespace {

/// The benchmark's own span: times one call into a layer. Top-level
/// spans are the run_workflow steps whose sum is the coverage.
class Span {
 public:
  Span(LayerSink& sink, const char* layer, bool top = false)
      : sink_(sink), layer_(layer), top_(top), start_(Clock::now()) {}
  ~Span() {
    double s = seconds_between(start_, Clock::now());
    sink_.add(layer_, s);
    if (top_) sink_.covered += s;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerSink& sink_;
  const char* layer_;
  bool top_;
  Clock::time_point start_;
};

constexpr bool kTop = true;

std::string fom_text(const std::vector<bp::analysis::FomValue>& foms,
                     bool shape_only) {
  std::string out;
  for (const auto& f : foms) {
    out += f.name + "=" + (shape_only ? mask_numbers(f.raw) : f.raw) + " " +
           f.units + ";";
  }
  return out;
}

/// Whether a replayed experiment (success, FOMs, output) equals the
/// bundled call's result; real kernels match in shape only.
bool same_result(const bp::ramble::ExperimentResult& bundled, bool success,
                 const std::vector<bp::analysis::FomValue>& foms,
                 const std::string& output, bool native) {
  return success == bundled.success &&
         fom_text(foms, native) == fom_text(bundled.foms, native) &&
         (native ? mask_numbers(output) == mask_numbers(bundled.output)
                 : output == bundled.output);
}

// ----------------------------------------------- Workspace::setup split

/// Replay Workspace::setup's software half through
/// Environment::concretize/install_all and the store's warm loads; check
/// lockfiles and install counts against the bundled call. Expansion and
/// rendering have no public entry point of their own: they are the rest
/// of the bundled call's time (ramble.expand_s in report_layers).
void split_setup(const Workspace& ws,
                        const bp::store::StoreHandle& store, LayerSink& sink,
                        Checks& checks, const std::string& who) {
  const auto& system = ws.target_system();
  bp::concretizer::Concretizer concretizer(bp::pkg::default_repo_stack(),
                                           system.config);
  bp::buildcache::BinaryCache cache;
  bp::install::InstallTree tree(
      (ws.root() / "software" / "install").string());
  {
    Span span(sink, "store.warm_install_s");
    bp::store::warm_binary_cache(store, cache);
    bp::store::warm_install_tree(store, tree);
  }
  bp::install::Installer installer(bp::pkg::default_repo_stack(), &tree,
                                   &cache);
  const auto& config = ws.config();
  bp::install::InstallReport totals;
  for (const auto& env_def : config.spack_environments) {
    bp::env::Environment environment;
    {
      Span span(sink, "spec.parse_s");
      for (const auto& alias : env_def.packages) {
        const auto* def = config.find_package(alias);
        auto spec = bp::spec::Spec::parse(def->spack_spec);
        if (!def->compiler.empty()) {
          auto compiler = bp::spec::Spec::parse(
              config.find_package(def->compiler)->spack_spec);
          spec.set_compiler({compiler.name(), compiler.versions()});
        }
        environment.add(std::move(spec));
      }
    }
    {
      Span span(sink, "concretizer.concretize_s");
      environment.concretize(concretizer);
    }
    {
      Span span(sink, "install.install_s");
      auto r = environment.install_all(installer);
      totals.from_source += r.from_source;
      totals.from_cache += r.from_cache;
      totals.already_installed += r.already_installed;
      totals.critical_path_seconds += r.critical_path_seconds;
    }
    auto lockfile = bp::support::read_file(
        ws.root() / "software" / (env_def.name + ".lock.yaml"));
    checks.expect(bp::yaml::emit(environment.lockfile()) == lockfile,
                  who + ": replayed " + env_def.name +
                      " lockfile equals the bundled one");
  }
  const auto& bundled = ws.install_report();
  checks.expect(totals.from_source == bundled.from_source &&
                    totals.from_cache == bundled.from_cache &&
                    totals.already_installed == bundled.already_installed &&
                    totals.critical_path_seconds ==
                        bundled.critical_path_seconds,
                who + ": replayed install counts equal the bundled ones");
  auto stats = cache.stats();
  sink.add("buildcache.hits", static_cast<double>(stats.hits));
  sink.add("buildcache.lookups", static_cast<double>(stats.lookups()));
}

// ---------------------------------------------- Workspace::run_all split

/// Execute one experiment as the run engine does: batch directives from
/// the rendered script, run parameters from its variables, retries.
std::string execute(const Workspace& ws, const PreparedExperiment& exp,
                    std::size_t index, LayerSink& sink) {
  const auto& system = ws.target_system();
  bp::sched::ScriptRequest batch;
  {
    Span span(sink, "sched.parse_batch_script_s");
    batch = bp::sched::parse_batch_script(exp.script, system.scheduler);
  }
  bp::runtime::RunParams params;
  params.app = exp.app;
  auto size = exp.variables.find("n");
  if (size == exp.variables.end()) size = exp.variables.find("nx");
  if (size != exp.variables.end()) {
    params.n = static_cast<std::uint64_t>(
        bp::ramble::expand_int(size->second, exp.variables));
  }
  params.n_nodes = batch.nodes;
  params.n_ranks = batch.ranks;
  params.n_threads = static_cast<int>(
      bp::ramble::expand_int(exp.variables.at("n_threads"), exp.variables));
  params.use_gpu = exp.use_gpu;
  for (const auto& [k, v] : exp.env_vars) {
    params.env[k] = bp::ramble::expand(v, exp.variables);
  }
  bp::runtime::ExecResult exec;
  {
    Span span(sink, "runtime.exec_s");
    exec = bp::runtime::run_with_retry(
        [&] {
          return system.name == "native"
                     ? bp::runtime::run_native(params)
                     : bp::runtime::run_simulated(system, params);
        },
        exp.name, bp::ramble::RunRequest{}.retry);
  }
  std::string output = std::move(exec.outcome.output);
  if (exec.outcome.elapsed_seconds > batch.time_limit_seconds.value_or(7200)) {
    output += "\nslurmstepd: *** JOB " + std::to_string(index + 1) +
              " CANCELLED DUE TO TIME LIMIT ***\n";
  }
  return output;
}

/// Replay Workspace::run_all (+ FOM extraction) through store lookups
/// under the bundled run's keys, batch-script parsing, execution and
/// extract_foms_batch; check .out bytes and FOMs against the bundled
/// calls.
void split_run(const Workspace& ws, const bp::ramble::RunReport& run,
               const bp::store::StoreHandle& split_store,
               const bp::store::StoreHandle& bundled_store,
               const bp::ramble::AnalyzeReport& report, int threads,
               bool native, LayerSink& sink, Checks& checks,
               const std::string& who) {
  const auto& prepared = ws.prepared();
  std::vector<std::string> outputs;
  bool keys_match = run.per_experiment.size() == prepared.size();
  for (std::size_t i = 0; keys_match && i < prepared.size(); ++i) {
    const std::string& key = run.per_experiment[i].store_key;
    std::optional<bp::store::ExperimentRecord> record;
    {
      Span span(sink, "store.lookup_s");
      record = bp::store::load_experiment(split_store, key);
    }
    outputs.push_back(record ? record->output
                             : execute(ws, prepared[i], i, sink));
    // The bundled run saved every result under its key.
    auto saved = bp::store::load_experiment(bundled_store, key);
    keys_match = saved && (native || saved->output == outputs.back());
  }
  checks.expect(keys_match, who + ": the bundled run's store keys find "
                                  "its records");
  if (!keys_match) return;

  std::vector<std::vector<bp::analysis::FomSpec>> specs(prepared.size());
  std::vector<std::vector<bp::analysis::SuccessCriterion>> criteria(
      prepared.size());
  std::vector<bp::analysis::FomExtractTask> tasks(prepared.size());
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    const auto& app =
        bp::ramble::ApplicationRegistry::instance().get(prepared[i].app);
    specs[i] = app.foms();
    criteria[i] = app.success_criteria_list();
    for (const auto& name : prepared[i].modifiers) {
      auto modifier = bp::ramble::ModifierRegistry::instance().get(name);
      for (auto& f : modifier->foms()) specs[i].push_back(std::move(f));
      for (auto& c : modifier->success_criteria()) {
        criteria[i].push_back(std::move(c));
      }
    }
    tasks[i] = {&specs[i], &criteria[i], &outputs[i]};
  }
  std::vector<bp::analysis::FomExtractResult> extracted;
  {
    Span span(sink, "analysis.fom_extract_s");
    extracted = bp::analysis::extract_foms_batch(tasks, threads);
  }
  bool same = extracted.size() == report.results.size();
  for (std::size_t i = 0; same && i < extracted.size(); ++i) {
    same = same_result(report.results[i], extracted[i].success,
                       extracted[i].foms, outputs[i], native);
  }
  checks.expect(same, who + ": replayed .out bytes and FOMs equal the "
                            "bundled run's");
}

// ------------------------------------------------------------ probes

/// Parse the YAML documents the campaign wrote (configs and lockfiles).
void yaml_probe(const Workspace& ws, LayerSink& sink) {
  std::vector<std::string> docs;
  for (const char* name : {"ramble.yaml", "variables.yaml", "packages.yaml",
                           "compilers.yaml"}) {
    docs.push_back(bp::support::read_file(ws.root() / "configs" / name));
  }
  for (const auto& env_def : ws.config().spack_environments) {
    docs.push_back(bp::support::read_file(
        ws.root() / "software" / (env_def.name + ".lock.yaml")));
  }
  Span span(sink, "yaml.parse_s");
  for (const auto& doc : docs) (void)bp::yaml::parse(doc);
}

/// support::write_file per call, on one rendered script.
void write_probe(const Workspace& ws, LayerSink& sink) {
  constexpr int kCalls = 4;
  fs::path dir = ws.root() / "probe";
  bp::support::ensure_dir(dir);
  const std::string& payload = ws.prepared().front().script;
  auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    bp::support::write_file(dir / ("w" + std::to_string(i)), payload);
  }
  sink.add("support.write_file_s", seconds_between(t0, Clock::now()) / kCalls);
  fs::remove_all(dir);
}

/// Per-(n, threads) kernel rates from a native campaign's FOMs.
void kernel_samples(const bp::ramble::AnalyzeReport& report,
                    LayerSink& sink) {
  static const std::map<std::string, std::pair<std::string, std::string>>
      rate = {{"gemm", {"gflops", "gflops"}},
              {"fft", {"gflops", "gflops"}},
              {"randomaccess", {"gups", "gups"}},
              {"ptrans", {"bw", "gb_per_s"}}};
  for (const auto& r : report.results) {
    auto it = rate.find(r.app);
    if (it == rate.end()) continue;
    const auto* fom = r.fom(it->second.first);
    if (fom == nullptr) continue;
    sink.sample("benchmarks." + r.app + "." + it->second.second + ".n" +
                    r.variables.at("n") + ".t" + r.variables.at("n_threads"),
                fom->value);
  }
}

}  // namespace

double traced_campaign(const bp::core::Driver& driver, const CampaignSpec& c,
                       const bp::ramble::AnalyzeReport& reference,
                       const bp::ramble::RunReport& reference_run,
                       LayerSink& sink, Checks& checks) {
  const std::string who = c.pair.name();
  const bool native = c.pair.system == "native";
  ++sink.campaigns;
  if (c.fresh_process) clear_process_caches();

  // The split replay below reads the store as the bundled calls found it.
  fs::remove_all(c.split_store_dir);
  if (fs::exists(c.store_dir)) {
    fs::create_directories(c.split_store_dir.parent_path());
    fs::copy(c.store_dir, c.split_store_dir, fs::copy_options::recursive);
  }

  // The bundled run_workflow steps, each behind one top-level span.
  auto t0 = Clock::now();
  bp::store::StoreHandle store = c.handle;
  if (!store) {
    Span span(sink, "store.open_s", kTop);
    store = bp::store::Store::open(c.store_dir);
  }
  const auto store_before = store->stats();
  {
    Span span(sink, "store.warm_start_s", kTop);
    bp::store::warm_start_global_caches(store);
  }
  // The warm start restores the cache's persisted counters; count from
  // here.
  const auto templates_before = bp::ramble::TemplateCache::global().stats();
  std::optional<Workspace> ws;
  {
    Span span(sink, "core.setup_s", kTop);
    ws.emplace(driver.setup(c.pair.id, c.pair.system, c.workspace_dir));
  }
  ws->set_store(store);
  {
    Span span(sink, "ramble.workspace_setup_s", kTop);
    ws->setup();
  }
  bp::ramble::RunRequest request;
  request.threads = c.threads;
  request.store = store;
  bp::ramble::RunReport run;
  {
    Span span(sink, "ramble.run_all_s", kTop);
    run = ws->run_all(request);
  }
  bp::ramble::AnalyzeReport report;
  {
    Span span(sink, "ramble.analyze_s", kTop);
    report = ws->analyze(request);
  }
  std::optional<bp::analysis::FomHistory> history;
  {
    Span span(sink, "analysis.history_open_s", kTop);
    history.emplace(store);
  }
  const std::size_t depth = history->size();
  {
    Span span(sink, "analysis.history_append_s", kTop);
    const auto& id = c.pair.id;
    for (std::size_t i = 0; i < run.per_experiment.size(); ++i) {
      const auto& outcome = run.per_experiment[i];
      history->append({id.benchmark, c.pair.system, outcome.name,
                       "runtime_seconds"},
                      outcome.runtime_seconds, "s", outcome.store_key,
                      outcome.success);
      if (i >= report.results.size()) continue;
      for (const auto& fom : report.results[i].foms) {
        if (!fom.numeric) continue;
        history->append({id.benchmark, c.pair.system, outcome.name, fom.name},
                        fom.value, fom.units, outcome.store_key, true);
      }
    }
  }
  {
    Span span(sink, "store.persist_caches_s", kTop);
    bp::store::persist_global_caches(store);
  }
  {
    Span span(sink, "store.flush_s", kTop);
    store->flush();
  }
  if (c.detect) {
    Span span(sink, "analysis.detect_s", kTop);
    bp::analysis::AnalysisRequest scan;
    scan.store = store;
    scan.benchmark = c.pair.id.benchmark;
    scan.system = c.pair.system;
    (void)bp::analysis::run_analysis(scan);
  }
  const double wall = seconds_between(t0, Clock::now());

  // Layer counters of the bundled steps.
  const auto templates_after = bp::ramble::TemplateCache::global().stats();
  const auto& cz = ws->concretize_summary();
  const auto& install = ws->install_report();
  const auto store_after = store->stats();
  auto add = [&](const char* name, double v) { sink.add(name, v); };
  add("concretizer.roots", static_cast<double>(cz.roots));
  add("concretizer.cache_hits", static_cast<double>(cz.cache_hits));
  add("concretizer.cache_lookups",
      static_cast<double>(cz.cache_hits + cz.cache_misses));
  add("install.from_source", static_cast<double>(install.from_source));
  add("install.from_cache", static_cast<double>(install.from_cache));
  add("install.already_installed",
      static_cast<double>(install.already_installed));
  add("ramble.template_hits",
      static_cast<double>(templates_after.hits - templates_before.hits));
  add("ramble.template_lookups",
      static_cast<double>(templates_after.lookups() -
                          templates_before.lookups()));
  add("ramble.experiments", static_cast<double>(run.experiments));
  add("runtime.attempts", static_cast<double>(run.total_attempts));
  add("store.hits", static_cast<double>(run.store_hits));
  add("store.records", static_cast<double>(store->size()));
  std::error_code ec;
  auto journal_bytes = fs::file_size(store->journal_path(), ec);
  add("store.journal_bytes", ec ? 0.0 : static_cast<double>(journal_bytes));
  add("store.appended_records",
      static_cast<double>(store_after.appended_records -
                          store_before.appended_records));
  add("store.compactions", static_cast<double>(store_after.compactions -
                                               store_before.compactions));
  add("analysis.history_samples", static_cast<double>(depth));
  add("support.files_written",
      static_cast<double>(count_files(c.workspace_dir)));
  if (native) kernel_samples(report, sink);

  // The bundled steps must reproduce the untraced run_workflow.
  bool same = report.results.size() == reference.results.size();
  for (std::size_t i = 0; same && i < report.results.size(); ++i) {
    const auto& r = report.results[i];
    same = same_result(reference.results[i], r.success, r.foms, r.output,
                       native);
  }
  checks.expect(same, who + ": traced steps reproduce run_workflow's "
                            "report");
  // A store key hashes the experiment's rendered script, variables and
  // environment (workspace root scrubbed) and its software's DAG hashes.
  same = run.per_experiment.size() == reference_run.per_experiment.size();
  for (std::size_t i = 0; same && i < run.per_experiment.size(); ++i) {
    same = !run.per_experiment[i].store_key.empty() &&
           run.per_experiment[i].store_key ==
               reference_run.per_experiment[i].store_key;
  }
  checks.expect(same, who + ": traced steps render run_workflow's scripts "
                            "(equal store keys)");

  // Split the two bundled calls by replaying their inner public calls.
  if (c.cold) clear_process_caches();
  auto split_store = bp::store::Store::open(c.split_store_dir);
  split_setup(*ws, split_store, sink, checks, who);
  split_run(*ws, run, split_store, store, report, c.threads, native, sink,
            checks, who);
  yaml_probe(*ws, sink);
  write_probe(*ws, sink);
  return wall;
}

// ------------------------------------------------------------ reporting

namespace {

struct Kernel {
  const char* name;
  const char* rate;  // metric suffix of the rate FOM
  const char* unit;
  std::size_t n_small;
  std::size_t n_large;
};
// Problem sizes of core::Driver's kernel scaling matrices (n x n_threads).
constexpr Kernel kKernels[] = {
    {"gemm", "gflops", "GFLOP/s", 256, 384},
    {"fft", "gflops", "GFLOP/s", 2048, 4096},
    {"randomaccess", "gups", "GUP/s", 32768, 65536},
    {"ptrans", "gb_per_s", "GB/s", 512, 1024}};
constexpr int kThreads[] = {1, 4};

/// Work of one native campaign of a kernel (its four experiments), as
/// the kernels count it: operations (floating-point operations; GUPS:
/// table updates; PTRANS: none) and bytes moved.
std::pair<double, double> kernel_work(const Kernel& k) {
  const std::string_view name = k.name;
  double ops = 0;
  double bytes = 0;
  for (std::size_t n : {k.n_small, k.n_large}) {
    const double nd = static_cast<double>(n);
    if (name == "gemm") {
      ops += bp::benchmarks::gemm_flops(n);
      bytes += 3 * 8 * nd * nd;
    } else if (name == "fft") {
      constexpr double kBatch = 8;  // run_native's batch
      ops += bp::benchmarks::fft_flops(n) * kBatch;
      bytes += 2 * 16 * nd * kBatch;
    } else if (name == "ptrans") {
      constexpr double kRepeats = 2;  // run_ptrans's default
      bytes += bp::benchmarks::ptrans_bytes(n) * kRepeats;
    } else {
      // 4 updates per table entry, each a read and a write of 8 bytes.
      ops += 4 * nd;
      bytes += 4 * nd * 16;
    }
  }
  // Each size runs once per thread count.
  constexpr double kThreadPoints = std::size(kThreads);
  return {ops * kThreadPoints, bytes * kThreadPoints};
}

}  // namespace

void report_layers(const LayerSink& sink, const Modeled& modeled,
                   Report& report) {
  auto ratio = [&](const char* hits, const char* lookups) {
    double l = sink.mean(lookups);
    return l > 0 ? sink.mean(hits) / l : 0.0;
  };
  for (const char* layer :
       {"store.open_s", "store.warm_start_s", "core.setup_s",
        "ramble.workspace_setup_s", "ramble.run_all_s", "ramble.analyze_s",
        "analysis.history_open_s", "analysis.history_append_s",
        "store.persist_caches_s", "store.flush_s", "analysis.detect_s",
        "spec.parse_s", "yaml.parse_s", "concretizer.concretize_s",
        "store.warm_install_s", "install.install_s", "store.lookup_s", "sched.parse_batch_script_s", "runtime.exec_s",
        "analysis.fom_extract_s", "support.write_file_s"}) {
    report.set(layer, sink.mean(layer), "s");
  }
  // Workspace::setup less its replayed software calls: expansion,
  // rendering and the workspace's file writes.
  double software = 0;
  for (const char* layer : {"store.warm_install_s", "spec.parse_s",
                            "concretizer.concretize_s", "install.install_s"}) {
    software += sink.mean(layer);
  }
  report.set("ramble.expand_s",
             std::max(0.0, sink.mean("ramble.workspace_setup_s") - software),
             "s");
  report.set("concretizer.roots", sink.mean("concretizer.roots"), "count");
  report.set("concretizer.cache_hit_ratio",
             ratio("concretizer.cache_hits", "concretizer.cache_lookups"),
             "ratio");
  for (const char* count : {"install.from_source", "install.from_cache",
                            "install.already_installed"}) {
    report.set(count, sink.mean(count), "count");
  }
  report.set("buildcache.hit_ratio",
             ratio("buildcache.hits", "buildcache.lookups"), "ratio");
  report.set("install.modeled_critical_path_s", modeled.install_critical_path,
             "s");
  report.set("ramble.template_cache_hit_ratio",
             ratio("ramble.template_hits", "ramble.template_lookups"),
             "ratio");
  report.set("ramble.experiments", sink.mean("ramble.experiments"), "count");
  report.set("runtime.attempts", sink.mean("runtime.attempts"), "count");
  report.set("runtime.modeled_s", modeled.runtime, "s");
  report.set("runtime.retry_wait_s", modeled.retry_wait, "s");
  report.set("store.hit_ratio", ratio("store.hits", "ramble.experiments"),
             "ratio");
  report.set("store.records", sink.mean("store.records"), "count");
  report.set("store.journal_bytes", sink.mean("store.journal_bytes"),
             "bytes");
  report.set("store.appended_records", sink.mean("store.appended_records"),
             "count");
  report.set("store.compactions", sink.mean("store.compactions"), "count");
  report.set("analysis.history_samples", sink.mean("analysis.history_samples"),
             "count");
  // The service layer is measured once per run, not per campaign.
  auto once = [&](const char* name) {
    auto it = sink.sum.find(name);
    return it == sink.sum.end() ? 0.0 : it->second;
  };
  report.set("serve.submit_s", once("serve.submit_s"), "s");
  report.set("serve.admission_wait_p50_s", once("serve.admission_wait_p50_s"),
             "s");
  report.set("serve.admission_wait_tail_s",
             once("serve.admission_wait_tail_s"), "s");
  report.set("serve.queue_depth_max", once("serve.queue_depth_max"), "count");
  report.set("serve.rejected", once("serve.rejected"), "count");
  report.set("serve.generator_late_p50_s", once("serve.generator_late_p50_s"),
             "s");
  report.set("serve.max_rate_per_s", once("serve.max_rate_per_s"), "1/s");
  report.set("support.files_written", sink.mean("support.files_written"),
             "count");

  const bool native = sink.samples.count("benchmarks.gemm.gflops.n256.t1") > 0;
  for (const auto& k : kKernels) {
    std::string base = std::string("benchmarks.") + k.name + ".";
    double rate[2][2] = {};
    for (int s = 0; s < 2; ++s) {
      for (int t = 0; t < 2; ++t) {
        std::string name = base + k.rate + ".n" +
                           std::to_string(s == 0 ? k.n_small : k.n_large) +
                           ".t" + std::to_string(kThreads[t]);
        rate[s][t] = sink.sample_mean(name);
        report.set(name, rate[s][t], k.unit);
      }
    }
    auto [ops, bytes] = kernel_work(k);
    report.set(base + "ops", native ? ops : 0.0, "count");
    report.set(base + "bytes", native ? bytes : 0.0, "bytes");
    report.set(base + "ops_per_byte", native ? ops / bytes : 0.0, "ratio");
    report.set(base + "speedup_4t", rate[1][0] > 0 ? rate[1][1] / rate[1][0] : 0,
               "ratio");
  }
  report.set("trace.coverage",
             sink.traced_wall > 0 ? sink.covered / sink.traced_wall : 0,
             "ratio");
  report.set("trace.overhead",
             sink.untraced_wall > 0 ? sink.traced_wall / sink.untraced_wall
                                    : 0,
             "ratio");
}

}  // namespace perfbench
