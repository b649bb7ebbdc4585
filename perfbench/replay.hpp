// The traced replay: one campaign driven through the public calls that
// Driver::run_workflow makes, each timed by the benchmark's own spans,
// then Workspace::setup and Workspace::run_all split into their inner
// public entry points and replayed on the same inputs. The replays'
// outputs are checked against the bundled calls' outputs. Work with no
// public entry point of its own (expansion and rendering) is reported as
// the rest of its bundled call's time.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"
#include "src/ramble/workspace.hpp"

namespace perfbench {

/// Per-layer accumulator: seconds and counts summed over campaigns, and
/// per-experiment samples (kernel rates) averaged over their own count.
struct LayerSink {
  std::map<std::string, double> sum;
  std::map<std::string, std::pair<double, std::size_t>> samples;
  std::size_t campaigns = 0;
  double traced_wall = 0;    // campaign wall with the spans on
  double untraced_wall = 0;  // the same campaigns through run_workflow
  double covered = 0;        // sum of the top-level spans

  void add(const std::string& name, double value) { sum[name] += value; }
  /// Sum per campaign.
  [[nodiscard]] double mean(const std::string& name) const;
  void sample(const std::string& name, double value);
  [[nodiscard]] double sample_mean(const std::string& name) const;
};

/// Modeled seconds of one campaign (install critical path, simulated
/// experiment runtime, retry backoff); they must repeat exactly.
struct Modeled {
  double install_critical_path = 0;
  double runtime = 0;
  double retry_wait = 0;
};

/// One campaign and the state it runs against.
struct CampaignSpec {
  Pair pair;
  fs::path store_dir;
  fs::path workspace_dir;
  /// Where the traced pass copies the store before the campaign touches
  /// it, so the split replay reads the state the bundled calls read.
  fs::path split_store_dir;
  /// Empty the process-wide concretization and template caches first,
  /// as a fresh CLI process would have them.
  bool fresh_process = true;
  /// The campaign starts from an empty store, so the split replay starts
  /// from cleared caches too.
  bool cold = true;
  /// Scan the store's FOM history after the campaign (service runner).
  bool detect = false;
  /// An already open store (the service keeps one per tenant); null
  /// opens `store_dir` inside the campaign.
  benchpark::store::StoreHandle handle;
  /// RunRequest::threads of the campaign: 0 is the program's default
  /// width (ThreadPool::default_threads()).
  int threads = 0;
};

/// Empty the process-wide concretization and template caches.
void clear_process_caches();

/// Replay one campaign with spans on; `reference` and `reference_run` are
/// the same campaign's reports from an untraced run_workflow on identical
/// state. Returns the traced wall seconds.
double traced_campaign(const benchpark::core::Driver& driver,
                       const CampaignSpec& target,
                       const benchpark::ramble::AnalyzeReport& reference,
                       const benchpark::ramble::RunReport& reference_run,
                       LayerSink& sink, Checks& checks);

/// Print every per-layer metric of BENCHMARK.json (0 where a layer does
/// no work on this workload) from the traced campaigns.
void report_layers(const LayerSink& sink, const Modeled& modeled,
                   Report& report);

/// Replace every number in `text` by '#': native kernel output carries
/// measured times and rates, so two real runs match only in shape.
[[nodiscard]] std::string mask_numbers(const std::string& text);

}  // namespace perfbench
