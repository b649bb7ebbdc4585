// Shared pieces of the end-to-end campaign benchmark: the campaign
// matrix, timing summaries, output checks and the metric report that
// ends every run with one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/driver.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One campaign: an experiment workflow on one system.
struct Pair {
  benchpark::core::ExperimentId id;
  std::string system;
  [[nodiscard]] std::string name() const { return id.str() + "@" + system; }
};

/// A pair that passes Driver::validate but is left out, with the reason.
struct Exclusion {
  const char* experiment;
  const char* system;
  const char* reason;
};
extern const std::vector<Exclusion> kExclusions;

/// Every validated (experiment, system) pair on the simulated systems,
/// minus kExclusions, in canonical (experiment, system) order.
[[nodiscard]] std::vector<Pair> simulated_matrix(
    const benchpark::core::Driver& driver);
/// The HPCC-class kernel campaigns that run for real on `native`.
[[nodiscard]] std::vector<Pair> native_kernel_pairs();

/// A timing distribution reported as its median and the highest
/// percentile that still has at least ten samples beyond it.
struct Summary {
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;  // 0..100
  std::size_t samples = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);

/// Output checks: every check is attempted once and counted as failed
/// when it does not hold; the first few failures are printed.
class Checks {
 public:
  bool expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Named metrics in insertion order, printed as a table and as the final
/// JSON line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double get(const std::string& name) const;
  void print_table() const;
  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path root;  // work directory for workspaces and stores
};

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();
/// Regular files under `dir` (recursively).
[[nodiscard]] std::size_t count_files(const fs::path& dir);

}  // namespace perfbench
