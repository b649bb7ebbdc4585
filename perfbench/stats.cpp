#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "harness.hpp"
#include "src/support/error.hpp"
#include "src/system/system.hpp"

namespace perfbench {

const std::vector<Exclusion> kExclusions = {
    {"amg2023/openmp", "cloud-cts",
     "fails by design: the archspec rdseed illegal-instruction "
     "demonstration"},
    {"saxpy/*", "native", "requests 2 nodes; native has 1"},
    {"amg2023/*", "native", "requests 2 nodes; native has 1"},
    {"stream/openmp", "native",
     "has an 8-thread point above nproc, and its 10M-element arrays are "
     "under 4x the 300 MB LLC"},
};

namespace {

bool excluded(const Pair& pair) {
  for (const auto& ex : kExclusions) {
    std::string experiment = ex.experiment;
    bool match = experiment.ends_with("/*")
                     ? pair.id.benchmark ==
                           experiment.substr(0, experiment.size() - 2)
                     : pair.id.str() == experiment;
    if (match && pair.system == ex.system) return true;
  }
  return false;
}

}  // namespace

std::vector<Pair> simulated_matrix(const benchpark::core::Driver& driver) {
  std::vector<Pair> pairs;
  for (const auto& benchmark : driver.benchmarks()) {
    for (const auto& variant : driver.variants(benchmark)) {
      for (const auto& system : driver.systems()) {
        if (system == "native") continue;
        Pair pair{{benchmark, variant}, system};
        try {
          driver.validate(pair.id, system);
        } catch (const benchpark::Error&) {
          continue;
        }
        if (!excluded(pair)) pairs.push_back(std::move(pair));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.name() < b.name();
  });
  return pairs;
}

std::vector<Pair> native_kernel_pairs() {
  std::vector<Pair> pairs;
  for (const char* kernel : {"fft", "gemm", "ptrans", "randomaccess"}) {
    pairs.push_back({{kernel, "openmp"}, "native"});
  }
  return pairs;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = median(values);
  // The highest order statistic with ten samples above it; below 11
  // samples no such percentile exists and the maximum stands in.
  std::size_t n = values.size();
  std::size_t index = n > 10 ? n - 11 : n - 1;
  s.tail = values[index];
  s.tail_percentile = 100.0 * static_cast<double>(index + 1) /
                      static_cast<double>(n);
  return s;
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 10) std::cout << "CHECK FAILED: " << what << "\n";
  }
  return ok;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Report::get(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0;
}

void Report::print_table() const {
  for (const auto& e : entries_) {
    std::printf("  %-44s %16.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

void Report::print_json(bool correct, std::size_t attempted,
                        std::size_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::size_t count_files(const fs::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) ++n;
  }
  return n;
}

}  // namespace perfbench
