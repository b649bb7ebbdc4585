// perfbench_e2e: end-to-end campaign benchmark for Benchpark-CPP.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--root <work dir>]
//
// With --trace 0 it measures whole campaigns with tracing off and prints
// the end-to-end metrics; with --trace 1 it replays the same campaigns
// with the benchmark's own spans around each layer's public calls and
// prints the per-layer metrics. Either way every output is checked, the
// last stdout line is one JSON object, and any failed check makes the
// exit code 1.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "src/support/error.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_e2e: " << why
            << "\nusage: perfbench_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  opt.root = std::filesystem::current_path() / ".bench_build" / "work";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (flag == "--root") {
        opt.root = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = parse(argc, argv);
  // The service's generator and two workers leave one of four cores, so
  // its framework fan-out (concretize roots, install wavefronts) stays on
  // the calling thread. The other workloads run at the program's default
  // width.
  if (opt.workload == "service_tenants") {
    setenv("BENCHPARK_NUM_THREADS", "1", 1);
  }
  opt.root /= opt.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(opt.root);
  std::filesystem::create_directories(opt.root);

  std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("excluded pairs:\n");
  for (const auto& ex : perfbench::kExclusions) {
    std::printf("  %s on %s: %s\n", ex.experiment, ex.system, ex.reason);
  }
  perfbench::Report report;
  perfbench::Checks checks;
  try {
    perfbench::run_workload(opt, report, checks);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("benchmark aborted: ") + e.what());
  }
  std::filesystem::remove_all(opt.root);

  double failed_ratio =
      checks.attempted() == 0
          ? 1.0
          : static_cast<double>(checks.failed()) /
                static_cast<double>(checks.attempted());
  std::printf("checks: %zu attempted, %zu failed, failed_ratio %.6g\n",
              checks.attempted(), checks.failed(), failed_ratio);
  report.print_table();
  bool correct = checks.failed() == 0 && checks.attempted() > 0;
  report.print_json(correct, std::max<std::size_t>(checks.attempted(), 1),
                    checks.failed());
  return correct ? 0 : 1;
}
