// The four benchmark workloads. Each run builds its fixture (timed as
// setup_s), then either measures whole campaigns with tracing off
// (end-to-end metrics) or replays them with the benchmark's spans on
// (per-layer metrics).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Known workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload; fills `report` with its metrics and `checks` with
/// every output check (failed campaigns and refused submissions count as
/// failed checks).
void run_workload(const Options& options, Report& report, Checks& checks);

}  // namespace perfbench
