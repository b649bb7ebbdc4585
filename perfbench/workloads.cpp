#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <thread>

#include "replay.hpp"
#include "src/analysis/analysis.hpp"
#include "src/serve/service.hpp"
#include "src/store/store.hpp"
#include "src/system/system.hpp"

namespace perfbench {

namespace bp = benchpark;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cold_matrix", "warm_rerun", "service_tenants", "native_kernels"};
  return names;
}

namespace {

// ------------------------------------------------------------ campaigns

struct CampaignRun {
  double wall = 0;
  bp::ramble::AnalyzeReport report;
  bp::ramble::RunReport run;
  bp::install::InstallReport install;
};

/// The timed unit: open the store, run the whole Figure-1c workflow
/// (which appends history and flushes the store), release the store.
/// With `c.detect` the service runner's post-campaign regression scan
/// follows.
CampaignRun run_campaign(const bp::core::Driver& driver,
                         const CampaignSpec& c, bp::ramble::Workspace& slot) {
  if (c.fresh_process) clear_process_caches();
  CampaignRun out;
  auto t0 = Clock::now();
  {
    auto store = c.handle ? c.handle : bp::store::Store::open(c.store_dir);
    bp::ramble::RunRequest request;
    request.threads = c.threads;
    request.store = store;
    out.report = driver.run_workflow(c.pair.id, c.pair.system,
                                     c.workspace_dir, {}, &slot, request,
                                     &out.run);
    if (c.detect) {
      bp::analysis::AnalysisRequest scan;
      scan.store = store;
      scan.benchmark = c.pair.id.benchmark;
      scan.system = c.pair.system;
      (void)bp::analysis::run_analysis(scan);
    }
  }
  out.wall = seconds_between(t0, Clock::now());
  out.install = slot.install_report();
  return out;
}

CampaignSpec make_spec(Pair pair, fs::path store_dir, fs::path workspace_dir,
                       fs::path split_store_dir) {
  CampaignSpec c;
  c.pair = std::move(pair);
  c.store_dir = std::move(store_dir);
  c.workspace_dir = std::move(workspace_dir);
  c.split_store_dir = std::move(split_store_dir);
  return c;
}

bool all_success(const bp::ramble::AnalyzeReport& report) {
  return !report.results.empty() &&
         report.num_success() == report.results.size();
}

/// Modeled seconds per pair: the first sighting is kept and every later
/// one must match it exactly, across passes and workload seeds.
class ModeledSentinel {
 public:
  /// Real kernels (`simulated` false) report measured, not modeled,
  /// experiment runtimes; only their install model is kept.
  void observe(const std::string& pair, const CampaignRun& r, bool simulated,
               Checks& checks) {
    Modeled m{r.install.critical_path_seconds,
              simulated ? r.run.total_simulated_seconds : 0.0,
              r.run.retry_wait_seconds};
    auto [it, fresh] = seen_.try_emplace(pair, m);
    if (fresh) return;
    checks.expect(it->second.runtime == m.runtime &&
                      it->second.retry_wait == m.retry_wait,
                  pair + ": modeled runtime repeats exactly");
    // A warm re-run installs nothing and has no critical path.
    if (m.install_critical_path > 0 && it->second.install_critical_path > 0) {
      checks.expect(it->second.install_critical_path ==
                        m.install_critical_path,
                    pair + ": modeled install critical path repeats");
    }
    it->second.install_critical_path =
        std::max(it->second.install_critical_path, m.install_critical_path);
  }
  /// Canonical (pair-ordered) means, identical for every seed.
  [[nodiscard]] Modeled mean() const {
    Modeled sum;
    for (const auto& [pair, m] : seen_) {
      sum.install_critical_path += m.install_critical_path;
      sum.runtime += m.runtime;
      sum.retry_wait += m.retry_wait;
    }
    double n = seen_.empty() ? 1.0 : static_cast<double>(seen_.size());
    return {sum.install_critical_path / n, sum.runtime / n,
            sum.retry_wait / n};
  }

 private:
  std::map<std::string, Modeled> seen_;
};

// ------------------------------------------------------------ workloads

class ClosedLoopWorkload {
 public:
  virtual ~ClosedLoopWorkload() = default;
  /// Build the fixture under `dir`; timed as setup_s.
  virtual void setup(const fs::path& dir, Checks& checks) = 0;
  /// Put the fixture back into its initial state and list one pass of
  /// campaigns, in the order `rng` gives.
  virtual std::vector<CampaignSpec> pass(std::mt19937_64& rng,
                                         const fs::path& pass_dir) = 0;
  /// Workload-specific output checks on one completed campaign.
  virtual void check(const CampaignSpec&, const CampaignRun&, Checks&) {}
  /// Modeled runtime repeats exactly only on simulated systems.
  [[nodiscard]] virtual bool simulated() const { return true; }
  /// Campaign timings are taken per pass (the mean campaign of a pass)
  /// instead of per campaign.
  [[nodiscard]] virtual bool per_pass() const { return false; }
  /// Fixture builds per timed run (their median is setup_s); these take
  /// about a millisecond, so many.
  [[nodiscard]] virtual int setups() const { return 15; }

  [[nodiscard]] const bp::core::Driver& driver() const { return *driver_; }
  [[nodiscard]] bp::ramble::Workspace& slot() { return *slot_; }

 protected:
  /// Driver and registries, plus the workspace slot run_workflow moves
  /// each finished workspace into.
  void base_setup(const fs::path& dir) {
    driver_ = std::make_unique<bp::core::Driver>();
    const auto& system = bp::system::SystemRegistry::instance().get("cts1");
    slot_ = std::make_unique<bp::ramble::Workspace>(
        bp::ramble::Workspace::create(dir / "slot", system));
  }

  /// Fresh-store campaigns, one directory each.
  static std::vector<CampaignSpec> cold_pass(std::vector<Pair> pairs,
                                             std::mt19937_64& rng,
                                             const fs::path& pass_dir) {
    std::shuffle(pairs.begin(), pairs.end(), rng);
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      fs::path dir = pass_dir / ("c" + std::to_string(i));
      specs.push_back(
          make_spec(pairs[i], dir / "store", dir / "ws", dir / "split"));
    }
    return specs;
  }

  std::unique_ptr<bp::core::Driver> driver_;
  std::unique_ptr<bp::ramble::Workspace> slot_;
};

class ColdMatrix : public ClosedLoopWorkload {
 public:
  void setup(const fs::path& dir, Checks& checks) override {
    base_setup(dir);
    pairs_ = simulated_matrix(driver());
    checks.expect(pairs_.size() == 57,
                  "cold_matrix has 57 campaigns, found " +
                      std::to_string(pairs_.size()));
  }
  std::vector<CampaignSpec> pass(std::mt19937_64& rng,
                                 const fs::path& pass_dir) override {
    return cold_pass(pairs_, rng, pass_dir);
  }
  /// 57 different campaigns: a pass over the whole matrix is the sample.
  [[nodiscard]] bool per_pass() const override { return true; }

 private:
  std::vector<Pair> pairs_;
};

class NativeKernels : public ClosedLoopWorkload {
 public:
  void setup(const fs::path& dir, Checks&) override {
    base_setup(dir);
    pairs_ = native_kernel_pairs();
  }
  /// One experiment at a time: at the default width run_all would run
  /// the four (n, threads) points of a kernel side by side on the same
  /// cores, and each rate would measure the others' contention.
  std::vector<CampaignSpec> pass(std::mt19937_64& rng,
                                 const fs::path& pass_dir) override {
    auto specs = cold_pass(pairs_, rng, pass_dir);
    for (auto& c : specs) c.threads = 1;
    return specs;
  }
  [[nodiscard]] bool simulated() const override { return false; }
  /// The four kernels' campaigns differ 14-fold, so the median single
  /// campaign sits in the gap between two kernels and jumps between runs;
  /// a pass (one campaign per kernel) is the sample instead.
  [[nodiscard]] bool per_pass() const override { return true; }

  void check(const CampaignSpec& c, const CampaignRun& r,
             Checks& checks) override {
    static const std::map<std::string, std::string> rate_fom = {
        {"gemm", "gflops"}, {"fft", "gflops"}, {"ptrans", "bw"},
        {"randomaccess", "gups"}};
    const std::string& kernel = c.pair.id.benchmark;
    for (const auto& result : r.report.results) {
      std::string where = c.pair.name() + " " + result.name;
      checks.expect(result.output.find("Kernel done") != std::string::npos,
                    where + ": verification line present");
      const auto* rate = result.fom(rate_fom.at(kernel));
      checks.expect(rate != nullptr && rate->value > 0,
                    where + ": positive " + rate_fom.at(kernel));
      if (kernel == "fft") {
        const auto* err = result.fom("roundtrip_err");
        checks.expect(err != nullptr && err->value <= 1e-12,
                      where + ": FFT roundtrip_err <= 1e-12");
      }
    }
  }

 private:
  std::vector<Pair> pairs_;
};

class WarmRerun : public ClosedLoopWorkload {
 public:
  /// History depth setup primes: one cold pass, then warm passes.
  static constexpr int kDepth = 3;

  /// Priming takes seconds; three builds give the median.
  [[nodiscard]] int setups() const override { return 3; }

  void setup(const fs::path& dir, Checks& checks) override {
    base_setup(dir);
    pairs_ = simulated_matrix(driver());
    store_dir_ = dir / "store";
    snapshot_dir_ = dir / "snapshot";
    references_.clear();
    for (int depth = 0; depth < kDepth; ++depth) {
      fs::path prime = dir / ("prime" + std::to_string(depth));
      for (std::size_t i = 0; i < pairs_.size(); ++i) {
        auto c = make_spec(pairs_[i], store_dir_,
                           prime / ("ws" + std::to_string(i)), {});
        auto r = run_campaign(driver(), c, slot());
        checks.expect(all_success(r.report),
                      "priming " + c.pair.name() +
                          ": every experiment SUCCESS");
        if (depth == 0) references_[c.pair.name()] = reference_of(r);
      }
      fs::remove_all(prime);
    }
    fs::copy(store_dir_, snapshot_dir_, fs::copy_options::recursive);
  }

  std::vector<CampaignSpec> pass(std::mt19937_64& rng,
                                 const fs::path& pass_dir) override {
    // Every pass starts from the identical primed store.
    fs::remove_all(store_dir_);
    fs::copy(snapshot_dir_, store_dir_, fs::copy_options::recursive);
    auto pairs = pairs_;
    std::shuffle(pairs.begin(), pairs.end(), rng);
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      auto c = make_spec(pairs[i], store_dir_,
                         pass_dir / ("ws" + std::to_string(i)),
                         pass_dir / ("split" + std::to_string(i)));
      c.cold = false;
      specs.push_back(std::move(c));
    }
    return specs;
  }

  void check(const CampaignSpec& c, const CampaignRun& r,
             Checks& checks) override {
    const std::string name = c.pair.name();
    checks.expect(r.run.store_misses == 0 &&
                      r.run.store_hits == r.run.experiments,
                  name + ": warm re-run is all store hits");
    checks.expect(r.install.from_source == 0 && r.install.from_cache == 0,
                  name + ": warm re-run installs nothing");
    const auto& ref = references_.at(name);
    checks.expect(r.report.to_table().render() == ref.fom_table,
                  name + ": FOM table identical to the cold run");
    checks.expect(outputs_of(r) == ref.outputs,
                  name + ": .out bytes identical to the cold run");
  }

 private:
  /// What a warm re-run must reproduce from the cold run.
  struct ColdReference {
    std::string fom_table;
    std::vector<std::string> outputs;
  };
  static std::vector<std::string> outputs_of(const CampaignRun& r) {
    std::vector<std::string> out;
    for (const auto& result : r.report.results) out.push_back(result.output);
    return out;
  }
  static ColdReference reference_of(const CampaignRun& r) {
    return {r.report.to_table().render(), outputs_of(r)};
  }

  std::vector<Pair> pairs_;
  fs::path store_dir_;
  fs::path snapshot_dir_;
  std::map<std::string, ColdReference> references_;
};

std::unique_ptr<ClosedLoopWorkload> make_closed_loop(const std::string& name) {
  if (name == "cold_matrix") return std::make_unique<ColdMatrix>();
  if (name == "warm_rerun") return std::make_unique<WarmRerun>();
  if (name == "native_kernels") return std::make_unique<NativeKernels>();
  return nullptr;
}

/// Median set-up time over `repeats` fresh fixtures; the last one stays
/// in `kept`.
double timed_setups(const fs::path& root, int repeats,
                    const std::function<void(const fs::path&)>& build,
                    fs::path& kept) {
  std::vector<double> times;
  for (int k = 0; k < repeats; ++k) {
    if (!kept.empty()) fs::remove_all(kept);
    kept = root / ("fixture" + std::to_string(k));
    auto t0 = Clock::now();
    build(kept);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// `samples` are campaign (or per-pass mean campaign) times; the rates
/// are work per second of campaign wall time.
void report_campaigns(Report& report, const std::vector<double>& samples,
                      std::size_t campaigns, std::size_t experiments,
                      double busy_seconds) {
  auto s = summarize(samples);
  std::printf("campaigns: %zu; campaign timing over %zu samples, tail = "
              "p%.2f\n", campaigns, s.samples, s.tail_percentile);
  report.set("campaign_p50_s", s.p50, "s");
  report.set("campaign_tail_s", s.tail, "s");
  report.set("campaigns_per_s",
             static_cast<double>(campaigns) / busy_seconds, "1/s");
  report.set("experiments_per_s",
             static_cast<double>(experiments) / busy_seconds, "1/s");
}

void run_closed_loop(ClosedLoopWorkload& w, const Options& opt,
                     Report& report, Checks& checks, LayerSink& sink,
                     ModeledSentinel& modeled) {
  fs::path kept;
  double setup = timed_setups(
      opt.root, opt.trace ? 1 : w.setups(),
      [&](const fs::path& dir) { w.setup(dir, checks); }, kept);
  if (!opt.trace) report.set("setup_s", setup, "s");

  auto finish = [&](const CampaignSpec& c, const CampaignRun& r) {
    checks.expect(all_success(r.report) && r.run.failed == 0,
                  c.pair.name() + ": every experiment SUCCESS");
    w.check(c, r, checks);
    modeled.observe(c.pair.name(), r, w.simulated(), checks);
  };
  std::mt19937_64 rng(opt.seed);
  auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  std::vector<double> walls;
  std::map<std::string, std::vector<double>> per_pair;
  std::size_t experiments = 0;
  double busy = 0;
  std::vector<double> pass_means;
  for (int p = 0; p == 0 || Clock::now() < deadline; ++p) {
    fs::path pass_dir = kept / ("pass" + std::to_string(p));
    if (!opt.trace) {
      double pass_wall = 0;
      auto specs = w.pass(rng, pass_dir);
      for (const auto& c : specs) {
        if (!walls.empty() && Clock::now() >= deadline && !w.per_pass()) {
          break;
        }
        auto r = run_campaign(w.driver(), c, w.slot());
        walls.push_back(r.wall);
        per_pair[c.pair.name()].push_back(r.wall);
        pass_wall += r.wall;
        busy += r.wall;
        experiments += r.report.results.size();
        finish(c, r);
      }
      if (w.per_pass()) {
        pass_means.push_back(pass_wall / static_cast<double>(specs.size()));
      }
    } else {
      // An untraced and a traced pass over identical state and order.
      auto traced_rng = rng;
      std::vector<CampaignRun> untraced;
      for (const auto& c : w.pass(rng, pass_dir / "untraced")) {
        untraced.push_back(run_campaign(w.driver(), c, w.slot()));
        finish(c, untraced.back());
      }
      auto specs = w.pass(traced_rng, pass_dir / "traced");
      for (std::size_t i = 0; i < specs.size(); ++i) {
        sink.traced_wall +=
            traced_campaign(w.driver(), specs[i], untraced[i].report,
                            untraced[i].run, sink, checks);
        sink.untraced_wall += untraced[i].wall;
      }
    }
    fs::remove_all(pass_dir);
  }
  if (!opt.trace) {
    if (per_pair.size() <= 8) {
      for (const auto& [pair, times] : per_pair) {
        std::printf("  %-32s median %.6f s over %zu\n", pair.c_str(),
                    median(times), times.size());
      }
    }
    report_campaigns(report, w.per_pass() ? pass_means : walls,
                     walls.size(), experiments, busy);
    // Closed loop: each campaign is due when the previous one returns.
    report.set("turnaround_p50_s", report.get("campaign_p50_s"), "s");
    report.set("turnaround_tail_s", report.get("campaign_tail_s"), "s");
  }
  fs::remove_all(kept);
}

// --------------------------------------------------------------- service

constexpr int kTenants = 4;
constexpr int kWorkers = 2;
/// Offered load of the open-loop generator (campaigns per second).
constexpr double kServiceRate = 20.0;
/// serve.max_rate_per_s: the highest of these multiples of kServiceRate
/// whose turnaround tail stays under kTurnaroundLimit without the queue
/// growing.
constexpr double kRateLadder[] = {1, 2, 4, 8};
constexpr double kTurnaroundLimit = 0.25;

struct Arrival {
  Pair pair;
  std::string tenant;
  double due = 0;  // seconds after the schedule starts
};

/// Two dispatch workers, one generator thread and a serial run engine
/// (here and, through BENCHPARK_NUM_THREADS=1, in concretize and install)
/// stay within four cores; durable submits; regression scans on.
bp::serve::ServiceConfig service_config(const fs::path& base_dir) {
  bp::serve::ServiceConfig config;
  config.base_dir = base_dir;
  config.workers = kWorkers;
  config.durable_submits = true;
  config.run.threads = 1;
  config.detect_regressions = true;
  for (int t = 0; t < kTenants; ++t) {
    config.tenants["t" + std::to_string(t)] = bp::serve::TenantQuota{};
  }
  return config;
}

/// The matrix split among tenants and a service base directory
/// primed with one campaign per pair, kept as a snapshot so every
/// episode starts from the same tenant stores.
struct ServiceFixture {
  std::vector<Pair> pairs;
  std::vector<std::string> owner;  // tenant of each pair
  fs::path base_dir;
  fs::path snapshot;

  /// A service over the primed tenant stores. The process-wide caches are
  /// left as they are: a run is one long-lived service process, so they
  /// grow from episode to episode as they would in a daemon.
  [[nodiscard]] std::unique_ptr<bp::serve::BenchService> start(
      const fs::path& dir) const {
    fs::remove_all(dir);
    fs::copy(snapshot, dir, fs::copy_options::recursive);
    return std::make_unique<bp::serve::BenchService>(service_config(dir));
  }
  [[nodiscard]] fs::path tenant_store(const fs::path& dir,
                                      const std::string& tenant) const {
    return bp::serve::BenchService::tenant_root(dir, tenant) / "store";
  }
};

ServiceFixture prime_service(const fs::path& dir, std::uint64_t seed,
                             Checks& checks) {
  ServiceFixture f;
  bp::core::Driver driver;
  f.pairs = simulated_matrix(driver);
  checks.expect(f.pairs.size() == 57, "service matrix has 57 campaigns");
  // A seeded, balanced split: tenant stores of equal size.
  std::vector<std::size_t> order(f.pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  f.owner.resize(f.pairs.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    f.owner[order[k]] = "t" + std::to_string(k % kTenants);
  }
  f.base_dir = dir / "service";
  f.snapshot = dir / "primed";
  {
    bp::serve::BenchService service(service_config(f.base_dir));
    for (std::size_t i = 0; i < f.pairs.size(); ++i) {
      service.submit(
          {f.owner[i], f.pairs[i].id.str(), f.pairs[i].system, 0});
    }
    for (const auto& t : service.wait_all()) {
      checks.expect(t.state == bp::serve::TicketState::completed,
                    "priming ticket " + std::to_string(t.id) + " completed");
    }
    service.drain();
  }
  fs::copy(f.base_dir, f.snapshot, fs::copy_options::recursive);
  return f;
}

/// Seeded schedule: one shuffled pass over the matrix, each pair sent by
/// its tenant, arrivals jittered around a fixed rate. Every episode thus
/// offers the same campaigns, in its own order.
std::vector<Arrival> make_schedule(const ServiceFixture& f,
                                   std::mt19937_64& rng, double rate) {
  std::uniform_real_distribution<double> jitter(0.0, 0.5);
  std::vector<std::size_t> order(f.pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<Arrival> schedule;
  for (std::size_t i : order) {
    double due = (static_cast<double>(schedule.size()) + jitter(rng)) / rate;
    schedule.push_back({f.pairs[i], f.owner[i], due});
  }
  return schedule;
}

struct ServiceResult {
  std::vector<double> turnaround;
  std::vector<double> campaign;
  std::vector<double> submit;
  std::vector<double> admission_wait;
  std::vector<double> late;
  std::vector<std::size_t> depth_at_send;
  std::size_t experiments = 0;
  std::size_t queue_depth_max = 0;
  std::size_t rejected = 0;
};

/// Drive a started service with the open-loop schedule from this, the
/// only generator thread, polling outstanding tickets between sends;
/// then drain it and check every ticket.
ServiceResult drive_service(bp::serve::BenchService& service,
                            const std::vector<Arrival>& schedule,
                            Checks& checks) {
  struct Pending {
    bp::serve::TicketId id;
    double due;
    double sent;
  };
  ServiceResult out;
  std::vector<Pending> pending;
  std::vector<bp::serve::TicketId> accepted;
  auto start = Clock::now();
  auto now_s = [&] { return seconds_between(start, Clock::now()); };
  auto poll = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      auto st = service.status(pending[i].id);
      if (st.state == bp::serve::TicketState::queued ||
          st.state == bp::serve::TicketState::running) {
        ++i;
        continue;
      }
      double seen = now_s();
      out.turnaround.push_back(seen - pending[i].due);
      out.campaign.push_back(seen - pending[i].sent -
                             st.admission_wait_seconds);
      out.admission_wait.push_back(st.admission_wait_seconds);
      out.experiments += st.experiments;
      pending[i] = pending.back();
      pending.pop_back();
    }
    out.queue_depth_max =
        std::max(out.queue_depth_max, service.stats().queue_depth);
  };
  auto tick = [&] {
    poll();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  };
  for (const auto& a : schedule) {
    while (now_s() < a.due) tick();
    double sent = now_s();
    out.late.push_back(sent - a.due);
    try {
      auto id = service.submit({a.tenant, a.pair.id.str(), a.pair.system, 0});
      out.submit.push_back(now_s() - sent);
      pending.push_back({id, a.due, sent});
      accepted.push_back(id);
      out.depth_at_send.push_back(service.stats().queue_depth);
    } catch (const bp::serve::ServiceBusy&) {
      ++out.rejected;
    }
  }
  auto give_up = Clock::now() + std::chrono::seconds(60);
  while (!pending.empty() && Clock::now() < give_up) tick();
  checks.expect(pending.empty(), "service finished every ticket in time");
  checks.expect(out.rejected == 0,
                std::to_string(out.rejected) + " ServiceBusy refusals");
  service.drain();

  std::map<bp::serve::TicketId, int> reported;
  for (const auto& t : service.tickets()) {
    ++reported[t.id];
    checks.expect(t.state == bp::serve::TicketState::completed &&
                      t.experiments > 0 && t.succeeded == t.experiments,
                  "ticket " + std::to_string(t.id) + " (" + t.experiment +
                      "@" + t.system + ") completed, every experiment "
                      "SUCCESS " + t.error);
  }
  for (auto id : accepted) {
    checks.expect(reported[id] == 1,
                  "ticket " + std::to_string(id) + " reported exactly once");
  }
  checks.expect(service.stats().completed == accepted.size(),
                "service completed count equals accepted tickets");
  return out;
}

/// Climb kRateLadder, one short open-loop rung each from the primed
/// state, and return the highest rate that kept its turnaround tail
/// under the limit with a queue that did not grow; 0 when even the
/// first rung fails.
double max_rate(const ServiceFixture& f, const fs::path& dir,
                std::mt19937_64& rng, Checks& checks) {
  double best = 0;
  for (double multiple : kRateLadder) {
    double rate = kServiceRate * multiple;
    auto schedule = make_schedule(f, rng, rate);
    auto r = drive_service(*f.start(dir), schedule, checks);
    const auto& depth = r.depth_at_send;
    bool growing =
        !depth.empty() && depth.back() > depth[depth.size() / 2] + 2;
    if (summarize(r.turnaround).tail >= kTurnaroundLimit || growing) break;
    best = rate;
  }
  return best;
}

/// Closed-loop replay of the head of the request stream against the
/// primed tenant stores, held open as the service holds them: untraced
/// through run_workflow (+ the runner's regression scan), then traced.
void replay_service(const ServiceFixture& f,
                    const std::vector<Arrival>& schedule,
                    const fs::path& dir, Clock::time_point deadline,
                    LayerSink& sink, ModeledSentinel& modeled,
                    Checks& checks) {
  bp::core::Driver driver;
  auto slot = bp::ramble::Workspace::create(
      dir / "slot", bp::system::SystemRegistry::instance().get("cts1"));
  const std::size_t count = std::min(schedule.size(), f.pairs.size());
  auto specs = [&](const fs::path& base) {
    clear_process_caches();
    fs::create_directories(base);
    fs::copy(f.snapshot, base, fs::copy_options::recursive);
    std::map<std::string, bp::store::StoreHandle> stores;
    std::vector<CampaignSpec> out;
    for (std::size_t i = 0; i < count; ++i) {
      const auto& a = schedule[i];
      fs::path store = f.tenant_store(base, a.tenant);
      auto& handle = stores[a.tenant];
      if (!handle) handle = bp::store::Store::open(store);
      auto c = make_spec(a.pair, store, base / ("c" + std::to_string(i)),
                         base / ("split" + std::to_string(i)));
      c.fresh_process = false;
      c.cold = false;
      c.detect = true;
      c.handle = handle;
      c.threads = 1;
      out.push_back(std::move(c));
    }
    return out;
  };
  for (int p = 0; p == 0 || Clock::now() < deadline; ++p) {
    fs::path pass_dir = dir / ("pass" + std::to_string(p));
    std::vector<CampaignRun> untraced;
    for (const auto& c : specs(pass_dir / "untraced")) {
      untraced.push_back(run_campaign(driver, c, slot));
      checks.expect(all_success(untraced.back().report),
                    c.pair.name() + ": every experiment SUCCESS");
      modeled.observe(c.pair.name(), untraced.back(), true, checks);
    }
    auto traced = specs(pass_dir / "traced");
    for (std::size_t i = 0; i < traced.size(); ++i) {
      sink.traced_wall +=
          traced_campaign(driver, traced[i], untraced[i].report,
                          untraced[i].run, sink, checks);
      sink.untraced_wall += untraced[i].wall;
    }
    fs::remove_all(pass_dir);
  }
}

void run_service(const Options& opt, Report& report, Checks& checks,
                 LayerSink& sink, ModeledSentinel& modeled) {
  ServiceFixture fixture;
  fs::path kept;
  double setup = timed_setups(
      opt.root, opt.trace ? 1 : 5,
      [&](const fs::path& dir) {
        fixture = prime_service(dir, opt.seed, checks);
      },
      kept);
  if (!opt.trace) report.set("setup_s", setup, "s");

  std::mt19937_64 rng(opt.seed + 1);
  const fs::path live = kept / "live";
  // The service process starts here, with empty caches, and keeps them
  // through every episode.
  clear_process_caches();
  if (!opt.trace) {
    std::vector<double> turn_p50, turn_tail, camp_p50, camp_tail, late;
    std::size_t campaigns = 0;
    std::size_t experiments = 0;
    double busy = 0;
    // Episodes of one matrix pass each, as many as the time allows.
    const double episode_seconds =
        static_cast<double>(fixture.pairs.size()) / kServiceRate;
    const int episodes =
        std::max(1, static_cast<int>(opt.seconds / episode_seconds));
    for (int e = 0; e < episodes; ++e) {
      auto schedule = make_schedule(fixture, rng, kServiceRate);
      auto r = drive_service(*fixture.start(live), schedule, checks);
      auto turn = summarize(r.turnaround);
      auto camp = summarize(r.campaign);
      std::printf("episode %d: %zu tickets at %.0f/s; turnaround p50 %.4f "
                  "s, tail (p%.2f) %.4f s; campaign p50 %.4f s, tail %.4f "
                  "s\n",
                  e, turn.samples, kServiceRate, turn.p50,
                  turn.tail_percentile, turn.tail, camp.p50, camp.tail);
      turn_p50.push_back(turn.p50);
      turn_tail.push_back(turn.tail);
      camp_p50.push_back(camp.p50);
      camp_tail.push_back(camp.tail);
      late.insert(late.end(), r.late.begin(), r.late.end());
      campaigns += r.campaign.size();
      experiments += r.experiments;
      for (double t : r.campaign) busy += t;
    }
    // Work per second the workers spent on campaigns: the schedule's
    // span would give the offered rate at any campaign speed.
    busy /= kWorkers;
    std::printf("generator late p50 %.3g s, max %.3g s\n", median(late),
                *std::max_element(late.begin(), late.end()));
    report.set("campaign_p50_s", median(camp_p50), "s");
    report.set("campaign_tail_s", median(camp_tail), "s");
    report.set("campaigns_per_s", static_cast<double>(campaigns) / busy,
               "1/s");
    report.set("experiments_per_s", static_cast<double>(experiments) / busy,
               "1/s");
    report.set("turnaround_p50_s", median(turn_p50), "s");
    report.set("turnaround_tail_s", median(turn_tail), "s");
    fs::remove_all(kept);
    return;
  }
  // Traced run: the service at the fixed rate (serve.* layers), the rate
  // ladder, then the closed-loop replay for the rest of the time.
  auto t0 = Clock::now();
  auto schedule = make_schedule(fixture, rng, kServiceRate);
  auto r = drive_service(*fixture.start(live), schedule, checks);
  auto wait = summarize(r.admission_wait);
  sink.add("serve.submit_s", median(r.submit));
  sink.add("serve.admission_wait_p50_s", wait.p50);
  sink.add("serve.admission_wait_tail_s", wait.tail);
  sink.add("serve.queue_depth_max", static_cast<double>(r.queue_depth_max));
  sink.add("serve.rejected", static_cast<double>(r.rejected));
  sink.add("serve.generator_late_p50_s", median(r.late));
  sink.add("serve.max_rate_per_s",
           max_rate(fixture, live, rng, checks));
  replay_service(fixture, schedule, kept / "replay",
                 t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(opt.seconds)),
                 sink, modeled, checks);
  fs::remove_all(kept);
}

}  // namespace

void run_workload(const Options& opt, Report& report, Checks& checks) {
  LayerSink sink;
  ModeledSentinel modeled;
  if (opt.workload == "service_tenants") {
    run_service(opt, report, checks, sink, modeled);
  } else {
    run_closed_loop(*make_closed_loop(opt.workload), opt, report, checks,
                    sink, modeled);
  }
  if (opt.trace) {
    report_layers(sink, modeled.mean(), report);
  } else {
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace perfbench
