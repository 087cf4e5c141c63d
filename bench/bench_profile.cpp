// Resource-envelope benchmarks: what the semantic lock costs.
//
// The envelope check rides every log append and event schedule, so its
// overhead must be a compare-and-branch, not a feature tax: the
// unbounded-vs-enveloped append pair pins that. The spill path trades
// resident memory for rendered-file I/O at the cap; its absolute cost is
// recorded but carries a wide tolerance (disk speed varies). The campaign
// pair pins the end-to-end story — a constrained profile whose caps the
// sweep fits inside must not change throughput measurably.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "mapping/mapping.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/log.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;

namespace {

constexpr sim::Time kHorizon = 2'000'000;  // 2 ms of modelled time

void print_header() {
  bench::banner("A9: resource envelopes — the cost of the semantic lock");
  std::cout << "(enveloped vs unbounded log appends; constrained campaign)\n";
}

tutmac::System& shared_system() {
  static tutmac::System sys = [] {
    tutmac::Options opt;
    opt.horizon = kHorizon;
    return tutmac::build(opt);
  }();
  return sys;
}

std::shared_ptr<const sim::CompiledModel> shared_image() {
  static std::shared_ptr<const sim::CompiledModel> image = [] {
    const mapping::SystemView view(*shared_system().model);
    return sim::CompiledModel::build(view);
  }();
  return image;
}

void setup_scenario(sim::Simulation& simulation, const sim::Scenario& sc) {
  const tutmac::System& sys = shared_system();
  tutmac::Options o = sys.options;
  o.horizon = simulation.config().horizon;
  o.slot_period = static_cast<sim::Time>(
      sc.param("slotPeriod", static_cast<long>(o.slot_period)));
  sys.inject_workload(simulation, o);
}

constexpr int kAppends = 4096;

/// Appends a representative record mix (run / send / drop) via the interned
/// hot path, the way the simulator itself logs.
void append_records(sim::SimulationLog& log) {
  const intern::Id proc = log.intern_name("processor1");
  const intern::Id peer = log.intern_name("processor2");
  const intern::Id sig = log.intern_name("macData");
  for (int i = 0; i < kAppends; ++i) {
    const sim::Time t = static_cast<sim::Time>(10 * i);
    log.run_id(t, proc, i, 3);
    log.send_id(t + 1, proc, peer, sig, 64);
    if (i % 16 == 0) log.drop_id(t + 2, peer, sig);
  }
}

// Baseline: unbounded appends (capacity_ == 0 short-circuits the check).
void BM_LogAppendUnbounded(benchmark::State& state) {
  sim::SimulationLog log;
  for (auto _ : state) {
    log.clear();
    append_records(log);
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kAppends);
}
BENCHMARK(BM_LogAppendUnbounded)->Unit(benchmark::kMicrosecond);

// Enveloped appends that never hit the cap: the pure cost of the per-append
// ceiling check. The smoke pair asserts this stays within a few percent of
// the unbounded baseline.
void BM_LogAppendEnveloped(benchmark::State& state) {
  sim::SimulationLog log;
  log.set_envelope(1u << 20);  // armed, never reached; survives clear()
  for (auto _ : state) {
    log.clear();
    append_records(log);
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kAppends);
}
BENCHMARK(BM_LogAppendEnveloped)->Unit(benchmark::kMicrosecond);

// Ring-with-spill: the cap is crossed repeatedly, so resident records are
// written to disk, one write per flush. Absolute numbers depend on the
// filesystem; the baseline carries a wide tolerance.
void BM_LogAppendSpill(benchmark::State& state) {
  const std::string spill =
      (std::filesystem::temp_directory_path() / "tut_bench_profile.spill")
          .string();
  sim::SimulationLog log;
  for (auto _ : state) {
    log.clear();  // also removes the previous iteration's spill file
    log.set_envelope(512, spill);
    append_records(log);
    benchmark::DoNotOptimize(log.spilled());
  }
  log.clear();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kAppends);
}
BENCHMARK(BM_LogAppendSpill)->Unit(benchmark::kMicrosecond);

sim::CampaignSpec bench_spec() {
  sim::CampaignSpec spec;
  spec.name = "bench-envelope";
  spec.base.horizon = kHorizon;
  spec.axes.push_back({"seed", {}});
  for (long i = 0; i < 64; ++i) spec.axes.back().values.push_back(i);
  spec.axes.push_back({"slotPeriod", {50'000, 100'000}});
  return spec;
}

// Campaign throughput with and without the constrained profile: the
// scenarios fit the envelope, so the only difference is the stamped caps
// and the per-append/per-schedule checks. range(0) selects the profile.
void BM_CampaignSweep(benchmark::State& state) {
  const sim::CampaignSpec spec = bench_spec();  // 64 seeds x 2 = 128 runs
  const sim::CampaignRunner runner({shared_image()}, setup_scenario);
  sim::CampaignOptions options;
  options.threads = 1;
  if (state.range(0) != 0) {
    options.profile = sim::ResourceProfile::constrained();
  }
  for (auto _ : state) {
    const sim::CampaignResult result = runner.run(spec, options);
    benchmark::DoNotOptimize(result.aggregate.digest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spec.total()));
}
BENCHMARK(BM_CampaignSweep)
    ->Arg(0)   // unbounded
    ->Arg(1)   // constrained profile
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, print_header);
}
