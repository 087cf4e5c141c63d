// Ablation A6: RTOS scheduling on the processors — cooperative
// run-to-completion (the paper's published system) vs preemptive priority
// scheduling with context-switch cost (the paper's stated future work:
// "real-time operating system will be used in system processors, which will
// also be accounted in the TUT-Profile").
//
// Metric: dispatch latency of the hard-real-time radio slot handler (rca,
// priority 3) when all software shares processor1 (the single-PE mapping
// maximizes interference from frag/mng/msduRec). Preemption should cut the
// rca tail latency at the cost of context-switch overhead.
#include "bench_util.hpp"
#include "profiler/profiler.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;

namespace {

struct LatencyStats {
  double mean = 0.0;
  sim::Time max = 0;
  std::uint64_t preemptions = 0;
  sim::Time overhead = 0;
};

/// Mean/max latency from each env RadioSlot send to the matching rca slot
/// run record (FIFO pairing).
LatencyStats run_policy(const std::string& scheduling, long ctx_cycles) {
  tutmac::Options opt;
  opt.horizon = 20'000'000;
  opt.mapping = tutmac::MappingChoice::SinglePe;  // maximize interference
  opt.scheduling = scheduling;
  opt.ctx_switch_cycles = ctx_cycles;
  tutmac::System sys = tutmac::build(opt);
  mapping::SystemView view(*sys.model);
  const auto simulation = sys.simulate(view);

  std::vector<sim::Time> sends, runs;
  const sim::SimulationLog& log = simulation->log();
  const intern::Id env = log.names().find(sim::kEnvironment);
  const intern::Id slot = log.names().find("RadioSlot");
  const intern::Id rca = log.names().find("rca");
  log.for_each([&](const sim::LogRecord& r) {
    if (r.kind == sim::LogRecord::Kind::Send && r.process == env &&
        r.signal == slot) {
      sends.push_back(r.time);
    }
    if (r.kind == sim::LogRecord::Kind::Run && r.process == rca &&
        r.cycles == opt.c_slot) {
      runs.push_back(r.time);
    }
  });
  LatencyStats stats;
  const std::size_t n = std::min(sends.size(), runs.size());
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Time lat = runs[i] - sends[i];
    total += static_cast<double>(lat);
    stats.max = std::max(stats.max, lat);
  }
  stats.mean = n > 0 ? total / static_cast<double>(n) : 0.0;
  for (const auto& [pe, s] : simulation->pe_stats()) {
    stats.preemptions += s.preemptions;
    stats.overhead += s.overhead_time;
  }
  return stats;
}

void print_ablation() {
  bench::banner("A6: RTOS scheduling ablation (rca slot dispatch latency,"
                " single-PE mapping)");
  std::printf("%-28s %12s %12s %12s %14s\n", "policy", "mean (ns)", "max (ns)",
              "preemptions", "overhead (ns)");
  struct Case {
    const char* label;
    const char* policy;
    long ctx;
  };
  for (const Case& c :
       {Case{"cooperative (paper)", profile::tags::SchedulingCooperative, 0},
        Case{"preemptive, free switch", profile::tags::SchedulingPreemptive, 0},
        Case{"preemptive, 80-cycle switch", profile::tags::SchedulingPreemptive,
             80},
        Case{"preemptive, 800-cycle switch",
             profile::tags::SchedulingPreemptive, 800}}) {
    const LatencyStats s = run_policy(c.policy, c.ctx);
    std::printf("%-28s %12.0f %12llu %12llu %14llu\n", c.label, s.mean,
                static_cast<unsigned long long>(s.max),
                static_cast<unsigned long long>(s.preemptions),
                static_cast<unsigned long long>(s.overhead));
  }
  std::printf("(preemption bounds the high-priority handler's latency; the\n"
              " context-switch cost is the price, visible as overhead)\n");
}

void BM_TutmacCooperative(benchmark::State& state) {
  tutmac::Options opt;
  opt.horizon = 5'000'000;
  opt.mapping = tutmac::MappingChoice::SinglePe;
  tutmac::System sys = tutmac::build(opt);
  mapping::SystemView view(*sys.model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.simulate(view));
  }
}
BENCHMARK(BM_TutmacCooperative)->Unit(benchmark::kMillisecond);

void BM_TutmacPreemptive(benchmark::State& state) {
  tutmac::Options opt;
  opt.horizon = 5'000'000;
  opt.mapping = tutmac::MappingChoice::SinglePe;
  opt.scheduling = profile::tags::SchedulingPreemptive;
  tutmac::System sys = tutmac::build(opt);
  mapping::SystemView view(*sys.model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.simulate(view));
  }
}
BENCHMARK(BM_TutmacPreemptive)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, print_ablation);
}
