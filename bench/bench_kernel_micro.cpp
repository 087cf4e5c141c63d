// A4 (part 1): microbenchmarks of the execution substrates — event kernel
// throughput, EFSM dispatch, expression evaluation, log append/parse,
// log render and digest.
#include <memory>

#include "bench_util.hpp"
#include "efsm/machine.hpp"
#include "efsm/program.hpp"
#include "intern/fnv.hpp"
#include "mapping/mapping.hpp"
#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"
#include "uml/model.hpp"

using namespace tut;

namespace {

void print_header() {
  bench::banner("A4: kernel / EFSM / log microbenchmarks");
  std::cout << "(tool-scalability substrate: events, transitions, log lines)\n";
}

void BM_KernelScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      kernel.schedule_at(i * 7 % 1000, [&fired] { ++fired; });
    }
    kernel.run(1000);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelScheduleAndRun)->Arg(1000)->Arg(100000)->Unit(benchmark::kMicrosecond);

// Run-to-completion steps show up as zero-delay self-schedules; this is the
// bucket fast path (no heap sift at all).
void BM_KernelZeroDelayCascade(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    std::size_t fired = 0;
    std::function<void()> step = [&] {
      if (++fired < n) kernel.schedule_at(kernel.now(), step);
    };
    kernel.schedule_at(0, step);
    kernel.run(10);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelZeroDelayCascade)->Arg(10000)->Unit(benchmark::kMicrosecond);

// POD counterpart of the cascade above: the EventQueue hands back 16-byte
// records instead of closures, so the whole loop is schedule/poll with no
// allocation. Registered adjacent to its closure twin — run with
// --benchmark_repetitions=N --benchmark_enable_random_interleaving for an
// interleaved A/B comparison (medians go into BENCH_sim.json).
void BM_EventQueueZeroDelayCascade(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::size_t fired = 0;
    q.schedule_at(0, {sim::EventRec::Kind::StepDone, 0, 0, 0});
    sim::EventRec ev;
    while (q.poll(10, ev)) {
      if (++fired < n) {
        q.schedule_at(q.now(), {sim::EventRec::Kind::StepDone, 0, 0, 0});
      }
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueZeroDelayCascade)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Many events on few distinct timestamps: dispatch cost is dominated by
// moving the handlers out of the heap, not by sift depth.
void BM_KernelSameTimeBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    kernel.reserve(n);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      kernel.schedule_at(1 + i % 4, [&fired] { ++fired; });
    }
    kernel.run(10);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelSameTimeBurst)->Arg(10000)->Unit(benchmark::kMicrosecond);

// POD counterpart of the burst: same four timestamps, heap of flat Entry
// records instead of heap-allocated std::function handlers.
void BM_EventQueueSameTimeBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    q.reserve(n);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule_at(1 + i % 4, {sim::EventRec::Kind::StepDone,
                                static_cast<std::uint32_t>(i), 0, 0});
    }
    sim::EventRec ev;
    while (q.poll(10, ev)) ++fired;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueSameTimeBurst)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_ExprCompile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        efsm::Expr::compile("pending > 0 && slotcnt % 8 == 0 || len * 4 > 64"));
  }
}
BENCHMARK(BM_ExprCompile)->Unit(benchmark::kMicrosecond);

void BM_ExprEval(benchmark::State& state) {
  const auto expr =
      efsm::Expr::compile("pending > 0 && slotcnt % 8 == 0 || len * 4 > 64");
  const efsm::Env env{{"pending", 3}, {"slotcnt", 16}, {"len", 12}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.eval(env));
  }
}
BENCHMARK(BM_ExprEval);

// Bytecode counterpart of BM_ExprEval: the same expression lowered once to
// an efsm::Program and run over a flat slot file.
void BM_ProgramEval(benchmark::State& state) {
  const auto expr =
      efsm::Expr::compile("pending > 0 && slotcnt % 8 == 0 || len * 4 > 64");
  const efsm::Program::SlotMap slot_map{
      {"pending", 0}, {"slotcnt", 1}, {"len", 2}};
  const auto program = efsm::Program::compile(expr, slot_map);
  const std::vector<std::string> names{"pending", "slotcnt", "len"};
  const long values[] = {3, 16, 12};
  const std::uint8_t defined[] = {1, 1, 1};
  const efsm::Program::Slots slots{values, defined, &names};
  std::vector<long> regs(program.reg_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.run(slots, regs.data()));
  }
}
BENCHMARK(BM_ProgramEval);

void BM_EfsmDispatch(benchmark::State& state) {
  uml::Model model("m");
  auto& sig = model.create_signal("S");
  sig.add_parameter("x", "int");
  auto& cls = model.create_class("C", nullptr, true);
  model.add_port(cls, "in").provide(sig);
  auto& sm = model.create_behavior(cls);
  sm.declare_variable("n", 0);
  auto& idle = model.add_state(sm, "Idle", true);
  model.add_transition(sm, idle, idle, sig, "in")
      .set_guard("x > 0")
      .add_effect(uml::Action::assign("n", "n + x"))
      .add_effect(uml::Action::compute("10"));
  efsm::Instance inst(sm, "i");
  inst.start();
  const efsm::Event ev{&sig, "in", {5}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.deliver(ev));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EfsmDispatch);

// Bytecode counterpart of BM_EfsmDispatch: the identical machine lowered to
// a CompiledMachine, the step driven through a CompiledInstance.
void BM_EfsmDispatchCompiled(benchmark::State& state) {
  uml::Model model("m");
  auto& sig = model.create_signal("S");
  sig.add_parameter("x", "int");
  auto& cls = model.create_class("C", nullptr, true);
  model.add_port(cls, "in").provide(sig);
  auto& sm = model.create_behavior(cls);
  sm.declare_variable("n", 0);
  auto& idle = model.add_state(sm, "Idle", true);
  model.add_transition(sm, idle, idle, sig, "in")
      .set_guard("x > 0")
      .add_effect(uml::Action::assign("n", "n + x"))
      .add_effect(uml::Action::compute("10"));
  const efsm::CompiledMachine machine(sm);
  efsm::CompiledInstance inst(machine, "i");
  inst.start();
  const efsm::Event ev{&sig, "in", {5}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.deliver(ev));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EfsmDispatchCompiled);

void BM_LogAppend(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimulationLog log;
    const intern::Id proc = log.intern_name("proc");
    for (int i = 0; i < 1000; ++i) {
      log.run_id(static_cast<sim::Time>(i), proc, 100, 2000);
    }
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_LogAppend)->Unit(benchmark::kMicrosecond);

void BM_LogParse(benchmark::State& state) {
  sim::SimulationLog log;
  const intern::Id proc = log.intern_name("proc"), a = log.intern_name("a");
  const intern::Id b = log.intern_name("b"), sig = log.intern_name("Sig");
  for (int i = 0; i < 1000; ++i) {
    log.run_id(static_cast<sim::Time>(i), proc, 100, 2000);
    log.send_id(static_cast<sim::Time>(i), a, b, sig, 64);
  }
  const std::string text = log.to_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::SimulationLog::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LogParse)->Unit(benchmark::kMicrosecond);

/// The log of one campaign-sized TUTMAC run (2 ms of modelled time, 73
/// records, 1.9 KB): the shape of log every campaign scenario digests.
const sim::SimulationLog& tutmac_log() {
  static const std::unique_ptr<sim::Simulation> simulation = [] {
    tutmac::Options opt;
    opt.horizon = 2'000'000;
    const tutmac::System sys = tutmac::build(opt);
    const mapping::SystemView view(*sys.model);
    sim::Config config;
    config.horizon = opt.horizon;
    auto s = std::make_unique<sim::Simulation>(view, config);
    sys.inject_workload(*s);
    s->run();
    return s;
  }();
  return simulation->log();
}

void set_log_counters(benchmark::State& state, const sim::SimulationLog& log,
                      std::size_t bytes) {
  state.counters["records"] = static_cast<double>(log.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

// The render alone, into a reused buffer (to_text's campaign/batch form).
void BM_LogRender(benchmark::State& state) {
  const sim::SimulationLog& log = tutmac_log();
  std::string out;
  for (auto _ : state) {
    out.clear();
    log.to_text(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_log_counters(state, log, out.size());
}
BENCHMARK(BM_LogRender)->Unit(benchmark::kMicrosecond);

// The digest the old way: render the text, then FNV-1a over it.
void BM_LogDigestViaText(benchmark::State& state) {
  const sim::SimulationLog& log = tutmac_log();
  std::string out;
  for (auto _ : state) {
    out.clear();
    log.to_text(out);
    benchmark::DoNotOptimize(intern::Fnv::of(out));
  }
  set_log_counters(state, log, out.size());
}
BENCHMARK(BM_LogDigestViaText)->Unit(benchmark::kMicrosecond);

// The same value fused: each piece of each line is folded into FNV-1a as
// the formatter emits it; no text is built.
void BM_LogDigest(benchmark::State& state) {
  const sim::SimulationLog& log = tutmac_log();
  for (auto _ : state) benchmark::DoNotOptimize(log.digest());
  set_log_counters(state, log, log.to_text().size());
}
BENCHMARK(BM_LogDigest)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, print_header);
}
