// Tests for the compiled simulation core: EventQueue ordering vs the
// closure Kernel, CompiledModel lowering, the SystemView and CompiledModel
// constructors against log and statistics pins over the TUTMAC case study
// (with and without a fault plan), and BatchRunner determinism across
// thread counts.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "codegen/native.hpp"
#include "sim/backend.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;
using namespace tut::sim;

// ---------------------------------------------------------------------------
// EventQueue vs Kernel
// ---------------------------------------------------------------------------

namespace {

/// Replays the same schedule on a Kernel and an EventQueue and returns both
/// dispatch orders. Events are identified by their EventRec::a payload.
struct DualSchedule {
  Kernel kernel;
  EventQueue queue;
  std::vector<std::uint32_t> kernel_order;

  void at(Time t, std::uint32_t id) {
    kernel.schedule_at(t, [this, id]() { kernel_order.push_back(id); });
    queue.schedule_at(t, {EventRec::Kind::Inject, id});
  }

  std::vector<std::uint32_t> drain(Time horizon) {
    kernel.run(horizon);
    std::vector<std::uint32_t> queue_order;
    EventRec ev;
    while (queue.poll(horizon, ev)) queue_order.push_back(ev.a);
    EXPECT_EQ(kernel.now(), queue.now());
    EXPECT_EQ(kernel.dispatched(), queue.dispatched());
    return queue_order;
  }
};

}  // namespace

TEST(EventQueue, OrderingMatchesKernel) {
  DualSchedule d;
  d.at(50, 1);
  d.at(10, 2);
  d.at(50, 3);  // same time as 1: FIFO by schedule order
  d.at(10, 4);
  d.at(0, 5);   // due immediately (now == 0): bucket
  d.at(30, 6);
  const auto order = d.drain(100);
  EXPECT_EQ(order, d.kernel_order);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 2, 4, 6, 1, 3}));
}

TEST(EventQueue, HeapBeforeBucketAtSameInstant) {
  // An event scheduled for time T before time advances (heap) must precede
  // one scheduled at T when now == T (bucket) — Kernel's seq order.
  Kernel kernel;
  EventQueue queue;
  std::vector<int> kernel_order;
  std::vector<int> queue_order;
  kernel.schedule_at(10, [&]() {
    kernel.schedule_at(10, [&]() { kernel_order.push_back(2); });
    kernel_order.push_back(1);
  });
  kernel.schedule_at(10, [&]() { kernel_order.push_back(3); });
  kernel.run(20);

  queue.schedule_at(10, {EventRec::Kind::Inject, 1});
  queue.schedule_at(10, {EventRec::Kind::Inject, 3});
  EventRec ev;
  while (queue.poll(20, ev)) {
    queue_order.push_back(static_cast<int>(ev.a));
    if (ev.a == 1) queue.schedule_at(10, {EventRec::Kind::Inject, 2});
  }
  EXPECT_EQ(kernel_order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(queue_order, kernel_order);
  EXPECT_EQ(queue.now(), kernel.now());
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue queue;
  queue.schedule_at(100, {EventRec::Kind::Inject, 0});
  EventRec ev;
  while (queue.poll(200, ev)) {
  }
  EXPECT_EQ(queue.now(), 200u);
#ifdef NDEBUG
  EXPECT_THROW(queue.schedule_at(50, {EventRec::Kind::Inject, 1}),
               std::logic_error);
#endif
}

// ---------------------------------------------------------------------------
// CompiledModel
// ---------------------------------------------------------------------------

namespace {

tutmac::System make_tutmac(Time horizon) {
  tutmac::Options opt;
  opt.horizon = horizon;
  return tutmac::build(opt);
}

FaultPlan stress_plan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.pe_faults.push_back({"processor2", 400'000, 900'000});
  plan.segment_faults.push_back({"hibisegment1", 600'000, 700'000});
  plan.bit_errors.push_back({"hibisegment2", 20'000});
  SignalFault sf;
  sf.kind = SignalFault::Kind::Lost;
  sf.process = "rca";
  sf.start = 1'000'000;
  sf.end = 1'200'000;
  plan.signal_faults.push_back(sf);
  plan.watchdog_timeout = 5'000'000;
  return plan;
}

}  // namespace

TEST(CompiledModel, LowersTutmacStructure) {
  const auto sys = make_tutmac(1'000'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);
  EXPECT_TRUE(model->has_machines());
  EXPECT_EQ(model->pes().size(), view.plat().instances().size());
  EXPECT_EQ(model->segs().size(), view.plat().segments().size());
  EXPECT_EQ(model->procs().size(), view.app().processes().size());
  EXPECT_GE(model->proc_index("rca"), 0);
  EXPECT_GE(model->pe_index("processor1"), 0);
  EXPECT_EQ(model->proc_index("nosuch"), -1);
  // Processes on distinct PEs have a route.
  const auto& crc = model->procs()[model->proc_index("crc")];
  const auto& rca = model->procs()[model->proc_index("rca")];
  ASSERT_NE(crc.home_pe, rca.home_pe);
  EXPECT_FALSE(model->route(rca.home_pe, crc.home_pe).empty());
}

// ---------------------------------------------------------------------------
// Pinned logs: SystemView constructor vs CompiledModel constructor
// ---------------------------------------------------------------------------

// Both non-native constructors step bytecode, so comparing them with each
// other alone would not notice an engine change. The digests and statistics
// below were recorded with the AST interpreter (efsm::Instance) driving the
// SystemView constructor; efsm::Instance remains the reference semantics.

namespace {

/// Runs the TUTMAC workload through the SystemView constructor.
std::unique_ptr<Simulation> run_from_view(const tutmac::System& sys,
                                          const mapping::SystemView& view,
                                          const Config& config) {
  auto simulation = std::make_unique<Simulation>(view, config);
  sys.inject_workload(*simulation);
  simulation->run();
  return simulation;
}

std::string run_compiled(const tutmac::System& sys,
                         std::shared_ptr<const CompiledModel> model,
                         const Config& config) {
  Simulation simulation(std::move(model), config);
  sys.inject_workload(simulation);
  simulation.run();
  return simulation.log().to_text();
}

}  // namespace

TEST(CompiledSim, TutmacLogByteIdentical) {
  const auto sys = make_tutmac(3'000'000);
  mapping::SystemView view(*sys.model);
  Config config;
  config.horizon = sys.options.horizon;

  const auto from_view = run_from_view(sys, view, config);
  EXPECT_EQ(from_view->log().size(), 116u);
  EXPECT_EQ(log_digest(from_view->log()), 0x75a6444701943260u);
  EXPECT_EQ(from_view->log().to_text(),
            run_compiled(sys, CompiledModel::build(view), config));
}

TEST(CompiledSim, TutmacLogByteIdenticalUnderFaults) {
  const auto sys = make_tutmac(3'000'000);
  mapping::SystemView view(*sys.model);
  Config config;
  config.horizon = sys.options.horizon;
  config.faults = stress_plan();

  const auto from_view = run_from_view(sys, view, config);
  EXPECT_EQ(from_view->log().size(), 116u);
  EXPECT_EQ(log_digest(from_view->log()), 0xc687dc9dc81ed8f7u);
  EXPECT_EQ(from_view->log().to_text(),
            run_compiled(sys, CompiledModel::build(view), config));
}

TEST(CompiledSim, StatsMatchAstPath) {
  const auto sys = make_tutmac(2'000'000);
  mapping::SystemView view(*sys.model);
  Config config;
  config.horizon = sys.options.horizon;
  const auto from_view = run_from_view(sys, view, config);
  Simulation compiled(CompiledModel::build(view), config);
  sys.inject_workload(compiled);
  compiled.run();

  struct PePin {
    const char* name;
    Time busy_time;
    std::uint64_t steps, dispatched;
  };
  const PePin pe_pins[] = {{"accelerator1", 0, 1, 1},
                           {"processor1", 1'512'000, 26, 26},
                           {"processor2", 0, 2, 2},
                           {"processor3", 0, 0, 0}};
  for (const Simulation* simulation : {from_view.get(), &compiled}) {
    EXPECT_EQ(simulation->events_dispatched(), 48u);
    ASSERT_EQ(simulation->pe_stats().size(), std::size(pe_pins));
    for (const PePin& pin : pe_pins) {
      const PeStats& stats = simulation->pe_stats().at(pin.name);
      EXPECT_EQ(stats.busy_time, pin.busy_time) << pin.name;
      EXPECT_EQ(stats.steps, pin.steps) << pin.name;
      EXPECT_EQ(stats.dispatched, pin.dispatched) << pin.name;
    }
    ASSERT_EQ(simulation->segment_stats().size(), 3u);
    for (const auto& [name, stats] : simulation->segment_stats()) {
      EXPECT_EQ(stats.grants, 0u) << name;
      EXPECT_EQ(stats.busy_time, 0u) << name;
    }
  }
}

TEST(CompiledSim, InstanceAccessorWorksOnEveryBackend) {
  const auto sys = make_tutmac(1'000'000);
  mapping::SystemView view(*sys.model);
  Config config;
  config.horizon = sys.options.horizon;
  const auto model = CompiledModel::build(view);
  Simulation interpreted(interpreter_image(model), config);
  sys.inject_workload(interpreted);
  interpreted.run();
  const auto from_view = run_from_view(sys, view, config);

  const ProcExecutor& rca = interpreted.instance("rca");
  EXPECT_TRUE(rca.started());
  EXPECT_FALSE(rca.state_name().empty());
  EXPECT_EQ(rca.state_name(), from_view->instance("rca").state_name());
  EXPECT_EQ(rca.variable("slotcnt"),
            from_view->instance("rca").variable("slotcnt"));
  EXPECT_THROW((void)rca.variable("nosuch"), std::out_of_range);
  EXPECT_THROW((void)interpreted.instance("nosuch"), std::out_of_range);

  if (codegen::NativeImage::find_compiler().empty()) {
    GTEST_SKIP() << "no C++ compiler on this host";
  }
  Simulation native(codegen::NativeImage::build(model), config);
  sys.inject_workload(native);
  native.run();
  EXPECT_EQ(native.log().to_text(), interpreted.log().to_text());
  const ProcExecutor& native_rca = native.instance("rca");
  EXPECT_TRUE(native_rca.started());
  EXPECT_EQ(native_rca.state_name(), rca.state_name());
  EXPECT_EQ(native_rca.variable("slotcnt"), rca.variable("slotcnt"));
  EXPECT_THROW((void)native_rca.variable("nosuch"), std::out_of_range);
  EXPECT_THROW((void)native.instance("nosuch"), std::out_of_range);
}

// ---------------------------------------------------------------------------
// BatchRunner
// ---------------------------------------------------------------------------

namespace {

std::vector<BatchScenario> make_scenarios(const tutmac::System& sys,
                                          std::size_t count) {
  std::vector<BatchScenario> scenarios;
  for (std::size_t i = 0; i < count; ++i) {
    BatchScenario s;
    s.name = "seed" + std::to_string(i);
    s.config.horizon = sys.options.horizon;
    if (i % 2 == 1) {
      s.config.faults = stress_plan();
      s.config.faults.seed = i;
    }
    s.setup = [&sys](Simulation& sim) { sys.inject_workload(sim); };
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  const auto sys = make_tutmac(1'500'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);
  const auto scenarios = make_scenarios(sys, 6);

  std::vector<std::vector<BatchResult>> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    BatchOptions options;
    options.threads = threads;
    runs.push_back(BatchRunner(model, options).run(scenarios));
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[t][i].name, runs[0][i].name);
      EXPECT_EQ(runs[t][i].log_hash, runs[0][i].log_hash) << i;
      EXPECT_EQ(runs[t][i].events, runs[0][i].events) << i;
      EXPECT_EQ(runs[t][i].records, runs[0][i].records) << i;
      EXPECT_TRUE(runs[t][i].error.empty()) << runs[t][i].error;
    }
  }
  // Faulted and fault-free scenarios produce distinct logs (the batch is
  // not trivially hashing empty or identical logs).
  EXPECT_NE(runs[0][0].log_hash, runs[0][1].log_hash);
}

TEST(BatchRunner, MatchesSingleSimulationLog) {
  const auto sys = make_tutmac(1'000'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);

  Config config;
  config.horizon = sys.options.horizon;
  const std::string direct = run_compiled(sys, model, config);

  BatchScenario scenario;
  scenario.name = "only";
  scenario.config = config;
  scenario.setup = [&sys](Simulation& sim) { sys.inject_workload(sim); };
  BatchOptions options;
  options.threads = 1;
  options.keep_logs = true;
  const auto results = BatchRunner(model, options).run({scenario});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.empty()) << results[0].error;
  EXPECT_EQ(results[0].log_text, direct);
  EXPECT_EQ(results[0].log_hash, BatchRunner::hash_text(direct));
}

TEST(BatchRunner, ReportsScenarioErrorsWithoutThrowing) {
  const auto sys = make_tutmac(100'000);
  mapping::SystemView view(*sys.model);
  const auto model = CompiledModel::build(view);

  BatchScenario bad;
  bad.name = "bad-plan";
  bad.config.horizon = 100'000;
  bad.config.faults.pe_faults.push_back({"nosuch_pe", 10, 20});
  BatchOptions options;
  options.threads = 1;
  const auto results = BatchRunner(model, options).run({bad});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].error.find("unknown component instance"),
            std::string::npos)
      << results[0].error;
  EXPECT_EQ(results[0].events, 0u);
}
