// Property tests on generated systems: every synthetic system must
// validate, simulate deterministically, conserve messages, and survive the
// XML round trip with identical behaviour.
#include <gtest/gtest.h>

#include "log_records.hpp"
#include "profiler/profiler.hpp"
#include "synth/synth.hpp"
#include "uml/serialize.hpp"
#include "uml/validation.hpp"

using namespace tut;
using namespace tut::synth;

namespace {

struct Shape {
  Topology topology;
  std::size_t processes;
  std::size_t pes;
  std::size_t segments;
  std::uint32_t seed;
};

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  const Shape& s = info.param;
  return std::string(to_string(s.topology)) + "_" +
         std::to_string(s.processes) + "p_" + std::to_string(s.pes) + "pe_" +
         std::to_string(s.segments) + "seg_s" + std::to_string(s.seed);
}

SynthOptions to_options(const Shape& s) {
  SynthOptions opt;
  opt.topology = s.topology;
  opt.processes = s.processes;
  opt.pes = s.pes;
  opt.segments = s.segments;
  opt.seed = s.seed;
  return opt;
}

/// Runs a standard workload: 20 messages, 10 us apart, 20 ms horizon (ample
/// slack for every topology/size in the sweep to drain).
std::unique_ptr<sim::Simulation> run_standard(const SynthSystem& sys,
                                              const mapping::SystemView& view) {
  auto simulation = std::make_unique<sim::Simulation>(
      view, sim::Config{.horizon = 20'000'000});
  sys.inject_workload(*simulation, 1'000, 10'000, 20);
  simulation->run();
  return simulation;
}

struct Counts {
  std::size_t sends_to_procs = 0;
  std::size_t receives = 0;
  std::size_t drops = 0;
  std::size_t env_sends = 0;  // process -> environment
};

Counts count_log(const sim::SimulationLog& log) {
  Counts c;
  for (const auto& r : test::named_records(log)) {
    switch (r.kind) {
      case sim::LogRecord::Kind::Send:
        if (r.peer == sim::kEnvironment) {
          if (r.process != sim::kEnvironment) ++c.env_sends;
        } else {
          ++c.sends_to_procs;
        }
        break;
      case sim::LogRecord::Kind::Receive:
        ++c.receives;
        break;
      case sim::LogRecord::Kind::Drop:
        ++c.drops;
        break;
      default:
        break;
    }
  }
  return c;
}

}  // namespace

class SynthProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(SynthProperty, ValidatesCleanly) {
  const SynthSystem sys = build(to_options(GetParam()));
  const auto result = profile::make_validator().run(*sys.model);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_EQ(result.warning_count(), 0u) << result.to_string();
}

TEST_P(SynthProperty, ConservesMessages) {
  const SynthSystem sys = build(to_options(GetParam()));
  mapping::SystemView view(*sys.model);
  const auto simulation = run_standard(sys, view);
  const Counts c = count_log(simulation->log());

  // Every send towards a process is eventually received (ample horizon).
  EXPECT_EQ(c.sends_to_procs, c.receives);
  // Nothing is dropped: every process handles Msg in every state.
  EXPECT_EQ(c.drops, 0u);
  // Every injected message leaves through a terminal process: 20 in, 20 out.
  EXPECT_EQ(c.env_sends, 20u);
}

TEST_P(SynthProperty, DeterministicAcrossRebuilds) {
  const SynthSystem a = build(to_options(GetParam()));
  const SynthSystem b = build(to_options(GetParam()));
  mapping::SystemView va(*a.model), vb(*b.model);
  const auto sa = run_standard(a, va);
  const auto sb = run_standard(b, vb);
  EXPECT_EQ(sa->log().to_text(), sb->log().to_text());
}

TEST_P(SynthProperty, XmlRoundTripPreservesBehavior) {
  const SynthSystem sys = build(to_options(GetParam()));
  mapping::SystemView view(*sys.model);
  const auto original = run_standard(sys, view);

  const auto restored = uml::from_xml_string(uml::to_xml_string(*sys.model));
  mapping::SystemView restored_view(*restored);
  auto replay = std::make_unique<sim::Simulation>(
      restored_view, sim::Config{.horizon = 20'000'000});
  replay->inject_periodic(1'000, 10'000, 20, sys.input_port,
                          *restored->find_signal("Msg"), {64});
  replay->run();

  EXPECT_EQ(original->log().to_text(), replay->log().to_text());
}

TEST_P(SynthProperty, PeBusyTimeMatchesLog) {
  const SynthSystem sys = build(to_options(GetParam()));
  mapping::SystemView view(*sys.model);
  const auto simulation = run_standard(sys, view);

  // Reconstruct per-PE busy time from Run records (cooperative scheduling:
  // no overhead, so stats must equal the logged durations exactly).
  std::map<std::string, sim::Time> from_log;
  for (const auto& r : test::named_records(simulation->log())) {
    if (r.kind != sim::LogRecord::Kind::Run) continue;
    const uml::Property* proc = nullptr;
    for (const uml::Property* p : view.app().processes()) {
      if (p->name() == r.process) proc = p;
    }
    ASSERT_NE(proc, nullptr) << r.process;
    from_log[view.instance_for_process(*proc)->name()] += r.duration;
  }
  for (const auto& [pe, stats] : simulation->pe_stats()) {
    EXPECT_EQ(stats.busy_time, from_log[pe]) << pe;
    EXPECT_EQ(stats.overhead_time, 0u) << pe;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SynthProperty,
    ::testing::Values(Shape{Topology::Pipeline, 4, 2, 1, 1},
                      Shape{Topology::Pipeline, 8, 3, 2, 7},
                      Shape{Topology::Pipeline, 16, 4, 3, 42},
                      Shape{Topology::Star, 5, 2, 1, 3},
                      Shape{Topology::Star, 9, 3, 2, 11},
                      Shape{Topology::RandomDag, 6, 2, 2, 5},
                      Shape{Topology::RandomDag, 12, 4, 2, 23},
                      Shape{Topology::RandomDag, 24, 6, 3, 99}),
    shape_name);

// ---------------------------------------------------------------------------
// Topology-specific behaviour
// ---------------------------------------------------------------------------

TEST(SynthPipeline, EveryStageHandlesEveryMessage) {
  SynthOptions opt;
  opt.topology = Topology::Pipeline;
  opt.processes = 5;
  const SynthSystem sys = build(opt);
  mapping::SystemView view(*sys.model);
  const auto simulation = run_standard(sys, view);

  const auto info = profiler::ProcessGroupInfo::from_model(*sys.model);
  const auto report = profiler::analyze(info, simulation->log());
  for (std::size_t i = 0; i < 5; ++i) {
    // 20 injected messages + the start step (0 cycles) per process.
    const std::string name = "p" + std::to_string(i);
    ASSERT_TRUE(report.process_cycles.count(name)) << name;
    EXPECT_GT(report.process_cycles.at(name), 0) << name;
    EXPECT_EQ(report.process_signals.count({name, "env"}), i == 4 ? 1u : 0u);
  }
  EXPECT_EQ(report.process_signals.at({"env", "p0"}), 20u);
  EXPECT_EQ(report.process_signals.at({"p0", "p1"}), 20u);
  EXPECT_EQ(report.process_signals.at({"p3", "p4"}), 20u);
}

TEST(SynthStar, HubDistributesRoundRobin) {
  SynthOptions opt;
  opt.topology = Topology::Star;
  opt.processes = 5;  // hub + 4 spokes
  const SynthSystem sys = build(opt);
  mapping::SystemView view(*sys.model);
  const auto simulation = run_standard(sys, view);
  const auto info = profiler::ProcessGroupInfo::from_model(*sys.model);
  const auto report = profiler::analyze(info, simulation->log());

  // 20 messages over 4 spokes: 5 each.
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ((report.process_signals.at({"p0", "p" + std::to_string(i)})), 5u);
  }
}

TEST(SynthRandomDag, EdgesAlwaysPointForward) {
  for (std::uint32_t seed : {1u, 2u, 3u, 17u, 1000u}) {
    SynthOptions opt;
    opt.topology = Topology::RandomDag;
    opt.processes = 10;
    opt.seed = seed;
    const SynthSystem sys = build(opt);
    // Forward-only edges guarantee drainage: simulate and require that all
    // messages leave.
    mapping::SystemView view(*sys.model);
    const auto simulation = run_standard(sys, view);
    EXPECT_EQ(count_log(simulation->log()).env_sends, 20u) << seed;
  }
}

TEST(SynthOptionsValidation, RejectsDegenerateShapes) {
  SynthOptions opt;
  opt.processes = 1;
  EXPECT_THROW((void)build(opt), std::invalid_argument);
  opt.processes = 4;
  opt.pes = 0;
  EXPECT_THROW((void)build(opt), std::invalid_argument);
  opt.pes = 2;
  opt.segments = 0;
  EXPECT_THROW((void)build(opt), std::invalid_argument);
}

TEST(SynthSeeds, DifferentSeedsChangeCosts) {
  SynthOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const SynthSystem sa = build(a);
  const SynthSystem sb = build(b);
  mapping::SystemView va(*sa.model), vb(*sb.model);
  const auto ra = run_standard(sa, va);
  const auto rb = run_standard(sb, vb);
  EXPECT_NE(ra->log().to_text(), rb->log().to_text());
}

TEST(SynthScale, SixtyFourProcessSoC) {
  SynthOptions opt;
  opt.topology = Topology::RandomDag;
  opt.processes = 64;
  opt.pes = 8;
  opt.segments = 4;
  opt.seed = 4242;
  const SynthSystem sys = build(opt);
  EXPECT_TRUE(profile::make_validator().run(*sys.model).ok());
  mapping::SystemView view(*sys.model);
  const auto simulation = run_standard(sys, view);
  EXPECT_EQ(count_log(simulation->log()).drops, 0u);
  EXPECT_EQ(count_log(simulation->log()).env_sends, 20u);
}
