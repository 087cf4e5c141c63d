// Tests for the TUTMAC/TUTWLAN case study: model structure (Figures 4-8),
// validation, simulation, and the Table 4 reproduction shape.
#include <gtest/gtest.h>

#include "profiler/profiler.hpp"
#include "tutmac/tutmac.hpp"
#include "uml/serialize.hpp"
#include "uml/validation.hpp"

using namespace tut;
using namespace tut::tutmac;

namespace {

struct BuiltSystem : ::testing::Test {
  System sys = build();
};

}  // namespace

TEST_F(BuiltSystem, Figure4ClassHierarchy) {
  EXPECT_TRUE(sys.app->has_stereotype("Application"));
  EXPECT_FALSE(sys.app->is_active());
  // Three top-level functional components.
  for (const char* name : {"Management", "RadioManagement",
                           "RadioChannelAccess"}) {
    const uml::Class* cls = sys.model->find_class(name);
    ASSERT_NE(cls, nullptr) << name;
    EXPECT_TRUE(cls->has_stereotype("ApplicationComponent")) << name;
    EXPECT_TRUE(cls->is_active()) << name;
    EXPECT_NE(cls->behavior(), nullptr) << name;
  }
  // Two structural components, not stereotyped, passive.
  for (const char* name : {"UserInterface", "DataProcessing"}) {
    const uml::Class* cls = sys.model->find_class(name);
    ASSERT_NE(cls, nullptr) << name;
    EXPECT_FALSE(cls->has_stereotype("ApplicationComponent")) << name;
    EXPECT_FALSE(cls->is_active()) << name;
  }
}

TEST_F(BuiltSystem, Figure5CompositeStructure) {
  // The top-level class has ui, dp parts plus the three processes.
  EXPECT_NE(sys.app->part("ui"), nullptr);
  EXPECT_NE(sys.app->part("dp"), nullptr);
  EXPECT_NE(sys.app->part("rca"), nullptr);
  EXPECT_EQ(sys.app->parts().size(), 5u);
  // Boundary ports.
  EXPECT_NE(sys.app->port("puser"), nullptr);
  EXPECT_NE(sys.app->port("pphy"), nullptr);
  EXPECT_GE(sys.app->connectors().size(), 9u);
}

TEST_F(BuiltSystem, Figure6Grouping) {
  ASSERT_EQ(sys.groups.size(), 4u);
  appmodel::ApplicationView view(*sys.model);
  EXPECT_EQ(view.processes().size(), 7u);
  EXPECT_EQ(view.members(*sys.groups.at("group1")).size(), 2u);  // rca, rmng
  EXPECT_EQ(view.members(*sys.groups.at("group2")).size(), 2u);
  EXPECT_EQ(view.members(*sys.groups.at("group3")).size(), 2u);
  EXPECT_EQ(view.members(*sys.groups.at("group4")).size(), 1u);  // crc
  EXPECT_EQ(view.group_of(*sys.processes.at("rca")), sys.groups.at("group1"));
  EXPECT_EQ(view.group_of(*sys.processes.at("crc")), sys.groups.at("group4"));
  EXPECT_EQ(sys.groups.at("group4")->tagged_value("ProcessType"), "hardware");
}

TEST_F(BuiltSystem, Figure7Platform) {
  platform::PlatformView view(*sys.model);
  EXPECT_EQ(view.instances().size(), 4u);
  EXPECT_EQ(view.segments().size(), 3u);
  // Hierarchical bus: p1/p2 on segment1, p3/acc on segment2, joined by the
  // bridge.
  EXPECT_EQ(view.segment_of(*sys.instances.at("processor1")),
            sys.segments.at("hibisegment1"));
  EXPECT_EQ(view.segment_of(*sys.instances.at("accelerator1")),
            sys.segments.at("hibisegment2"));
  const auto route = view.route(*sys.instances.at("processor1"),
                                *sys.instances.at("accelerator1"));
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(route[1], sys.segments.at("bridge"));
  // HIBI stereotypes applied.
  EXPECT_TRUE(sys.segments.at("hibisegment1")->has_stereotype("HIBISegment"));
}

TEST_F(BuiltSystem, Figure8Mapping) {
  mapping::SystemView view(*sys.model);
  EXPECT_EQ(view.instance_for_group(*sys.groups.at("group1")),
            sys.instances.at("processor1"));
  EXPECT_EQ(view.instance_for_group(*sys.groups.at("group3")),
            sys.instances.at("processor1"));  // two groups on processor1
  EXPECT_EQ(view.instance_for_group(*sys.groups.at("group2")),
            sys.instances.at("processor2"));
  EXPECT_EQ(view.instance_for_group(*sys.groups.at("group4")),
            sys.instances.at("accelerator1"));
  // processor3 is present but idle in the paper's mapping.
  EXPECT_TRUE(view.groups_on(*sys.instances.at("processor3")).empty());
  EXPECT_TRUE(view.mapping_fixed(*sys.groups.at("group1")));
}

TEST_F(BuiltSystem, PassesAllDesignRules) {
  const auto result = profile::make_validator().run(*sys.model);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_EQ(result.warning_count(), 0u) << result.to_string();
}

TEST_F(BuiltSystem, SurvivesXmlRoundTrip) {
  const auto restored = uml::from_xml_string(uml::to_xml_string(*sys.model));
  EXPECT_EQ(restored->size(), sys.model->size());
  const auto result = profile::make_validator().run(*restored);
  EXPECT_TRUE(result.ok()) << result.to_string();
  mapping::SystemView view(*restored);
  EXPECT_EQ(view.app().processes().size(), 7u);
  EXPECT_EQ(view.plat().instances().size(), 4u);
}

TEST(TutmacVariants, AlternativeGroupingsValidate) {
  for (GroupingChoice g : {GroupingChoice::PerProcess,
                           GroupingChoice::SingleSw}) {
    Options opt;
    opt.grouping = g;
    System sys = build(opt);
    const auto result = profile::make_validator().run(*sys.model);
    EXPECT_TRUE(result.ok()) << result.to_string();
  }
}

TEST(TutmacVariants, AlternativeMappingsValidate) {
  for (MappingChoice c : {MappingChoice::LoadBalanced, MappingChoice::SinglePe}) {
    Options opt;
    opt.mapping = c;
    System sys = build(opt);
    const auto result = profile::make_validator().run(*sys.model);
    EXPECT_TRUE(result.ok()) << result.to_string();
  }
}

TEST(TutmacVariants, RoundRobinArbitrationValidates) {
  Options opt;
  opt.arbitration = profile::tags::ArbitrationRoundRobin;
  System sys = build(opt);
  const auto result = profile::make_validator().run(*sys.model);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_EQ(sys.segments.at("hibisegment1")->tagged_value("Arbitration"),
            "round-robin");
}

// ---------------------------------------------------------------------------
// Simulation + profiling: the Table 4 shape.
// ---------------------------------------------------------------------------

namespace {

profiler::ProfilingReport profile_run(const Options& opt) {
  System sys = build(opt);
  mapping::SystemView view(*sys.model);
  const auto simulation = sys.simulate(view);
  const auto info = profiler::ProcessGroupInfo::from_model(*sys.model);
  return profiler::analyze(info, simulation->log());
}

}  // namespace

TEST(TutmacSimulation, ShortRunProducesTraffic) {
  Options opt;
  opt.horizon = 5'000'000;  // 5 ms
  System sys = build(opt);
  mapping::SystemView view(*sys.model);
  const auto simulation = sys.simulate(view);
  EXPECT_GT(simulation->log().size(), 100u);
  // The radio path executed.
  const sim::ProcExecutor& rca = simulation->instance("rca");
  EXPECT_GT(rca.variable("slotcnt"), 10);
  // Cross-bridge CRC traffic happened.
  EXPECT_GT(simulation->segment_stats().at("bridge").transfers, 0u);
}

TEST(TutmacSimulation, Table4ShapeReproduced) {
  Options opt;
  opt.horizon = 20'000'000;  // 20 ms is enough for stable proportions
  const auto report = profile_run(opt);

  ASSERT_EQ(report.execution.size(), 5u);  // 4 groups + Environment
  const auto& g1 = report.execution[0];
  const auto& g2 = report.execution[1];
  const auto& g3 = report.execution[2];
  const auto& g4 = report.execution[3];
  const auto& env = report.execution[4];

  EXPECT_EQ(g1.group, "group1");
  // Paper: 92.1 / 5.2 / 2.5 / 0.2 / 0.0. Require the shape, with slack.
  EXPECT_GT(g1.proportion, 85.0);
  EXPECT_LT(g1.proportion, 97.0);
  EXPECT_GT(g2.proportion, 2.0);
  EXPECT_LT(g2.proportion, 10.0);
  EXPECT_GT(g3.proportion, 1.0);
  EXPECT_LT(g3.proportion, 8.0);
  EXPECT_GT(g4.proportion, 0.01);
  EXPECT_LT(g4.proportion, 1.5);
  EXPECT_EQ(env.cycles, 0);
  // Ordering matches the paper: g1 > g2 > g3 > g4.
  EXPECT_GT(g1.cycles, g2.cycles);
  EXPECT_GT(g2.cycles, g3.cycles);
  EXPECT_GT(g3.cycles, g4.cycles);
}

TEST(TutmacSimulation, SignalMatrixShape) {
  Options opt;
  opt.horizon = 20'000'000;
  const auto report = profile_run(opt);

  const auto g1 = report.party_index("group1");
  const auto g2 = report.party_index("group2");
  const auto g3 = report.party_index("group3");
  const auto g4 = report.party_index("group4");
  const auto env = report.party_index(profiler::kEnvironmentParty);

  // The environment drives group1 (radio slots + frames) hardest.
  EXPECT_GT(report.signals[env][g1], report.signals[env][g2]);
  // Data path: group2 -> group3 (MSDUs to fragmenter) and group3 -> group1
  // (fragments to rca), group3 <-> group4 (CRC).
  EXPECT_GT(report.signals[g2][g3], 0u);
  EXPECT_GT(report.signals[g3][g1], 0u);
  EXPECT_GT(report.signals[g3][g4], 0u);
  EXPECT_EQ(report.signals[g3][g4], report.signals[g4][g3]);  // req/rsp pairs
  // group1 reports status to itself (rca -> rmng are both group1).
  EXPECT_GT(report.signals[g1][g1], 0u);
  // group4 never talks to group2 directly.
  EXPECT_EQ(report.signals[g4][g2], 0u);
  EXPECT_EQ(report.signals[g2][g4], 0u);
}

TEST(TutmacSimulation, DeterministicReport) {
  Options opt;
  opt.horizon = 5'000'000;
  const auto a = profile_run(opt);
  const auto b = profile_run(opt);
  EXPECT_EQ(a.to_text(), b.to_text());
}

TEST(TutmacSimulation, NoDroppedSignals) {
  Options opt;
  opt.horizon = 10'000'000;
  const auto report = profile_run(opt);
  EXPECT_TRUE(report.drops.empty());
}
