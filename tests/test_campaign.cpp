// Tests for the campaign engine: sweep grammar (lazy, pure scenario
// materialization; XML loader rule tags), reusable run contexts
// (Simulation::reset byte-identity vs fresh construction), the P² sketch,
// and the determinism contract — aggregates byte-identical across thread
// counts, shard splits and kill/resume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;
using namespace tut::sim;

namespace {

/// One TUTMAC system + compiled image shared by every test (lowering once
/// keeps the suite fast; the image is immutable by contract).
const tutmac::System& shared_system() {
  static tutmac::System sys = [] {
    tutmac::Options opt;
    opt.horizon = 2'000'000;  // 2 ms keeps each scenario ~50 events
    return tutmac::build(opt);
  }();
  return sys;
}

std::shared_ptr<const CompiledModel> shared_image() {
  static std::shared_ptr<const CompiledModel> image = [] {
    mapping::SystemView view(*shared_system().model);
    return CompiledModel::build(view);
  }();
  return image;
}

/// Injects the standard workload scaled to the scenario's horizon and
/// slotPeriod axis (when present).
void setup_scenario(Simulation& sim, const Scenario& sc) {
  const tutmac::System& sys = shared_system();
  tutmac::Options o = sys.options;
  o.horizon = sim.config().horizon;
  o.slot_period = static_cast<Time>(
      sc.param("slotPeriod", static_cast<long>(o.slot_period)));
  sys.inject_workload(sim, o);
}

/// A small sweep with a fault plan: 12 scenarios exercising seeds, a free
/// parameter and plan selection.
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "test";
  spec.base.horizon = 2'000'000;
  spec.base_seed = 42;
  FaultPlan plan;
  plan.segment_faults.push_back({"hibisegment1", 200'000, 600'000});
  plan.bit_errors.push_back({"hibisegment2", 50'000});
  spec.plans.emplace_back("seg", std::move(plan));
  spec.axes.push_back({"seed", {0, 1, 2}});
  spec.axes.push_back({"slotPeriod", {50'000, 100'000}});
  spec.axes.push_back({"plan", {0, 1}});
  return spec;
}

CampaignRunner make_runner() { return CampaignRunner({shared_image()}, setup_scenario); }

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

// ---------------------------------------------------------------------------
// Reusable run contexts
// ---------------------------------------------------------------------------

TEST(SimulationReset, RerunIsByteIdenticalToFreshConstruction) {
  Config config;
  config.horizon = 2'000'000;
  Simulation fresh(shared_image(), config);
  setup_scenario(fresh, Scenario{});
  fresh.run();
  const std::string expected = fresh.log().to_text();

  // Same context, three consecutive runs: every rewind must reproduce the
  // fresh log byte for byte (including stats).
  Simulation reused(shared_image(), config);
  for (int round = 0; round < 3; ++round) {
    if (round > 0) reused.reset(config);
    setup_scenario(reused, Scenario{});
    reused.run();
    EXPECT_EQ(reused.log().to_text(), expected) << "round " << round;
    EXPECT_EQ(reused.events_dispatched(), fresh.events_dispatched());
    EXPECT_EQ(reused.pe_stats().at("processor1").busy_time,
              fresh.pe_stats().at("processor1").busy_time);
  }
}

TEST(SimulationReset, RerunWithFaultPlanIsByteIdentical) {
  Config config;
  config.horizon = 2'000'000;
  config.faults.segment_faults.push_back({"hibisegment1", 100'000, 900'000});
  config.faults.bit_errors.push_back({"hibisegment2", 200'000});
  config.faults.watchdog_timeout = 500'000;
  config.faults.seed = 7;

  Simulation fresh(shared_image(), config);
  setup_scenario(fresh, Scenario{});
  fresh.run();

  // Run something *different* first, then reset into the fault config: the
  // reset must fully clear fault state, timers and backoff bookkeeping.
  Config other;
  other.horizon = 1'000'000;
  Simulation reused(shared_image(), other);
  setup_scenario(reused, Scenario{});
  reused.run();
  reused.reset(config);
  setup_scenario(reused, Scenario{});
  reused.run();
  EXPECT_EQ(reused.log().to_text(), fresh.log().to_text());
}

TEST(SimulationReset, ConfigSwapChangesOutcomeDeterministically) {
  Config a;
  a.horizon = 1'000'000;
  Config b;
  b.horizon = 2'000'000;
  Simulation sim(shared_image(), a);
  setup_scenario(sim, Scenario{});
  sim.run();
  const std::string log_a = sim.log().to_text();
  sim.reset(b);
  setup_scenario(sim, Scenario{});
  sim.run();
  const std::string log_b = sim.log().to_text();
  EXPECT_NE(log_a, log_b);
  sim.reset(a);
  setup_scenario(sim, Scenario{});
  sim.run();
  EXPECT_EQ(sim.log().to_text(), log_a);
}

TEST(BatchRunner, ReusedContextsMatchPerRunConstructionHashes) {
  // The batch runner now reuses one context per worker; hashes must still
  // match a fresh Simulation per scenario.
  std::vector<BatchScenario> scenarios;
  for (int i = 0; i < 6; ++i) {
    BatchScenario s;
    s.name = "s" + std::to_string(i);
    s.config.horizon = 1'000'000 + 200'000 * static_cast<Time>(i);
    s.setup = [](Simulation& sim) { setup_scenario(sim, Scenario{}); };
    scenarios.push_back(std::move(s));
  }
  BatchOptions opt;
  opt.threads = 2;
  const auto results = BatchRunner(shared_image(), opt).run(scenarios);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Simulation fresh(shared_image(), scenarios[i].config);
    setup_scenario(fresh, Scenario{});
    fresh.run();
    EXPECT_EQ(results[i].log_hash,
              BatchRunner::hash_text(fresh.log().to_text()))
        << scenarios[i].name;
    EXPECT_TRUE(results[i].log_text.empty());  // hash-and-release default
  }
}

TEST(BatchRunner, KeepLogsRetainsRenderedText) {
  BatchScenario s;
  s.name = "keep";
  s.config.horizon = 1'000'000;
  s.setup = [](Simulation& sim) { setup_scenario(sim, Scenario{}); };
  BatchOptions opt;
  opt.keep_logs = true;
  const auto results = BatchRunner(shared_image(), opt).run({s});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(BatchRunner::hash_text(results[0].log_text), results[0].log_hash);
  EXPECT_NE(results[0].log_text.find("# tut-simlog v1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sweep grammar
// ---------------------------------------------------------------------------

TEST(CampaignSpec, LazyExpansionIsPureInTheIndex) {
  const CampaignSpec spec = small_spec();
  ASSERT_EQ(spec.total(), 12u);
  // Materializing out of order, repeatedly, yields identical scenarios.
  for (const std::uint64_t i : {11u, 0u, 5u, 11u, 3u, 0u}) {
    const Scenario a = spec.scenario(i);
    const Scenario b = spec.scenario(i);
    EXPECT_EQ(a.index, i);
    EXPECT_EQ(a.config.horizon, b.config.horizon);
    EXPECT_EQ(a.config.faults.seed, b.config.faults.seed);
    EXPECT_EQ(a.config.faults.segment_faults.size(),
              b.config.faults.segment_faults.size());
    EXPECT_EQ(a.param("slotPeriod", -1), b.param("slotPeriod", -1));
  }
}

TEST(CampaignSpec, CartesianOrderIsLastAxisFastest) {
  const CampaignSpec spec = small_spec();
  // Axes: seed{0,1,2} x slotPeriod{50k,100k} x plan{0,1} — plan toggles
  // fastest, then slotPeriod, then seed.
  EXPECT_TRUE(spec.scenario(0).config.faults.empty());
  EXPECT_FALSE(spec.scenario(1).config.faults.empty());
  EXPECT_EQ(spec.scenario(0).param("slotPeriod", -1), 50'000);
  EXPECT_EQ(spec.scenario(2).param("slotPeriod", -1), 100'000);
  // Scenario 4 starts the seed=1 block; its per-run seed differs from the
  // seed=0 block's even at the same index offset.
  EXPECT_NE(spec.scenario(0).config.faults.seed,
            spec.scenario(4).config.faults.seed);
}

TEST(CampaignSpec, PerScenarioSeedsDecorrelateEqualAxisValues) {
  const CampaignSpec spec = small_spec();
  // Scenarios 1 and 3 share the seed-axis value (0) and the plan (seg) but
  // differ in index — their derived fault seeds must differ.
  EXPECT_NE(spec.scenario(1).config.faults.seed,
            spec.scenario(3).config.faults.seed);
}

TEST(CampaignSpec, ZipModeReadsColumns) {
  CampaignSpec spec;
  spec.mode = CampaignSpec::Mode::Zip;
  spec.axes.push_back({"seed", {10, 20, 30}});
  spec.axes.push_back({"horizon", {1'000'000, 2'000'000, 3'000'000}});
  ASSERT_TRUE(spec.validate().empty());
  ASSERT_EQ(spec.total(), 3u);
  EXPECT_EQ(spec.scenario(1).config.horizon, 2'000'000u);
  EXPECT_EQ(spec.scenario(2).config.horizon, 3'000'000u);
}

TEST(CampaignSpec, ValidateTagsDefects) {
  CampaignSpec spec;
  const auto joined = [](const std::vector<std::string>& v) {
    std::string all;
    for (const auto& s : v) all += s + "\n";
    return all;
  };
  EXPECT_NE(joined(spec.validate()).find("[campaign.sweep.empty]"),
            std::string::npos);

  spec.axes.push_back({"seed", {1}});
  spec.axes.push_back({"seed", {2}});
  EXPECT_NE(joined(spec.validate()).find("[campaign.axis.duplicate]"),
            std::string::npos);

  spec.axes.clear();
  spec.axes.push_back({"plan", {3}});
  EXPECT_NE(joined(spec.validate()).find("[campaign.ref.unknown]"),
            std::string::npos);

  spec.axes.clear();
  spec.mode = CampaignSpec::Mode::Zip;
  spec.axes.push_back({"seed", {1, 2}});
  spec.axes.push_back({"horizon", {1'000'000}});
  EXPECT_NE(joined(spec.validate()).find("[campaign.zip.length]"),
            std::string::npos);
}

TEST(CampaignSpec, XmlLoaderRoundTrip) {
  const std::string xml = R"(<?xml version="1.0"?>
<tut:campaign name="sweep" mode="cartesian" seed="9" horizon="3000000">
  <axis name="seed" count="4"/>
  <axis name="slotPeriod" values="50000 100000"/>
  <axis name="rxPeriod" from="500000" step="250000" count="3"/>
</tut:campaign>)";
  const CampaignSpec spec = CampaignSpec::from_xml_text(xml);
  EXPECT_EQ(spec.name, "sweep");
  EXPECT_EQ(spec.base_seed, 9u);
  EXPECT_EQ(spec.base.horizon, 3'000'000u);
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.total(), 4u * 2u * 3u);
  EXPECT_EQ(spec.axes[0].values, (std::vector<long>{0, 1, 2, 3}));
  EXPECT_EQ(spec.axes[2].values,
            (std::vector<long>{500'000, 750'000, 1'000'000}));
}

TEST(CampaignSpec, XmlLoaderResolvesPlansAndMappings) {
  const std::string xml = R"(<tut:campaign name="m">
  <plan name="burst" file="burst.xml"/>
  <axis name="seed" count="2"/>
  <axis name="plan" values="none burst"/>
  <axis name="mapping" values="paper singlePe"/>
</tut:campaign>)";
  FaultPlan burst;
  burst.segment_faults.push_back({"hibisegment1", 10, 20});
  const std::string burst_xml = burst.to_xml_text();
  const CampaignSpec spec = CampaignSpec::from_xml_text(
      xml, [&](const std::string& file) {
        EXPECT_EQ(file, "burst.xml");
        return burst_xml;
      });
  ASSERT_EQ(spec.plans.size(), 2u);
  EXPECT_EQ(spec.plans[1].first, "burst");
  EXPECT_EQ(spec.mapping_names,
            (std::vector<std::string>{"paper", "singlePe"}));
  // plan axis carries indices into plans; scenario 1 picks "burst".
  EXPECT_FALSE(spec.scenario(2).config.faults.empty());
  EXPECT_EQ(spec.scenario(1).image, 1u);
}

TEST(CampaignSpec, XmlLoaderTagsErrors) {
  const auto expect_tag = [](const std::string& xml, const char* tag) {
    try {
      CampaignSpec::from_xml_text(xml);
      FAIL() << "expected throw with " << tag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(tag), std::string::npos)
          << e.what();
    }
  };
  expect_tag("<tut:campaign/>", "[campaign.sweep.empty]");
  expect_tag(R"(<tut:campaign mode="diagonal"><axis name="seed" count="1"/></tut:campaign>)",
             "[campaign.mode.unknown]");
  expect_tag(R"(<tut:campaign><axis name="plan" values="ghost"/></tut:campaign>)",
             "[campaign.ref.unknown]");
  expect_tag(R"(<tut:campaign><axis name="seed" values="x"/></tut:campaign>)",
             "[campaign.axis.malformed]");
  expect_tag(R"(<tut:campaign><bogus/></tut:campaign>)",
             "[campaign.element.unknown]");
  expect_tag(R"(<tut:campaign><plan name="p" file="f.xml"/></tut:campaign>)",
             "[campaign.plan.unreadable]");
}

// ---------------------------------------------------------------------------
// P² sketch
// ---------------------------------------------------------------------------

TEST(P2Quantile, TracksQuantilesOfAKnownStream) {
  P2Quantile p50(0.5), p90(0.9);
  // 1..1000 in a scrambled but deterministic order.
  for (int i = 0; i < 1000; ++i) {
    const double v = 1 + (i * 613) % 1000;
    p50.add(v);
    p90.add(v);
  }
  EXPECT_NEAR(p50.value(), 500.0, 25.0);
  EXPECT_NEAR(p90.value(), 900.0, 25.0);
  EXPECT_EQ(p50.count(), 1000u);
}

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile q(0.5);
  EXPECT_EQ(q.value(), 0.0);
  q.add(7);
  EXPECT_EQ(q.value(), 7.0);
  q.add(3);
  q.add(11);
  EXPECT_EQ(q.value(), 7.0);  // median of {3, 7, 11}
}

TEST(P2Quantile, SerializeRoundTripsExactly) {
  P2Quantile q(0.9);
  for (int i = 0; i < 137; ++i) q.add(i * 0.37);
  std::string bytes;
  q.serialize(bytes);
  std::size_t cursor = 0;
  const P2Quantile back = P2Quantile::deserialize(bytes, cursor);
  EXPECT_EQ(cursor, bytes.size());
  std::string again;
  back.serialize(again);
  EXPECT_EQ(bytes, again);
  EXPECT_EQ(back.value(), q.value());
}

// ---------------------------------------------------------------------------
// Determinism matrix
// ---------------------------------------------------------------------------

TEST(Campaign, AggregateInvariantAcrossThreadCounts) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    CampaignOptions opt;
    opt.threads = threads;
    const CampaignResult r = runner.run(spec, opt);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.aggregate.scenarios, spec.total());
    EXPECT_EQ(r.aggregate.errors, 0u);
    const std::string bytes = r.aggregate.serialize();
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

TEST(Campaign, ShardedMergeMatchesUnshardedByteForByte) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();

  const std::string whole = temp_path("tut_campaign_whole.bin");
  const std::string p0 = temp_path("tut_campaign_p0.bin");
  const std::string p1 = temp_path("tut_campaign_p1.bin");

  CampaignOptions opt;
  opt.threads = 2;
  opt.samples_path = whole;
  const CampaignResult single = runner.run(spec, opt);

  opt.samples_path = p0;
  opt.shard = {0, 2};
  const CampaignResult s0 = runner.run(spec, opt);
  opt.samples_path = p1;
  opt.shard = {1, 2};
  const CampaignResult s1 = runner.run(spec, opt);
  EXPECT_EQ(s0.end, s1.first);
  EXPECT_EQ(s0.aggregate.scenarios + s1.aggregate.scenarios, spec.total());

  const CampaignResult merged = merge_campaign_parts({p0, p1});
  EXPECT_EQ(merged.aggregate.serialize(), single.aggregate.serialize());
  // And merging the single-process part file reproduces it too.
  const CampaignResult remerged = merge_campaign_parts({whole});
  EXPECT_EQ(remerged.aggregate.serialize(), single.aggregate.serialize());

  std::filesystem::remove(whole);
  std::filesystem::remove(p0);
  std::filesystem::remove(p1);
}

TEST(Campaign, KillAtCheckpointThenResumeMatchesUninterrupted) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();

  CampaignOptions opt;
  opt.threads = 2;
  const CampaignResult uninterrupted = runner.run(spec, opt);

  const std::string ck = temp_path("tut_campaign_ck.bin");
  const std::string parts = temp_path("tut_campaign_ck_parts.bin");
  std::filesystem::remove(ck);

  CampaignOptions killed;
  killed.threads = 2;
  killed.checkpoint_path = ck;
  killed.checkpoint_every = 3;
  killed.samples_path = parts;
  killed.stop_after = 7;  // dies mid-campaign, past two checkpoints
  const CampaignResult partial = runner.run(spec, killed);
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.next, 7u);

  CampaignOptions resumed = killed;
  resumed.stop_after = 0;
  resumed.resume = true;
  const CampaignResult finished = runner.run(spec, resumed);
  EXPECT_TRUE(finished.completed);
  EXPECT_EQ(finished.aggregate.serialize(),
            uninterrupted.aggregate.serialize());

  // The part file survived the kill + resume with the full in-order stream.
  const CampaignResult merged = merge_campaign_parts({parts});
  EXPECT_EQ(merged.aggregate.serialize(), uninterrupted.aggregate.serialize());

  std::filesystem::remove(ck);
  std::filesystem::remove(parts);
}

TEST(Campaign, CheckpointFromDifferentCampaignIsRejected) {
  const CampaignRunner runner = make_runner();
  const std::string ck = temp_path("tut_campaign_mismatch.bin");

  CampaignOptions opt;
  opt.threads = 1;
  opt.checkpoint_path = ck;
  runner.run(small_spec(), opt);

  CampaignSpec other = small_spec();
  other.base_seed = 99;  // different campaign → different fingerprint
  opt.resume = true;
  try {
    runner.run(other, opt);
    FAIL() << "expected checkpoint mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[campaign.checkpoint.mismatch]"),
              std::string::npos);
  }
  std::filesystem::remove(ck);
}

TEST(Campaign, MergeRejectsGapsAndForeignParts) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();
  const std::string p1 = temp_path("tut_campaign_gap.bin");

  CampaignOptions opt;
  opt.threads = 1;
  opt.shard = {1, 2};
  opt.samples_path = p1;
  runner.run(spec, opt);
  try {
    merge_campaign_parts({p1});  // shard 0 missing
    FAIL() << "expected gap";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[campaign.part.gap]"),
              std::string::npos);
  }
  std::filesystem::remove(p1);
}

TEST(Campaign, ErrorScenariosDigestDeterministically) {
  // A plan referencing a nonexistent segment makes those scenarios fail at
  // reset; the failure must be aggregated, not thrown, and stay invariant
  // across thread counts.
  CampaignSpec spec;
  spec.base.horizon = 1'000'000;
  FaultPlan bad;
  bad.segment_faults.push_back({"no_such_segment", 10, 20});
  spec.plans.emplace_back("bad", std::move(bad));
  spec.axes.push_back({"seed", {0, 1}});
  spec.axes.push_back({"plan", {0, 1}});
  const CampaignRunner runner = make_runner();
  CampaignOptions opt;
  opt.threads = 1;
  const CampaignResult a = runner.run(spec, opt);
  opt.threads = 4;
  const CampaignResult b = runner.run(spec, opt);
  EXPECT_EQ(a.aggregate.errors, 2u);
  EXPECT_EQ(a.aggregate.scenarios, 4u);
  EXPECT_EQ(a.aggregate.serialize(), b.aggregate.serialize());
}

TEST(Campaign, SummariesStreamInIndexOrder) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();
  std::vector<std::uint64_t> order;
  CampaignOptions opt;
  opt.threads = 4;
  opt.on_summary = [&order](const ScenarioSummary& s) {
    order.push_back(s.index);
  };
  runner.run(spec, opt);
  ASSERT_EQ(order.size(), spec.total());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Campaign, ResumeRejectsTruncatedPartFile) {
  // A kill can truncate the shard part file anywhere — mid-summary, to less
  // than the checkpoint prefix, or to zero bytes. Resume must classify each
  // as [campaign.part.truncated] instead of decoding garbage (or calling the
  // file foreign with [campaign.part.mismatch]).
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();
  const std::string ck = temp_path("tut_campaign_trunc_ck.bin");
  const std::string parts = temp_path("tut_campaign_trunc_parts.bin");
  std::filesystem::remove(ck);

  CampaignOptions opt;
  opt.threads = 2;
  opt.checkpoint_path = ck;
  opt.checkpoint_every = 3;
  opt.samples_path = parts;
  opt.stop_after = 7;
  const CampaignResult partial = runner.run(spec, opt);
  EXPECT_FALSE(partial.completed);

  opt.stop_after = 0;
  opt.resume = true;
  constexpr std::uintmax_t kHeader = 32;   // magic + fingerprint + range
  constexpr std::uintmax_t kSummary = 96;  // 12 u64 words per scenario
  const auto expect_truncated = [&](std::uintmax_t size) {
    std::filesystem::resize_file(parts, size);
    try {
      runner.run(spec, opt);
      FAIL() << "resumed from a " << size << "-byte part file";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("[campaign.part.truncated]"),
                std::string::npos)
          << e.what();
    }
  };
  expect_truncated(kHeader + kSummary + kSummary / 2);  // ends mid-summary
  expect_truncated(kHeader + kSummary);  // whole, but < checkpoint prefix
  expect_truncated(0);                   // zero-length (kill before header)

  std::filesystem::remove(ck);
  std::filesystem::remove(parts);
}

TEST(Campaign, MergeRejectsTruncatedParts) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();
  const std::string part = temp_path("tut_campaign_trunc_merge.bin");

  CampaignOptions opt;
  opt.threads = 2;
  opt.samples_path = part;
  runner.run(spec, opt);

  constexpr std::uintmax_t kHeader = 32;
  constexpr std::uintmax_t kSummary = 96;
  const auto expect_truncated = [&](std::uintmax_t size) {
    std::filesystem::resize_file(part, size);
    try {
      merge_campaign_parts({part});
      FAIL() << "merged a " << size << "-byte part file";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("[campaign.part.truncated]"),
                std::string::npos)
          << e.what();
    }
  };
  // One whole summary short of the declared range, then mid-summary, then
  // shorter than the header itself.
  expect_truncated(kHeader + (spec.total() - 1) * kSummary);
  expect_truncated(kHeader + kSummary / 2);
  expect_truncated(kHeader / 2);

  std::filesystem::remove(part);
}

TEST(Campaign, CheckpointWriteFailureLeavesNoTmpFile) {
  // A directory squatting on the checkpoint path makes the atomic
  // tmp+rename fail; the run must surface [campaign.checkpoint.io] and must
  // not leave the orphaned .tmp behind (it looks like recoverable state).
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner = make_runner();
  const std::string ck = temp_path("tut_campaign_ckdir");
  std::filesystem::remove_all(ck);
  std::filesystem::create_directory(ck);

  CampaignOptions opt;
  opt.threads = 1;
  opt.checkpoint_path = ck;
  opt.checkpoint_every = 1;
  try {
    runner.run(spec, opt);
    FAIL() << "checkpointed onto a directory";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[campaign.checkpoint.io]"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(ck + ".tmp"))
      << "failed checkpoint left its tmp file behind";
  std::filesystem::remove_all(ck);
}

TEST(Campaign, LogDigestIsNameBasedNotInternIdBased) {
  // Two logs with the same rendered text but different intern orders (the
  // reused-context situation) must digest equal.
  SimulationLog a;
  a.intern_name("zebra");  // perturb the intern table only
  a.run_id(10, a.intern_name("p1"), 5, 3);
  SimulationLog b;
  b.run_id(10, b.intern_name("p1"), 5, 3);
  EXPECT_EQ(log_digest(a), log_digest(b));
  EXPECT_EQ(log_digest(a), BatchRunner::hash_text(a.to_text()));
}

// ---------------------------------------------------------------------------
// parallel_claim: the one pool behind batches, campaigns and exploration
// ---------------------------------------------------------------------------

TEST(ParallelClaim, EveryIndexRunsExactlyOnceAtAnyWorkerCount) {
  constexpr std::uint64_t kFirst = 3;
  constexpr std::uint64_t kEnd = 1003;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> runs(kEnd);
    std::atomic<std::size_t> made{0};
    parallel_claim(kFirst, kEnd, workers, [&] {
      made.fetch_add(1);
      return [&](std::uint64_t i) {
        runs[i].fetch_add(1);
        return true;
      };
    });
    for (std::uint64_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(runs[i].load(), i < kFirst ? 0 : 1)
          << "index " << i << " at " << workers << " workers";
    }
    EXPECT_EQ(made.load(), workers) << "one worker state per worker";
  }
  // An empty range runs no index and builds no worker state.
  int made_empty = 0;
  parallel_claim(5, 5, 4, [&] {
    ++made_empty;
    return [](std::uint64_t) { return true; };
  });
  EXPECT_EQ(made_empty, 0);
}

TEST(ParallelClaim, EarlyStopStopsClaiming) {
  // One worker: exactly the indices up to the stopping one ran.
  std::vector<std::uint64_t> order;
  parallel_claim(0, 100, 1, [&] {
    return [&](std::uint64_t i) {
      order.push_back(i);
      return i != 10;
    };
  });
  ASSERT_EQ(order.size(), 11u);
  for (std::uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  // Four workers: the other workers finish the claim they hold and stop,
  // long before the 400 slow indices would have run.
  std::atomic<std::uint64_t> ran{0};
  parallel_claim(0, 400, 4, [&] {
    return [&](std::uint64_t i) {
      ran.fetch_add(1);
      if (i == 2) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return true;
    };
  });
  EXPECT_LT(ran.load(), 400u);
}

TEST(ParallelClaim, ClampNoteOnlyWhenThePoolClamps) {
  const ResourceProfile profile = ResourceProfile::constrained();  // 2
  std::vector<std::string> notes;
  EXPECT_EQ(resolve_workers(8, profile, &notes), 2u);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0],
            "[envelope.concurrency.capped] 8 workers capped at 2 by profile "
            "'constrained'");
  notes.clear();
  EXPECT_EQ(resolve_workers(2, profile, &notes), 2u);
  EXPECT_EQ(resolve_workers(8, ResourceProfile{}, &notes), 8u);
  EXPECT_TRUE(notes.empty());
  EXPECT_GE(resolve_workers(0, ResourceProfile{}), 1u);
}
