// Tests for sim::ResourceProfile — the resource-envelope contract:
//
//  - Deterministic exhaustion: every ceiling (log ring, event queue, XML
//    arena, keep_logs budget, reorder depth, concurrency) rejects with a
//    classified [envelope.*] tag, the sim time of the hit, and no partial
//    mutation of the capped structure.
//  - Semantic lock: any run that fits its envelope is byte-identical to the
//    unbounded run — logs, fault replays, campaign digests — under every
//    profile class, 1/2/4 threads, and both behaviour backends.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "codegen/native.hpp"
#include "intern/fnv.hpp"
#include "log_records.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/log.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"
#include "xml/arena.hpp"

#define REQUIRE_COMPILER()                            \
  if (codegen::NativeImage::find_compiler().empty()) \
  GTEST_SKIP() << "no C++ compiler on this host"

using namespace tut;
using namespace tut::sim;

namespace {

const tutmac::System& shared_system() {
  static tutmac::System sys = [] {
    tutmac::Options opt;
    opt.horizon = 2'000'000;
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

std::shared_ptr<const codegen::NativeImage> shared_native() {
  static auto image = codegen::NativeImage::build(shared_image());
  return image;
}

void setup_scenario(Simulation& sim, const Scenario& sc) {
  const tutmac::System& sys = shared_system();
  tutmac::Options o = sys.options;
  o.horizon = sim.config().horizon;
  o.slot_period = static_cast<Time>(
      sc.param("slotPeriod", static_cast<long>(o.slot_period)));
  sys.inject_workload(sim, o);
}

/// 12-scenario sweep with a fault plan, same shape as the campaign suite's.
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "envelope-test";
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

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Config fault_config() {
  Config config;
  config.horizon = 2'000'000;
  config.faults.segment_faults.push_back({"hibisegment1", 100'000, 900'000});
  config.faults.bit_errors.push_back({"hibisegment2", 200'000});
  config.faults.watchdog_timeout = 500'000;
  config.faults.seed = 7;
  return config;
}

/// Records of an unbounded reference run with a fault plan (drops+retries
/// exercise every log record kind the envelope must preserve).
std::string reference_log_text() {
  static const std::string text = [] {
    Simulation sim(shared_image(), fault_config());
    setup_scenario(sim, Scenario{});
    sim.run();
    return sim.log().to_text();
  }();
  return text;
}

}  // namespace

// ---------------------------------------------------------------------------
// Profile classes and the XML loader
// ---------------------------------------------------------------------------

TEST(ResourceProfile, NamedClassesResolveAndUnknownIsTagged) {
  EXPECT_EQ(ResourceProfile::by_name("unbounded").log_records, 0u);
  const ResourceProfile c = ResourceProfile::constrained();
  EXPECT_EQ(c.name, "constrained");
  EXPECT_NE(c.log_records, 0u);
  EXPECT_NE(c.event_queue, 0u);
  EXPECT_NE(c.arena_bytes, 0u);
  EXPECT_EQ(c.concurrency, 2u);
  EXPECT_LT(c.log_records, ResourceProfile::balanced().log_records);
  EXPECT_LT(ResourceProfile::balanced().log_records,
            ResourceProfile::server().log_records);
  try {
    ResourceProfile::by_name("tiny");
    FAIL() << "unknown class accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[profile.class.unknown]"),
              std::string::npos)
        << e.what();
  }
}

TEST(ResourceProfile, CacheBytesCapResolvesAndParses) {
  // The serve daemon's model-cache ceiling is a first-class cap: every
  // class carries one, and XML envelopes may override it by name.
  EXPECT_EQ(ResourceProfile::unbounded().cache_bytes, 0u);
  EXPECT_EQ(ResourceProfile::constrained().cache_bytes, 16u << 20);
  EXPECT_EQ(ResourceProfile::balanced().cache_bytes, 256u << 20);
  EXPECT_EQ(ResourceProfile::server().cache_bytes, 1u << 30);

  const ResourceProfile p = ResourceProfile::from_xml_text(
      "<tut:profile class=\"balanced\">\n"
      "  <cap name=\"cacheBytes\" value=\"131072\"/>\n"
      "</tut:profile>\n");
  EXPECT_EQ(p.cache_bytes, 131'072u);
  EXPECT_NE(p.to_text().find("cache 131072 bytes"), std::string::npos);
}

TEST(ResourceProfile, XmlLoaderSeedsFromClassAndOverridesCaps) {
  const ResourceProfile p = ResourceProfile::from_xml_text(
      "<tut:profile class=\"constrained\" spill=\"ring.spill\">\n"
      "  <cap name=\"logRecords\" value=\"4096\"/>\n"
      "  <cap name=\"reorderDepth\" value=\"8\"/>\n"
      "</tut:profile>\n");
  EXPECT_EQ(p.name, "constrained");
  EXPECT_EQ(p.log_records, 4096u);
  EXPECT_EQ(p.reorder_depth, 8u);
  EXPECT_EQ(p.log_spill_path, "ring.spill");
  // Un-overridden caps keep the class values.
  EXPECT_EQ(p.event_queue, ResourceProfile::constrained().event_queue);

  const ResourceProfile custom = ResourceProfile::from_xml_text(
      "<tut:profile><cap name=\"eventQueue\" value=\"32\"/></tut:profile>");
  EXPECT_EQ(custom.name, "custom");
  EXPECT_EQ(custom.event_queue, 32u);
  EXPECT_EQ(custom.log_records, 0u);
}

TEST(ResourceProfile, XmlLoaderTagsDefects) {
  const auto expect_tag = [](std::string_view text, std::string_view tag) {
    try {
      ResourceProfile::from_xml_text(text);
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(tag), std::string::npos)
          << e.what();
    }
  };
  expect_tag("<tut:campaign/>", "[profile.element.unknown]");
  expect_tag("<tut:profile class=\"huge\"/>", "[profile.class.unknown]");
  expect_tag("<tut:profile><knob name=\"x\" value=\"1\"/></tut:profile>",
             "[profile.element.unknown]");
  expect_tag("<tut:profile><cap name=\"ringSize\" value=\"1\"/></tut:profile>",
             "[profile.cap.unknown]");
  expect_tag("<tut:profile><cap name=\"logRecords\" value=\"lots\"/>"
             "</tut:profile>",
             "[profile.cap.malformed]");
  expect_tag("<tut:profile><cap value=\"1\"/></tut:profile>",
             "[profile.cap.malformed]");
}

// ---------------------------------------------------------------------------
// Log ring: overflow, spill, semantic lock
// ---------------------------------------------------------------------------

TEST(LogEnvelope, OverflowThrowsClassifiedWithSimTimeAndNoPartialMutation) {
  SimulationLog log;
  const test::Ids id{log};
  log.set_envelope(3);
  log.run_id(10, id("p1"), 1, 5);
  log.send_id(20, id("p1"), id("p2"), id("sig"), 8);
  log.drop_id(30, id("p2"), id("sig"));
  const std::string before = log.to_text();
  try {
    log.retry_id(40, id("p2"), id("sig"), 1);
    FAIL() << "append beyond the envelope succeeded";
  } catch (const EnvelopeError& e) {
    EXPECT_EQ(e.tag(), "envelope.log.overflow");
    EXPECT_EQ(e.at(), 40u);
    EXPECT_NE(std::string(e.what()).find("[envelope.log.overflow]"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("t=40"), std::string::npos);
  }
  // No partial mutation: exactly the envelope's worth of records remains,
  // rendered byte-identically, and the rejected retry never counted.
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.to_text(), before);
  EXPECT_EQ(log.retry_count(), 0u);
  EXPECT_EQ(log.drop_count(), 1u);
}

TEST(LogEnvelope, SpillToDiskKeepsTextByteIdenticalAndCountersExact) {
  const std::string spill = temp_path("tut_log_envelope.spill");
  std::filesystem::remove(spill);

  SimulationLog unbounded;
  SimulationLog ring;
  ring.set_envelope(8, spill);
  for (SimulationLog* log : {&unbounded, &ring}) {
    const intern::Id proc = log->intern_name("proc");
    const intern::Id sig = log->intern_name("sig");
    for (int i = 0; i < 100; ++i) {
      const Time t = static_cast<Time>(10 * i);
      log->run_id(t, proc, i, 3);
      if (i % 7 == 0) log->drop_id(t + 1, proc, sig);
      if (i % 11 == 0) log->retry_id(t + 2, proc, sig, i);
    }
  }
  EXPECT_TRUE(std::filesystem::exists(spill));
  EXPECT_GT(ring.spilled(), 0u);
  EXPECT_LE(ring.compact_records().size(), 8u);
  // Semantic lock: the serialized log (and so every digest over it) is
  // byte-identical to the unbounded run's.
  EXPECT_EQ(ring.to_text(), unbounded.to_text());
  EXPECT_EQ(log_digest(ring), log_digest(unbounded));
  EXPECT_EQ(ring.size(), unbounded.size());
  // Running counters cover spilled records.
  EXPECT_EQ(ring.drop_count(), unbounded.drop_count());
  EXPECT_EQ(ring.retry_count(), unbounded.retry_count());
  EXPECT_EQ(ring.last_time(), unbounded.last_time());

  ring.clear();
  EXPECT_FALSE(std::filesystem::exists(spill))
      << "clear() must remove the spill file";
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.drop_count(), 0u);
}

TEST(LogEnvelope, SpillFileLivesAsLongAsItsLog) {
  const std::string spill = temp_path("tut_log_owner.spill");
  std::filesystem::remove(spill);
  std::string text;
  {
    std::optional<SimulationLog> moved;
    {
      SimulationLog ring;
      ring.set_envelope(8, spill);
      const intern::Id proc = ring.intern_name("proc");
      for (int i = 0; i < 100; ++i) {
        ring.run_id(static_cast<Time>(10 * i), proc, i, 3);
      }
      ASSERT_GT(ring.spilled(), 0u);
      ASSERT_TRUE(std::filesystem::exists(spill));
      text = ring.to_text();
      moved.emplace(std::move(ring));
    }
    // The moved-from log died; the file belongs to the moved-to one.
    EXPECT_TRUE(std::filesystem::exists(spill));
    EXPECT_EQ(moved->to_text(), text);
  }
  EXPECT_FALSE(std::filesystem::exists(spill))
      << "a log must remove its spill file when it dies";
}

TEST(LogEnvelope, FullSimulationUnderSpillIsByteIdentical) {
  const std::string spill = temp_path("tut_sim_envelope.spill");
  std::filesystem::remove(spill);
  Config config = fault_config();
  config.envelope.log_records = 16;
  config.envelope.log_spill_path = spill;
  Simulation sim(shared_image(), config);
  setup_scenario(sim, Scenario{});
  sim.run();
  EXPECT_EQ(sim.log().to_text(), reference_log_text());
  EXPECT_GT(sim.log().spilled(), 0u);
  std::filesystem::remove(spill);
}

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

TEST(QueueEnvelope, EventQueueOverflowThrowsBeforeMutation) {
  EventQueue q;
  q.set_capacity(3);
  q.schedule_at(5, EventRec{EventRec::Kind::Inject, 0, 0, 0});
  q.schedule_at(6, EventRec{EventRec::Kind::Inject, 1, 0, 0});
  q.schedule_at(0, EventRec{EventRec::Kind::Inject, 2, 0, 0});  // bucket
  try {
    q.schedule_at(7, EventRec{EventRec::Kind::Inject, 3, 0, 0});
    FAIL() << "schedule beyond the envelope succeeded";
  } catch (const EnvelopeError& e) {
    EXPECT_EQ(e.tag(), "envelope.queue.full");
    EXPECT_EQ(e.at(), 0u);  // queue time, not event time
    EXPECT_NE(std::string(e.what()).find("[envelope.queue.full]"),
              std::string::npos);
  }
  EXPECT_EQ(q.pending(), 3u);
  // Draining frees envelope room again.
  EventRec ev;
  ASSERT_TRUE(q.poll(100, ev));
  q.schedule_at(q.now() + 1, EventRec{EventRec::Kind::Inject, 4, 0, 0});
  EXPECT_EQ(q.pending(), 3u);
}

TEST(QueueEnvelope, KernelSharesTheContract) {
  Kernel k;
  k.set_capacity(2);
  k.schedule_at(1, [] {});
  k.schedule_at(2, [] {});
  try {
    k.schedule_at(3, [] {});
    FAIL() << "schedule beyond the envelope succeeded";
  } catch (const EnvelopeError& e) {
    EXPECT_EQ(e.tag(), "envelope.queue.full");
  }
  EXPECT_EQ(k.pending(), 2u);
}

TEST(QueueEnvelope, SimulationRejectsDeterministically) {
  // A queue far too small for the workload: the run must die on the same
  // classified error — same message, same sim time — every time and under
  // both backends (the envelope lives in the sim layer, not the executor).
  Config config = fault_config();
  config.envelope.event_queue = 4;
  std::string first;
  for (int round = 0; round < 2; ++round) {
    try {
      Simulation sim(shared_image(), config);
      setup_scenario(sim, Scenario{});
      sim.run();
      FAIL() << "run fit a 4-event envelope";
    } catch (const EnvelopeError& e) {
      EXPECT_EQ(e.tag(), "envelope.queue.full");
      if (round == 0) {
        first = e.what();
      } else {
        EXPECT_EQ(std::string(e.what()), first);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// XML arena
// ---------------------------------------------------------------------------

TEST(ArenaEnvelope, ExhaustionThrowsTaggedAndKeepsPriorAllocations) {
  xml::Arena arena(256, 1024);
  char* first = arena.allocate_bytes(100);
  std::memset(first, 'x', 100);
  try {
    for (int i = 0; i < 64; ++i) arena.allocate_bytes(64);
    FAIL() << "arena grew past its envelope";
  } catch (const xml::ArenaLimitError& e) {
    EXPECT_NE(std::string(e.what()).find("[envelope.arena.exhausted]"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LE(arena.bytes_reserved(), 1024u);
  EXPECT_EQ(first[0], 'x');  // prior allocations stay valid
  EXPECT_EQ(first[99], 'x');
}

TEST(ArenaEnvelope, CampaignSpecParseRespectsTheArenaCeiling) {
  // The pull parser reads plain runs zero-copy; only entity-escaped runs
  // are decoded into the arena. A big escaped axis list is therefore what
  // an arena envelope actually bounds.
  std::string xml = "<tut:campaign name=\"big\"><axis name=\"seed\" values=\"";
  for (int i = 0; i < 4000; ++i) xml += std::to_string(i) + "&#32;";
  xml += "\"/></tut:campaign>";
  // Unbounded parse succeeds; a 2 KiB arena ceiling rejects it classified.
  EXPECT_EQ(CampaignSpec::from_xml_text(xml).total(), 4000u);
  try {
    CampaignSpec::from_xml_text(xml, {}, 2048);
    FAIL() << "parse fit a 2 KiB arena";
  } catch (const xml::ArenaLimitError& e) {
    EXPECT_NE(std::string(e.what()).find("[envelope.arena.exhausted]"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Batch runner
// ---------------------------------------------------------------------------

TEST(BatchEnvelope, KeepLogBudgetRejectsClassifiedWithoutPoisoningOthers) {
  std::vector<BatchScenario> scenarios(3);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].name = "s" + std::to_string(i);
    scenarios[i].config.horizon =
        i == 1 ? 2'000'000 : 200'000;  // scenario 1 renders a larger log
    scenarios[i].setup = [](Simulation& sim) {
      setup_scenario(sim, Scenario{});
    };
  }
  // Pick a budget between the short and the long scenarios' rendered sizes.
  BatchOptions probe;
  probe.threads = 1;
  probe.keep_logs = true;
  const auto plain = BatchRunner(shared_image(), probe).run(scenarios);
  ASSERT_EQ(plain[0].error, "");
  ASSERT_EQ(plain[1].error, "");
  const std::size_t small = plain[0].log_text.size();
  const std::size_t large = plain[1].log_text.size();
  ASSERT_LT(small, large);

  BatchOptions options = probe;
  options.profile.keep_log_bytes = (small + large) / 2;
  const auto results = BatchRunner(shared_image(), options).run(scenarios);
  EXPECT_EQ(results[0].error, "");
  EXPECT_EQ(results[0].log_hash, plain[0].log_hash);
  EXPECT_NE(results[1].error.find("[envelope.log.overflow]"),
            std::string::npos)
      << results[1].error;
  EXPECT_EQ(results[1].rejection, RejectionCode::Log);
  EXPECT_EQ(results[1].log_text, "");  // no partial retention
  EXPECT_EQ(results[2].error, "");
  EXPECT_EQ(results[2].log_hash, plain[2].log_hash);
}

TEST(BatchEnvelope, ConcurrencyCapClampsWorkers) {
  BatchOptions options;
  options.threads = 8;
  options.profile.concurrency = 2;
  EXPECT_EQ(BatchRunner(shared_image(), options).threads(), 2u);

  // The clamp is noted exactly as a campaign notes it; no clamp, no note.
  options.profile = ResourceProfile::constrained();  // concurrency = 2
  const BatchRunner runner(shared_image(), options);
  CampaignOptions campaign;
  campaign.threads = 8;
  campaign.profile = options.profile;
  const std::vector<std::string> notes =
      CampaignRunner({shared_image()}, setup_scenario)
          .run(small_spec(), campaign)
          .notes;
  ASSERT_EQ(runner.notes().size(), 1u);
  EXPECT_NE(runner.notes()[0].find("[envelope.concurrency.capped]"),
            std::string::npos)
      << runner.notes()[0];
  EXPECT_EQ(runner.notes(), notes);
  options.threads = 2;
  EXPECT_TRUE(BatchRunner(shared_image(), options).notes().empty());
}

// ---------------------------------------------------------------------------
// Campaign: semantic lock
// ---------------------------------------------------------------------------

TEST(CampaignEnvelope, DigestsByteIdenticalAcrossProfilesAndThreadCounts) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner({shared_image()}, setup_scenario);
  const std::string reference =
      runner.run(spec, CampaignOptions{}).aggregate.serialize();
  for (const ResourceProfile& profile :
       {ResourceProfile::constrained(), ResourceProfile::balanced(),
        ResourceProfile::server()}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      CampaignOptions options;
      options.threads = threads;
      options.profile = profile;
      const CampaignResult result = runner.run(spec, options);
      EXPECT_EQ(result.aggregate.serialize(), reference)
          << profile.name << " x " << threads << " threads";
      EXPECT_EQ(result.aggregate.rejected, 0u);
    }
  }
}

TEST(CampaignEnvelope, NativeBackendDigestsMatchUnderEveryProfile) {
  REQUIRE_COMPILER();
  const CampaignSpec spec = small_spec();
  const CampaignRunner interp({shared_image()}, setup_scenario);
  const std::string reference =
      interp.run(spec, CampaignOptions{}).aggregate.serialize();
  const CampaignRunner native(
      std::vector<std::shared_ptr<const BackendImage>>{shared_native()},
      setup_scenario);
  for (const ResourceProfile& profile :
       {ResourceProfile::unbounded(), ResourceProfile::constrained()}) {
    CampaignOptions options;
    options.threads = 2;
    options.profile = profile;
    EXPECT_EQ(native.run(spec, options).aggregate.serialize(), reference)
        << profile.name;
  }
}

TEST(CampaignEnvelope, ReorderDepthBoundsClaimsAndPreservesDigests) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner({shared_image()}, setup_scenario);
  const std::string reference =
      runner.run(spec, CampaignOptions{}).aggregate.serialize();
  for (const std::uint64_t depth : {1u, 2u, 7u}) {
    CampaignOptions options;
    options.threads = 4;
    options.profile.reorder_depth = depth;
    EXPECT_EQ(runner.run(spec, options).aggregate.serialize(), reference)
        << "depth " << depth;
  }
}

TEST(CampaignEnvelope, ConcurrencyClampIsNotedAndPreservesDigests) {
  const CampaignSpec spec = small_spec();
  const CampaignRunner runner({shared_image()}, setup_scenario);
  const std::string reference =
      runner.run(spec, CampaignOptions{}).aggregate.serialize();
  CampaignOptions options;
  options.threads = 4;
  options.profile = ResourceProfile::constrained();  // concurrency = 2
  const CampaignResult result = runner.run(spec, options);
  EXPECT_EQ(result.aggregate.serialize(), reference);
  ASSERT_EQ(result.notes.size(), 1u);
  EXPECT_NE(result.notes[0].find("[envelope.concurrency.capped]"),
            std::string::npos)
      << result.notes[0];
  // No clamp, no note.
  CampaignOptions plain;
  plain.threads = 2;
  plain.profile = ResourceProfile::constrained();
  EXPECT_TRUE(runner.run(spec, plain).notes.empty());
}

// ---------------------------------------------------------------------------
// Campaign: deterministic exhaustion
// ---------------------------------------------------------------------------

namespace {

/// Sweep whose horizon axis splits the scenarios into small and large logs;
/// a log_records cap between the two rejects exactly the long-horizon half.
CampaignSpec split_spec() {
  CampaignSpec spec;
  spec.name = "envelope-split";
  spec.base_seed = 42;
  spec.axes.push_back({"seed", {0, 1, 2}});
  spec.axes.push_back({"horizon", {200'000, 2'000'000}});
  return spec;
}

/// Log record counts of one short- and one long-horizon scenario.
std::pair<std::size_t, std::size_t> split_record_counts() {
  std::size_t counts[2];
  for (int i = 0; i < 2; ++i) {
    const CampaignSpec spec = split_spec();
    const Scenario sc = spec.scenario(static_cast<std::uint64_t>(i));
    Simulation sim(shared_image(), sc.config);
    setup_scenario(sim, sc);
    sim.run();
    counts[i] = sim.log().size();
  }
  return {counts[0], counts[1]};
}

}  // namespace

TEST(CampaignEnvelope, RejectionIsCountedClassifiedAndIsolated) {
  const CampaignSpec spec = split_spec();
  const auto [small, large] = split_record_counts();
  ASSERT_LT(small, large);

  const CampaignRunner runner({shared_image()}, setup_scenario);
  // Unbounded reference summaries, indexed by scenario.
  std::vector<ScenarioSummary> reference(spec.total());
  CampaignOptions plain;
  plain.on_summary = [&](const ScenarioSummary& s) { reference[s.index] = s; };
  runner.run(spec, plain);

  CampaignOptions options;
  options.profile.log_records = (small + large) / 2;
  std::vector<ScenarioSummary> summaries(spec.total());
  options.on_summary = [&](const ScenarioSummary& s) {
    summaries[s.index] = s;
  };
  const CampaignResult result = runner.run(spec, options);

  // Exactly the long-horizon half (odd indices: horizon is the last, fastest
  // axis) is rejected; each rejection is classified and fully zeroed.
  EXPECT_EQ(result.aggregate.rejected, 3u);
  EXPECT_EQ(result.aggregate.rejected_log, 3u);
  EXPECT_EQ(result.aggregate.rejected_queue, 0u);
  EXPECT_EQ(result.aggregate.errors, 3u);
  for (std::uint64_t i = 0; i < spec.total(); ++i) {
    if (i % 2 == 0) {
      // In-envelope scenarios are untouched by the neighbours' exhaustion.
      EXPECT_EQ(summaries[i].digest, reference[i].digest) << "scenario " << i;
      EXPECT_EQ(summaries[i].error, 0u);
      EXPECT_EQ(summaries[i].rejection, 0u);
    } else {
      EXPECT_NE(summaries[i].error, 0u) << "scenario " << i;
      EXPECT_EQ(summaries[i].rejection,
                static_cast<std::uint64_t>(RejectionCode::Log));
      EXPECT_EQ(summaries[i].events, 0u);  // no partial results
      EXPECT_EQ(summaries[i].digest, 0u);
    }
  }
  // The in-envelope aggregate numbers come from the surviving half only.
  std::uint64_t expected_events = 0;
  for (std::uint64_t i = 0; i < spec.total(); i += 2) {
    expected_events += reference[i].events;
  }
  EXPECT_EQ(result.aggregate.events, expected_events);

  // Deterministic exhaustion: identical aggregates on every rerun, thread
  // count, and backend — the rejection hashes like any other outcome.
  for (const std::size_t threads : {1u, 4u}) {
    CampaignOptions again;
    again.threads = threads;
    again.profile = options.profile;
    EXPECT_EQ(runner.run(spec, again).aggregate.serialize(),
              result.aggregate.serialize())
        << threads << " threads";
  }
}

TEST(Resource, BatchAndCampaignClassifyEnvelopeMissAlike) {
  // One long-horizon TUTMAC scenario under a log cap it overflows, run once
  // as a batch and once as a campaign: both classify the miss the same way.
  const CampaignSpec spec = split_spec();
  const auto [small, large] = split_record_counts();
  ResourceProfile profile;
  profile.log_records = (small + large) / 2;

  const Scenario sc = spec.scenario(1);  // long horizon
  std::vector<BatchScenario> batch(1);
  batch[0].name = "long";
  batch[0].config = sc.config;
  batch[0].setup = [&sc](Simulation& sim) { setup_scenario(sim, sc); };
  BatchOptions batch_options;
  batch_options.threads = 1;
  batch_options.profile = profile;
  const BatchResult row =
      BatchRunner(shared_image(), batch_options).run(batch).at(0);

  CampaignOptions options;
  options.profile = profile;
  std::optional<ScenarioSummary> summary;
  options.on_summary = [&](const ScenarioSummary& s) {
    if (s.index == 1) summary = s;
  };
  CampaignRunner({shared_image()}, setup_scenario).run(spec, options);
  ASSERT_TRUE(summary.has_value());

  EXPECT_NE(row.error.find("[envelope.log.overflow]"), std::string::npos)
      << row.error;
  EXPECT_EQ(row.rejection, RejectionCode::Log);
  EXPECT_EQ(static_cast<std::uint64_t>(row.rejection), summary->rejection);
  intern::Fnv error_hash;
  error_hash.str(row.error);
  EXPECT_EQ(error_hash.h, summary->error);
  EXPECT_EQ(row.events, 0u);
  EXPECT_EQ(summary->events, 0u);
}

TEST(CampaignEnvelope, RejectionsMatchAcrossBackends) {
  REQUIRE_COMPILER();
  const CampaignSpec spec = split_spec();
  const auto [small, large] = split_record_counts();
  CampaignOptions options;
  options.profile.log_records = (small + large) / 2;
  options.threads = 2;
  const CampaignRunner interp({shared_image()}, setup_scenario);
  const CampaignRunner native(
      std::vector<std::shared_ptr<const BackendImage>>{shared_native()},
      setup_scenario);
  const CampaignResult a = interp.run(spec, options);
  const CampaignResult b = native.run(spec, options);
  ASSERT_GT(a.aggregate.rejected, 0u);
  // The EnvelopeError is raised in the sim layer with an identical message
  // under both executors, so even rejection digests agree byte for byte.
  EXPECT_EQ(a.aggregate.serialize(), b.aggregate.serialize());
}

TEST(CampaignEnvelope, ProfileCapsEnterTheArtifactFingerprint) {
  const CampaignSpec spec = small_spec();
  const std::string ckpt = temp_path("tut_envelope_fp.ckpt");
  std::filesystem::remove(ckpt);
  const CampaignRunner runner({shared_image()}, setup_scenario);
  CampaignOptions options;
  options.checkpoint_path = ckpt;
  options.profile = ResourceProfile::server();
  runner.run(spec, options);
  // Resuming the same campaign under a different envelope must be rejected:
  // its caps could change which scenarios complete.
  CampaignOptions other;
  other.checkpoint_path = ckpt;
  other.resume = true;
  other.profile = ResourceProfile::constrained();
  try {
    runner.run(spec, other);
    FAIL() << "resume across envelopes accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[campaign.checkpoint.mismatch]"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(ckpt);
}
