// Tests for the fault-injection subsystem: the FaultPlan data model and XML
// interchange, the counter-based FaultRng, and the co-simulator's
// degraded-mode semantics (failover migration, bounded retry, signal fault
// windows, watchdog resets) plus the profiler's reliability section.
#include <gtest/gtest.h>

#include <algorithm>

#include "fixtures.hpp"
#include "log_records.hpp"
#include "profiler/profiler.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;
using namespace tut::sim;
using test::NamedRecord;

namespace {

/// Records of one kind, in log order.
std::vector<NamedRecord> records_of(const SimulationLog& log,
                                          LogRecord::Kind kind) {
  std::vector<NamedRecord> out;
  for (const NamedRecord& r : test::named_records(log)) {
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

/// Runs MiniSystem to `horizon` under `plan`, without environment traffic.
std::unique_ptr<Simulation> run_mini(const test::MiniSystem& sys,
                                     const FaultPlan& plan, Time horizon) {
  mapping::SystemView view(sys.model);
  Config config;
  config.horizon = horizon;
  config.faults = plan;
  auto simulation = std::make_unique<Simulation>(view, config);
  simulation->run();
  return simulation;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultRng
// ---------------------------------------------------------------------------

TEST(FaultRng, DrawIsAPureFunction) {
  const auto a = FaultRng::draw(1, 42, 0);
  EXPECT_EQ(a, FaultRng::draw(1, 42, 0));
  EXPECT_NE(a, FaultRng::draw(1, 42, 1));
  EXPECT_NE(a, FaultRng::draw(1, 43, 0));
  EXPECT_NE(a, FaultRng::draw(2, 42, 0));
}

TEST(FaultRng, KeyIsStablePerName) {
  EXPECT_EQ(FaultRng::key("seg1"), FaultRng::key("seg1"));
  EXPECT_NE(FaultRng::key("seg1"), FaultRng::key("seg2"));
}

TEST(FaultRng, DrawsAreRoughlyUniform) {
  // ppm thresholding needs draws spread over the 64-bit range; a crude
  // bucket check catches catastrophic mixing failures.
  const std::uint64_t key = FaultRng::key("segment");
  int low = 0;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    if (FaultRng::draw(7, key, s) % 1'000'000 < 500'000) ++low;
  }
  EXPECT_GT(low, 400);
  EXPECT_LT(low, 600);
}

// ---------------------------------------------------------------------------
// FaultPlan validation and XML interchange
// ---------------------------------------------------------------------------

TEST(FaultPlan, EmptyPlanIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.validate().empty());
  plan.watchdog_timeout = 1;
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ValidateRejectsMalformedWindows) {
  FaultPlan plan;
  plan.pe_faults.push_back({"cpu", 100, 50});           // end <= start
  plan.segment_faults.push_back({"", 0, 0});            // no name
  plan.bit_errors.push_back({"seg", 2'000'000});        // > 1e6 ppm
  plan.signal_faults.push_back(
      {SignalFault::Kind::Stuck, "p", "", 10, 0});      // stuck needs window
  const auto defects = plan.validate();
  EXPECT_EQ(defects.size(), 4u);
}

TEST(FaultPlan, XmlRoundTripIsByteStable) {
  FaultPlan plan;
  plan.seed = 99;
  plan.watchdog_timeout = 5'000;
  plan.max_retries = 2;
  plan.retry_backoff = 150;
  plan.pe_faults.push_back({"cpu2", 1'000, 9'000});
  plan.pe_faults.push_back({"acc", 2'000, 0});
  plan.segment_faults.push_back({"seg1", 0, 500});
  plan.bit_errors.push_back({"bridge", 1'234});
  plan.signal_faults.push_back({SignalFault::Kind::Stuck, "dsp2", "Req", 5, 25});
  plan.signal_faults.push_back({SignalFault::Kind::Lost, "ctrl", "", 0, 0});

  const std::string text = plan.to_xml_text();
  const FaultPlan parsed = FaultPlan::from_xml_text(text);
  EXPECT_EQ(parsed.to_xml_text(), text);
  EXPECT_EQ(parsed.seed, 99u);
  EXPECT_EQ(parsed.watchdog_timeout, 5'000u);
  EXPECT_EQ(parsed.max_retries, 2);
  EXPECT_EQ(parsed.retry_backoff, 150u);
  ASSERT_EQ(parsed.pe_faults.size(), 2u);
  EXPECT_EQ(parsed.pe_faults[1].end, 0u);
  ASSERT_EQ(parsed.signal_faults.size(), 2u);
  EXPECT_EQ(parsed.signal_faults[0].kind, SignalFault::Kind::Stuck);
  EXPECT_EQ(parsed.signal_faults[1].signal, "");
}

TEST(FaultPlan, DefectMessagesCarryStableRuleTags) {
  // The loader's error strings are machine-matchable: each defect carries a
  // "[rule]" tag that callers (CLI, analysis layer) key on.
  const auto message_of = [](std::string_view text) -> std::string {
    try {
      FaultPlan::from_xml_text(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  // Negative time into an unsigned field is its own story, not generic
  // number garbage.
  const std::string neg = message_of(
      "<tut:faultplan><peFault component=\"c\" start=\"-5\"/>"
      "</tut:faultplan>");
  EXPECT_NE(neg.find("[fault.time.negative]"), std::string::npos) << neg;

  const std::string garbage = message_of(
      "<tut:faultplan><peFault component=\"c\" start=\"soon\"/>"
      "</tut:faultplan>");
  EXPECT_NE(garbage.find("[fault.attr.malformed]"), std::string::npos)
      << garbage;

  const std::string order = message_of(
      "<tut:faultplan><peFault component=\"c\" start=\"9\" end=\"3\"/>"
      "</tut:faultplan>");
  EXPECT_NE(order.find("[fault.window.order]"), std::string::npos) << order;

  const std::string rate = message_of(
      "<tut:faultplan><bitError segment=\"s\" ratePpm=\"2000000\"/>"
      "</tut:faultplan>");
  EXPECT_NE(rate.find("[fault.biterror.rate]"), std::string::npos) << rate;
}

TEST(FaultPlan, ParserRejectsBadDocuments) {
  EXPECT_THROW(FaultPlan::from_xml_text("<wrong/>"), std::invalid_argument);
  EXPECT_THROW(
      FaultPlan::from_xml_text("<tut:faultplan><bogus/></tut:faultplan>"),
      std::invalid_argument);
  EXPECT_THROW(FaultPlan::from_xml_text(
                   "<tut:faultplan><signalFault process=\"p\" kind=\"weird\"/>"
                   "</tut:faultplan>"),
               std::invalid_argument);
  // Structurally valid XML carrying an invalid plan fails validation.
  EXPECT_THROW(FaultPlan::from_xml_text(
                   "<tut:faultplan><peFault component=\"c\" start=\"9\" "
                   "end=\"3\"/></tut:faultplan>"),
               std::invalid_argument);
}

TEST(FaultPlan, UnknownComponentNamesAreCtorDefects) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);
  Config config;
  config.faults.pe_faults.push_back({"nope", 0, 0});
  config.faults.segment_faults.push_back({"missing_seg", 0, 0});
  try {
    Simulation simulation(view, config);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 defects"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'nope'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'missing_seg'"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// PE fail/recover and failover migration
// ---------------------------------------------------------------------------

TEST(PeFault, ProcessesMigrateToSurvivorAndBack) {
  test::MiniSystem sys;
  FaultPlan plan;
  plan.pe_faults.push_back({"cpu2", 10'000, 100'000});
  const auto simulation = run_mini(sys, plan, 150'000);
  const auto& log = simulation->log();

  const auto faults = records_of(log, LogRecord::Kind::Fault);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].process, "cpu2");
  EXPECT_EQ(faults[0].time, 10'000u);
  const auto clears = records_of(log, LogRecord::Kind::Clear);
  ASSERT_EQ(clears.size(), 1u);
  EXPECT_EQ(clears[0].time, 100'000u);

  // dsp1 and dsp2 live on cpu2; the only compatible survivor is cpu1 (the
  // accelerator is excluded for software processes). Both migrate out at
  // 10'000 and home again at 100'000.
  const auto moves = records_of(log, LogRecord::Kind::Migrate);
  ASSERT_EQ(moves.size(), 4u);
  for (const auto& m : {moves[0], moves[1]}) {
    EXPECT_EQ(m.time, 10'000u);
    EXPECT_EQ(m.peer, "cpu2");
    EXPECT_EQ(m.signal, "cpu1");
    EXPECT_TRUE(m.process == "dsp1" || m.process == "dsp2");
  }
  for (const auto& m : {moves[2], moves[3]}) {
    EXPECT_EQ(m.time, 100'000u);
    EXPECT_EQ(m.peer, "cpu1");
    EXPECT_EQ(m.signal, "cpu2");
  }

  // dsp1 keeps executing during the outage — on cpu1.
  bool dsp1_ran_mid_fault = false;
  for (const NamedRecord& r : records_of(log, LogRecord::Kind::Run)) {
    if (r.process == "dsp1" && r.time > 10'000 && r.time < 100'000) {
      dsp1_ran_mid_fault = true;
    }
  }
  EXPECT_TRUE(dsp1_ran_mid_fault);
}

TEST(PeFault, HardwareProcessWithoutSurvivorStallsUntilRecovery) {
  test::MiniSystem sys;
  FaultPlan plan;
  plan.pe_faults.push_back({"acc", 10'000, 80'000});
  const auto simulation = run_mini(sys, plan, 150'000);
  const auto& log = simulation->log();

  // crc is the only hardware process and acc the only accelerator: nothing
  // to migrate to, so no M records, and crc executes nothing while down.
  EXPECT_TRUE(records_of(log, LogRecord::Kind::Migrate).empty());
  bool ran_mid_fault = false;
  bool ran_after_recovery = false;
  for (const NamedRecord& r : records_of(log, LogRecord::Kind::Run)) {
    if (r.process != "crc") continue;
    if (r.time >= 10'000 && r.time < 80'000) ran_mid_fault = true;
    if (r.time >= 80'000) ran_after_recovery = true;
  }
  EXPECT_FALSE(ran_mid_fault);
  EXPECT_TRUE(ran_after_recovery);
}

// ---------------------------------------------------------------------------
// Segment faults, retry/backoff and bit errors
// ---------------------------------------------------------------------------

TEST(SegmentFault, ShortOutageIsAbsorbedByRetries) {
  test::MiniSystem sys;
  FaultPlan plan;
  plan.segment_faults.push_back({"seg1", 0, 1'200});
  const auto simulation = run_mini(sys, plan, 30'000);
  const auto& log = simulation->log();

  EXPECT_FALSE(records_of(log, LogRecord::Kind::Retry).empty());
  EXPECT_TRUE(records_of(log, LogRecord::Kind::Drop).empty());
  bool delivered = false;
  for (const NamedRecord& r : records_of(log, LogRecord::Kind::Receive)) {
    if (r.process == "dsp1" && r.signal == "Req") delivered = true;
  }
  EXPECT_TRUE(delivered);
}

TEST(SegmentFault, LongOutageExhaustsRetriesAndDrops) {
  test::MiniSystem sys;
  FaultPlan plan;
  plan.segment_faults.push_back({"seg1", 0, 20'000});
  const auto simulation = run_mini(sys, plan, 40'000);
  const auto& log = simulation->log();

  // Attempts escalate 1..max_retries, then the transfer drops at the
  // destination.
  const auto retries = records_of(log, LogRecord::Kind::Retry);
  ASSERT_FALSE(retries.empty());
  long max_attempt = 0;
  for (const NamedRecord& r : retries) {
    max_attempt = std::max(max_attempt, r.cycles);
  }
  EXPECT_EQ(max_attempt, 4);  // the plan's default max_retries
  bool dropped = false;
  for (const NamedRecord& r : records_of(log, LogRecord::Kind::Drop)) {
    if (r.process == "dsp1" && r.signal == "Req") dropped = true;
  }
  EXPECT_TRUE(dropped);
  // After the segment recovers, traffic flows again.
  bool delivered_after = false;
  for (const NamedRecord& r : records_of(log, LogRecord::Kind::Receive)) {
    if (r.process == "dsp1" && r.time >= 20'000) delivered_after = true;
  }
  EXPECT_TRUE(delivered_after);
}

TEST(BitErrors, CertainCorruptionDropsEveryTransfer) {
  test::MiniSystem sys;
  FaultPlan plan;
  plan.bit_errors.push_back({"seg1", 1'000'000});  // every hop corrupts
  const auto simulation = run_mini(sys, plan, 30'000);
  const auto& log = simulation->log();

  EXPECT_FALSE(records_of(log, LogRecord::Kind::Retry).empty());
  for (const NamedRecord& r : records_of(log, LogRecord::Kind::Receive)) {
    EXPECT_NE(r.process, "dsp1");  // nothing survives seg1
  }
}

TEST(BitErrors, SameSeedIsByteIdenticalAcrossRuns) {
  test::MiniSystem sys;
  FaultPlan plan;
  plan.seed = 7;
  plan.bit_errors.push_back({"seg1", 300'000});
  plan.bit_errors.push_back({"bridge", 300'000});
  const std::string first = run_mini(sys, plan, 60'000)->log().to_text();
  const std::string second = run_mini(sys, plan, 60'000)->log().to_text();
  EXPECT_EQ(first, second);
  // And the faulty run really diverged from the healthy one.
  EXPECT_NE(first, run_mini(sys, FaultPlan{}, 60'000)->log().to_text());
}

// ---------------------------------------------------------------------------
// Signal fault windows
// ---------------------------------------------------------------------------

TEST(SignalFault, LostWindowDropsThenRecovers) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);
  Config config;
  config.horizon = 20'000;
  config.faults.signal_faults.push_back(
      {SignalFault::Kind::Lost, "dsp2", "Req", 0, 8'000});
  Simulation simulation(view, config);
  simulation.inject(5'000, "pin", *sys.req, {4});
  simulation.inject(9'000, "pin", *sys.req, {4});
  simulation.run();

  bool dropped_at_5000 = false;
  for (const NamedRecord& r :
       records_of(simulation.log(), LogRecord::Kind::Drop)) {
    if (r.process == "dsp2" && r.time == 5'000) dropped_at_5000 = true;
  }
  EXPECT_TRUE(dropped_at_5000);
  std::vector<Time> received;
  for (const NamedRecord& r :
       records_of(simulation.log(), LogRecord::Kind::Receive)) {
    if (r.process == "dsp2") received.push_back(r.time);
  }
  EXPECT_EQ(received, (std::vector<Time>{9'000}));
}

TEST(SignalFault, StuckWindowHoldsAndFlushesAtClose) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);
  Config config;
  config.horizon = 20'000;
  config.faults.signal_faults.push_back(
      {SignalFault::Kind::Stuck, "dsp2", "Req", 0, 8'000});
  Simulation simulation(view, config);
  simulation.inject(5'000, "pin", *sys.req, {4});
  simulation.run();

  std::vector<Time> received;
  for (const NamedRecord& r :
       records_of(simulation.log(), LogRecord::Kind::Receive)) {
    if (r.process == "dsp2") received.push_back(r.time);
  }
  // Held at 5'000, delivered when the window closes.
  EXPECT_EQ(received, (std::vector<Time>{8'000}));
  EXPECT_TRUE(records_of(simulation.log(), LogRecord::Kind::Drop).empty());
}

// ---------------------------------------------------------------------------
// Watchdog resets
// ---------------------------------------------------------------------------

TEST(Watchdog, IdleProcessIsResetAndRestartsCleanly) {
  test::MiniSystem sys;
  FaultPlan plan;
  plan.watchdog_timeout = 50'000;
  const auto simulation = run_mini(sys, plan, 200'000);

  // dsp2 gets no traffic (nothing injected on "pin"), so only its watchdog
  // fires; busy processes (ctrl, dsp1) never trip theirs.
  const auto resets = records_of(simulation->log(), LogRecord::Kind::Watchdog);
  ASSERT_FALSE(resets.empty());
  for (const NamedRecord& r : resets) EXPECT_EQ(r.process, "dsp2");
  // Not one reset per period: cpu2 is saturated by dsp1, so the reset step
  // itself runs late and pushes last-progress forward. Two firings fit.
  EXPECT_GE(resets.size(), 2u);
  EXPECT_EQ(resets[0].time, 50'000u);

  // The reset re-entered the initial state.
  const sim::ProcExecutor& dsp2 = simulation->instance("dsp2");
  ASSERT_TRUE(dsp2.started());
  EXPECT_EQ(dsp2.state_name(), "Idle");
}

// ---------------------------------------------------------------------------
// Zero cost when off
// ---------------------------------------------------------------------------

TEST(ZeroCost, EmptyPlanMatchesDefaultConfigByteForByte) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);

  Config plain;
  plain.horizon = 120'000;
  Simulation a(view, plain);
  a.inject_periodic(1'000, 30'000, 3, "pin", *sys.req, {4});
  a.run();

  Config with_empty_plan;
  with_empty_plan.horizon = 120'000;
  with_empty_plan.faults = FaultPlan{};  // explicit, still empty
  Simulation b(view, with_empty_plan);
  b.inject_periodic(1'000, 30'000, 3, "pin", *sys.req, {4});
  b.run();

  EXPECT_EQ(a.log().to_text(), b.log().to_text());
  EXPECT_EQ(a.events_dispatched(), b.events_dispatched());
  ASSERT_EQ(a.pe_stats().size(), b.pe_stats().size());
  for (const auto& [name, stats] : a.pe_stats()) {
    const auto& other = b.pe_stats().at(name);
    EXPECT_EQ(stats.busy_time, other.busy_time) << name;
    EXPECT_EQ(stats.steps, other.steps) << name;
    EXPECT_EQ(stats.dispatched, other.dispatched) << name;
  }
}

// ---------------------------------------------------------------------------
// Log round trip for the fault record kinds
// ---------------------------------------------------------------------------

TEST(FaultLog, NewRecordKindsRoundTripThroughText) {
  SimulationLog log;
  const test::Ids id{log};
  log.fault_id(100, id("cpu2"));
  log.retry_id(150, id("ctrl"), id("Req"), 2);
  log.watchdog_id(200, id("dsp2"));
  log.migrate_id(250, id("dsp1"), id("cpu2"), id("cpu1"));
  log.clear_id(300, id("cpu2"));

  const std::string text = log.to_text();
  const SimulationLog parsed = SimulationLog::parse(text);
  ASSERT_EQ(parsed.size(), 5u);
  EXPECT_EQ(parsed.to_text(), text);
  const auto r = test::named_records(parsed);
  EXPECT_EQ(r[0].kind, LogRecord::Kind::Fault);
  EXPECT_EQ(r[0].process, "cpu2");
  EXPECT_EQ(r[1].kind, LogRecord::Kind::Retry);
  EXPECT_EQ(r[1].cycles, 2);
  EXPECT_EQ(r[2].kind, LogRecord::Kind::Watchdog);
  EXPECT_EQ(r[3].kind, LogRecord::Kind::Migrate);
  EXPECT_EQ(r[3].peer, "cpu2");
  EXPECT_EQ(r[3].signal, "cpu1");
  EXPECT_EQ(r[4].kind, LogRecord::Kind::Clear);
}

// ---------------------------------------------------------------------------
// TUTMAC degraded-run scenario + reliability report
// ---------------------------------------------------------------------------

TEST(Reliability, TutmacDegradedRunShowsDowntimeAndRecovery) {
  // The documented scenario (see DESIGN.md): processor2 fails 5 ms into a
  // 20 ms TUTMAC run and recovers at 12 ms.
  tutmac::Options opt;
  opt.horizon = 20'000'000;
  tutmac::System sys = tutmac::build(opt);
  mapping::SystemView view(*sys.model);

  Config config;
  config.horizon = opt.horizon;
  config.faults.pe_faults.push_back({"processor2", 5'000'000, 12'000'000});
  Simulation simulation(view, config);
  sys.inject_workload(simulation);
  simulation.run();

  const auto info = profiler::ProcessGroupInfo::from_model(*sys.model);
  const auto report = profiler::analyze(info, simulation.log());
  const auto& rel = report.reliability;

  ASSERT_TRUE(rel.present);
  ASSERT_EQ(rel.components.size(), 1u);
  EXPECT_EQ(rel.components[0].component, "processor2");
  EXPECT_EQ(rel.components[0].faults, 1u);
  EXPECT_EQ(rel.components[0].downtime, 7'000'000u);
  EXPECT_GE(rel.migrations, 2u);  // out at 5 ms, home at 12 ms
  EXPECT_GT(rel.delivered, 0u);
  EXPECT_GT(rel.worst_recovery_latency, 0u);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("(c) Reliability"), std::string::npos);
  EXPECT_NE(text.find("processor2"), std::string::npos);

  // A healthy run of the same system reports no reliability section.
  Simulation healthy(view, Config{.horizon = opt.horizon});
  sys.inject_workload(healthy);
  healthy.run();
  const auto healthy_report = profiler::analyze(info, healthy.log());
  EXPECT_FALSE(healthy_report.reliability.present);
  EXPECT_EQ(healthy_report.to_text().find("(c) Reliability"),
            std::string::npos);
}
