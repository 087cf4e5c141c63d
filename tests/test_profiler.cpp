// Tests for the profiling tool: process-group extraction (stage 1), report
// analysis (stage 3) on both synthetic logs and real co-simulation logs.
#include <gtest/gtest.h>

#include <filesystem>

#include "fixtures.hpp"
#include "log_records.hpp"
#include "profiler/profiler.hpp"
#include "sim/simulator.hpp"
#include "uml/serialize.hpp"

using namespace tut;
using namespace tut::profiler;

TEST(ProcessGroupInfo, FromModel) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  ASSERT_EQ(info.groups.size(), 3u);
  EXPECT_EQ(info.groups[0], "g_ctrl");
  EXPECT_EQ(info.group_of.at("ctrl"), "g_ctrl");
  EXPECT_EQ(info.group_of.at("dsp1"), "g_dsp");
  EXPECT_EQ(info.group_of.at("dsp2"), "g_dsp");
  EXPECT_EQ(info.group_of.at("crc"), "g_hw");
  EXPECT_EQ(info.party_of("ctrl"), "g_ctrl");
  EXPECT_EQ(info.party_of("env"), kEnvironmentParty);
  EXPECT_EQ(info.party_of("unknown_process"), kEnvironmentParty);
}

TEST(ProcessGroupInfo, FromXmlMatchesFromModel) {
  test::MiniSystem sys;
  const auto direct = ProcessGroupInfo::from_model(sys.model);
  const auto via_xml =
      ProcessGroupInfo::from_xml(uml::to_xml_string(sys.model));
  EXPECT_EQ(direct.groups, via_xml.groups);
  EXPECT_EQ(direct.group_of, via_xml.group_of);
}

namespace {

/// A handcrafted log with known aggregates.
sim::SimulationLog synthetic_log() {
  sim::SimulationLog log;
  const test::Ids id{log};
  log.run_id(0, id("ctrl"), 100, 2000);
  log.run_id(10, id("dsp1"), 900, 11250);
  log.run_id(20, id("dsp2"), 500, 6250);
  log.send_id(30, id("ctrl"), id("dsp1"), id("Req"), 8);
  log.receive_id(70, id("dsp1"), id("ctrl"), id("Req"));
  log.send_id(80, id("dsp1"), id("crc"), id("Req"), 8);
  log.send_id(90, id("dsp1"), id("ctrl"), id("Rsp"), 8);
  log.send_id(95, id("env"), id("dsp2"), id("Req"), 8);
  log.send_id(97, id("dsp2"), id("env"), id("Rsp"), 8);
  log.drop_id(99, id("dsp2"), id("Rsp"));
  log.run_id(100, id("crc"), 64, 640);
  return log;
}

}  // namespace

TEST(Analyze, GroupExecutionRows) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  const auto report = analyze(info, synthetic_log());

  // Groups in model order, then Environment.
  ASSERT_EQ(report.execution.size(), 4u);
  EXPECT_EQ(report.execution[0].group, "g_ctrl");
  EXPECT_EQ(report.execution[0].cycles, 100);
  EXPECT_EQ(report.execution[1].group, "g_dsp");
  EXPECT_EQ(report.execution[1].cycles, 1400);  // dsp1 + dsp2
  EXPECT_EQ(report.execution[2].group, "g_hw");
  EXPECT_EQ(report.execution[2].cycles, 64);
  EXPECT_EQ(report.execution[3].group, kEnvironmentParty);
  EXPECT_EQ(report.execution[3].cycles, 0);
  EXPECT_EQ(report.total_cycles(), 1564);

  // Proportions sum to ~100%.
  double sum = 0;
  for (const auto& row : report.execution) sum += row.proportion;
  EXPECT_NEAR(sum, 100.0, 1e-9);
  EXPECT_NEAR(report.execution[1].proportion, 100.0 * 1400 / 1564, 1e-9);
}

TEST(Analyze, SignalMatrix) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  const auto report = analyze(info, synthetic_log());

  ASSERT_EQ(report.parties.size(), 4u);  // 3 groups + Environment
  const auto g_ctrl = report.party_index("g_ctrl");
  const auto g_dsp = report.party_index("g_dsp");
  const auto g_hw = report.party_index("g_hw");
  const auto env = report.party_index(kEnvironmentParty);
  EXPECT_EQ(report.signals[g_ctrl][g_dsp], 1u);
  EXPECT_EQ(report.signals[g_dsp][g_hw], 1u);
  EXPECT_EQ(report.signals[g_dsp][g_ctrl], 1u);
  EXPECT_EQ(report.signals[env][g_dsp], 1u);
  EXPECT_EQ(report.signals[g_dsp][env], 1u);
  EXPECT_EQ(report.signals[g_hw][g_hw], 0u);
  EXPECT_EQ(report.total_signals(), 5u);
  EXPECT_EQ(report.inter_group_signals(), 5u);  // none are intra-group here
  EXPECT_EQ(report.party_index("nope"), static_cast<std::size_t>(-1));
}

TEST(Analyze, PerProcessDetails) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  const auto report = analyze(info, synthetic_log());
  EXPECT_EQ(report.process_cycles.at("dsp1"), 900);
  EXPECT_EQ(report.process_cycles.at("crc"), 64);
  EXPECT_EQ((report.process_signals.at({"ctrl", "dsp1"})), 1u);
  EXPECT_EQ(report.drops.at("dsp2"), 1u);
}

TEST(Analyze, ReceivesDoNotDoubleCount) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  sim::SimulationLog log;
  const test::Ids id{log};
  log.send_id(0, id("ctrl"), id("dsp1"), id("Req"), 8);
  log.receive_id(40, id("dsp1"), id("ctrl"), id("Req"));
  const auto report = analyze(info, log);
  EXPECT_EQ(report.total_signals(), 1u);
}

TEST(Analyze, EmptyLogYieldsZeroReport) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  const auto report = analyze(info, sim::SimulationLog{});
  EXPECT_EQ(report.total_cycles(), 0);
  EXPECT_EQ(report.total_signals(), 0u);
  for (const auto& row : report.execution) EXPECT_EQ(row.proportion, 0.0);
}

TEST(Analyze, ReportTextLooksLikeTable4) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  const std::string text = analyze(info, synthetic_log()).to_text();
  EXPECT_NE(text.find("(a) Process group execution"), std::string::npos);
  EXPECT_NE(text.find("(b) Number of signals between groups"),
            std::string::npos);
  EXPECT_NE(text.find("Proportion"), std::string::npos);
  EXPECT_NE(text.find("Sender/Receiver"), std::string::npos);
  EXPECT_NE(text.find("Environment"), std::string::npos);
  EXPECT_NE(text.find("cycles"), std::string::npos);
}

namespace {

/// `records` records cycling through ctrl sending Req to dsp1, dsp1
/// receiving it 40 ticks later and dsp1 running 5 cycles.
void append_traffic(sim::SimulationLog& log, int records) {
  const test::Ids id{log};
  const intern::Id ctrl = id("ctrl"), dsp1 = id("dsp1"), req = id("Req");
  for (int i = 0; i < records; ++i) {
    const sim::Time t = static_cast<sim::Time>(100 * (i / 3));
    if (i % 3 == 0) {
      log.send_id(t, ctrl, dsp1, req, 8);
    } else if (i % 3 == 1) {
      log.receive_id(t + 40, dsp1, ctrl, req);
    } else {
      log.run_id(t + 40, dsp1, 5, 60);
    }
  }
}

}  // namespace

TEST(SimLog, SpilledLogProfilesLikeUnbounded) {
  // The profiler reads a log through its record walk, so a log whose
  // envelope spilled all but its last records to disk reports exactly what
  // the unbounded log reports.
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  const std::string spill =
      (std::filesystem::temp_directory_path() / "tut_profiler_walk.spill")
          .string();
  std::filesystem::remove(spill);
  sim::SimulationLog unbounded;
  sim::SimulationLog ring;
  ring.set_envelope(8, spill);
  append_traffic(unbounded, 300);
  append_traffic(ring, 300);
  ASSERT_EQ(ring.spilled(), 296u);

  const ProfilingReport report = analyze(info, ring);
  EXPECT_EQ(report.to_text(), analyze(info, unbounded).to_text());
  EXPECT_EQ(report.process_cycles.at("dsp1"), 500);
  const auto latencies = latency_report(ring);
  EXPECT_EQ(latency_to_text(latencies),
            latency_to_text(latency_report(unbounded)));
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0].samples, 100u);
  ring.clear();  // removes the spill file
}

// ---------------------------------------------------------------------------
// End-to-end: co-simulate the MiniSystem, profile through the log-file text
// (the full Figure 2 loop: model XML -> group info; simulation -> log-file;
// combine -> report).
// ---------------------------------------------------------------------------

TEST(EndToEnd, Figure2FlowOnMiniSystem) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);
  sim::Simulation sim(view, {.horizon = 500'000});
  sim.inject_periodic(1000, 50'000, 8, "pin", *sys.req, {4});
  sim.run();

  // Stage 1: parse the model XML.
  const auto info = ProcessGroupInfo::from_xml(uml::to_xml_string(sys.model));
  // Stage 2 produced the log; round-trip it through the file format.
  const auto log = sim::SimulationLog::parse(sim.log().to_text());
  // Stage 3: combine and analyze.
  const auto report = analyze(info, log);

  // All three processor-ish groups did work; proportions are sane.
  EXPECT_GT(report.execution[0].cycles, 0);  // g_ctrl
  EXPECT_GT(report.execution[1].cycles, 0);  // g_dsp
  EXPECT_GT(report.execution[2].cycles, 0);  // g_hw
  EXPECT_EQ(report.execution[3].cycles, 0);  // Environment does no work
  // The dsp group dominates in the MiniSystem.
  EXPECT_GT(report.execution[1].proportion, 50.0);
  // Environment sent the injected signals.
  const auto env = report.party_index(kEnvironmentParty);
  const auto g_dsp = report.party_index("g_dsp");
  EXPECT_GE(report.signals[env][g_dsp], 8u);
  // ctrl -> dsp traffic appears as g_ctrl -> g_dsp.
  const auto g_ctrl = report.party_index("g_ctrl");
  EXPECT_GT(report.signals[g_ctrl][g_dsp], 0u);
}

// ---------------------------------------------------------------------------
// Latency analysis
// ---------------------------------------------------------------------------

TEST(Latency, MatchesSendsToReceivesFifo) {
  sim::SimulationLog log;
  const test::Ids id{log};
  log.send_id(100, id("a"), id("b"), id("Sig"), 8);
  log.send_id(200, id("a"), id("b"), id("Sig"), 8);
  log.receive_id(150, id("b"), id("a"), id("Sig"));  // first send: 50
  log.receive_id(500, id("b"), id("a"), id("Sig"));  // second send: 300
  const auto report = latency_report(log);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].from, "a");
  EXPECT_EQ(report[0].to, "b");
  EXPECT_EQ(report[0].signal, "Sig");
  EXPECT_EQ(report[0].samples, 2u);
  EXPECT_EQ(report[0].min, 50u);
  EXPECT_EQ(report[0].max, 300u);
  EXPECT_DOUBLE_EQ(report[0].mean, 175.0);
}

TEST(Latency, SeparatesStreamsBySignalAndPeers) {
  sim::SimulationLog log;
  const test::Ids id{log};
  log.send_id(0, id("a"), id("b"), id("X"), 8);
  log.receive_id(10, id("b"), id("a"), id("X"));
  log.send_id(0, id("a"), id("b"), id("Y"), 8);
  log.receive_id(30, id("b"), id("a"), id("Y"));
  log.send_id(0, id("c"), id("b"), id("X"), 8);
  log.receive_id(70, id("b"), id("c"), id("X"));
  const auto report = latency_report(log);
  ASSERT_EQ(report.size(), 3u);
  // Ordered by (from, to, signal).
  EXPECT_EQ(report[0].signal, "X");
  EXPECT_EQ(report[0].max, 10u);
  EXPECT_EQ(report[1].signal, "Y");
  EXPECT_EQ(report[2].from, "c");
  EXPECT_EQ(report[2].max, 70u);
}

TEST(Latency, UnmatchedRecordsAreIgnored) {
  sim::SimulationLog log;
  const test::Ids id{log};
  log.send_id(0, id("a"), id("b"), id("X"), 8);   // never received (in flight)
  log.receive_id(10, id("b"), id("z"), id("X"));  // receive without send
  EXPECT_TRUE(latency_report(log).empty());
}

TEST(Latency, TextTableRenders) {
  sim::SimulationLog log;
  const test::Ids id{log};
  log.send_id(100, id("ctrl"), id("dsp1"), id("Req"), 8);
  log.receive_id(140, id("dsp1"), id("ctrl"), id("Req"));
  const std::string text = latency_to_text(latency_report(log));
  EXPECT_NE(text.find("from"), std::string::npos);
  EXPECT_NE(text.find("ctrl"), std::string::npos);
  EXPECT_NE(text.find("40"), std::string::npos);
}

TEST(Latency, MiniSystemBusLatencyVisible) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);
  sim::Simulation sim(view, {.horizon = 300'000});
  sim.run();
  const auto report = latency_report(sim.log());
  // ctrl -> dsp1 crosses the bus: latency 40 ticks (see test_sim).
  bool found = false;
  for (const auto& s : report) {
    if (s.from == "ctrl" && s.to == "dsp1" && s.signal == "Req") {
      found = true;
      EXPECT_EQ(s.min, 40u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Analyze, BusyTimeAggregatesPerGroup) {
  test::MiniSystem sys;
  const auto info = ProcessGroupInfo::from_model(sys.model);
  const auto report = analyze(info, synthetic_log());
  EXPECT_EQ(report.execution[0].busy_time, 2000u);            // ctrl
  EXPECT_EQ(report.execution[1].busy_time, 11250u + 6250u);   // dsp1+dsp2
  EXPECT_EQ(report.execution[2].busy_time, 640u);             // crc
  EXPECT_EQ(report.execution[3].busy_time, 0u);               // Environment
}
