// Tests for the discrete-event kernel, the simulation log and the
// co-simulator on the MiniSystem fixture.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>

#include "fixtures.hpp"
#include "intern/fnv.hpp"
#include "log_records.hpp"
#include "sim/simulator.hpp"

using namespace tut;
using namespace tut::sim;
using test::named_records;
using test::NamedRecord;

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

TEST(Kernel, RunsEventsInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(30, [&] { order.push_back(3); });
  k.schedule_at(10, [&] { order.push_back(1); });
  k.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(k.run(100), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 100u);
}

TEST(Kernel, SimultaneousEventsAreFifo) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    k.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  k.run(5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Kernel, HandlersMayScheduleMoreEvents) {
  Kernel k;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) k.schedule_in(10, tick);
  };
  k.schedule_at(0, tick);
  k.run(1000);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(k.dispatched(), 5u);
}

TEST(Kernel, HorizonStopsExecution) {
  Kernel k;
  int count = 0;
  k.schedule_at(10, [&] { ++count; });
  k.schedule_at(20, [&] { ++count; });
  k.run(15);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(k.pending(), 1u);
  // Event exactly at the horizon runs.
  k.run(20);
  EXPECT_EQ(count, 2);
}

TEST(Kernel, SchedulingInThePastThrows) {
  Kernel k;
  k.schedule_at(50, [] {});
  k.run(100);
  try {
    k.schedule_at(50, [] {});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    // The diagnostic names both times so the offending call is findable.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("at=50"), std::string::npos) << msg;
    EXPECT_NE(msg.find("now=100"), std::string::npos) << msg;
  }
  // Scheduling exactly at now() stays legal.
  k.schedule_at(100, [] {});
}

TEST(Kernel, NoDoubleDispatchAtHorizon) {
  Kernel k;
  int count = 0;
  // An event exactly at the horizon that schedules a zero-delay child: both
  // must run in this run() call, and a second run() at the same horizon must
  // not re-dispatch either of them.
  k.schedule_at(100, [&] {
    ++count;
    k.schedule_at(100, [&] { ++count; });
  });
  EXPECT_EQ(k.run(100), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(k.run(100), 0u);
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(k.empty());
}

TEST(Kernel, ZeroDelayRunsAfterSameTimeHeapEvents) {
  // Scheduling order across the heap and the same-time fast path must stay
  // exact (time, seq) FIFO: events scheduled earlier for time t run before
  // zero-delay events created at time t.
  Kernel k;
  std::vector<int> order;
  k.schedule_at(10, [&] {
    order.push_back(1);
    k.schedule_at(10, [&] { order.push_back(3); });  // created at t=10
  });
  k.schedule_at(10, [&] { order.push_back(2); });  // scheduled before t=10
  k.run(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// SimulationLog
// ---------------------------------------------------------------------------

TEST(SimLog, TextRoundTrip) {
  SimulationLog log;
  const test::Ids id{log};
  log.run_id(100, id("p1"), 50, 1000);
  log.send_id(1100, id("p1"), id("p2"), id("Req"), 8);
  log.receive_id(1140, id("p2"), id("p1"), id("Req"));
  log.drop_id(1200, id("p2"), id("Bogus"));
  log.send_id(1300, id("p2"), id(kEnvironment), id("Rsp"), 12);

  const std::string text = log.to_text();
  const SimulationLog parsed = SimulationLog::parse(text);
  ASSERT_EQ(parsed.size(), log.size());
  EXPECT_EQ(parsed.to_text(), text);

  const auto r = named_records(parsed);
  EXPECT_EQ(r[0].kind, LogRecord::Kind::Run);
  EXPECT_EQ(r[0].cycles, 50);
  EXPECT_EQ(r[0].duration, 1000u);
  EXPECT_EQ(r[1].kind, LogRecord::Kind::Send);
  EXPECT_EQ(r[1].peer, "p2");
  EXPECT_EQ(r[1].bytes, 8u);
  EXPECT_EQ(r[2].kind, LogRecord::Kind::Receive);
  EXPECT_EQ(r[3].kind, LogRecord::Kind::Drop);
  EXPECT_EQ(r[4].peer, kEnvironment);
}

TEST(SimLog, ParserSkipsCommentsAndBlankLines) {
  const auto log = SimulationLog::parse("# header\n\nR 1 p 2 3\n# tail\n");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(named_records(log)[0].process, "p");
}

TEST(SimLog, ParserRejectsMalformedLines) {
  EXPECT_THROW((void)SimulationLog::parse("X 1 2 3\n"), std::runtime_error);
  EXPECT_THROW((void)SimulationLog::parse("R 1 p\n"), std::runtime_error);
  EXPECT_THROW((void)SimulationLog::parse("S 1 a b\n"), std::runtime_error);

  // One case per rejection class: the message carries the tag, the line
  // number and the line.
  const auto rejects = [](const std::string& line) {
    try {
      (void)SimulationLog::parse("# tut-simlog v1\n" + line + "\n");
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).rfind(
                 "[log.line.malformed] malformed simulation log line 2: '",
                 0) == 0;
    }
    return false;
  };
  EXPECT_TRUE(rejects("R -1 p 2 3"));                    // sign, unsigned
  EXPECT_TRUE(rejects("R +1 p 2 3"));                    // '+' anywhere
  EXPECT_TRUE(rejects("T 1 p s +2"));                    // '+', signed
  EXPECT_TRUE(rejects("S 1 a b s -8"));                  // negative bytes
  EXPECT_TRUE(rejects("R 18446744073709551616 p 2 3"));  // 2^64
  EXPECT_TRUE(rejects("R 1 p 99999999999999999999 3"));  // past long
  EXPECT_TRUE(rejects("R 1x p 2 3"));                    // partial number
  EXPECT_TRUE(rejects("D 1 p"));                         // missing field
  EXPECT_TRUE(rejects("R 1 p 2 3 extra"));               // extra field
  EXPECT_TRUE(rejects("R -1 p 2 3 extra junk"));         // both
  EXPECT_TRUE(rejects("RR 1 p 2 3"));                    // multi-char kind
  EXPECT_TRUE(rejects("Q 1 p"));                         // unknown kind
  EXPECT_TRUE(rejects("W 1 p\rq"));                      // CR inside a line

  // The quoted excerpt is capped.
  try {
    (void)SimulationLog::parse("F 1 " + std::string(1000, 'x') + " y\n");
    ADD_FAILURE() << "accepted an extra field";
  } catch (const std::runtime_error& e) {
    EXPECT_LT(std::string(e.what()).size(), 200u);
  }
}

TEST(SimLog, ParserAcceptsCrlfAndTabs) {
  const auto log = SimulationLog::parse(
      "# tut-simlog v1\r\nR\t5  p \t-7\t3\r\n\r\n \t\r\nS 6 a b sig 4\r\n"
      "F 7 bus");
  ASSERT_EQ(log.size(), 3u);
  const auto records = named_records(log);
  EXPECT_EQ(records[0].process, "p");
  EXPECT_EQ(records[0].cycles, -7);  // signed field: to_text emits '-'
  EXPECT_EQ(records[1].signal, "sig");
  EXPECT_EQ(records[2].process, "bus");
  EXPECT_EQ(log.to_text(),
            "# tut-simlog v1\nR 5 p -7 3\nS 6 a b sig 4\nF 7 bus\n");
  EXPECT_EQ(SimulationLog::parse(log.to_text()).to_text(), log.to_text());
}

namespace {

/// Appends `records` records cycling through Send a->b, Receive and Run b,
/// one per 1000 ticks.
void append_traffic(SimulationLog& log, int records) {
  const intern::Id a = log.intern_name("a"), b = log.intern_name("b");
  const intern::Id sig = log.intern_name("Sig");
  for (int i = 0; i < records; ++i) {
    const Time t = static_cast<Time>(1000 * i);
    if (i % 3 == 0) {
      log.send_id(t, a, b, sig, 4);
    } else if (i % 3 == 1) {
      log.receive_id(t, b, a, sig);
    } else {
      log.run_id(t, b, i, 20);
    }
  }
}

}  // namespace

TEST(SimLog, DigestEqualsHashOfText) {
  // digest() folds each record's line into FNV-1a without building the
  // text; it must equal the hash of the text in every case.
  const auto expect_contract = [](const SimulationLog& log) {
    EXPECT_EQ(log.digest(), intern::Fnv::of(log.to_text()));
  };

  SimulationLog empty;
  expect_contract(empty);
  EXPECT_EQ(empty.digest(), intern::Fnv::of("# tut-simlog v1\n"));

  // Every record kind, including a negative Compute total.
  SimulationLog all;
  const test::Ids a{all};
  all.run_id(0, a("p1"), -7, 0);
  all.run_id(18446744073709551615ull, a("p1"), -9223372036854775807L - 1,
             18446744073709551615ull);
  all.send_id(10, a("p1"), a("p2"), a("Req"), 18446744073709551615ull);
  all.receive_id(11, a("p2"), a("p1"), a("Req"));
  all.drop_id(12, a("p2"), a("Bogus"));
  all.fault_id(13, a("hibisegment1"));
  all.clear_id(14, a("hibisegment1"));
  all.retry_id(15, a("p1"), a("Req"), -1);
  all.watchdog_id(16, a("p2"));
  all.migrate_id(17, a("p2"), a("cpu1"), a("cpu2"));
  expect_contract(all);

  // A name longer than the formatter's stack buffer takes its slow path.
  SimulationLog long_names;
  const test::Ids n{long_names};
  const std::string big(300, 'n');
  long_names.run_id(1, n(big), 5, 3);
  long_names.send_id(2, n(big), n(big + "2"), n(big + "3"), 8);
  long_names.receive_id(3, n("short"), n(big), n("sig"));
  expect_contract(long_names);
  EXPECT_NE(long_names.to_text().find(big + " " + big + "2 " + big + "3 8\n"),
            std::string::npos);

  // A spilled log reads the spill back; its digest is the unbounded one's.
  const std::string spill =
      (std::filesystem::temp_directory_path() / "tut_simlog_digest.spill")
          .string();
  std::filesystem::remove(spill);
  SimulationLog unbounded;
  SimulationLog ring;
  ring.set_envelope(8, spill);
  append_traffic(unbounded, 100);
  append_traffic(ring, 100);
  ASSERT_GT(ring.spilled(), 0u);
  expect_contract(ring);
  EXPECT_EQ(ring.digest(), unbounded.digest());

  // clear() and reuse: the persistent name table must not leak in.
  ring.clear();
  expect_contract(ring);
  const test::Ids ring_id{ring};
  ring_id("zebra");
  ring.drop_id(5, ring_id("b"), ring_id("Sig"));
  expect_contract(ring);
  SimulationLog fresh;
  const test::Ids fresh_id{fresh};
  fresh.drop_id(5, fresh_id("b"), fresh_id("Sig"));
  EXPECT_EQ(ring.digest(), fresh.digest());
  std::filesystem::remove(spill);
}

TEST(SimLog, ForEachWalksSpilledThenResidentRecordsInAppendOrder) {
  const std::string spill =
      (std::filesystem::temp_directory_path() / "tut_simlog_walk.spill")
          .string();
  std::filesystem::remove(spill);
  SimulationLog unbounded;
  SimulationLog ring;
  ring.set_envelope(8, spill);
  append_traffic(unbounded, 300);
  append_traffic(ring, 300);
  // 37 flushes of 8 records; the last 4 are still resident.
  ASSERT_EQ(ring.spilled(), 296u);
  ASSERT_EQ(ring.compact_records().size(), 4u);

  std::vector<Time> times;
  ring.for_each([&times](const LogRecord& r) { times.push_back(r.time); });
  ASSERT_EQ(times.size(), 300u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], 1000 * i) << "record " << i;
  }
  // Field for field the unbounded log's records, and a second walk reads
  // the same spill again.
  EXPECT_EQ(named_records(ring), named_records(unbounded));
  EXPECT_EQ(named_records(ring), named_records(unbounded));
  EXPECT_EQ(ring.to_text(), unbounded.to_text());

  // clear() drops the spill too: the walk sees only what comes after.
  ring.clear();
  EXPECT_FALSE(std::filesystem::exists(spill));
  append_traffic(ring, 3);
  EXPECT_EQ(named_records(ring).size(), 3u);
}

TEST(SimLog, CorruptSpillFileThrowsTaggedError) {
  const std::string spill =
      (std::filesystem::temp_directory_path() / "tut_simlog_corrupt.spill")
          .string();
  std::filesystem::remove(spill);
  // Walks `log`, counting the records handed out; returns the error, or ""
  // when the walk did not throw.
  const auto walk = [](const SimulationLog& log, std::size_t& handed_out) {
    handed_out = 0;
    try {
      log.for_each([&handed_out](const LogRecord&) { ++handed_out; });
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto is_corrupt = [](const std::string& error) {
    return error.rfind("[log.spill.corrupt] log spill file '", 0) == 0;
  };
  // Rewrites the spilled record `index` through `change`.
  const auto patch = [&spill](std::size_t index, auto&& change) {
    std::fstream f(spill, std::ios::binary | std::ios::in | std::ios::out);
    LogRecord r;
    f.seekg(static_cast<std::streamoff>(index * sizeof r));
    f.read(reinterpret_cast<char*>(&r), sizeof r);
    change(r);
    f.seekp(static_cast<std::streamoff>(index * sizeof r));
    f.write(reinterpret_cast<const char*>(&r), sizeof r);
  };
  std::size_t handed_out = 0;

  SimulationLog log;
  log.set_envelope(8, spill);
  append_traffic(log, 20);
  ASSERT_EQ(log.spilled(), 16u);
  EXPECT_EQ(walk(log, handed_out), "");
  EXPECT_EQ(handed_out, 20u);

  // A truncated file holds fewer records than were written to it.
  std::filesystem::resize_file(spill, 16 * sizeof(LogRecord) - 1);
  EXPECT_TRUE(is_corrupt(walk(log, handed_out)));
  EXPECT_EQ(handed_out, 0u);
  EXPECT_THROW((void)log.to_text(), std::runtime_error);
  EXPECT_THROW((void)log.digest(), std::runtime_error);

  // An id past the name table, in the last spilled record: the check runs
  // before the first record is handed out.
  log.clear();
  append_traffic(log, 20);
  patch(15, [&log](LogRecord& r) {
    r.process = static_cast<intern::Id>(log.names().size());
  });
  EXPECT_TRUE(is_corrupt(walk(log, handed_out)));
  EXPECT_EQ(handed_out, 0u);

  // A kind byte past Migrate.
  log.clear();
  append_traffic(log, 20);
  patch(3, [](LogRecord& r) { r.kind = static_cast<LogRecord::Kind>(9); });
  EXPECT_TRUE(is_corrupt(walk(log, handed_out)));
  EXPECT_EQ(handed_out, 0u);

  // A missing file keeps its own error.
  std::filesystem::remove(spill);
  EXPECT_EQ(walk(log, handed_out).rfind("cannot read log spill file '", 0),
            0u);
  log.clear();
}

// ---------------------------------------------------------------------------
// Co-simulation of the MiniSystem
// ---------------------------------------------------------------------------

namespace {

struct SimFixture : ::testing::Test {
  test::MiniSystem sys;
  mapping::SystemView view{sys.model};
};

std::optional<NamedRecord> first_record(const SimulationLog& log,
                                        LogRecord::Kind kind,
                                        const std::string& process) {
  for (const auto& r : named_records(log)) {
    if (r.kind == kind && r.process == process) return r;
  }
  return std::nullopt;
}

std::size_t count_records(const SimulationLog& log, LogRecord::Kind kind,
                          const std::string& process = "") {
  std::size_t n = 0;
  for (const auto& r : named_records(log)) {
    if (r.kind == kind && (process.empty() || r.process == process)) ++n;
  }
  return n;
}

}  // namespace

TEST_F(SimFixture, RunsAndProducesLog) {
  Simulation sim(view, {.horizon = 200'000});
  sim.run();
  EXPECT_EQ(sim.now(), 200'000u);
  EXPECT_GT(sim.log().size(), 10u);
  EXPECT_GT(sim.events_dispatched(), 10u);
}

TEST_F(SimFixture, ControllerComputeCostMatchesFrequency) {
  Simulation sim(view, {.horizon = 10'000});
  sim.run();
  // ctrl runs 50 cycles on a 50 MHz cpu: 1000 ticks.
  const NamedRecord* run = nullptr;
  const auto records = named_records(sim.log());
  for (const auto& r : records) {
    if (r.kind == LogRecord::Kind::Run && r.process == "ctrl" && r.cycles > 0) {
      run = &r;
      break;
    }
  }
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->cycles, 50);
  EXPECT_EQ(run->duration, 1000u);
}

TEST_F(SimFixture, DspComputeAtDspFrequency) {
  Simulation sim(view, {.horizon = 100'000});
  sim.run();
  // dsp1 computes 400*8 = 3200 cycles at 80 MHz -> 40000 ticks.
  const NamedRecord* run = nullptr;
  const auto records = named_records(sim.log());
  for (const auto& r : records) {
    if (r.kind == LogRecord::Kind::Run && r.process == "dsp1" && r.cycles > 0) {
      run = &r;
      break;
    }
  }
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->cycles, 3200);
  EXPECT_EQ(run->duration, 40'000u);
}

TEST_F(SimFixture, RemoteSendHasBusLatency) {
  Simulation sim(view, {.horizon = 50'000});
  sim.run();
  const auto send = first_record(sim.log(), LogRecord::Kind::Send, "ctrl");
  ASSERT_TRUE(send.has_value());
  EXPECT_EQ(send->peer, "dsp1");
  EXPECT_EQ(send->signal, "Req");
  EXPECT_EQ(send->bytes, 8u);
  // The matching receive is strictly later (bus transfer takes time).
  const NamedRecord* recv = nullptr;
  const auto records = named_records(sim.log());
  for (const auto& r : records) {
    if (r.kind == LogRecord::Kind::Receive && r.process == "dsp1") {
      recv = &r;
      break;
    }
  }
  ASSERT_NE(recv, nullptr);
  EXPECT_GT(recv->time, send->time);
  // Req is 8 bytes on a 32-bit 100 MHz segment: 2 words + 2 overhead cycles
  // = 4 cycles = 40 ticks.
  EXPECT_EQ(recv->time - send->time, 40u);
}

TEST_F(SimFixture, CrossBridgeRouteUsesAllSegments) {
  Simulation sim(view, {.horizon = 300'000});
  sim.run();
  const auto& stats = sim.segment_stats();
  EXPECT_GT(stats.at("seg1").transfers, 0u);
  EXPECT_GT(stats.at("bridge").transfers, 0u);
  EXPECT_GT(stats.at("seg2").transfers, 0u);
  // Waiting can only happen when there is contention; busy time must be
  // nonzero wherever transfers happened.
  EXPECT_GT(stats.at("bridge").busy_time, 0u);
}

TEST_F(SimFixture, PeStatsAccumulate) {
  Simulation sim(view, {.horizon = 300'000});
  sim.run();
  const auto& stats = sim.pe_stats();
  EXPECT_GT(stats.at("cpu1").busy_time, 0u);
  EXPECT_GT(stats.at("cpu2").busy_time, 0u);
  EXPECT_GT(stats.at("acc").steps, 0u);
  // The dsp does the heavy lifting in this fixture.
  EXPECT_GT(stats.at("cpu2").busy_time, stats.at("cpu1").busy_time);
}

TEST_F(SimFixture, EnvironmentInjectionReachesProcess) {
  Simulation sim(view, {.horizon = 500'000});
  sim.inject(1000, "pin", *sys.req, {4});
  sim.run();
  // dsp2 received the injected Req and computed 400*4 = 1600 cycles.
  const auto records = named_records(sim.log());
  const NamedRecord* recv = nullptr;
  for (const auto& r : records) {
    if (r.kind == LogRecord::Kind::Receive && r.process == "dsp2") {
      recv = &r;
      break;
    }
  }
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(recv->peer, kEnvironment);
  EXPECT_EQ(recv->time, 1000u);
  const NamedRecord* run = nullptr;
  for (const auto& r : records) {
    if (r.kind == LogRecord::Kind::Run && r.process == "dsp2" && r.cycles > 0) {
      run = &r;
      break;
    }
  }
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->cycles, 1600);
}

TEST_F(SimFixture, InjectionOfUnhandledSignalIsDropped) {
  // dsp2's 'in' port cannot handle Rsp in state Idle via port 'in'.
  Simulation sim(view, {.horizon = 100'000});
  sim.inject(500, "pin", *sys.rsp, {0});
  sim.run();
  EXPECT_EQ(count_records(sim.log(), LogRecord::Kind::Drop, "dsp2"), 1u);
}

TEST_F(SimFixture, InjectPeriodicSchedulesAllOccurrences) {
  Simulation sim(view, {.horizon = 1'000'000});
  sim.inject_periodic(1000, 50'000, 5, "pin", *sys.req, {1});
  sim.run();
  std::size_t received = 0;
  for (const auto& r : named_records(sim.log())) {
    if (r.kind == LogRecord::Kind::Receive && r.process == "dsp2") ++received;
  }
  EXPECT_EQ(received, 5u);
}

TEST_F(SimFixture, SendsToUnconnectedPortGoToEnvironment) {
  Simulation sim(view, {.horizon = 1'000'000});
  sim.inject(1000, "pin", *sys.req, {2});
  sim.run();
  // dsp2 forwards to its unconnected 'hw' port -> environment.
  bool env_send = false;
  for (const auto& r : named_records(sim.log())) {
    if (r.kind == LogRecord::Kind::Send && r.process == "dsp2" &&
        r.peer == kEnvironment) {
      env_send = true;
    }
  }
  EXPECT_TRUE(env_send);
}

TEST_F(SimFixture, DeterministicAcrossRuns) {
  Simulation a(view, {.horizon = 250'000});
  Simulation b(view, {.horizon = 250'000});
  a.inject_periodic(0, 10'000, 10, "pin", *sys.req, {3});
  b.inject_periodic(0, 10'000, 10, "pin", *sys.req, {3});
  a.run();
  b.run();
  EXPECT_EQ(a.log().to_text(), b.log().to_text());
}

TEST_F(SimFixture, RunCanBeResumedWithHigherHorizon) {
  Simulation sim(view, {.horizon = 10'000});
  sim.run();
  const std::size_t after_first = sim.log().size();
  sim.run_until(100'000);
  EXPECT_GT(sim.log().size(), after_first);
  EXPECT_EQ(sim.now(), 100'000u);
}

TEST_F(SimFixture, InstanceInspection) {
  Simulation sim(view, {.horizon = 150'000});
  sim.run();
  const ProcExecutor& dsp1 = sim.instance("dsp1");
  EXPECT_TRUE(dsp1.started());
  EXPECT_GT(dsp1.variable("n"), 0);
  EXPECT_THROW((void)sim.instance("nosuch"), std::out_of_range);
}

TEST(SimErrors, UnmappedProcessThrows) {
  test::MiniSystem sys;
  // Add a process whose group is never mapped.
  auto& p = sys.model.add_part(*sys.app, "orphan", *sys.ctrl_comp);
  p.apply(*sys.prof.application_process);
  mapping::SystemView view(sys.model);
  EXPECT_THROW((Simulation{view}), std::runtime_error);
}

TEST(SimErrors, BehaviorlessComponentThrows) {
  uml::Model model{"m"};
  auto prof = profile::install(model);
  appmodel::ApplicationBuilder ab(model, prof);
  ab.application("A");
  auto& comp = model.create_class("NoSm", nullptr, true);
  comp.apply(*prof.application_component);
  auto& proc = ab.process("p", comp);
  auto& grp = ab.group("g");
  ab.assign(proc, grp);
  platform::PlatformBuilder pb(model, prof);
  pb.platform("P");
  auto& t = pb.component_type("Cpu", {{"Type", "general"}});
  auto& inst = pb.instance("cpu", t);
  mapping::MappingBuilder mb(model, prof);
  mb.map(grp, inst);
  mapping::SystemView view(model);
  EXPECT_THROW((Simulation{view}), std::runtime_error);
}

TEST(SimErrors, UnroutablePesThrow) {
  uml::Model model{"m"};
  auto prof = profile::install(model);
  auto& sig = model.create_signal("S");
  appmodel::ApplicationBuilder ab(model, prof);
  ab.application("A");
  auto& comp = ab.component("C");
  model.add_port(comp, "io").provide(sig).require(sig);
  auto& sm = *comp.behavior();
  model.add_state(sm, "Idle", true);
  auto& p1 = ab.process("p1", comp);
  auto& p2 = ab.process("p2", comp);
  auto& g1 = ab.group("g1");
  auto& g2 = ab.group("g2");
  ab.assign(p1, g1);
  ab.assign(p2, g2);
  platform::PlatformBuilder pb(model, prof);
  pb.platform("P");
  auto& t = pb.component_type("Cpu", {{"Type", "general"}});
  auto& cpu1 = pb.instance("cpu1", t);
  auto& cpu2 = pb.instance("cpu2", t);
  // No segments at all: cpu1 and cpu2 cannot communicate.
  mapping::MappingBuilder mb(model, prof);
  mb.map(g1, cpu1);
  mb.map(g2, cpu2);
  mapping::SystemView view(model);
  EXPECT_THROW((Simulation{view}), std::runtime_error);
}

TEST(SimErrors, AllDefectsAreReportedInOneDiagnostic) {
  test::MiniSystem sys;
  // Two independent defects: an unmapped process and a behaviourless
  // component. The constructor must list both, not bail at the first.
  auto& orphan = sys.model.add_part(*sys.app, "orphan", *sys.ctrl_comp);
  orphan.apply(*sys.prof.application_process);
  auto& bare = sys.model.create_class("Bare", nullptr, true);
  bare.apply(*sys.prof.application_component);
  auto& mute = sys.model.add_part(*sys.app, "mute", bare);
  mute.apply(*sys.prof.application_process);
  mapping::SystemView view(sys.model);
  try {
    Simulation simulation(view);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("defects"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'orphan'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'mute'"), std::string::npos) << msg;
  }
}

TEST(SimInject, AfterRunAcceptsFutureRejectsPast) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);
  Config config;
  config.horizon = 10'000;
  Simulation sim(view, config);
  sim.run();
  ASSERT_EQ(sim.now(), 10'000u);

  // t >= now() is valid — the event runs in the next run_until window.
  sim.inject(10'000, "pin", *sys.req, {1});
  sim.inject(12'000, "pin", *sys.req, {1});
  EXPECT_THROW(sim.inject(9'999, "pin", *sys.req, {1}),
               std::invalid_argument);

  sim.run_until(20'000);
  std::size_t received = 0;
  for (const NamedRecord& r : named_records(sim.log())) {
    if (r.kind == LogRecord::Kind::Receive && r.process == "dsp2") ++received;
  }
  EXPECT_EQ(received, 2u);
}

// ---------------------------------------------------------------------------
// Wrapper MaxTime chunking and config knobs
// ---------------------------------------------------------------------------

namespace {

/// Two PEs on one segment; the sender's wrapper has a small MaxTime so a
/// large transfer must re-arbitrate in chunks.
struct ChunkedSystem {
  uml::Model model{"chunked"};
  profile::TutProfile prof = profile::install(model);
  uml::Signal* big = nullptr;

  ChunkedSystem(long max_time_cycles) {
    big = &model.create_signal("Big");
    big->set_payload_bytes(512);  // 128 words on a 32-bit bus

    appmodel::ApplicationBuilder ab(model, prof);
    auto& app = ab.application("ChunkApp");
    auto& src_cls = ab.component("Src");
    model.add_port(src_cls, "out").require(*big);
    {
      auto& sm = *src_cls.behavior();
      auto& idle = model.add_state(sm, "Idle", true);
      idle.on_entry(uml::Action::set_timer("t", "100"));
      auto& done = model.add_state(sm, "Done");
      model.add_timer_transition(sm, idle, done, "t")
          .add_effect(uml::Action::send("out", *big));
    }
    auto& dst_cls = ab.component("Dst");
    model.add_port(dst_cls, "in").provide(*big);
    {
      auto& sm = *dst_cls.behavior();
      auto& idle = model.add_state(sm, "Idle", true);
      model.add_transition(sm, idle, idle, *big, "in")
          .add_effect(uml::Action::compute("1"));
    }
    auto& p_src = ab.process("src", src_cls);
    auto& p_dst = ab.process("dst", dst_cls);
    model.connect(app, "src", "out", "dst", "in");
    auto& g1 = ab.group("g1");
    auto& g2 = ab.group("g2");
    ab.assign(p_src, g1);
    ab.assign(p_dst, g2);

    platform::PlatformBuilder pb(model, prof);
    pb.platform("P");
    auto& cpu = pb.component_type("Cpu", {{"Type", "general"},
                                          {"Frequency", "100"}});
    auto& pe1 = pb.instance("pe1", cpu);
    auto& pe2 = pb.instance("pe2", cpu);
    auto& seg = pb.segment("bus", {{"DataWidth", "32"}, {"Frequency", "100"}});
    pb.wrapper(pe1, seg, {{"MaxTime", std::to_string(max_time_cycles)}});
    pb.wrapper(pe2, seg);
    mapping::MappingBuilder mb(model, prof);
    mb.map(g1, pe1);
    mb.map(g2, pe2);
  }
};

}  // namespace

TEST(MaxTimeChunking, LargeTransferSplitsIntoGrants) {
  // 512 bytes -> 128 words + 2 overhead cycles = 130 cycles; MaxTime 4
  // means ceil(130 / 4) = 33 grants for one logical transfer.
  ChunkedSystem sys(4);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 100'000});
  sim.run();
  const auto& stats = sim.segment_stats().at("bus");
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_EQ(stats.grants, 33u);
  // Total busy time equals the uncapped transfer time (130 cycles at
  // 100 MHz = 1300 ticks): chunking re-arbitrates but wastes no bandwidth
  // when the segment is otherwise idle.
  EXPECT_EQ(stats.busy_time, 1300u);
}

TEST(MaxTimeChunking, UnlimitedUsesOneGrant) {
  ChunkedSystem sys(0);  // MaxTime 0 = unlimited
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 100'000});
  sim.run();
  const auto& stats = sim.segment_stats().at("bus");
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_EQ(stats.grants, 1u);
  EXPECT_EQ(stats.busy_time, 1300u);
}

TEST(SimConfig, LogRunsCanBeDisabled) {
  test::MiniSystem sys;
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 50'000, .log_runs = false});
  sim.run();
  std::size_t runs = 0, sends = 0;
  for (const auto& r : named_records(sim.log())) {
    if (r.kind == LogRecord::Kind::Run) ++runs;
    if (r.kind == LogRecord::Kind::Send) ++sends;
  }
  EXPECT_EQ(runs, 0u);
  EXPECT_GT(sends, 0u);
  // Stats still accumulate.
  EXPECT_GT(sim.pe_stats().at("cpu1").busy_time, 0u);
}

TEST(SimConfig, SegmentOverheadConfigurable) {
  ChunkedSystem a(0), b(0);
  mapping::SystemView va(a.model), vb(b.model);
  Simulation sa(va, {.horizon = 100'000, .segment_overhead_cycles = 2});
  Simulation sb(vb, {.horizon = 100'000, .segment_overhead_cycles = 30});
  sa.run();
  sb.run();
  // 28 extra cycles at 100 MHz = 280 extra ticks of bus busy time.
  EXPECT_EQ(sb.segment_stats().at("bus").busy_time -
                sa.segment_stats().at("bus").busy_time,
            280u);
}
