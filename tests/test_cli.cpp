// Integration tests for the `tut` command-line tool: the full external
// workflow (simulate -> validate -> info -> diagram -> codegen -> profile)
// driven exactly as a user would drive it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

namespace {

#ifndef TUT_CLI_PATH
#define TUT_CLI_PATH "tut"
#endif

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  // The capture file carries the pid for the same reason kWork does below:
  // concurrently running test processes must not share temp paths.
  static int counter = 0;
  const fs::path out =
      fs::temp_directory_path() / ("tut_cli_out_" + std::to_string(getpid()) +
                                   "_" + std::to_string(counter++));
  const std::string cmd =
      std::string(TUT_CLI_PATH) + " " + args + " > " + out.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  std::ifstream in(out);
  CliResult result;
  result.output.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  result.exit_code = WEXITSTATUS(rc);
  fs::remove(out);
  return result;
}

// Per-process work dir: ctest runs each test in its own process, and a
// shared path would let one test's SetUpTestSuite wipe the artifacts
// another test is still reading when the suite runs in parallel.
const fs::path kWork = fs::temp_directory_path() /
                       ("tut_cli_work_" + std::to_string(getpid()));

class CliFlow : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    fs::remove_all(kWork);
    const CliResult r = run_cli("simulate tutmac " + kWork.string() + " 5");
    ASSERT_EQ(r.exit_code, 0) << r.output;
  }
  static void TearDownTestSuite() { fs::remove_all(kWork); }
  static std::string model() { return (kWork / "model.xml").string(); }
  static std::string simlog() { return (kWork / "sim.log").string(); }
};

}  // namespace

TEST_F(CliFlow, SimulateWroteArtifacts) {
  EXPECT_TRUE(fs::exists(model()));
  EXPECT_TRUE(fs::exists(simlog()));
  EXPECT_GT(fs::file_size(simlog()), 100u);
}

TEST_F(CliFlow, ValidatePassesOnTutmac) {
  const CliResult r = run_cli("validate " + model());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 errors"), std::string::npos);
}

TEST_F(CliFlow, InfoSummarizesTheSystem) {
  const CliResult r = run_cli("info " + model());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("Tutmac_Protocol"), std::string::npos);
  EXPECT_NE(r.output.find("group1 -> processor1"), std::string::npos);
  EXPECT_NE(r.output.find("4 component instances"), std::string::npos);
}

TEST_F(CliFlow, DiagramsRender) {
  for (const char* fig : {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}) {
    const CliResult r = run_cli(std::string("diagram ") + model() + " " + fig);
    EXPECT_EQ(r.exit_code, 0) << fig;
    EXPECT_FALSE(r.output.empty()) << fig;
  }
  EXPECT_NE(run_cli("diagram " + model() + " fig99").exit_code, 0);
}

TEST_F(CliFlow, ProfilePrintsTable4AndLatencies) {
  const CliResult r = run_cli("profile " + model() + " " + simlog());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(a) Process group execution"), std::string::npos);
  EXPECT_NE(r.output.find("group1"), std::string::npos);
  EXPECT_NE(r.output.find("End-to-end signal latencies"), std::string::npos);
}

TEST_F(CliFlow, CodegenWritesSources) {
  const fs::path dir = kWork / "gen";
  const CliResult r = run_cli("codegen " + model() + " " + dir.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(fs::exists(dir / "radio_channel_access.c"));
  EXPECT_FALSE(fs::exists(dir / "tut_runtime_host.c"));

  const fs::path host_dir = kWork / "gen_host";
  const CliResult rh =
      run_cli("codegen " + model() + " " + host_dir.string() + " --host");
  EXPECT_EQ(rh.exit_code, 0) << rh.output;
  EXPECT_TRUE(fs::exists(host_dir / "tut_runtime_host.c"));
  EXPECT_TRUE(fs::exists(host_dir / "platform_glue.c"));
}

TEST_F(CliFlow, RoundTripIsStable) {
  const CliResult once = run_cli("roundtrip " + model());
  ASSERT_EQ(once.exit_code, 0);
  // Write and round-trip again: fixed point.
  const fs::path copy = kWork / "copy.xml";
  std::ofstream(copy) << once.output;
  const CliResult twice = run_cli("roundtrip " + copy.string());
  EXPECT_EQ(once.output, twice.output);
}

TEST_F(CliFlow, LintPassesOnTutmacEvenUnderWerror) {
  const CliResult r = run_cli("lint " + model());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 errors, 0 warnings"), std::string::npos);
  // The single-accelerator failover note is informational and never blocks.
  EXPECT_NE(r.output.find("map.failover.infeasible"), std::string::npos);
  EXPECT_EQ(run_cli("lint " + model() + " --Werror").exit_code, 0);
}

TEST_F(CliFlow, LintJsonSharesTheDiagnosticRenderer) {
  const CliResult r = run_cli("lint " + model() + " --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(r.output.find("\"errors\":0"), std::string::npos);
  EXPECT_NE(r.output.find("\"infos\":1"), std::string::npos);

  const CliResult v = run_cli("validate " + model() + " --json");
  EXPECT_EQ(v.exit_code, 0) << v.output;
  EXPECT_NE(v.output.find("\"errors\":0"), std::string::npos);
}

TEST_F(CliFlow, LintFlagsASeveredConnectorUnderWerror) {
  // Sever the first connector in the document: whichever it is, some signal
  // path dies and the linter must say so (warning at minimum).
  std::ifstream in(model());
  std::string xml((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const auto at = xml.find("<connector");
  ASSERT_NE(at, std::string::npos);
  const auto close = xml.find("</connector>", at);
  ASSERT_NE(close, std::string::npos);
  const auto end = xml.find('\n', close);
  const auto line_start = xml.rfind('\n', at);
  xml.erase(line_start, end - line_start);
  const fs::path broken = kWork / "severed.xml";
  std::ofstream(broken) << xml;

  const CliResult r = run_cli("lint " + broken.string() + " --Werror");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("flow."), std::string::npos) << r.output;
}

TEST_F(CliFlow, LintBaselineRoundTripSuppresses) {
  const fs::path bl = kWork / "lint.baseline";
  ASSERT_EQ(run_cli("lint " + model() + " --write-baseline " + bl.string())
                .exit_code,
            0);
  const CliResult r = run_cli("lint " + model() + " --baseline " + bl.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("baseline-suppressed"), std::string::npos);
}

TEST_F(CliFlow, LintStaleBaselineEntriesWarn) {
  const fs::path bl = kWork / "stale.baseline";
  std::ofstream(bl) << "efsm.guard.false\tSome.Gone.Element\n"
                       "map.failover.infeasible\tTUTWLAN_Platform."
                       "accelerator1\n";
  const CliResult r = run_cli("lint " + model() + " --baseline " + bl.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The second entry still matches; only the first is reported stale, with
  // the rotten rule id in the message.
  EXPECT_NE(r.output.find("analysis.baseline.stale"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'efsm.guard.false'"), std::string::npos);
  EXPECT_EQ(r.output.find("'map.failover.infeasible'"), std::string::npos);
  // A freshly written baseline has no stale entries to warn about.
  const fs::path fresh = kWork / "fresh.baseline";
  ASSERT_EQ(
      run_cli("lint " + model() + " --write-baseline " + fresh.string())
          .exit_code,
      0);
  const CliResult rf =
      run_cli("lint " + model() + " --baseline " + fresh.string());
  EXPECT_EQ(rf.output.find("analysis.baseline.stale"), std::string::npos)
      << rf.output;
}

TEST_F(CliFlow, LintRulesFilterAcceptsGlobsAndRejectsUnknownIds) {
  // Glob filter: only efsm.* findings survive (TUTMAC has none, so the
  // failover info disappears from the report).
  const CliResult glob = run_cli("lint " + model() + " --rules efsm.*");
  EXPECT_EQ(glob.exit_code, 0) << glob.output;
  EXPECT_EQ(glob.output.find("map.failover.infeasible"), std::string::npos);
  // Exact id keeps exactly that rule's findings.
  const CliResult exact =
      run_cli("lint " + model() + " --rules map.failover.infeasible");
  EXPECT_EQ(exact.exit_code, 0) << exact.output;
  EXPECT_NE(exact.output.find("map.failover.infeasible"), std::string::npos);
  // Unknown ids and globs matching nothing fail loudly with the tag.
  const CliResult bad = run_cli("lint " + model() + " --rules efsm.bogus");
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("[lint.rules.unknown]"), std::string::npos)
      << bad.output;
  const CliResult none = run_cli("lint " + model() + " --rules zzz.*");
  EXPECT_EQ(none.exit_code, 1);
  EXPECT_NE(none.output.find("[lint.rules.unknown]"), std::string::npos);
}

TEST_F(CliFlow, LintAbsintTogglesTheRangePass) {
  // Both spellings are accepted; with the pass off, the range rules are
  // still listed in the catalog but can never fire.
  EXPECT_EQ(run_cli("lint " + model() + " --absint --Werror").exit_code, 0);
  EXPECT_EQ(run_cli("lint " + model() + " --no-absint --Werror").exit_code, 0);
}

TEST_F(CliFlow, EfsmDumpPrintsValueRanges) {
  const CliResult r = run_cli("efsm dump " + model());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("value ranges:"), std::string::npos) << r.output;
}

TEST(CliCampaign, DryRunPrintsPlanWithoutRunning) {
  const fs::path xml =
      fs::temp_directory_path() /
      ("tut_cli_campaign_" + std::to_string(getpid()) + ".xml");
  std::ofstream(xml) << "<tut:campaign name=\"dry\" seed=\"7\" "
                        "horizon=\"2000000\">\n"
                        "  <axis name=\"seed\" count=\"4\"/>\n"
                        "  <axis name=\"slotPeriod\" values=\"50000 "
                        "100000\"/>\n"
                        "</tut:campaign>\n";
  const CliResult r =
      run_cli("campaign tutmac " + xml.string() + " --dry-run");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("campaign 'dry' (dry run)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("scenarios:   8"), std::string::npos);
  EXPECT_NE(r.output.find("axis:        slotPeriod (2 values)"),
            std::string::npos);
  EXPECT_NE(r.output.find("fingerprint: "), std::string::npos);
  EXPECT_NE(r.output.find("part file:   "), std::string::npos);
  // Dry means dry: no aggregate block, no samples, no simulation output.
  EXPECT_EQ(r.output.find("aggregate"), std::string::npos);
  fs::remove(xml);
}

TEST(CliSimulate, SpilledDegradedRunReportsLikeUnbounded) {
  // A degraded-mode run prints the profiling report of its own in-memory
  // log. Under a profile whose 16-record cap spills nearly all of that log
  // to disk, the report and the written log must match the run without one.
  const fs::path dir = fs::temp_directory_path() /
                       ("tut_cli_spill_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path plan = dir / "plan.xml";
  const fs::path profile = dir / "profile.xml";
  const fs::path spill = dir / "sim.spill";
  std::ofstream(plan)
      << "<tut:faultplan seed=\"3\">\n"
         "  <peFault component=\"processor2\" start=\"1000000\" "
         "end=\"3000000\"/>\n"
         "</tut:faultplan>\n";
  std::ofstream(profile) << "<tut:profile class=\"custom\" spill=\""
                         << spill.string()
                         << "\"><cap name=\"logRecords\" value=\"16\"/>"
                            "</tut:profile>\n";
  const std::string args = " 5 --faults " + plan.string();
  const CliResult plain =
      run_cli("simulate tutmac " + (dir / "plain").string() + args);
  const CliResult spilled =
      run_cli("simulate tutmac " + (dir / "spilled").string() + args +
              " --profile=" + profile.string());
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  // The run completed under a 16-record cap that rejects it without the
  // spill path, so it spilled. The spill is a memory device, not an output:
  // the log removed it when it died.
  ASSERT_EQ(spilled.exit_code, 0) << spilled.output;
  EXPECT_FALSE(fs::exists(spill)) << "tut simulate left its spill file";
  const fs::path no_spill = dir / "no_spill.xml";
  std::ofstream(no_spill) << "<tut:profile class=\"custom\"><cap "
                             "name=\"logRecords\" value=\"16\"/>"
                             "</tut:profile>\n";
  const CliResult rejected =
      run_cli("simulate tutmac " + (dir / "rejected").string() + args +
              " --profile=" + no_spill.string());
  EXPECT_NE(rejected.exit_code, 0) << rejected.output;
  EXPECT_NE(rejected.output.find("[envelope.log.overflow]"), std::string::npos)
      << rejected.output;

  const auto report = [](const std::string& output) {
    const std::size_t at = output.find("(c) Reliability");
    return at == std::string::npos ? std::string() : output.substr(at);
  };
  EXPECT_NE(report(plain.output).find("migrations: "), std::string::npos)
      << plain.output;
  EXPECT_EQ(report(spilled.output), report(plain.output));
  const auto read = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string log = read(dir / "plain" / "sim.log");
  EXPECT_GT(log.size(), 100u);
  EXPECT_EQ(read(dir / "spilled" / "sim.log"), log);
  fs::remove_all(dir);
}

TEST(CliSimulate, BatchConcurrencyClampIsNotedLikeACampaign) {
  // A batch clamped by its profile says so on a "note:" line, exactly as
  // `tut campaign` prints its envelope notes; an unclamped batch prints none.
  const fs::path dir = fs::temp_directory_path() /
                       ("tut_cli_batch_note_" + std::to_string(getpid()));
  const std::string note =
      "note: [envelope.concurrency.capped] 8 workers capped at 2 by profile "
      "'constrained'\n";
  const CliResult capped =
      run_cli("simulate tutmac " + dir.string() +
              " 5 --batch 4 --threads 8 --profile=constrained");
  ASSERT_EQ(capped.exit_code, 0) << capped.output;
  EXPECT_NE(capped.output.find(note + "batch of 4 scenarios over 2 thread(s)"),
            std::string::npos)
      << capped.output;
  EXPECT_NE(capped.output.find("determinism check: ok"), std::string::npos);
  const CliResult within =
      run_cli("simulate tutmac " + dir.string() +
              " 5 --batch 4 --threads 2 --profile=constrained");
  ASSERT_EQ(within.exit_code, 0) << within.output;
  EXPECT_EQ(within.output.find("note:"), std::string::npos) << within.output;
  fs::remove_all(dir);
}

TEST(CliErrors, UsageAndMissingFiles) {
  EXPECT_EQ(run_cli("lint /nonexistent/model.xml").exit_code, 1);
  const CliResult rules = run_cli("lint --rules");
  EXPECT_EQ(rules.exit_code, 0);
  EXPECT_NE(rules.output.find("efsm.state.unreachable"), std::string::npos);
  EXPECT_NE(rules.output.find("map.group.unmapped"), std::string::npos);
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("frobnicate x").exit_code, 2);
  EXPECT_EQ(run_cli("validate /nonexistent/model.xml").exit_code, 1);
  EXPECT_EQ(run_cli("profile /nonexistent/a.xml /nonexistent/b.log").exit_code,
            1);
}

// The client subcommands parse --backend like the single-shot ones: an
// unknown value is a usage error (exit 2) before any connection is tried.
TEST(CliErrors, ClientSimulateRejectsUnknownBackend) {
  const CliResult r =
      run_cli("client --port 1 simulate tutmac /nonexistent/out --backend=nativ");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage: tut"), std::string::npos);
}

TEST(CliErrors, ClientCampaignRejectsUnknownBackend) {
  const CliResult r = run_cli(
      "client --port 1 campaign tutmac /nonexistent/c.xml --backend nativ");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage: tut"), std::string::npos);
}
