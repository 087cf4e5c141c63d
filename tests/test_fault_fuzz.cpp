// Fault-plan fuzzing: generate a random (but seeded, hence reproducible)
// fault plan for the TUTMAC case study, run a short co-simulation under it,
// and check the run terminates, its log parses, its digest is the hash of its
// text, and a second identical run is byte-identical. Each round's log then seeds a mutation fuzz of the log
// decoder (`tut profile` reads logs from disk): every mutant is either
// rejected with the tagged [log.line.malformed] error, or parses to a log
// that says what the mutant said and whose text round trip is a fixed
// point. CI runs this under ASan/UBSan for a matrix of seeds
// (TUT_FUZZ_SEED); locally a single default seed keeps the test fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "intern/fnv.hpp"
#include "mapping/mapping.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;
using namespace tut::sim;

namespace {

std::uint64_t fuzz_seed() {
  const char* env = std::getenv("TUT_FUZZ_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// A random plan over the real TUTMAC platform names. Windows are bounded
/// by the horizon so every generated scenario is meaningful.
FaultPlan random_plan(std::mt19937_64& rng, Time horizon) {
  const std::vector<std::string> pes = {"processor1", "processor2",
                                        "processor3", "accelerator1"};
  const std::vector<std::string> segs = {"hibisegment1", "hibisegment2",
                                         "bridge"};
  auto window = [&](const std::string& name) {
    FaultWindow w;
    w.component = name;
    w.start = rng() % horizon;
    // 1 in 4 permanent, else a bounded outage.
    if (rng() % 4 != 0) w.end = w.start + 1 + rng() % (horizon - w.start);
    return w;
  };

  FaultPlan plan;
  plan.seed = rng();
  const std::size_t n_pe = rng() % 3;       // 0..2 PE faults
  for (std::size_t i = 0; i < n_pe; ++i) {
    plan.pe_faults.push_back(window(pes[rng() % pes.size()]));
  }
  const std::size_t n_seg = rng() % 3;      // 0..2 segment faults
  for (std::size_t i = 0; i < n_seg; ++i) {
    plan.segment_faults.push_back(window(segs[rng() % segs.size()]));
  }
  const std::size_t n_ber = rng() % 3;      // 0..2 bit-error specs
  for (std::size_t i = 0; i < n_ber; ++i) {
    plan.bit_errors.push_back(
        {segs[rng() % segs.size()],
         static_cast<std::uint32_t>(rng() % 1'000'001)});
  }
  if (rng() % 2 == 0) plan.watchdog_timeout = 100'000 + rng() % horizon;
  plan.max_retries = static_cast<int>(rng() % 6);
  plan.retry_backoff = 50 + rng() % 1'000;
  return plan;
}

/// The rendered log of one run. Also checks the digest contract on it:
/// digest() hashes exactly the text that to_text() renders.
std::string run_once(const tutmac::System& sys, const FaultPlan& plan,
                     Time horizon) {
  mapping::SystemView view(*sys.model);
  Config config;
  config.horizon = horizon;
  config.faults = plan;
  Simulation simulation(view, config);
  sys.inject_workload(simulation);
  simulation.run();
  std::string text = simulation.log().to_text();
  EXPECT_EQ(simulation.log().digest(), intern::Fnv::of(text));
  return text;
}

/// Byte range of one blank-separated field of a rendered log.
struct Field {
  std::size_t pos = 0;
  std::size_t len = 0;
};

std::vector<Field> fields_of(const std::string& text) {
  std::vector<Field> out;
  for (std::size_t i = 0; i < text.size();) {
    const std::size_t end = text.find_first_of(" \t\n", i);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    if (stop > i) out.push_back({i, stop - i});
    i = stop + 1;
  }
  return out;
}

/// One to three mutations: bit flips, truncations, field deletions and
/// duplications, digit runs past 2^64, inserted signs, and inserted CRs or
/// tabs.
std::string mutate(std::string text, std::mt19937_64& rng) {
  const int n = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n && !text.empty(); ++i) {
    const std::vector<Field> fields = fields_of(text);
    const Field f = fields.empty() ? Field{} : fields[rng() % fields.size()];
    switch (rng() % 7) {
      case 0:
        text[rng() % text.size()] ^= static_cast<char>(1u << (rng() % 8));
        break;
      case 1:
        text.resize(rng() % text.size());
        break;
      case 2:  // with its leading separator, which may join two lines
        text.erase(f.pos - (f.pos > 0), f.len + (f.pos > 0));
        break;
      case 3:
        text.insert(f.pos + f.len, " " + text.substr(f.pos, f.len));
        break;
      case 4:
        text.replace(f.pos, f.len,
                     "18446744073709551616" + std::string(rng() % 4, '9'));
        break;
      case 5:
        text.insert(f.pos, rng() % 2 ? "-" : "+");
        break;
      default:
        text.insert(rng() % text.size(), rng() % 2 ? "\r" : "\t");
        break;
    }
  }
  return text;
}

/// A digit token without leading zeros (and "-0" without its sign); any
/// other token unchanged.
std::string canonical_number(std::string_view token) {
  const bool negative = !token.empty() && token[0] == '-';
  std::string_view digits = token.substr(negative ? 1 : 0);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::string(token);
  }
  digits.remove_prefix(std::min(digits.find_first_not_of('0'),
                                digits.size() - 1));
  return (negative && digits != "0" ? "-" : "") + std::string(digits);
}

/// The record lines of `text`, spelled one way: blank runs become one
/// space, a line-final CR goes, digit tokens are canonical_number()ed, and
/// blank and '#' lines are dropped. An accepted log must mean exactly what
/// its text says, so the mutant and its re-rendering agree on these.
std::vector<std::string> record_lines(std::string_view text) {
  std::vector<std::string> out;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    std::string norm;
    for (std::size_t i = 0; i < line.size();) {
      const std::size_t stop = std::min(line.find_first_of(" \t", i),
                                        line.size());
      if (stop > i) {
        if (!norm.empty()) norm += ' ';
        norm += canonical_number(line.substr(i, stop - i));
      }
      i = stop + 1;
    }
    if (!norm.empty() && norm[0] != '#') out.push_back(std::move(norm));
  }
  return out;
}

/// Parses `mutant`: a rejection must be the tagged runtime_error; an
/// accepted log must re-render to a text round-trip fixed point that
/// still says what the mutant said.
void check_mutant(const std::string& mutant) {
  std::string canonical;
  try {
    canonical = SimulationLog::parse(mutant).to_text();
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string_view(e.what()).substr(0, 21),
              "[log.line.malformed] ")
        << e.what();
    return;
  }
  std::string again;
  EXPECT_NO_THROW(again = SimulationLog::parse(canonical).to_text())
      << "mutant:\n" << mutant;
  EXPECT_EQ(again, canonical) << "mutant:\n" << mutant;
  EXPECT_EQ(record_lines(mutant), record_lines(canonical))
      << "mutant:\n" << mutant;
}

}  // namespace

TEST(FaultFuzz, RandomPlansRunToCompletionDeterministically) {
  constexpr Time kHorizon = 5'000'000;  // 5 ms keeps sanitizer runs quick
  std::mt19937_64 rng(fuzz_seed());
  // Separate stream, so the mutants do not change which plans a seed draws.
  std::mt19937_64 mutation_rng(fuzz_seed() ^ 0x6c6f672d66757a7aULL);

  tutmac::Options opt;
  opt.horizon = kHorizon;
  const tutmac::System sys = tutmac::build(opt);

  for (int round = 0; round < 4; ++round) {
    const FaultPlan plan = random_plan(rng, kHorizon);
    SCOPED_TRACE("seed " + std::to_string(fuzz_seed()) + " round " +
                 std::to_string(round) + "\n" + plan.to_xml_text());

    // The generated plan survives its own XML interchange.
    const FaultPlan parsed = FaultPlan::from_xml_text(plan.to_xml_text());
    EXPECT_EQ(parsed.to_xml_text(), plan.to_xml_text());

    const std::string first = run_once(sys, plan, kHorizon);
    EXPECT_FALSE(first.empty());
    EXPECT_NO_THROW({
      const SimulationLog reparsed = SimulationLog::parse(first);
      EXPECT_EQ(reparsed.to_text(), first);
    });

    // Bit-reproducible: a fresh simulation over the same plan produces the
    // same bytes.
    EXPECT_EQ(run_once(sys, plan, kHorizon), first);

    for (int m = 0; m < 64; ++m) check_mutant(mutate(first, mutation_rng));
  }
}
