#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "analysis/analyzer.hpp"
#include "codegen/native.hpp"
#include "mapping/mapping.hpp"
#include "profile/tut_profile.hpp"
#include "profiler/profiler.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "synth/synth.hpp"
#include "tutmac/tutmac.hpp"
#include "uml/serialize.hpp"
#include "xml/tree.hpp"

namespace tutbench {

using namespace tut;

namespace {

// Seed-1 pins: the outputs every run at seed 1 must reproduce.
constexpr std::uint64_t kCampaign100kPin = 0xde27e2d909776e75ull;
constexpr std::uint64_t kCampaign10kPin = 0x141663b2fde7e26dull;
constexpr std::uint64_t kFlowLogPin = 0xdde15e7275bd2262ull;
constexpr std::uint64_t kFlowReportPin = 0xc7f114cb38d7b598ull;
constexpr std::uint64_t kSocPin = 0x21cb44e8aee35fa3ull;
// `tut simulate tutmac DIR 5`'s sim.log and `tut lint` of its model.xml.
constexpr std::uint64_t kServeLogPin = 0x2ca705a53ad71d96ull;
constexpr std::uint64_t kServeLintPin = 0x664260be6a8870baull;
constexpr std::uint64_t kLintPins[6] = {
    0x664260be6a8870baull, 0x283a8d1f3da3bfe4ull, 0x11c19eccb8b626b9ull,
    0x668eb50e70db12bcull, 0xee89df1b9a9ca6b3ull, 0xc4a353eace23a4bfull};

double elapsed_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over text: the hash log_digest applies to a rendered log.
std::uint64_t text_hash(std::string_view text) {
  return sim::BatchRunner::hash_text(text);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("tutbench: cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Deterministic input perturbation: `base` scaled by a draw within ±5%,
/// keyed on (seed, stream). Seed 1 keeps `base`.
std::uint64_t perturb(std::uint64_t base, std::uint64_t seed,
                      std::uint64_t stream) {
  if (seed == 1) return base;
  const double u = static_cast<double>(sim::FaultRng::draw(seed, stream, 0) >> 11) *
                   0x1.0p-53;
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(base) * (1.0 + 0.05 * (2 * u - 1))));
}

/// A seed for a generator the workload owns, keyed on (seed, stream); seed
/// 1 keeps the generator's default seed, 1.
std::uint32_t derived_seed(std::uint64_t seed, std::uint64_t stream) {
  if (seed == 1) return 1;
  return static_cast<std::uint32_t>(sim::FaultRng::draw(seed, stream, 1) | 1u);
}

/// Counts the simulator produced, summed over ops. Simulated quantities:
/// a change that only speeds up the simulator leaves them identical.
struct SimCounts {
  double events = 0, pe_steps = 0, grants = 0, transfers = 0, wait_ticks = 0;
  double retries = 0, drops = 0, migrations = 0, records = 0, log_bytes = 0;

  void add(const sim::Simulation& s, std::size_t rendered_bytes) {
    events += static_cast<double>(s.events_dispatched());
    for (const auto& [name, pe] : s.pe_stats()) {
      pe_steps += static_cast<double>(pe.steps);
    }
    for (const auto& [name, seg] : s.segment_stats()) {
      grants += static_cast<double>(seg.grants);
      transfers += static_cast<double>(seg.transfers);
      wait_ticks += static_cast<double>(seg.wait_time);
    }
    const sim::SimulationLog& log = s.log();
    retries += static_cast<double>(log.retry_count());
    drops += static_cast<double>(log.drop_count());
    for (const sim::SimulationLog::Compact& r : log.compact_records()) {
      if (r.kind == sim::LogRecord::Kind::Migrate) ++migrations;
    }
    records += static_cast<double>(log.size());
    log_bytes += static_cast<double>(rendered_bytes);
  }

  void report(double ops, std::vector<Metric>& out) const {
    const double n = std::max(ops, 1.0);
    out.push_back({"sim.events_per_op", events / n, "count"});
    out.push_back({"sim.pe_steps_per_op", pe_steps / n, "count"});
    out.push_back({"hibi.grants_per_op", grants / n, "count"});
    out.push_back({"hibi.transfers_per_op", transfers / n, "count"});
    out.push_back({"hibi.wait_ticks_per_op", wait_ticks / n, "count"});
    out.push_back({"fault.retries_per_op", retries / n, "count"});
    out.push_back({"fault.drops_per_op", drops / n, "count"});
    out.push_back({"fault.migrations_per_op", migrations / n, "count"});
    out.push_back({"log.records_per_op", records / n, "count"});
    out.push_back({"log.bytes_per_op", log_bytes / n, "count"});
  }
};

/// One periodic environment stream with tutmac::System::inject_workload's
/// arithmetic: first = period + offset, then every period to the horizon.
struct Stream {
  std::string port;
  std::string signal;
  sim::Time period = 0;
  sim::Time offset = 0;
  std::vector<long> args;
};

std::vector<Stream> tutmac_streams(const tutmac::System& sys,
                                   const tutmac::Options& o) {
  return {{"pphy", sys.radio_slot->name(), o.slot_period, 0, {}},
          {"pphy", sys.rx_frame->name(), o.rx_period, 7'777, {256}},
          {"puser", sys.user_msdu->name(), o.msdu_period, 3'333, {512}}};
}

void inject(sim::Simulation& simulation, const uml::Model& model,
            const std::vector<Stream>& streams, sim::Time horizon) {
  for (const Stream& w : streams) {
    const uml::Signal* signal = model.find_signal(w.signal);
    if (signal == nullptr) {
      throw std::runtime_error("tutbench: model has no signal '" + w.signal +
                               "'");
    }
    const sim::Time first = w.period + w.offset;
    const std::size_t count =
        first >= horizon ? 0
                         : static_cast<std::size_t>((horizon - first) / w.period);
    simulation.inject_periodic(first, w.period, count, w.port, *signal, w.args);
  }
}

/// The per-unit loop the workloads share: times `unit()` until `seconds`
/// have passed and `more()` is false. `verify(output, m)` checks each
/// unit's output outside the timing and returns the ops the unit completed.
template <typename Unit, typename Verify, typename More>
Measurement timed_units(double seconds, Unit unit, Verify verify, More more) {
  Measurement m;
  const std::int64_t start = now_ns();
  do {
    const std::int64_t t0 = now_ns();
    const auto output = unit();
    const std::int64_t t1 = now_ns();
    const std::uint64_t ops = verify(output, m);
    m.units.add(static_cast<double>(t1 - t0) / 1e6, static_cast<double>(ops));
    m.ops += ops;
  } while (elapsed_s(start) < seconds || more());
  return m;
}

// ---------------------------------------------------------------------------
// tutmac-flow: the paper's Fig. 2 loop, model XML to profiling report.
// ---------------------------------------------------------------------------

class FlowWorkload final : public Workload {
 public:
  explicit FlowWorkload(const Params& p) : p_(p) {}

  void setup(TraceBuffer* t) override {
    Span root(t, "setup");
    tutmac::Options o;
    o.horizon = kHorizon;
    o.rx_period = perturb(o.rx_period, p_.seed, 1);
    o.msdu_period = perturb(o.msdu_period, p_.seed, 2);
    tutmac::System sys;
    {
      Span s(t, "tutmac.build");
      sys = tutmac::build(o);
    }
    {
      Span s(t, "uml.to_xml");
      xml_ = uml::to_xml_string(*sys.model);
    }
    streams_ = tutmac_streams(sys, o);
  }

  void warm_up() override { check(session(nullptr, 0, nullptr)); }

  Measurement measure(double seconds) override {
    return timed_units(
        seconds, [this] { return session(nullptr, 0, nullptr); },
        [this](const Output& out, Measurement& m) {
          if (!check(out)) ++m.failed;
          return std::uint64_t{1};
        },
        [] { return false; });
  }

  Measurement trace(std::vector<std::unique_ptr<TraceBuffer>>& buffers,
                    double scale, std::vector<Metric>& metrics) override {
    TraceBuffer& t = *buffers[0];
    const int n = std::max(1, static_cast<int>(std::lround(25 * scale)));
    Measurement m;
    double plain_ns = 0, traced_ns = 0;
    SimCounts counts;
    // An untraced and a traced session alternate, so drifting host load
    // falls on both alike.
    for (int i = 0; i < n; ++i) {
      std::int64_t t0 = now_ns();
      const Output plain = session(nullptr, 0, nullptr);
      plain_ns += static_cast<double>(now_ns() - t0);
      if (!check(plain)) ++m.failed;
      t0 = now_ns();
      const Output out = session(&t, static_cast<std::uint64_t>(i) + 1, &counts);
      traced_ns += static_cast<double>(now_ns() - t0);
      if (!check(out)) ++m.failed;
      // Both from_xml_text and ProcessGroupInfo::from_xml parse the model.
      for (int k = 0; k < 2; ++k) {
        const std::int64_t p0 = now_ns();
        const xml::Tree tree = xml::Tree::parse(xml_);
        t.add("probe.xml.parse", p0, now_ns());
      }
    }
    m.ops = static_cast<std::uint64_t>(n);
    counts.report(n, metrics);
    metrics.push_back({"xml.bytes_per_op", 2.0 * static_cast<double>(xml_.size()),
                       "count"});
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (traced_ns / plain_ns - 1), "%"});
    return m;
  }

 private:
  static constexpr sim::Time kHorizon = 500'000'000;  // 500 ms simulated

  struct Output {
    std::string log;     ///< the rendered simulation log-file
    std::string report;  ///< Table 4 report plus latencies
  };

  Output session(TraceBuffer* t, std::uint64_t op, SimCounts* counts) const {
    Span root(t, "op.session", op);
    std::unique_ptr<uml::Model> model;
    {
      Span s(t, "uml.from_xml");
      model = uml::from_xml_text(xml_);
    }
    std::unique_ptr<mapping::SystemView> view;
    {
      Span s(t, "mapping.view");
      view = std::make_unique<mapping::SystemView>(*model);
    }
    sim::Config config;
    config.horizon = kHorizon;
    std::unique_ptr<sim::Simulation> simulation;
    {
      Span s(t, "sim.construct");
      simulation = std::make_unique<sim::Simulation>(*view, config);
    }
    {
      Span s(t, "sim.inject");
      inject(*simulation, *model, streams_, kHorizon);
    }
    {
      Span s(t, "sim.run");
      simulation->run();
    }
    std::string log_text;
    {
      Span s(t, "log.render");
      log_text = simulation->log().to_text();
    }
    std::optional<sim::SimulationLog> log;
    {
      Span s(t, "log.parse");
      log.emplace(sim::SimulationLog::parse(log_text));
    }
    std::optional<profiler::ProcessGroupInfo> info;
    {
      Span s(t, "profiler.group_info");
      info.emplace(profiler::ProcessGroupInfo::from_xml(xml_));
    }
    std::optional<profiler::ProfilingReport> report;
    std::vector<profiler::LatencyStats> latencies;
    {
      Span s(t, "profiler.analyze");
      report.emplace(profiler::analyze(*info, *log));
      latencies = profiler::latency_report(*log);
    }
    std::string text;
    {
      Span s(t, "profiler.render");
      text = report->to_text() + "\n" + profiler::latency_to_text(latencies);
    }
    if (counts != nullptr) counts->add(*simulation, log_text.size());
    return {std::move(log_text), std::move(text)};
  }

  bool check(const Output& out) {
    const std::pair<std::uint64_t, std::uint64_t> got(text_hash(out.log),
                                                      text_hash(out.report));
    if (!expected_) {
      expected_ = got;
      if (p_.seed == 1 && got != std::make_pair(kFlowLogPin, kFlowReportPin)) {
        fail("tutmac-flow: log digest " + hex(got.first) + " / report hash " +
             hex(got.second) + " differ from the pins " + hex(kFlowLogPin) +
             " / " + hex(kFlowReportPin));
      }
      return true;
    }
    if (got == *expected_) return true;
    fail("tutmac-flow: session output changed between sessions");
    return false;
  }

  Params p_;
  std::string xml_;
  std::vector<Stream> streams_;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> expected_;
};

// ---------------------------------------------------------------------------
// Sweeps: campaign-100k and soc-faults share the runner loop and the traced
// single-threaded replay.
// ---------------------------------------------------------------------------

class SweepWorkload : public Workload {
 public:
  void warm_up() override {
    run_shard(0, nullptr);
  }

  Measurement measure(double seconds) override {
    std::uint32_t next = 0;
    std::uint64_t passes = 0;
    sim::CampaignAggregate pass;
    std::vector<sim::ScenarioSummary> summaries;
    Measurement m = timed_units(
        seconds, [&] { return run_shard(next, &summaries); },
        [&](const sim::CampaignResult& r, Measurement& mm) {
          mm.failed += r.aggregate.errors;
          // Shards run in index order, so their summaries replay into the
          // full pass's aggregate exactly as a shard merge does.
          for (const sim::ScenarioSummary& s : summaries) pass.add(s);
          if (++next == shards_) {
            check_pass(pass.digest);
            pass = sim::CampaignAggregate{};
            next = 0;
            ++passes;
          }
          return r.next - r.first;
        },
        [&] { return passes == 0; });
    cross_check();
    return m;
  }

  Measurement trace(std::vector<std::unique_ptr<TraceBuffer>>& buffers,
                    double scale, std::vector<Metric>& metrics) override {
    const std::uint64_t prefix = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(
            static_cast<double>(trace_prefix_) * scale)),
        std::min<std::uint64_t>(50, spec_.total()), spec_.total());

    // The runner over the same prefix, untraced, at 1 and 2 workers.
    const auto runner_wall = [&](std::size_t threads,
                                 sim::CampaignResult& out) {
      sim::CampaignOptions options;
      options.threads = threads;
      options.stop_after = prefix;
      const std::int64_t t0 = now_ns();
      out = runner_->run(spec_, options);
      return static_cast<double>(now_ns() - t0);
    };
    sim::CampaignResult one, two;
    const double one_ns = runner_wall(1, one);
    const double two_ns = runner_wall(2, two);
    if (two.aggregate.digest != one.aggregate.digest) {
      fail(name() + ": runner digest differs between 1 and 2 workers");
    }

    buffers.push_back(std::make_unique<TraceBuffer>(
        static_cast<std::uint32_t>(buffers.size() + 1)));
    TraceBuffer& t = *buffers.back();
    Measurement m;
    SimCounts counts;
    // Untraced and traced chunks alternate, so drifting host load falls on
    // both alike.
    Replay plain, traced;
    const std::uint64_t chunk = std::max<std::uint64_t>(1, prefix / 20);
    for (std::uint64_t first = 0; first < prefix; first += chunk) {
      const std::uint64_t last = std::min(prefix, first + chunk);
      replay(plain, first, last, nullptr, nullptr, m);
      replay(traced, first, last, &t, &counts, m);
    }
    m.ops = prefix;
    for (const std::uint64_t digest : {plain.agg.digest, traced.agg.digest}) {
      if (digest != one.aggregate.digest) {
        fail(name() + ": replay digest " + hex(digest) +
             " differs from CampaignRunner's " + hex(one.aggregate.digest));
      }
    }

    // The replay's layer spans against the runner's own wall time over the
    // same prefix: how much of a real run the ledger accounts for.
    const Ledger ledger = make_ledger({&t});
    counts.report(static_cast<double>(prefix), metrics);
    metrics.push_back({"campaign.attributed_pct",
                       ledger.op_ns * ledger.attributed_pct() / one_ns, "%"});
    metrics.push_back({"campaign.scaling_2w", one_ns / two_ns, "ratio"});
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (traced.op_ns / plain.op_ns - 1), "%"});
    return m;
  }

 protected:
  virtual std::string name() const = 0;

  /// A single-threaded replay of the sweep: its own contexts, render buffer
  /// and aggregate, and the op time it has taken (probes excluded).
  struct Replay {
    std::vector<std::unique_ptr<sim::Simulation>> ctxs;
    std::string scratch;
    sim::CampaignAggregate agg;
    double op_ns = 0;
  };

  /// Replays scenarios [first, last) through the public calls CampaignRunner
  /// makes. With a trace buffer it records the spans, probes the render
  /// inside log_digest and fills `counts`.
  void replay(Replay& r, std::uint64_t first, std::uint64_t last,
              TraceBuffer* t, SimCounts* counts, Measurement& m) {
    std::vector<std::unique_ptr<sim::Simulation>>& ctxs = r.ctxs;
    std::string& scratch = r.scratch;
    ctxs.resize(images_.size());
    for (std::uint64_t i = first; i < last; ++i) {
      sim::Simulation* ctx = nullptr;
      const std::int64_t t0 = now_ns();
      try {
        Span op(t, "op.scenario", i + 1);
        sim::Scenario sc;
        {
          Span s(t, "campaign.materialize");
          sc = spec_.scenario(i);
        }
        std::unique_ptr<sim::Simulation>& slot = ctxs[sc.image];
        if (!slot) {
          Span s(t, "sim.construct");
          slot = backends_.empty()
                     ? std::make_unique<sim::Simulation>(images_[sc.image],
                                                         sc.config)
                     : std::make_unique<sim::Simulation>(backends_[sc.image],
                                                         sc.config);
        } else {
          Span s(t, "sim.reset");
          slot->reset(sc.config);
        }
        ctx = slot.get();
        {
          Span s(t, "sim.inject");
          inject_fn_(*ctx, sc);
        }
        {
          Span s(t, "sim.run");
          ctx->run();
        }
        sim::ScenarioSummary sum;
        sum.index = i;
        if (!backends_.empty()) sum.backend = backends_[sc.image]->content_hash();
        {
          Span s(t, "campaign.digest");
          sum.digest = sim::log_digest(ctx->log(), scratch);
        }
        {
          Span s(t, "campaign.scan");
          scan(*ctx, sum);
        }
        {
          Span s(t, "campaign.reduce");
          r.agg.add(sum);
        }
      } catch (const std::exception& e) {
        ++m.failed;
        fail(name() + ": replay of scenario " + std::to_string(i) +
             " threw: " + e.what());
        for (auto& c : ctxs) c.reset();
        continue;
      }
      r.op_ns += static_cast<double>(now_ns() - t0);
      if (t == nullptr) continue;
      const std::int64_t p0 = now_ns();
      scratch.clear();
      ctx->log().to_text(scratch);
      t->add("probe.log.render", p0, now_ns());
      counts->add(*ctx, scratch.size());
    }
  }

  /// Scenario i's summary fields, exactly as CampaignRunner fills them.
  static void scan(const sim::Simulation& ctx, sim::ScenarioSummary& s) {
    const sim::SimulationLog& log = ctx.log();
    s.events = ctx.events_dispatched();
    s.records = log.size();
    const auto& recs = log.compact_records();
    if (!recs.empty()) s.makespan = recs.back().time;
    for (const sim::SimulationLog::Compact& r : recs) {
      if (r.kind == sim::LogRecord::Kind::Drop) ++s.drops;
      if (r.kind == sim::LogRecord::Kind::Retry) ++s.retries;
    }
    for (const auto& [seg_name, seg] : ctx.segment_stats()) {
      s.seg_wait += seg.wait_time;
      s.seg_grants += seg.grants;
    }
  }

  /// Runs shard `k` of the pass on one worker; collects the in-order
  /// summaries when `summaries` is set, and checks the shard digest against
  /// the first time the shard ran. One worker: on a shared 4-vCPU host two
  /// workers' throughput swings by a fifth from run to run, one worker's by
  /// a twentieth; campaign.scaling_2w in the traced run covers two.
  sim::CampaignResult run_shard(std::uint32_t k,
                                std::vector<sim::ScenarioSummary>* summaries) {
    sim::CampaignOptions options;
    options.threads = 1;
    options.shard = {k, shards_};
    if (summaries != nullptr) {
      summaries->clear();
      options.on_summary = [summaries](const sim::ScenarioSummary& s) {
        summaries->push_back(s);
      };
    }
    const sim::CampaignResult r = runner_->run(spec_, options);
    if (!r.completed) fail(name() + ": shard " + std::to_string(k) + " stopped early");
    if (shard_digest_.empty()) shard_digest_.assign(shards_, 0);
    if (shard_digest_[k] == 0) {
      shard_digest_[k] = r.aggregate.digest;
    } else if (shard_digest_[k] != r.aggregate.digest) {
      fail(name() + ": shard " + std::to_string(k) + " digest changed");
    }
    return r;
  }

  /// A full pass's digest: must equal the pin when there is one, and every
  /// earlier pass otherwise.
  void check_pass(std::uint64_t digest) {
    if (pin_ != 0 && digest != pin_) {
      fail(name() + ": pass digest " + hex(digest) + " differs from the pin " +
           hex(pin_));
    }
    if (pass_digest_ != 0 && digest != pass_digest_) {
      fail(name() + ": pass digest changed between passes");
    }
    pass_digest_ = digest;
  }

  /// Extra output checks after the timed window (none by default).
  virtual void cross_check() {}

  sim::CampaignSpec spec_;
  std::vector<std::shared_ptr<const sim::CompiledModel>> images_;
  std::vector<std::shared_ptr<const sim::BackendImage>> backends_;
  sim::CampaignRunner::Setup inject_fn_;
  std::unique_ptr<sim::CampaignRunner> runner_;
  std::uint32_t shards_ = 20;
  std::uint64_t trace_prefix_ = 0;
  std::uint64_t pin_ = 0;
  std::uint64_t pass_digest_ = 0;
  std::vector<std::uint64_t> shard_digest_;
};

// ---------------------------------------------------------------------------
// campaign-100k: the checked-in TUTMAC sweep through CampaignRunner.
// ---------------------------------------------------------------------------

class CampaignWorkload final : public SweepWorkload {
 public:
  explicit CampaignWorkload(const Params& p) : p_(p) {}

  void setup(TraceBuffer* t) override {
    Span root(t, "setup");
    const std::string path =
        p_.root + (p_.smoke ? "/examples/campaigns/campaign_tutmac_10k.xml"
                            : "/examples/campaigns/campaign_tutmac_100k.xml");
    {
      Span s(t, "campaign.spec_parse");
      spec_ = sim::CampaignSpec::from_xml_text(read_file(path));
    }
    spec_.base_seed = p_.seed;
    std::vector<std::string> mappings = spec_.mapping_names;
    if (mappings.empty()) mappings.push_back("paper");
    for (const std::string& mapping : mappings) {
      tutmac::Options o;
      o.mapping = mapping == "singlePe"       ? tutmac::MappingChoice::SinglePe
                  : mapping == "loadBalanced" ? tutmac::MappingChoice::LoadBalanced
                                              : tutmac::MappingChoice::Paper;
      {
        Span s(t, "tutmac.build");
        systems_.push_back(tutmac::build(o));
      }
      {
        Span s(t, "mapping.view");
        views_.push_back(
            std::make_unique<mapping::SystemView>(*systems_.back().model));
      }
      Span s(t, "sim.compile");
      images_.push_back(sim::CompiledModel::build(*views_.back()));
    }
    // The `tut campaign tutmac` setup callback: free axes override periods.
    inject_fn_ = [this](sim::Simulation& simulation, const sim::Scenario& sc) {
      const tutmac::System& sys = systems_[sc.image];
      tutmac::Options o = sys.options;
      o.horizon = simulation.config().horizon;
      o.slot_period = static_cast<sim::Time>(
          sc.param("slotPeriod", static_cast<long>(o.slot_period)));
      o.rx_period = static_cast<sim::Time>(
          sc.param("rxPeriod", static_cast<long>(o.rx_period)));
      o.msdu_period = static_cast<sim::Time>(
          sc.param("msduPeriod", static_cast<long>(o.msdu_period)));
      sys.inject_workload(simulation, o);
    };
    runner_ = std::make_unique<sim::CampaignRunner>(images_, inject_fn_);
    trace_prefix_ = 20'000;
    // The sweep has no fault plan, so base_seed moves no log: the pin holds
    // at every seed.
    pin_ = p_.smoke ? kCampaign10kPin : kCampaign100kPin;
  }

 private:
  std::string name() const override { return "campaign-100k"; }

  Params p_;
  std::vector<tutmac::System> systems_;
  std::vector<std::unique_ptr<mapping::SystemView>> views_;
};

// ---------------------------------------------------------------------------
// soc-faults: a synthetic contended SoC under four fault plans, run by
// generated native code.
// ---------------------------------------------------------------------------

class SocWorkload final : public SweepWorkload {
 public:
  explicit SocWorkload(const Params& p) : p_(p) {}

  ~SocWorkload() override {
    // The dlopen'ed image must go before its cache directory.
    runner_.reset();
    backends_.clear();
    if (!cache_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(cache_dir_, ec);
    }
  }

  void setup(TraceBuffer* t) override {
    Span root(t, "setup");
    synth::SynthOptions o;
    o.processes = 32;
    o.pes = 8;
    o.segments = 4;
    o.topology = synth::Topology::RandomDag;
    o.arbitration = profile::tags::ArbitrationRoundRobin;
    {
      Span s(t, "synth.build");
      sys_ = synth::build(o);
    }
    {
      Span s(t, "mapping.view");
      view_ = std::make_unique<mapping::SystemView>(*sys_.model);
    }
    {
      Span s(t, "sim.compile");
      images_ = {sim::CompiledModel::build(*view_)};
    }

    spec_.name = "soc-faults";
    spec_.base.horizon = 2'000'000;
    spec_.base_seed = p_.seed;
    const long seeds = p_.smoke ? 25 : 500;
    spec_.axes.push_back({"seed", {}});
    for (long i = 0; i < seeds; ++i) spec_.axes.back().values.push_back(i);
    spec_.axes.push_back({"plan", {0, 1, 2, 3}});
    sim::FaultPlan pe_fail;
    pe_fail.pe_faults.push_back({"pe3", 300'000, 900'000});
    sim::FaultPlan bit_error;
    bit_error.bit_errors.push_back({"seg1", 20'000});
    sim::FaultPlan seg_fault;
    seg_fault.segment_faults.push_back({"seg2", 500'000, 700'000});
    seg_fault.watchdog_timeout = 400'000;
    spec_.plans.emplace_back("peFail", pe_fail);
    spec_.plans.emplace_back("bitError", bit_error);
    spec_.plans.emplace_back("segFault", seg_fault);
    const std::vector<std::string> defects = spec_.validate();
    if (!defects.empty()) throw std::runtime_error(defects.front());

    inject_fn_ = [this](sim::Simulation& simulation, const sim::Scenario&) {
      sys_.inject_workload(simulation, 2'000, 2'000, 900);
    };
    interpreter_ = std::make_unique<sim::CampaignRunner>(images_, inject_fn_);

    if (codegen::NativeImage::find_compiler().empty()) {
      if (!warned_) {
        std::fprintf(stderr,
                     "tutbench: no C++ compiler found; soc-faults runs the "
                     "interpreter backend\n");
      }
      warned_ = true;
      runner_ = std::make_unique<sim::CampaignRunner>(images_, inject_fn_);
    } else {
      // A fresh cache, so set-up pays one compile like a first run would.
      static int counter = 0;
      cache_dir_ = std::filesystem::absolute(
                       std::filesystem::path(p_.scratch) /
                       ("native-" + std::to_string(::getpid()) + "-" +
                        std::to_string(++counter)))
                       .string();
      std::filesystem::remove_all(cache_dir_);
      codegen::NativeOptions native;
      native.cache_dir = cache_dir_;
      Span s(t, "codegen.native_build");
      backends_ = {codegen::NativeImage::build(images_[0], native)};
      runner_ = std::make_unique<sim::CampaignRunner>(backends_, inject_fn_);
    }
    shards_ = p_.smoke ? 2 : 20;
    trace_prefix_ = 400;
    pin_ = p_.seed == 1 && !p_.smoke ? kSocPin : 0;
  }

  Measurement trace(std::vector<std::unique_ptr<TraceBuffer>>& buffers,
                    double scale, std::vector<Metric>& metrics) override {
    if (!backends_.empty()) {
      // emit_native's share of a native build (the emit runs again inside).
      const std::int64_t e0 = now_ns();
      const codegen::NativeSource src = codegen::emit_native(*images_[0]);
      const double emit_ns = static_cast<double>(now_ns() - e0);
      codegen::NativeOptions native;
      native.cache_dir = cache_dir_ + "-probe";
      native.force_rebuild = true;
      const std::int64_t b0 = now_ns();
      codegen::NativeImage::build(images_[0], native);
      const double build_ns = static_cast<double>(now_ns() - b0);
      std::error_code ec;
      std::filesystem::remove_all(native.cache_dir, ec);
      metrics.push_back({"codegen.emit_share_pct", 100.0 * emit_ns / build_ns, "%"});
    }
    return SweepWorkload::trace(buffers, scale, metrics);
  }

 private:
  std::string name() const override { return "soc-faults"; }

  /// Native and interpreter backends must digest the same shards equally.
  void cross_check() override {
    if (backends_.empty()) return;
    for (std::uint32_t k = 0; k < std::min<std::uint32_t>(2, shards_); ++k) {
      sim::CampaignOptions options;
      options.threads = 1;
      options.shard = {k, shards_};
      const sim::CampaignResult r = interpreter_->run(spec_, options);
      if (r.aggregate.digest != shard_digest_[k]) {
        fail("soc-faults: shard " + std::to_string(k) + " digests " +
             hex(shard_digest_[k]) + " native but " + hex(r.aggregate.digest) +
             " on the interpreter");
      }
    }
  }

  Params p_;
  synth::SynthSystem sys_;
  std::unique_ptr<mapping::SystemView> view_;
  std::unique_ptr<sim::CampaignRunner> interpreter_;
  std::string cache_dir_;
  static inline bool warned_ = false;
};

// ---------------------------------------------------------------------------
// serve-mixed: one closed-loop client connection against an in-process
// `tut serve` daemon, sending the two requests the repository's own callers
// send (the serve-smoke CI job through `tut client`).
// ---------------------------------------------------------------------------

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Params& p) : p_(p) {}

  ~ServeWorkload() override {
    client_.reset();  // the server's worker returns once its peer closes
    if (server_) server_->stop();
    if (server_thread_.joinable()) server_thread_.join();
  }

  void setup(TraceBuffer* t) override {
    Span root(t, "setup");
    // The model `tut client simulate tutmac DIR 5` builds and sends.
    tutmac::Options o;
    o.horizon = kHorizon;
    tutmac::System sys;
    {
      Span s(t, "tutmac.build");
      sys = tutmac::build(o);
    }
    std::string xml;
    {
      Span s(t, "uml.to_xml");
      xml = uml::to_xml_string(*sys.model);
    }
    {
      // The direct local run every served log must equal.
      Span s(t, "sim.direct_run");
      const mapping::SystemView view(*sys.model);
      sim::Config config;
      config.horizon = kHorizon;
      sim::Simulation simulation(view, config);
      sys.inject_workload(simulation);
      simulation.run();
      digest_ = sim::log_digest(simulation.log());
    }
    {
      Span s(t, "analysis.analyze");
      const auto model = uml::from_xml_text(xml);
      analysis::Options options;
      options.xml_text = xml;
      lint_hash_ = text_hash(analysis::analyze(*model, options).to_text());
    }
    // The seed only reorders requests, so the pins hold at every seed.
    if (digest_ != kServeLogPin || lint_hash_ != kServeLintPin) {
      fail("serve-mixed: direct log digest " + hex(digest_) + " / lint hash " +
           hex(lint_hash_) + " differ from the pins " + hex(kServeLogPin) +
           " / " + hex(kServeLintPin));
    }
    // The two requests as `tut client` fills them in.
    simulate_.model_xml = xml;
    simulate_.horizon = kHorizon;
    simulate_.want_log = true;
    const std::vector<Stream> streams = tutmac_streams(sys, o);
    const char* const params[] = {"slotPeriod", "rxPeriod", "msduPeriod"};
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const Stream& w = streams[i];
      serve::WorkloadEntry e;
      e.port = w.port;
      e.signal = w.signal;
      e.param = params[i];
      e.period = w.period;
      e.first_offset = w.offset;
      e.args.assign(w.args.begin(), w.args.end());
      simulate_.workload.push_back(std::move(e));
    }
    lint_.model_xml = std::move(xml);
    lint_.werror = true;
    {
      // `tut serve` with its default profile and two workers.
      Span s(t, "serve.start");
      engine_ = std::make_unique<serve::Engine>(sim::ResourceProfile::server());
      server_ = std::make_unique<serve::Server>(*engine_, 0, 2);
      server_thread_ = std::thread([this] { server_->run(); });
      client_ = std::make_unique<serve::Client>("127.0.0.1", server_->port());
    }
    // The first request of each kind is the cold one: it builds the cache
    // entry and the lint report.
    Span s(t, "serve.prime");
    for (const bool lint : {false, true}) {
      if (!check(exchange(lint, nullptr, 0))) {
        fail("serve-mixed: cold request failed");
      }
    }
  }

  void warm_up() override {
    for (int i = 0; i < 200; ++i) check(next_exchange(nullptr));
  }

  Measurement measure(double seconds) override {
    return timed_units(
        seconds, [this] { return next_exchange(nullptr); },
        [this](const Exchange& x, Measurement& m) {
          if (!check(x)) ++m.failed;
          return std::uint64_t{1};
        },
        [] { return false; });
  }

  Measurement trace(std::vector<std::unique_ptr<TraceBuffer>>& buffers,
                    double scale, std::vector<Metric>& metrics) override {
    TraceBuffer& t = *buffers[0];
    const auto n = std::max(20L, std::lround(5'000 * scale));
    Measurement m;
    double plain_ns = 0, traced_ns = 0, events = 0, records = 0, log_bytes = 0;
    // An untraced and a traced request alternate, so drifting host load
    // falls on both alike. Each traced request is replayed at once through
    // Engine::handle in-process, on a warm engine of its own: the reply must
    // equal the socket path's, and the call times the daemon's share of the
    // round trip.
    serve::Engine engine(sim::ResourceProfile::server());
    engine.handle(simulate_.encode());
    engine.handle(lint_.encode());
    for (long i = 0; i < n; ++i) {
      std::int64_t t0 = now_ns();
      const Exchange plain = next_exchange(nullptr);
      plain_ns += static_cast<double>(now_ns() - t0);
      if (!check(plain)) ++m.failed;
      t0 = now_ns();
      const Exchange x = next_exchange(&t);
      traced_ns += static_cast<double>(now_ns() - t0);
      if (!check(x)) ++m.failed;
      events += static_cast<double>(x.reply.events);
      records += static_cast<double>(x.reply.records);
      if (!x.lint) log_bytes += static_cast<double>(x.reply.text.size());

      const std::string payload = encode(x.lint);
      std::int64_t p0 = now_ns();
      engine.cache().key_of(lint_.model_xml, sim::Backend::Interpreter);
      t.add("probe.serve.key", p0, now_ns());
      p0 = now_ns();
      const std::string response = engine.handle(payload);
      t.add("probe.serve.handle", p0, now_ns());
      try {
        if (value(x.lint, decode(x.lint, serve::decode_response(response))) !=
            value(x.lint, x.reply)) {
          fail("serve-mixed: in-process replay differs from the socket path");
        }
      } catch (const std::exception& e) {
        fail(std::string("serve-mixed: in-process replay failed: ") + e.what());
      }
    }
    m.ops = static_cast<std::uint64_t>(n);

    const double ops = static_cast<double>(n);
    metrics.push_back({"sim.events_per_op", events / ops, "count"});
    metrics.push_back({"log.records_per_op", records / ops, "count"});
    metrics.push_back({"log.bytes_per_op", log_bytes / ops, "count"});
    metrics.push_back({"serve.cache_bytes",
                       static_cast<double>(engine_->cache().stats().bytes), "B"});
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (traced_ns / plain_ns - 1), "%"});
    return m;
  }

 private:
  static constexpr sim::Time kHorizon = 5'000'000;  // serve-smoke's 5 ms

  /// A decoded response: the log digest and log, or the lint report.
  struct Reply {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t records = 0;
    std::string text;
  };

  struct Exchange {
    bool lint = false;  ///< a lint request, else a simulate
    Reply reply;
    std::string error;  ///< what the call threw, if it did
  };

  /// Whether request `n` is a lint, drawn from the seed: one time in seven,
  /// else a simulate. Six simulates to one lint is the serve-smoke CI job's
  /// mix; the repository holds no log of real daemon traffic to take one
  /// from.
  bool draw_lint(std::uint64_t n) const {
    return sim::FaultRng::draw(p_.seed, 100, n) % 7 == 0;
  }

  std::string encode(bool lint) const {
    return lint ? lint_.encode() : simulate_.encode();
  }

  static Reply decode(bool lint, std::string_view body) {
    serve::wire::Reader r(body);
    Reply out;
    if (lint) {
      out.text = serve::LintResponse::decode(r).text;
    } else {
      serve::SimulateResponse p = serve::SimulateResponse::decode(r);
      out.digest = p.digest;
      out.events = p.events;
      out.records = p.records;
      out.text = std::move(p.log_text);
    }
    return out;
  }

  /// What a reply must reproduce: the log digest, or the lint text hash.
  static std::uint64_t value(bool lint, const Reply& reply) {
    return lint ? text_hash(reply.text) : reply.digest;
  }

  /// One request as `tut client` makes it: encode, call, decode.
  Exchange exchange(bool lint, TraceBuffer* t, std::uint64_t op) {
    Span root(t, "op.request", op);
    Exchange x;
    x.lint = lint;
    try {
      std::string payload;
      {
        Span s(t, "serve.encode");
        payload = encode(lint);
      }
      std::string body;
      {
        Span s(t, "serve.call");
        body = client_->call(payload);
      }
      Span s(t, "serve.decode");
      x.reply = decode(lint, body);
    } catch (const std::exception& e) {
      x.error = e.what();
    }
    return x;
  }

  Exchange next_exchange(TraceBuffer* t) {
    const bool lint = draw_lint(next_++);
    return exchange(lint, t, next_);
  }

  /// A served log must be the direct run's, digest and bytes; a lint report
  /// must be the direct analysis's.
  bool check(const Exchange& x) {
    if (!x.error.empty()) {
      fail("serve-mixed: request failed: " + x.error);
      return false;
    }
    const bool ok = x.lint ? text_hash(x.reply.text) == lint_hash_
                           : x.reply.digest == digest_ &&
                                 text_hash(x.reply.text) == digest_;
    if (ok) return true;
    fail(std::string("serve-mixed: ") + (x.lint ? "lint report" : "served log") +
         " differs from a direct local run");
    return false;
  }

  Params p_;
  serve::SimulateRequest simulate_;
  serve::LintRequest lint_;
  std::uint64_t digest_ = 0;     ///< log digest of the direct local run
  std::uint64_t lint_hash_ = 0;  ///< report hash of the direct analysis
  std::unique_ptr<serve::Engine> engine_;
  std::unique_ptr<serve::Server> server_;
  std::thread server_thread_;
  std::unique_ptr<serve::Client> client_;
  std::uint64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// lint-corpus: `tut lint`'s calls over six models of 15 KB to 800 KB.
// ---------------------------------------------------------------------------

class LintWorkload final : public Workload {
 public:
  explicit LintWorkload(const Params& p) : p_(p) {}

  void setup(TraceBuffer* t) override {
    Span root(t, "setup");
    tutmac::System tutmac_sys;
    {
      Span s(t, "tutmac.build");
      tutmac_sys = tutmac::build();
    }
    {
      Span s(t, "uml.to_xml");
      corpus_.push_back(uml::to_xml_string(*tutmac_sys.model));
    }
    corpus_.push_back(read_file(p_.root + "/examples/models/mini.xml"));
    const struct {
      synth::Topology topology;
      std::size_t processes;
    } synths[] = {{synth::Topology::Pipeline, 32},
                  {synth::Topology::Star, 64},
                  {synth::Topology::RandomDag, 128},
                  {synth::Topology::RandomDag, 512}};
    std::uint64_t stream = 10;
    for (const auto& spec : synths) {
      synth::SynthOptions o;
      o.topology = spec.topology;
      o.processes = spec.processes;
      // Other seeds redraw the cycle costs and priorities of the pipeline and
      // star models; the random DAGs keep their shape, whose edge count sets
      // most of the analysis work.
      if (spec.topology != synth::Topology::RandomDag) {
        o.seed = derived_seed(p_.seed, stream++);
      }
      synth::SynthSystem sys;
      {
        Span s(t, "synth.build");
        sys = synth::build(o);
      }
      Span s(t, "uml.to_xml");
      corpus_.push_back(uml::to_xml_string(*sys.model));
    }
  }

  void warm_up() override { check(pass(nullptr, 0)); }

  Measurement measure(double seconds) override {
    return timed_units(
        seconds, [this] { return pass(nullptr, 0); },
        [this](const Pass& out, Measurement& m) {
          m.failed += check(out);
          return static_cast<std::uint64_t>(corpus_.size());
        },
        [] { return false; });
  }

  Measurement trace(std::vector<std::unique_ptr<TraceBuffer>>& buffers,
                    double scale, std::vector<Metric>& metrics) override {
    TraceBuffer& t = *buffers[0];
    const int n = std::max(1, static_cast<int>(std::lround(25 * scale)));
    Measurement m;
    double plain_ns = 0, traced_ns = 0, diagnostics = 0, bytes = 0;
    // An untraced and a traced pass alternate, so drifting host load falls
    // on both alike.
    for (int i = 0; i < n; ++i) {
      std::int64_t t0 = now_ns();
      const Pass plain = pass(nullptr, 0);
      plain_ns += static_cast<double>(now_ns() - t0);
      m.failed += check(plain);
      t0 = now_ns();
      const Pass out = pass(&t, static_cast<std::uint64_t>(i) * corpus_.size());
      traced_ns += static_cast<double>(now_ns() - t0);
      m.failed += check(out);
      diagnostics += out.diagnostics;
      for (const std::string& xml : corpus_) {
        bytes += static_cast<double>(xml.size());
        probe(t, xml);
      }
    }
    m.ops = static_cast<std::uint64_t>(n) * corpus_.size();
    const double ops = static_cast<double>(m.ops);
    metrics.push_back({"xml.bytes_per_op", bytes / ops, "count"});
    metrics.push_back({"analysis.diagnostics_per_op", diagnostics / ops, "count"});
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (traced_ns / plain_ns - 1), "%"});
    return m;
  }

 private:
  struct Pass {
    std::vector<std::string> reports;  ///< rendered report per model
    std::vector<std::string> errors;   ///< what a model threw, if it did
    double diagnostics = 0;
  };

  /// Lints every model once, as `tut lint` does.
  Pass pass(TraceBuffer* t, std::uint64_t op) const {
    Pass out;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      Span root(t, "op.lint", op + i + 1);
      try {
        std::unique_ptr<uml::Model> model;
        {
          Span s(t, "uml.from_xml");
          model = uml::from_xml_text(corpus_[i]);
        }
        analysis::Options options;
        options.xml_text = corpus_[i];
        std::optional<analysis::Report> report;
        {
          Span s(t, "analysis.analyze");
          report.emplace(analysis::analyze(*model, options));
        }
        Span s(t, "analysis.render");
        out.reports.push_back(report->to_text());
        out.diagnostics += static_cast<double>(report->diagnostics().size());
      } catch (const std::exception& e) {
        out.reports.emplace_back();
        out.errors.emplace_back(e.what());
      }
    }
    return out;
  }

  /// Checks a pass's report hashes; returns the number of failed ops.
  std::uint64_t check(const Pass& out) {
    std::uint64_t failed = out.errors.size();
    for (const std::string& e : out.errors) fail("lint-corpus: model threw: " + e);
    for (std::size_t i = 0; i < out.reports.size(); ++i) {
      const std::uint64_t hash = text_hash(out.reports[i]);
      if (expected_.size() <= i) {
        expected_.push_back(hash);
        if (p_.seed == 1 && hash != kLintPins[i]) {
          fail("lint-corpus: model " + std::to_string(i) + " report hash " +
               hex(hash) + " differs from the pin " + hex(kLintPins[i]));
        }
      } else if (hash != expected_[i]) {
        fail("lint-corpus: model " + std::to_string(i) +
             " report changed between passes");
        ++failed;
      }
    }
    return failed;
  }

  /// Extra calls that split uml::from_xml_text and analysis::analyze.
  static void probe(TraceBuffer& t, const std::string& xml) {
    std::int64_t p0 = now_ns();
    {
      const xml::Tree tree = xml::Tree::parse(xml);
    }
    t.add("probe.xml.parse", p0, now_ns());
    const auto model = uml::from_xml_text(xml);
    const struct {
      const char* name;
      bool core, efsm, flow, mapping, absint;
    } families[] = {
        {"probe.analysis.core", true, false, false, false, false},
        {"probe.analysis.efsm", false, true, false, false, false},
        {"probe.analysis.efsm_absint", false, true, false, false, true},
        {"probe.analysis.flow", false, false, true, false, false},
        {"probe.analysis.mapping", false, false, false, true, false},
    };
    for (const auto& f : families) {
      analysis::Options options;
      options.core = f.core;
      options.efsm = f.efsm;
      options.flow = f.flow;
      options.mapping = f.mapping;
      options.absint = f.absint;
      options.xml_text = xml;
      p0 = now_ns();
      const analysis::Report report = analysis::analyze(*model, options);
      t.add(f.name, p0, now_ns());
    }
  }

  Params p_;
  std::vector<std::string> corpus_;
  std::vector<std::uint64_t> expected_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "tutmac-flow", "campaign-100k", "soc-faults", "serve-mixed",
      "lint-corpus"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Params& params) {
  if (name == "tutmac-flow") return std::make_unique<FlowWorkload>(params);
  if (name == "campaign-100k") return std::make_unique<CampaignWorkload>(params);
  if (name == "soc-faults") return std::make_unique<SocWorkload>(params);
  if (name == "serve-mixed") return std::make_unique<ServeWorkload>(params);
  if (name == "lint-corpus") return std::make_unique<LintWorkload>(params);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace tutbench
