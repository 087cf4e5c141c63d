// tutbench — end-to-end and per-layer benchmark of the repository's four
// user-facing paths: the paper's model → co-simulation → log → profiling
// flow, campaign sweeps, the `tut serve` daemon and `tut lint`.
//
//   tutbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//            [--trace-out FILE] [--root DIR] [--scratch DIR]
//   tutbench smoke [--root DIR] [--scratch DIR]
//
// A plain run (--trace 0) times set-up repeatedly (median), runs one untimed
// warm-up unit, measures for S seconds and prints the end-to-end metrics. A
// traced run (--trace 1) records spans around every layer call instead and
// prints the per-layer metrics; FILE receives the spans as Chrome
// trace-event JSON. Both print `name value unit` lines and, last, one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
// only when every output check passed and no op failed.
//
// `smoke` runs every workload at seed 1 with a tiny fixed amount of work
// and checks the pins; README.md describes the workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

using namespace tutbench;

namespace {

// Set-up runs once before the measurement and again after it, on fresh
// state, at least kMinSetups times in all and until a second has passed (at
// most kMaxSetups): a set-up of a few milliseconds needs many samples, taken
// on a core that is already busy, before its median is steady.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 10000;
constexpr std::size_t kSlices = 200;

// Per-layer shares: self time of the span (plus any probe of the same
// name) as a percent of traced op time.
const char* const kShares[] = {
    "xml.parse",        "uml.from_xml",     "mapping.view",
    "sim.construct",    "sim.reset",        "sim.inject",
    "sim.run",          "log.render",       "log.parse",
    "profiler.group_info", "profiler.analyze", "profiler.render",
    "campaign.materialize", "campaign.digest", "campaign.scan",
    "campaign.reduce",  "analysis.analyze", "analysis.render",
    "analysis.core",    "analysis.efsm",    "analysis.flow",
    "analysis.mapping", "serve.encode",     "serve.call",
    "serve.decode",     "serve.handle",     "serve.key",
};
// Layers of the set-up ledger: share of set-up time per module.
const char* const kSetupLayers[] = {"tutmac", "synth",  "uml",
                                    "mapping", "sim",   "codegen",
                                    "campaign", "serve", "analysis"};
// Metrics a workload reports itself; 0 where it never enters the layer.
const Metric kWorkloadMetrics[] = {
    {"sim.events_per_op", 0, "count"},
    {"sim.pe_steps_per_op", 0, "count"},
    {"hibi.grants_per_op", 0, "count"},
    {"hibi.transfers_per_op", 0, "count"},
    {"hibi.wait_ticks_per_op", 0, "count"},
    {"fault.retries_per_op", 0, "count"},
    {"fault.drops_per_op", 0, "count"},
    {"fault.migrations_per_op", 0, "count"},
    {"log.records_per_op", 0, "count"},
    {"log.bytes_per_op", 0, "count"},
    {"xml.bytes_per_op", 0, "count"},
    {"analysis.diagnostics_per_op", 0, "count"},
    {"campaign.attributed_pct", 0, "%"},
    {"campaign.scaling_2w", 0, "ratio"},
    {"codegen.emit_share_pct", 0, "%"},
    {"serve.cache_bytes", 0, "B"},
    {"trace.overhead_pct", 0, "%"},
};

int usage() {
  std::cerr << "usage: tutbench --workload NAME --seed N [--seconds S]"
               " [--trace 0|1] [--trace-out FILE] [--root DIR]"
               " [--scratch DIR]\n"
               "       tutbench smoke [--root DIR] [--scratch DIR]\n"
               "workloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

/// Linear-interpolated quantile (the "type 7" definition).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Ops per second as the median over (up to 200) consecutive slices of the
/// run's units, so a burst of load from outside the process moves it less.
/// Equal units (sessions, shards, passes) make a slice per unit; a slice of
/// serve-mixed requests is large enough to carry the request mix. Slice
/// edges are kept samples, whose running totals make each slice exact.
double sliced_rate(const UnitSamples& u) {
  const std::size_t n = u.size();
  const std::size_t k = std::min(kSlices, n);
  const auto cum = [&u](std::size_t i) {
    return i == 0 ? UnitSamples::Sample{} : u.begin()[i - 1];
  };
  std::vector<double> rates;
  for (std::size_t s = 0; s < k; ++s) {
    const UnitSamples::Sample a = cum(s * n / k), b = cum((s + 1) * n / k);
    rates.push_back((b.cum_ops - a.cum_ops) * 1e3 / (b.cum_ms - a.cum_ms));
  }
  return quantile(rates, 0.5);
}

std::vector<double> unit_ms(const UnitSamples& u) {
  std::vector<double> out;
  for (const UnitSamples::Sample& s : u) out.push_back(s.ms);
  return out;
}

std::vector<Metric> end_to_end(const std::vector<double>& setups,
                               double rss_mb, const Measurement& m) {
  return {
      {"setup_s", quantile(setups, 0.5), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"ops_per_s", sliced_rate(m.units), "1/s"},
      {"latency_ms_p50", quantile(unit_ms(m.units), 0.5), "ms"},
  };
}

std::vector<Metric> per_layer(const Ledger& l, const std::vector<Metric>& own) {
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const double op_ns = std::max(l.op_ns, 1.0);
  const auto pct = [&](double ns) { return 100.0 * ns / op_ns; };
  std::vector<Metric> out;
  for (const char* name : kShares) {
    out.push_back({std::string(name) + "_pct",
                   pct(get(l.op_self_ns, name) + get(l.probe_ns, name)), "%"});
  }
  // Differences of two measured calls; 0 where the minuend is absent.
  const auto diff = [&](double a, double b) { return a > 0 ? pct(a - b) : 0.0; };
  out.push_back({"analysis.absint_pct",
                 diff(get(l.probe_ns, "analysis.efsm_absint"),
                      get(l.probe_ns, "analysis.efsm")),
                 "%"});
  out.push_back({"campaign.hash_pct",
                 diff(get(l.op_self_ns, "campaign.digest"),
                      get(l.probe_ns, "log.render")),
                 "%"});
  out.push_back({"serve.transport_pct",
                 diff(get(l.op_self_ns, "serve.call"),
                      get(l.probe_ns, "serve.handle")),
                 "%"});
  out.push_back({"trace.attributed_pct", l.attributed_pct(), "%"});
  std::map<std::string, double> setup_layers;
  for (const auto& [name, ns] : l.setup_self_ns) {
    setup_layers[name.substr(0, name.find('.'))] += ns;
  }
  for (const char* layer : kSetupLayers) {
    out.push_back({std::string("setup.") + layer + "_pct",
                   l.setup_ns > 0 ? 100.0 * get(setup_layers, layer) / l.setup_ns
                                  : 0.0,
                   "%"});
  }
  for (Metric m : kWorkloadMetrics) {
    for (const Metric& o : own) {
      if (o.name == m.name) m.value = o.value;
    }
    out.push_back(m);
  }
  return out;
}

void print_result(bool correct, const Measurement& m,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.ops) +
          ", \"failed\": " + std::to_string(m.failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& x = metrics[i];
    std::printf("%s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", x.name.c_str(), x.value, x.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Run {
  std::string workload;
  Params params;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

int run_workload(const Run& r) {
  std::vector<std::string> failures;
  const auto collect = [&failures](const Workload& wl) {
    failures.insert(failures.end(), wl.failures().begin(), wl.failures().end());
  };
  Measurement m;
  std::vector<Metric> metrics;
  if (!r.trace) {
    std::vector<double> setups;
    double total_s = 0;
    const auto timed_setup = [&]() {
      std::unique_ptr<Workload> wl = make_workload(r.workload, r.params);
      const std::int64_t t0 = now_ns();
      wl->setup(nullptr);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      total_s += setups.back();
      return wl;
    };
    {
      const std::unique_ptr<Workload> wl = timed_setup();
      wl->warm_up();
      m = wl->measure(r.seconds);
      collect(*wl);
    }
    const double rss_mb = peak_rss_mb();
    while (setups.size() < kMaxSetups &&
           (setups.size() < kMinSetups || total_s < 1)) {
      collect(*timed_setup());
    }
    // The tail is printed but not part of the result: on a shared host its
    // run-to-run spread exceeds any bound worth gating on.
    std::printf("# latency_ms_p90 %.6g ms (%llu units, %zu sampled)\n",
                quantile(unit_ms(m.units), 0.9),
                static_cast<unsigned long long>(m.units.units()),
                m.units.size());
    metrics = end_to_end(setups, rss_mb, m);
  } else {
    const std::unique_ptr<Workload> wl = make_workload(r.workload, r.params);
    std::vector<std::unique_ptr<TraceBuffer>> buffers;
    buffers.push_back(std::make_unique<TraceBuffer>(1));
    wl->setup(buffers[0].get());
    wl->warm_up();
    std::vector<Metric> own;
    m = wl->trace(buffers, r.seconds / 10, own);
    collect(*wl);
    std::vector<const TraceBuffer*> views;
    for (const auto& b : buffers) views.push_back(b.get());
    metrics = per_layer(make_ledger(views), own);
    if (!r.trace_out.empty() && !write_chrome_trace(r.trace_out, views)) {
      failures.push_back("cannot write trace file '" + r.trace_out + "'");
    }
  }
  for (const std::string& f : failures) std::cerr << "FAILED: " << f << '\n';
  const bool correct = failures.empty();
  print_result(correct, m, metrics);
  return correct && m.failed == 0 ? 0 : 1;
}

/// Every workload at seed 1 with a tiny fixed amount of work: one timed
/// unit (one full pass for sweeps) and a small traced run.
int run_smoke(const Params& base) {
  int bad = 0;
  for (const std::string& name : workload_names()) {
    Params p = base;
    p.seed = 1;
    p.smoke = true;
    const std::int64_t t0 = now_ns();
    const std::unique_ptr<Workload> wl = make_workload(name, p);
    wl->setup(nullptr);
    const Measurement m = wl->measure(0);
    std::vector<std::unique_ptr<TraceBuffer>> buffers;
    buffers.push_back(std::make_unique<TraceBuffer>(1));
    std::vector<Metric> own;
    const Measurement t = wl->trace(buffers, 0.01, own);
    const bool ok = wl->failures().empty() && m.failed == 0 && t.failed == 0;
    for (const std::string& f : wl->failures()) std::cout << "  " << f << '\n';
    std::printf("tutbench smoke: %-14s %s (%llu ops, %.2f s)\n", name.c_str(),
                ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(m.ops + t.ops),
                static_cast<double>(now_ns() - t0) / 1e9);
    if (!ok) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Run r;
  bool smoke = false;
  r.params.scratch = "tutbench-scratch";
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      const bool has_value = i + 1 < args.size();
      if (a == "smoke" && i == 0) {
        smoke = true;
      } else if (a == "--workload" && has_value) {
        r.workload = args[++i];
      } else if (a == "--seed" && has_value) {
        r.params.seed = std::stoull(args[++i]);
      } else if (a == "--seconds" && has_value) {
        r.seconds = std::stod(args[++i]);
      } else if (a == "--trace" && has_value) {
        const std::string v = args[++i];
        if (v != "0" && v != "1") return usage();
        r.trace = v == "1";
      } else if (a == "--trace-out" && has_value) {
        r.trace_out = args[++i];
      } else if (a == "--root" && has_value) {
        r.params.root = args[++i];
      } else if (a == "--scratch" && has_value) {
        r.params.scratch = args[++i];
      } else {
        return usage();
      }
    }
    std::filesystem::create_directories(r.params.scratch);
    if (smoke) return run_smoke(r.params);
    if (r.workload.empty() || !(r.seconds > 0)) return usage();
    return run_workload(r);
  } catch (const std::exception& e) {
    std::cerr << "tutbench: " << e.what() << '\n';
    return 2;
  }
}
