// Simulation-as-a-service benchmarks: cold vs warm request cost through the
// exact production path (serve::Engine::handle — the same function the
// daemon's connection workers call). A cold request pays the full pipeline
// (XML parse, UML lowering, CompiledModel::build, for native the dlopen);
// a warm request is a content-hash lookup + pooled Simulation::reset + run.
// The ratio is the daemon's reason to exist, pinned as a smoke gate in
// BENCH_serve.json (warm >= 20x cold on TUTMAC simulate).
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "codegen/native.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/resource.hpp"
#include "tutmac/tutmac.hpp"
#include "uml/serialize.hpp"

using namespace tut;

namespace {

// A short, dense request: 0.15 ms horizon with compressed periods (periods
// are request parameters — campaign axes override them the same way), so
// all three environment streams fire while the pipeline cost dominates the
// cold side. The service exists for exactly this shape of traffic: many
// small what-if runs against one resident model.
constexpr sim::Time kHorizon = 150'000;
constexpr sim::Time kSlotPeriod = 15'000;
constexpr sim::Time kRxPeriod = 40'000;
constexpr sim::Time kMsduPeriod = 50'000;

struct Fixture {
  std::string xml;
  std::vector<serve::WorkloadEntry> workload;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    tutmac::Options opt;
    opt.horizon = kHorizon;
    const tutmac::System sys = tutmac::build(opt);
    Fixture out;
    out.xml = uml::to_xml_string(*sys.model);
    out.workload.resize(3);
    out.workload[0] = {"pphy", sys.radio_slot->name(), "slotPeriod",
                      kSlotPeriod, 0, {}};
    out.workload[1] = {"pphy", sys.rx_frame->name(), "rxPeriod",
                      kRxPeriod, 7'777, {256}};
    out.workload[2] = {"puser", sys.user_msdu->name(), "msduPeriod",
                      kMsduPeriod, 3'333, {512}};
    return out;
  }();
  return f;
}

std::string simulate_payload(sim::Backend backend) {
  serve::SimulateRequest q;
  q.model_xml = fixture().xml;
  q.backend = backend;
  q.horizon = kHorizon;
  q.workload = fixture().workload;
  return q.encode();
}

serve::SimulateResponse decode_simulate(const std::string& response) {
  serve::wire::Reader r(serve::decode_response(response));
  return serve::SimulateResponse::decode(r);
}

void cold_loop(benchmark::State& state, sim::Backend backend) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  const std::string payload = simulate_payload(backend);
  // Prime once outside timing: for native this compiles the .so, so the
  // timed cold iterations measure a cold *daemon cache* against a warm
  // on-disk object cache — the steady state a restarted daemon sees.
  engine.handle(payload);
  for (auto _ : state) {
    engine.cache().evict_all();
    const std::string resp = engine.handle(payload);
    benchmark::DoNotOptimize(resp.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void warm_loop(benchmark::State& state, sim::Backend backend) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  const std::string payload = simulate_payload(backend);
  engine.handle(payload);
  for (auto _ : state) {
    const std::string resp = engine.handle(payload);
    benchmark::DoNotOptimize(resp.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ServeSimulateCold(benchmark::State& state) {
  cold_loop(state, sim::Backend::Interpreter);
}
void BM_ServeSimulateWarm(benchmark::State& state) {
  warm_loop(state, sim::Backend::Interpreter);
}
void BM_ServeSimulateColdNative(benchmark::State& state) {
  cold_loop(state, sim::Backend::Native);
}
void BM_ServeSimulateWarmNative(benchmark::State& state) {
  warm_loop(state, sim::Backend::Native);
}

void BM_ServeLintWarm(benchmark::State& state) {
  serve::Engine engine(sim::ResourceProfile::unbounded());
  serve::LintRequest q;
  q.model_xml = fixture().xml;
  const std::string payload = q.encode();
  engine.handle(payload);
  for (auto _ : state) {
    const std::string resp = engine.handle(payload);
    benchmark::DoNotOptimize(resp.data());
  }
}

void print_header() {
  bench::banner("serve: persistent daemon, cold vs warm requests");

  serve::Engine engine(sim::ResourceProfile::unbounded());
  const std::string payload =
      simulate_payload(sim::Backend::Interpreter);

  using clock = std::chrono::steady_clock;
  const auto median_us = [](std::vector<double>& us) {
    std::sort(us.begin(), us.end());
    return us[us.size() / 2];
  };

  std::vector<double> cold_us, warm_us;
  std::uint64_t cold_digest = 0, warm_digest = 0;
  for (int i = 0; i < 20; ++i) {
    engine.cache().evict_all();
    const auto t0 = clock::now();
    const std::string resp = engine.handle(payload);
    cold_us.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count());
    cold_digest = decode_simulate(resp).digest;
  }
  for (int i = 0; i < 200; ++i) {
    const auto t0 = clock::now();
    const std::string resp = engine.handle(payload);
    warm_us.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count());
    warm_digest = decode_simulate(resp).digest;
  }

  const double cold = median_us(cold_us);
  const double warm = median_us(warm_us);
  std::cout << "TUTMAC simulate, 0.15 ms horizon (dense workload), "
               "interpreter backend\n"
            << "cold request (evicted cache): " << cold << " us ("
            << 1e6 / cold << " req/s)\n"
            << "warm request (content-hash hit): " << warm << " us ("
            << 1e6 / warm << " req/s)\n"
            << "warm speedup: " << cold / warm << "x — gate: >= 20x\n"
            << "digests byte-identical cold vs warm: "
            << (cold_digest == warm_digest ? "yes" : "NO — BUG") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("BM_ServeSimulateCold", BM_ServeSimulateCold)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_ServeSimulateWarm", BM_ServeSimulateWarm)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_ServeLintWarm", BM_ServeLintWarm)
      ->Unit(benchmark::kMicrosecond);
  if (codegen::NativeImage::find_compiler().empty()) {
    std::cout << "(no C++ compiler on this host: "
                 "native serve benchmarks not registered)\n";
  } else {
    benchmark::RegisterBenchmark("BM_ServeSimulateColdNative",
                                 BM_ServeSimulateColdNative)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_ServeSimulateWarmNative",
                                 BM_ServeSimulateWarmNative)
        ->Unit(benchmark::kMicrosecond);
  }
  return bench::run(argc, argv, print_header);
}
