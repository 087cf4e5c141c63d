// Ablation A1: HIBI segment arbitration — priority vs round-robin (the
// Arbitration tagged value of Table 3).
//
// A contended scenario built with the public builders: three producers on
// three processors, with descending priorities, all streaming large bursts
// across one shared segment to a consumer processor at ~130% offered bus
// load, so a backlog persists and the arbiter decides who waits. Under
// priority arbitration the high-priority producer sees low latency while the
// low-priority one starves; under round-robin the latencies equalize. The
// bench prints mean delivery latency per producer for both schemes, then
// times the simulations.
#include <numeric>

#include "bench_util.hpp"
#include "appmodel/appmodel.hpp"
#include "mapping/mapping.hpp"
#include "platform/platform.hpp"
#include "profile/tut_profile.hpp"
#include "sim/simulator.hpp"
#include "tutmac/tutmac.hpp"

using namespace tut;

namespace {

struct Contended {
  std::unique_ptr<uml::Model> model;

  explicit Contended(const std::string& arbitration) {
    model = std::make_unique<uml::Model>("contended");
    auto prof = profile::install(*model);

    auto& burst = model->create_signal("Burst");
    burst.add_parameter("seq", "int");
    burst.set_payload_bytes(4096);  // ~1024 words per transfer

    appmodel::ApplicationBuilder ab(*model, prof);
    auto& app = ab.application("Contention");

    auto& producer = ab.component("Producer");
    model->add_port(producer, "out").require(burst);
    {
      auto& sm = *producer.behavior();
      sm.declare_variable("seq", 0);
      auto& run = model->add_state(sm, "Run", true);
      run.on_entry(uml::Action::set_timer("tick", "24000"));
      model->add_timer_transition(sm, run, run, "tick")
          .add_effect(uml::Action::compute("10"))
          .add_effect(uml::Action::assign("seq", "seq + 1"))
          .add_effect(uml::Action::send("out", burst, {"seq"}));
    }
    auto& consumer = ab.component("Consumer");
    model->add_port(consumer, "in").provide(burst);
    {
      auto& sm = *consumer.behavior();
      auto& run = model->add_state(sm, "Run", true);
      model->add_transition(sm, run, run, burst, "in")
          .add_effect(uml::Action::compute("5"));
    }

    std::vector<uml::Property*> producers;
    for (int i = 0; i < 3; ++i) {
      const std::string name = "prod" + std::string(1, static_cast<char>('A' + i));
      producers.push_back(&ab.process(
          name, producer,
          {{"Priority", std::to_string(3 - i)}, {"ProcessType", "general"}}));
    }
    auto& cons = ab.process("cons", consumer, {{"ProcessType", "general"}});
    // One consumer port per producer (a connector binds one (part, port)
    // pair on each side).
    for (int i = 0; i < 3; ++i) {
      model->add_port(consumer, "in" + std::to_string(i)).provide(burst);
    }
    model->connect(app, "prodA", "out", "cons", "in0");
    model->connect(app, "prodB", "out", "cons", "in1");
    model->connect(app, "prodC", "out", "cons", "in2");
    // Consumer handles Burst on any port (trigger port unrestricted).
    {
      auto& sm = *consumer.behavior();
      auto& run = *sm.state("Run");
      // The existing transition is port-restricted to "in"; add an
      // unrestricted one for the extra ports.
      model->add_transition(sm, run, run, burst)
          .add_effect(uml::Action::compute("5"));
    }

    platform::PlatformBuilder pb(*model, prof);
    pb.platform("ContentionBoard");
    auto& cpu = pb.component_type("Cpu",
                                  {{"Type", "general"}, {"Frequency", "100"}});
    auto& shared = pb.segment("shared", {{"DataWidth", "32"},
                                         {"Frequency", "100"},
                                         {"Arbitration", arbitration}});
    mapping::MappingBuilder mb(*model, prof);
    for (int i = 0; i < 3; ++i) {
      auto& pe = pb.instance("cpu" + std::to_string(i), cpu);
      pb.wrapper(pe, shared);
      auto& group = ab.group("g" + std::to_string(i),
                             {{"ProcessType", "general"}});
      ab.assign(*producers[static_cast<std::size_t>(i)], group);
      mb.map(group, pe);
    }
    auto& pe_cons = pb.instance("cpuC", cpu);
    pb.wrapper(pe_cons, shared);
    auto& group_cons = ab.group("gc", {{"ProcessType", "general"}});
    ab.assign(cons, group_cons);
    mb.map(group_cons, pe_cons);
  }
};

/// Mean send->receive latency per producer, matched FIFO per pair.
std::map<std::string, double> mean_latency(const sim::SimulationLog& log) {
  std::map<std::string, std::vector<sim::Time>> sends;
  std::map<std::string, std::vector<sim::Time>> recvs;
  const intern::Table& names = log.names();
  const intern::Id cons = names.find("cons");
  log.for_each([&](const sim::LogRecord& r) {
    if (r.kind == sim::LogRecord::Kind::Send && r.peer == cons) {
      sends[names.name(r.process)].push_back(r.time);
    }
    if (r.kind == sim::LogRecord::Kind::Receive && r.process == cons) {
      recvs[names.name(r.peer)].push_back(r.time);
    }
  });
  std::map<std::string, double> out;
  for (const auto& [producer, s] : sends) {
    const auto& v = recvs[producer];
    const std::size_t n = std::min(s.size(), v.size());
    if (n == 0) continue;
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += static_cast<double>(v[i] - s[i]);
    }
    out[producer] = total / static_cast<double>(n);
  }
  return out;
}

std::map<std::string, double> run_scheme(const std::string& arbitration) {
  Contended system(arbitration);
  mapping::SystemView view(*system.model);
  sim::Simulation simulation(view, {.horizon = 3'000'000});
  simulation.run();
  return mean_latency(simulation.log());
}

void print_ablation() {
  bench::banner("A1: HIBI arbitration ablation (priority vs round-robin)");
  const auto pri = run_scheme(profile::tags::ArbitrationPriority);
  const auto rr = run_scheme(profile::tags::ArbitrationRoundRobin);
  std::printf("%-10s %10s %22s %22s\n", "producer", "priority",
              "mean latency (pri)", "mean latency (rr)");
  const char* prio[] = {"3 (high)", "2", "1 (low)"};
  int i = 0;
  for (const char* name : {"prodA", "prodB", "prodC"}) {
    std::printf("%-10s %10s %19.0f ns %19.0f ns\n", name, prio[i++],
                pri.count(name) ? pri.at(name) : 0.0,
                rr.count(name) ? rr.at(name) : 0.0);
  }
  std::printf("(priority arbitration protects prodA at prodC's expense;\n"
              " round-robin equalizes the three streams)\n");
}

void BM_ContendedPriority(benchmark::State& state) {
  Contended system(profile::tags::ArbitrationPriority);
  mapping::SystemView view(*system.model);
  for (auto _ : state) {
    sim::Simulation simulation(view, {.horizon = 1'000'000});
    simulation.run();
    benchmark::DoNotOptimize(simulation.log().size());
  }
}
BENCHMARK(BM_ContendedPriority)->Unit(benchmark::kMillisecond);

void BM_ContendedRoundRobin(benchmark::State& state) {
  Contended system(profile::tags::ArbitrationRoundRobin);
  mapping::SystemView view(*system.model);
  for (auto _ : state) {
    sim::Simulation simulation(view, {.horizon = 1'000'000});
    simulation.run();
    benchmark::DoNotOptimize(simulation.log().size());
  }
}
BENCHMARK(BM_ContendedRoundRobin)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, print_ablation);
}
