// Tests for the RTOS extension: preemptive priority scheduling on processing
// elements with context-switch cost (the paper's stated future work,
// parameterized through the Component tags Scheduling/ContextSwitchCycles).
#include <gtest/gtest.h>

#include "appmodel/appmodel.hpp"
#include "log_records.hpp"
#include "mapping/mapping.hpp"
#include "platform/platform.hpp"
#include "profile/tut_profile.hpp"
#include "sim/simulator.hpp"

using namespace tut;
using namespace tut::sim;

namespace {

/// One 100 MHz CPU (1 cycle = 10 ticks) hosting a low-priority worker
/// (10'000-cycle jobs, completion observable via a Done signal) and a
/// high-priority responder (100-cycle pings answered with Pong). Both are
/// driven from boundary ports.
struct RtosSystem {
  uml::Model model{"rtos"};
  profile::TutProfile prof = profile::install(model);
  uml::Signal* job = nullptr;
  uml::Signal* done = nullptr;
  uml::Signal* ping = nullptr;
  uml::Signal* pong = nullptr;

  RtosSystem(const std::string& scheduling, long ctx_switch_cycles,
             long mid_priority_ping = 0) {
    job = &model.create_signal("Job");
    done = &model.create_signal("Done");
    ping = &model.create_signal("Ping");
    pong = &model.create_signal("Pong");
    auto& mid_sig = model.create_signal("MidPing");
    auto& mid_done = model.create_signal("MidDone");

    appmodel::ApplicationBuilder ab(model, prof);
    auto& app = ab.application("RtosApp");

    auto& worker = ab.component("Worker");
    model.add_port(worker, "in").provide(*job).require(*done);
    {
      auto& sm = *worker.behavior();
      auto& idle = model.add_state(sm, "Idle", true);
      model.add_transition(sm, idle, idle, *job, "in")
          .add_effect(uml::Action::compute("10000"))
          .add_effect(uml::Action::send("in", *done));
    }
    auto& urgent = ab.component("Urgent");
    model.add_port(urgent, "in").provide(*ping).require(*pong);
    {
      auto& sm = *urgent.behavior();
      auto& idle = model.add_state(sm, "Idle", true);
      model.add_transition(sm, idle, idle, *ping, "in")
          .add_effect(uml::Action::compute("100"))
          .add_effect(uml::Action::send("in", *pong));
    }
    auto& mid = ab.component("Mid");
    model.add_port(mid, "in").provide(mid_sig).require(mid_done);
    {
      auto& sm = *mid.behavior();
      auto& idle = model.add_state(sm, "Idle", true);
      model.add_transition(sm, idle, idle, mid_sig, "in")
          .add_effect(uml::Action::compute("1000"))
          .add_effect(uml::Action::send("in", mid_done));
    }

    auto& p_worker = ab.process("worker", worker, {{"Priority", "1"}});
    auto& p_urgent = ab.process("urgent", urgent, {{"Priority", "5"}});
    auto& p_mid = ab.process(
        "mid", mid,
        {{"Priority", std::to_string(mid_priority_ping > 0 ? mid_priority_ping
                                                           : 3)}});

    model.add_port(app, "pjob").provide(*job);
    model.add_port(app, "pping").provide(*ping);
    model.add_port(app, "pmid").provide(mid_sig);
    model.add_port(app, "pout");
    model.connect_boundary(app, "pjob", "worker", "in");
    model.connect_boundary(app, "pping", "urgent", "in");
    model.connect_boundary(app, "pmid", "mid", "in");

    platform::PlatformBuilder pb(model, prof);
    pb.platform("RtosBoard");
    auto& cpu = pb.component_type(
        "RtosCpu", {{"Type", "general"},
                    {"Frequency", "100"},
                    {"Scheduling", scheduling},
                    {"ContextSwitchCycles",
                     std::to_string(ctx_switch_cycles)}});
    auto& inst = pb.instance("cpu", cpu);

    mapping::MappingBuilder mb(model, prof);
    auto& g1 = ab.group("g_worker");
    auto& g2 = ab.group("g_urgent");
    auto& g3 = ab.group("g_mid");
    ab.assign(p_worker, g1);
    ab.assign(p_urgent, g2);
    ab.assign(p_mid, g3);
    mb.map(g1, inst);
    mb.map(g2, inst);
    mb.map(g3, inst);
  }
};

/// Time of the first Send record of `signal` from `process`, or 0.
Time send_time(const SimulationLog& log, const std::string& process,
               const std::string& signal) {
  for (const auto& r : test::named_records(log)) {
    if (r.kind == LogRecord::Kind::Send && r.process == process &&
        r.signal == signal) {
      return r.time;
    }
  }
  return 0;
}

}  // namespace

TEST(RtosScheduling, ProfileValidatesSchedulingTags) {
  RtosSystem sys(profile::tags::SchedulingPreemptive, 50);
  const auto result = profile::make_validator().run(sys.model);
  EXPECT_TRUE(result.ok()) << result.to_string();

  // An invalid enumerator is rejected.
  uml::Model bad{"bad"};
  auto prof = profile::install(bad);
  auto& cls = bad.create_class("C");
  cls.apply(*prof.component, {{"Scheduling", "fifo"}});
  EXPECT_FALSE(profile::make_validator().run(bad).ok());
}

TEST(RtosScheduling, CooperativeRunsToCompletion) {
  RtosSystem sys(profile::tags::SchedulingCooperative, 0);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 500'000});
  sim.inject(1'000, "pjob", *sys.job);   // worker busy 1'000..101'000
  sim.inject(2'000, "pping", *sys.ping); // must wait for the worker
  sim.run();

  // Worker: 10'000 cycles at 100 MHz = 100'000 ticks, Done at 101'000.
  EXPECT_EQ(send_time(sim.log(), "worker", "Done"), 101'000u);
  // Urgent runs only after the worker finished: Pong at 101'000 + 1'000.
  EXPECT_EQ(send_time(sim.log(), "urgent", "Pong"), 102'000u);
  EXPECT_EQ(sim.pe_stats().at("cpu").preemptions, 0u);
  EXPECT_EQ(sim.pe_stats().at("cpu").overhead_time, 0u);
}

TEST(RtosScheduling, PreemptiveServesHighPriorityImmediately) {
  RtosSystem sys(profile::tags::SchedulingPreemptive, 0);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 500'000});
  sim.inject(1'000, "pjob", *sys.job);
  sim.inject(2'000, "pping", *sys.ping);
  sim.run();

  // Urgent preempts at 2'000 and answers at 3'000.
  EXPECT_EQ(send_time(sim.log(), "urgent", "Pong"), 3'000u);
  // The worker resumes and still finishes its full compute: preempted with
  // 99'000 ticks remaining, resumed at 3'000 -> Done at 102'000.
  EXPECT_EQ(send_time(sim.log(), "worker", "Done"), 102'000u);
  EXPECT_EQ(sim.pe_stats().at("cpu").preemptions, 1u);
  EXPECT_EQ(sim.pe_stats().at("cpu").overhead_time, 0u);
}

TEST(RtosScheduling, ContextSwitchCostIsAccounted) {
  // 50 cycles at 100 MHz = 500 ticks per switch; two switches per
  // preemption (into the preemptor, back into the worker).
  RtosSystem sys(profile::tags::SchedulingPreemptive, 50);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 500'000});
  sim.inject(1'000, "pjob", *sys.job);
  sim.inject(2'000, "pping", *sys.ping);
  sim.run();

  EXPECT_EQ(send_time(sim.log(), "urgent", "Pong"), 3'500u);
  EXPECT_EQ(send_time(sim.log(), "worker", "Done"), 103'000u);
  EXPECT_EQ(sim.pe_stats().at("cpu").preemptions, 1u);
  EXPECT_EQ(sim.pe_stats().at("cpu").overhead_time, 1'000u);
}

TEST(RtosScheduling, EqualPriorityDoesNotPreempt) {
  RtosSystem sys(profile::tags::SchedulingPreemptive, 0);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 500'000});
  // mid (priority 3) cannot preempt urgent (priority 5); urgent can preempt
  // mid. Also a second ping cannot preempt the first urgent step (equal).
  sim.inject(1'000, "pmid", *sys.model.find_signal("MidPing"));
  sim.inject(2'000, "pping", *sys.ping);
  sim.run();
  // mid runs 1'000..11'000 (1'000 cycles = 10'000 ticks); urgent preempts at
  // 2'000, Pong at 3'000; mid finishes at 12'000.
  EXPECT_EQ(send_time(sim.log(), "urgent", "Pong"), 3'000u);
  EXPECT_EQ(send_time(sim.log(), "mid", "MidDone"), 12'000u);
}

TEST(RtosScheduling, NestedPreemption) {
  RtosSystem sys(profile::tags::SchedulingPreemptive, 0);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 500'000});
  sim.inject(1'000, "pjob", *sys.job);                             // prio 1
  sim.inject(2'000, "pmid", *sys.model.find_signal("MidPing"));    // prio 3
  sim.inject(3'000, "pping", *sys.ping);                           // prio 5
  sim.run();

  // high finishes first (3'000..4'000), then mid resumes (preempted at
  // 3'000 with 9'000 left -> done at 13'000), then the worker (preempted at
  // 2'000 with 99'000 left -> done at 112'000).
  EXPECT_EQ(send_time(sim.log(), "urgent", "Pong"), 4'000u);
  EXPECT_EQ(send_time(sim.log(), "mid", "MidDone"), 13'000u);
  EXPECT_EQ(send_time(sim.log(), "worker", "Done"), 112'000u);
  EXPECT_EQ(sim.pe_stats().at("cpu").preemptions, 2u);
}

TEST(RtosScheduling, PreemptionPreservesDeterminism) {
  RtosSystem a(profile::tags::SchedulingPreemptive, 25);
  RtosSystem b(profile::tags::SchedulingPreemptive, 25);
  mapping::SystemView va(a.model), vb(b.model);
  Simulation sa(va, {.horizon = 400'000});
  Simulation sb(vb, {.horizon = 400'000});
  for (Simulation* s : {&sa, &sb}) {
    RtosSystem& sys = s == &sa ? a : b;
    s->inject_periodic(500, 30'000, 10, "pjob", *sys.job);
    s->inject_periodic(700, 7'000, 40, "pping", *sys.ping);
    s->run();
  }
  EXPECT_EQ(sa.log().to_text(), sb.log().to_text());
}

TEST(RtosScheduling, PreemptionKeepsTotalComputeCycles) {
  // Preemption reorders execution but never loses work: the same workload
  // yields the same per-process cycle totals under both policies.
  auto total_cycles = [](const std::string& policy) {
    RtosSystem sys(policy, 10);
    mapping::SystemView view(sys.model);
    Simulation sim(view, {.horizon = 2'000'000});
    sim.inject_periodic(500, 110'000, 10, "pjob", *sys.job);
    sim.inject_periodic(700, 9'000, 50, "pping", *sys.ping);
    sim.run();
    long cycles = 0;
    for (const auto& r : test::named_records(sim.log())) {
      if (r.kind == LogRecord::Kind::Run) cycles += r.cycles;
    }
    return cycles;
  };
  EXPECT_EQ(total_cycles(profile::tags::SchedulingCooperative),
            total_cycles(profile::tags::SchedulingPreemptive));
}

TEST(RtosScheduling, ReadyQueuePicksHighestPriorityFirst) {
  // Cooperative PE: mid occupies the CPU 500..10'500 while a job (priority
  // 1) and a ping (priority 5) queue up. At 10'500 the scheduler must pick
  // the higher-priority urgent process even though the job arrived first.
  RtosSystem sys(profile::tags::SchedulingCooperative, 0);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 500'000});
  sim.inject(500, "pmid", *sys.model.find_signal("MidPing"));
  sim.inject(1'000, "pjob", *sys.job);
  sim.inject(2'000, "pping", *sys.ping);
  sim.run();
  // urgent runs 10'500..11'500; worker afterwards until 111'500.
  EXPECT_EQ(send_time(sim.log(), "urgent", "Pong"), 11'500u);
  EXPECT_EQ(send_time(sim.log(), "worker", "Done"), 111'500u);
}

TEST(RtosScheduling, EqualPriorityIsFifo) {
  // Two pings queued while mid runs: they are served in arrival order.
  RtosSystem sys(profile::tags::SchedulingCooperative, 0);
  mapping::SystemView view(sys.model);
  Simulation sim(view, {.horizon = 500'000});
  sim.inject(1'000, "pping", *sys.ping);
  sim.inject(1'100, "pping", *sys.ping);
  sim.run();
  std::vector<sim::Time> pongs;
  for (const auto& r : test::named_records(sim.log())) {
    if (r.kind == LogRecord::Kind::Send && r.process == "urgent" &&
        r.signal == "Pong") {
      pongs.push_back(r.time);
    }
  }
  ASSERT_EQ(pongs.size(), 2u);
  EXPECT_EQ(pongs[0], 2'000u);
  EXPECT_EQ(pongs[1], 3'000u);
}
