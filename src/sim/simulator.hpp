// High-level hardware/software co-simulation (Section 3.2 of the paper:
// "The parameterized models are used to perform a high-level
// hardware/software co-simulation. In that case, the execution of
// application processes is guided with the properties of the platform
// components.").
//
// The simulator executes every application process on the platform
// component instance its group is mapped to, stepping its EFSM through an
// executor drawn from the run's BackendImage: the bytecode interpreter
// (sim::interpreter_image) unless the caller hands in another image. The
// AST efsm::Instance is a test reference only.
//  - Processing elements run one transition at a time (run-to-completion),
//    picking the pending process with the highest priority. A transition's
//    Compute cycles take cycles/frequency wall time.
//  - Signals between processes on the same PE are delivered when the sending
//    transition completes. Signals between PEs traverse the communication
//    segments on the route between the instances: each segment is an
//    arbitrated resource (priority or round-robin per its Arbitration tag);
//    transfer time follows the segment's DataWidth and Frequency; a
//    wrapper's MaxTime splits long transfers into multiple grants.
//  - The environment injects signals through the application class's
//    boundary ports and absorbs signals routed outside.
// Every run, send, receive and drop is written to the SimulationLog — the
// "simulation log-file" the profiling tool consumes.
//
// With a FaultPlan configured (Config::faults) the simulation additionally
// executes deterministic fault events and the degraded-mode semantics a
// deployed system needs: PE fail/recover windows with failover migration
// (mapping::FailoverPolicy), segment faults and bit errors with bounded
// exponential-backoff retry, lost/stuck signal windows, and per-process
// watchdog resets. The fault records (F/C/T/W/M) flow into the same log and
// feed the profiler's reliability section.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "efsm/machine.hpp"
#include "efsm/router.hpp"
#include "mapping/mapping.hpp"
#include "sim/backend.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/log.hpp"

namespace tut::sim {

class CompiledModel;

/// Simulator configuration knobs (defaults follow the platform defaults of
/// tut::mapping and a small per-grant arbitration overhead).
struct Config {
  Time horizon = 1'000'000;       ///< run() stops at this time
  long segment_overhead_cycles = 2;  ///< arbitration+header cycles per grant
  bool log_runs = true;           ///< record R lines (disable to shrink logs)
  /// Fault scenario + degraded-mode knobs. An empty plan (the default)
  /// leaves the fault machinery fully off: the simulation log and the
  /// statistics are identical to a build without fault support.
  FaultPlan faults = {};
  /// Resource envelope applied to this run: log_records (+ optional
  /// log_spill_path) caps the SimulationLog, event_queue caps pending
  /// events. Semantic lock: an in-envelope run is byte-identical to an
  /// unbounded one; an envelope miss throws a classified EnvelopeError.
  ResourceProfile envelope = {};
};

/// Per-processing-element statistics.
struct PeStats {
  Time busy_time = 0;            ///< compute + RTOS overhead
  std::uint64_t steps = 0;       ///< transitions executed
  std::uint64_t dispatched = 0;  ///< events delivered (incl. dropped)
  std::uint64_t preemptions = 0; ///< preemptive scheduling only
  Time overhead_time = 0;        ///< context-switch time (part of busy_time)
};

/// Per-segment statistics.
struct SegmentStats {
  std::uint64_t grants = 0;
  std::uint64_t transfers = 0;
  Time busy_time = 0;
  Time wait_time = 0;  ///< total grant-queue waiting
};

/// One co-simulation over a complete system model. Construct, inject the
/// environment workload, run, then read the log / stats.
class Simulation {
public:
  /// Builds the executable system, lowering it to a private CompiledModel
  /// (processes run as bytecode, exactly like the CompiledModel
  /// constructor). Throws std::runtime_error when the model is not
  /// executable: a process is unmapped, its target instance is not attached
  /// to any segment while remote communication is required, or a functional
  /// component lacks a behaviour. All defects (including fault plan
  /// defects: malformed windows, unknown component names) are collected into
  /// one multi-line diagnostic so the model can be fixed in one pass.
  /// Malformed expression text throws efsm::ExprError, like
  /// CompiledModel::build.
  explicit Simulation(const mapping::SystemView& sys, Config config = {});

  /// Same as the image constructor over interpreter_image(model).
  explicit Simulation(std::shared_ptr<const CompiledModel> model,
                      Config config = {});

  /// Builds a simulation whose processes step through executors drawn from
  /// `image` (the interpreter, or e.g. codegen::NativeImage's dlopen'ed
  /// machine code) over the image's pre-lowered model. Routing, timing and
  /// logging do not depend on the image — the SimulationLog is
  /// byte-identical to the SystemView constructor's. The image (and through
  /// it the model) may be shared read-only across concurrent Simulations
  /// (see sim::BatchRunner).
  explicit Simulation(std::shared_ptr<const BackendImage> image,
                      Config config = {});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Rewinds this simulation to time 0 over the same model under a new
  /// configuration, reusing every allocation (event queue, EFSM slot files,
  /// log buffers, stat tables) instead of reconstructing them. The
  /// subsequent run is byte-identical to a freshly constructed Simulation
  /// with the same configuration — batch and campaign runs lean on that to
  /// make per-run cost independent of model size at small horizons. Throws
  /// std::runtime_error on fault-plan defects, exactly like construction.
  void reset(const Config& config);

  /// Injects a signal from the environment through a boundary port of the
  /// application class at absolute time `t`. Valid before and after run()
  /// has started, as long as `t >= now()`; injecting into the past throws
  /// std::invalid_argument.
  void inject(Time t, const std::string& boundary_port,
              const uml::Signal& signal, std::vector<long> args = {});
  /// Injects `count` occurrences, the first at `first`, spaced by `period`.
  void inject_periodic(Time first, Time period, std::size_t count,
                       const std::string& boundary_port,
                       const uml::Signal& signal, std::vector<long> args = {});

  /// Runs until the configured horizon (processes are started at time 0 on
  /// the first call). Can be called repeatedly with a raised horizon.
  void run();
  void run_until(Time horizon);

  Time now() const noexcept;
  const SimulationLog& log() const noexcept { return log_; }
  const Config& config() const noexcept { return config_; }

  /// Executor of a process (for white-box assertions in tests), on any
  /// backend. Throws std::out_of_range for an unknown process.
  const ProcExecutor& instance(const std::string& process) const;

  const std::map<std::string, PeStats>& pe_stats() const noexcept {
    return pe_stats_;
  }
  const std::map<std::string, SegmentStats>& segment_stats() const noexcept {
    return segment_stats_;
  }
  std::uint64_t events_dispatched() const noexcept;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  SimulationLog log_;
  Config config_;
  std::map<std::string, PeStats> pe_stats_;
  std::map<std::string, SegmentStats> segment_stats_;
};

}  // namespace tut::sim
