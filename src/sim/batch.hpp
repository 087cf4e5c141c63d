// sim::BatchRunner — N scenarios over one shared CompiledModel.
//
// Fault-scenario sweeps, seed sweeps and workload sweeps all simulate the
// same system image under different knobs. BatchRunner amortizes the model
// lowering (CompiledModel::build once) across every scenario and fans the
// runs out over a thread pool: scenarios are claimed from an atomic index,
// each worker keeps one reusable Simulation context over the shared
// read-only model (Simulation::reset between runs), and every worker writes
// only its own result slot. Results are therefore indexed by scenario and
// byte-identical whether threads = 1 or 64. Logs are hashed without being
// rendered and released; BatchOptions::keep_logs opts into retaining them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/backend.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"

namespace tut::sim {

/// One run of the batch: a simulator configuration (horizon, fault plan,
/// seed) plus the workload to inject before running.
struct BatchScenario {
  std::string name;
  Config config;
  /// Called once on the freshly constructed Simulation, before run(); use
  /// it to inject the environment workload. May be empty.
  std::function<void(Simulation&)> setup;
};

/// Outcome of one scenario. `error` is empty on success; on failure (a
/// defective fault plan, a diverging EFSM) it carries the exception text
/// and the remaining fields are zero.
struct BatchResult {
  std::string name;
  Time end_time = 0;
  std::uint64_t events = 0;     ///< kernel events dispatched
  std::size_t records = 0;      ///< simulation log records
  std::uint64_t log_hash = 0;   ///< FNV-1a of the rendered log text
  std::string log_text;         ///< rendered log (BatchOptions::keep_logs)
  std::map<std::string, PeStats> pe_stats;
  std::map<std::string, SegmentStats> segment_stats;
  std::string error;
  /// Compile-backend provenance: the image's name() and content_hash()
  /// ("interpreter", 0 for the bytecode interpreter) — so A/B comparisons
  /// stay attributable after the fact.
  std::string backend = "interpreter";
  std::uint64_t image_hash = 0;
};

struct BatchOptions {
  /// Worker threads; 0 resolves to std::thread::hardware_concurrency()
  /// (minimum 1). 1 runs inline without spawning.
  std::size_t threads = 0;
  /// Keep every scenario's rendered log text in its result. Off by default:
  /// the 64-bit hash is enough to compare runs, full logs are large.
  bool keep_logs = false;
  /// Resource envelope for the whole batch. Simulation-level caps (log ring,
  /// event queue) are stamped into every scenario's config when set; the
  /// spill path is cleared first (workers must not share one spill file).
  /// `concurrency` clamps the worker count, `keep_log_bytes` budgets each
  /// retained log under keep_logs. Semantic lock: an in-envelope batch is
  /// byte-identical to an unbounded one.
  ResourceProfile profile;
};

/// Runs scenario batches over one compiled model image.
class BatchRunner {
 public:
  /// Same as the image constructor over interpreter_image(model).
  explicit BatchRunner(std::shared_ptr<const CompiledModel> model,
                       BatchOptions options = {});

  /// Runs every scenario through executors drawn from `image` (the
  /// interpreter, or e.g. a codegen::NativeImage). Results are
  /// byte-identical across images, modulo the provenance fields.
  explicit BatchRunner(std::shared_ptr<const BackendImage> image,
                       BatchOptions options = {});

  /// Resolved worker count.
  std::size_t threads() const noexcept { return threads_; }

  /// Runs every scenario (concurrently when threads() > 1) and returns the
  /// results in scenario order. Per-scenario failures are reported in
  /// BatchResult::error, not thrown.
  std::vector<BatchResult> run(
      const std::vector<BatchScenario>& scenarios) const;

  /// FNV-1a 64-bit hash used for BatchResult::log_hash.
  static std::uint64_t hash_text(std::string_view text) noexcept;

 private:
  /// Runs one scenario on a reusable per-worker context (constructed on the
  /// first call, Simulation::reset thereafter) — per-run cost and memory are
  /// independent of the batch size.
  BatchResult run_one(const BatchScenario& scenario,
                      std::unique_ptr<Simulation>& context) const;

  std::shared_ptr<const BackendImage> image_;
  BatchOptions options_;
  std::size_t threads_ = 1;
};

}  // namespace tut::sim
