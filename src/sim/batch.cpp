#include "sim/batch.hpp"

#include <stdexcept>

#include "intern/fnv.hpp"
#include "sim/scenario.hpp"

namespace tut::sim {

BatchRunner::BatchRunner(std::shared_ptr<const CompiledModel> model,
                         BatchOptions options)
    : BatchRunner(interpreter_image(std::move(model)), options) {}

BatchRunner::BatchRunner(std::shared_ptr<const BackendImage> image,
                         BatchOptions options)
    : image_(std::move(image)), options_(options) {
  if (image_ == nullptr || image_->model() == nullptr) {
    throw std::invalid_argument(
        "BatchRunner requires a non-null image over a CompiledModel");
  }
  threads_ = resolve_workers(options_.threads, options_.profile, &notes_);
}

std::uint64_t BatchRunner::hash_text(std::string_view text) noexcept {
  return intern::Fnv::of(text);
}

BatchResult BatchRunner::run_one(const BatchScenario& scenario,
                                 ScenarioExecutor& executor) const {
  BatchResult result;
  result.name = scenario.name;
  result.backend = image_->name();
  result.image_hash = image_->content_hash();
  Config config = scenario.config;
  ScenarioOutcome outcome = executor.run(config, [&](Simulation& simulation) {
    if (scenario.setup) scenario.setup(simulation);
  });
  if (!outcome.error.empty()) {
    result.error = std::move(outcome.error);
    result.rejection = static_cast<RejectionCode>(outcome.summary.rejection);
    return result;
  }
  // Hash-and-release: the executor hashed the log without rendering it; it
  // is rendered only when the caller opted into retained logs. Resident log
  // memory is O(threads), never O(runs).
  const Simulation& simulation = executor.simulation();
  if (options_.keep_logs) {
    std::string text = simulation.log().to_text();
    const std::uint64_t budget = options_.profile.keep_log_bytes;
    if (budget != 0 && text.size() > budget) {
      result.error =
          EnvelopeError("envelope.log.overflow", outcome.end_time,
                        "retained log of " + std::to_string(text.size()) +
                            " bytes exceeds the keep_logs budget of " +
                            std::to_string(budget) + " bytes")
              .what();
      result.rejection = RejectionCode::Log;
      return result;
    }
    result.log_text = std::move(text);
  }
  result.end_time = outcome.end_time;
  result.events = outcome.summary.events;
  result.records = outcome.summary.records;
  result.log_hash = outcome.summary.digest;
  result.pe_stats = simulation.pe_stats();
  result.segment_stats = simulation.segment_stats();
  return result;
}

std::vector<BatchResult> BatchRunner::run(
    const std::vector<BatchScenario>& scenarios) const {
  std::vector<BatchResult> results(scenarios.size());
  parallel_claim(0, scenarios.size(), threads_, [&] {
    return [&, executor = ScenarioExecutor(image_, options_.profile)](
               std::uint64_t i) mutable {
      results[i] = run_one(scenarios[i], executor);
      return true;
    };
  });
  return results;
}

}  // namespace tut::sim
