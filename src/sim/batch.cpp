#include "sim/batch.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "intern/fnv.hpp"

namespace tut::sim {

namespace {

/// Resolves the worker count: explicit threads, else hardware, then clamped
/// by the profile's concurrency ceiling (clamping is semantics-preserving —
/// batch results are thread-count-invariant by construction).
std::size_t resolve_threads(const BatchOptions& options) {
  std::size_t n =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (options.profile.concurrency != 0) {
    n = std::min<std::size_t>(n, options.profile.concurrency);
  }
  return n;
}

}  // namespace

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
  threads_ = resolve_threads(options_);
}

std::uint64_t BatchRunner::hash_text(std::string_view text) noexcept {
  return intern::Fnv::of(text);
}

BatchResult BatchRunner::run_one(const BatchScenario& scenario,
                                 std::unique_ptr<Simulation>& context,
                                 std::string& scratch) const {
  BatchResult result;
  result.name = scenario.name;
  result.backend = image_->name();
  result.image_hash = image_->content_hash();
  try {
    Config config = scenario.config;
    if (options_.profile.bounds_simulation()) {
      config.envelope = options_.profile;
      // Workers must not share one spill file; spilling is a single-run
      // feature and batch runs hash-and-release logs anyway.
      config.envelope.log_spill_path.clear();
    }
    if (!context) {
      context = std::make_unique<Simulation>(image_, config);
    } else {
      context->reset(config);
    }
    Simulation& simulation = *context;
    if (scenario.setup) scenario.setup(simulation);
    simulation.run();
    result.end_time = simulation.now();
    result.events = simulation.events_dispatched();
    result.records = simulation.log().size();
    // Hash-and-release: the log is rendered into the worker's reusable
    // scratch buffer, hashed, and only *copied out* when the caller opted
    // into retained logs. Resident log memory is O(threads), never O(runs).
    scratch.clear();
    simulation.log().to_text(scratch);
    result.log_hash = hash_text(scratch);
    if (options_.keep_logs) {
      if (options_.profile.keep_log_bytes != 0 &&
          scratch.size() > options_.profile.keep_log_bytes) {
        throw EnvelopeError(
            "envelope.log.overflow", simulation.now(),
            "retained log of " + std::to_string(scratch.size()) +
                " bytes exceeds the keep_logs budget of " +
                std::to_string(options_.profile.keep_log_bytes) + " bytes");
      }
      result.log_text = scratch;
    }
    result.pe_stats = simulation.pe_stats();
    result.segment_stats = simulation.segment_stats();
  } catch (const std::exception& e) {
    // The throw can leave the context mid-run; rebuild from the image on the
    // next scenario instead of resetting a half-consistent state.
    context.reset();
    result = BatchResult{};
    result.name = scenario.name;
    result.error = e.what();
    result.backend = image_->name();
    result.image_hash = image_->content_hash();
  }
  return result;
}

namespace {

/// The claim counter lives on its own cache line: results[] slots and the
/// scenario vector are read/written right next to it, and sharing its line
/// would bounce every fetch_add through the other workers' caches.
struct alignas(64) PaddedIndex {
  std::atomic<std::size_t> value{0};
  char pad[64 - sizeof(std::atomic<std::size_t>)];
};

}  // namespace

std::vector<BatchResult> BatchRunner::run(
    const std::vector<BatchScenario>& scenarios) const {
  std::vector<BatchResult> results(scenarios.size());
  const std::size_t workers = std::min(threads_, scenarios.size());
  if (workers <= 1) {
    std::unique_ptr<Simulation> context;
    std::string scratch;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      results[i] = run_one(scenarios[i], context, scratch);
    }
    return results;
  }
  PaddedIndex next;
  auto work = [&]() {
    std::unique_ptr<Simulation> context;
    std::string scratch;
    for (std::size_t i = next.value.fetch_add(1, std::memory_order_relaxed);
         i < scenarios.size();
         i = next.value.fetch_add(1, std::memory_order_relaxed)) {
      results[i] = run_one(scenarios[i], context, scratch);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace tut::sim
