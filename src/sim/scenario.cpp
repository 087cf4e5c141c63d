#include "sim/scenario.hpp"

#include "intern/fnv.hpp"

namespace tut::sim {

ScenarioExecutor::ScenarioExecutor(std::shared_ptr<const BackendImage> image,
                                   const ResourceProfile& profile)
    : image_(std::move(image)),
      stamp_(profile.bounds_simulation()),
      envelope_(profile) {
  envelope_.log_spill_path.clear();
}

ScenarioOutcome ScenarioExecutor::outcome() const {
  const Simulation& simulation = *context_;
  const SimulationLog& log = simulation.log();
  ScenarioOutcome o;
  ScenarioSummary& s = o.summary;
  s.digest = log.digest();
  s.events = simulation.events_dispatched();
  s.records = log.size();
  s.makespan = log.last_time();
  s.drops = log.drop_count();
  s.retries = log.retry_count();
  for (const auto& [name, seg] : simulation.segment_stats()) {
    s.seg_wait += seg.wait_time;
    s.seg_grants += seg.grants;
  }
  s.backend = image_->content_hash();
  o.end_time = simulation.now();
  return o;
}

ScenarioOutcome ScenarioExecutor::failure(const std::exception& e) {
  context_.reset();
  ScenarioOutcome o;
  o.error = e.what();
  // The message is deterministic (an EnvelopeError's holds tag, cap and sim
  // time), so it hashes alike across thread counts, shards and backends.
  intern::Fnv f;
  f.str(o.error);
  o.summary.error = f.h;
  o.summary.backend = image_->content_hash();
  if (const auto* envelope = dynamic_cast<const EnvelopeError*>(&e)) {
    o.summary.rejection =
        static_cast<std::uint64_t>(classify_envelope_tag(envelope->tag()));
  }
  return o;
}

std::size_t resolve_workers(std::size_t requested,
                            const ResourceProfile& profile,
                            std::vector<std::string>* notes) {
  const std::size_t n =
      requested != 0
          ? requested
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (profile.concurrency == 0 || n <= profile.concurrency) return n;
  if (notes != nullptr) {
    notes->push_back("[envelope.concurrency.capped] " + std::to_string(n) +
                     " workers capped at " +
                     std::to_string(profile.concurrency) + " by profile '" +
                     profile.name + "'");
  }
  return static_cast<std::size_t>(profile.concurrency);
}

}  // namespace tut::sim
