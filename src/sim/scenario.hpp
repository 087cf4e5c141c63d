// sim::ScenarioExecutor and sim::parallel_claim — the per-scenario step and
// the worker pool that BatchRunner, CampaignRunner and ExploreEngine share,
// so an envelope miss or a concurrency clamp is reported the same way by
// every runner (DESIGN.md §7 says why single runs stay direct).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace tut::sim {

/// What one scenario leaves behind: a canonical log digest plus the summary
/// numbers the campaign aggregates. Fixed 96-byte layout in shard part
/// files. `error != 0` (the hash of the exception text) marks a failed run
/// (defective plan, diverging EFSM, envelope miss); its counts are zero.
struct ScenarioSummary {
  std::uint64_t index = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;   ///< kernel events dispatched
  std::uint64_t records = 0;  ///< log records
  Time makespan = 0;          ///< time of the last log record
  std::uint64_t drops = 0;    ///< Drop records
  std::uint64_t retries = 0;  ///< Retry records
  Time seg_wait = 0;          ///< total segment grant-queue waiting
  std::uint64_t seg_grants = 0;
  std::uint64_t error = 0;
  /// Compile-backend provenance: the BackendImage content hash that ran the
  /// scenario, 0 for the bytecode interpreter. Excluded from the campaign
  /// digest by design — a backend swap must leave digests untouched, and
  /// this field is how an A/B run proves which backend produced them.
  std::uint64_t backend = 0;
  /// RejectionCode as one word: non-zero iff the scenario died on a resource
  /// envelope ([envelope.*], a classified rejection) rather than a model
  /// defect. Like `backend`, excluded from the campaign digest — the
  /// deterministic EnvelopeError message already hashes into `error`.
  std::uint64_t rejection = 0;
};

/// One ScenarioExecutor::run: the summary (index 0), end time and error.
struct ScenarioOutcome {
  ScenarioSummary summary;
  Time end_time = 0;  ///< Simulation::now()
  std::string error;  ///< empty on success
};

/// Runs scenarios one after another on one reusable Simulation over one
/// image. When `profile` bounds the simulation, its caps are stamped into
/// every scenario's config with the spill path cleared: workers must not
/// share one spill file, and these runs hash and release their logs.
class ScenarioExecutor {
 public:
  ScenarioExecutor(std::shared_ptr<const BackendImage> image,
                   const ResourceProfile& profile);

  /// Stamps `config`, constructs the context (or resets it), calls
  /// setup(Simulation&), runs and summarises. A throw drops the context, so
  /// the next scenario rebuilds from the image, not from a half-run one.
  template <class Setup>
  ScenarioOutcome run(Config& config, Setup&& setup) {
    try {
      if (stamp_) config.envelope = envelope_;
      if (context_) {
        context_->reset(config);
      } else {
        context_ = std::make_unique<Simulation>(image_, config);
      }
      setup(*context_);
      context_->run();
      return outcome();
    } catch (const std::exception& e) {
      return failure(e);
    }
  }

  /// The context of the last run; valid only after a run that succeeded.
  const Simulation& simulation() const noexcept { return *context_; }

 private:
  ScenarioOutcome outcome() const;
  ScenarioOutcome failure(const std::exception& e);

  std::shared_ptr<const BackendImage> image_;
  bool stamp_ = false;
  ResourceProfile envelope_;
  std::unique_ptr<Simulation> context_;
};

/// A pool's worker count: `requested` (0 = hardware concurrency, at least
/// 1) clamped by `profile.concurrency`. A clamp never changes a result; it
/// appends an "[envelope.concurrency.capped] ..." line to `notes`.
std::size_t resolve_workers(std::size_t requested,
                            const ResourceProfile& profile,
                            std::vector<std::string>* notes = nullptr);

/// Runs every index of [first, end) once over `workers` workers, the calling
/// thread among them. Each worker calls make_worker() once, on its thread,
/// for a bool(std::uint64_t) callable holding its state; a false return
/// stops all claiming. Neither may throw: a failed index goes in its result.
template <class MakeWorker>
void parallel_claim(std::uint64_t first, std::uint64_t end,
                    std::size_t workers, MakeWorker&& make_worker) {
  if (first >= end) return;
  // The claim counter gets a cache line of its own, so that claims do not
  // bounce the workers' result slots between cores.
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> next;
  } claim{{first}};
  const auto body = [&] {
    auto work = make_worker();
    for (std::uint64_t i = claim.next.fetch_add(1, std::memory_order_relaxed);
         i < end && work(i);
         i = claim.next.fetch_add(1, std::memory_order_relaxed)) {
    }
    claim.next.store(end, std::memory_order_relaxed);  // later claims stop
  };
  std::vector<std::thread> pool;
  const std::uint64_t spawned = std::min<std::uint64_t>(workers, end - first);
  for (std::uint64_t w = 1; w < spawned; ++w) pool.emplace_back(body);
  body();
  for (std::thread& t : pool) t.join();
}

}  // namespace tut::sim
