// tut::explore — parallel design-space exploration engine.
//
// Section 4.4 describes exploration as iterating grouping and mapping
// alternatives against the profiled workload until performance goals are
// met. ExploreEngine drives that loop over a whole candidate family at
// once: for every target group count it derives one deterministic greedy
// grouping plus a configurable number of seeded-random restarts, maps each
// candidate with propose_mapping, and reports the full ranked field.
//
// Candidate evaluations are independent, so the engine fans them out over
// sim::parallel_claim, the pool the scenario runners share. Determinism
// across thread counts is by construction: the candidate list is generated
// serially from the options seed, each evaluation is a pure function of its
// candidate descriptor, every worker writes only results[i] for the
// candidate indices it claims, and the winner reduction runs serially in
// index order after the barrier. The result for a given (stats, pes, model,
// options) is therefore byte-identical whether threads = 1 or 64.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "explore/explore.hpp"

namespace tut::explore {

/// Tuning knobs for ExploreEngine.
struct EngineOptions {
  /// Worker threads; 0 resolves to std::thread::hardware_concurrency()
  /// (minimum 1). 1 evaluates inline without spawning.
  std::size_t threads = 0;
  /// Randomized grouping restarts per target group count, in addition to
  /// the deterministic greedy candidate.
  std::size_t restarts_per_size = 8;
  /// Top-k merge window for the randomized restarts.
  std::size_t breadth = 3;
  /// Base seed for the randomized candidates.
  std::uint64_t seed = 0x7075742d64736521ull;
};

/// One evaluated point of the design space.
struct CandidateResult {
  std::size_t index = 0;          ///< position in the generated candidate list
  std::size_t target_groups = 0;  ///< requested group count
  std::uint32_t variant = 0;      ///< 0 = greedy, >0 = randomized restart
  Grouping grouping;
  std::vector<std::string> group_type;  ///< per group, for propose_mapping
  std::uint64_t inter_group = 0;        ///< signals crossing group borders
  bool feasible = false;                ///< mapping succeeded
  MappingProposal mapping;              ///< valid only when feasible
};

/// The evaluated field plus the winning candidate index.
struct ExplorationResult {
  std::vector<CandidateResult> candidates;  ///< in candidate-list order
  std::size_t best = 0;                     ///< index of the winner

  const CandidateResult& winner() const { return candidates[best]; }
};

/// Evaluates grouping/mapping candidates for one profiled workload over a
/// fixed platform. Construction captures the inputs; explore() runs the
/// candidate sweep (concurrently when options.threads != 1) and is safe to
/// call repeatedly with identical results.
class ExploreEngine {
 public:
  ExploreEngine(ProcessStats stats, std::vector<PeDesc> pes,
                CostModel model = {}, EngineOptions options = {});

  /// Resolved worker count (options.threads with 0 mapped to the hardware).
  std::size_t threads() const noexcept { return threads_; }
  /// Number of candidates one explore() call evaluates.
  std::size_t candidate_count() const noexcept;

  /// Runs the sweep. `process_type` and `fixed` are forwarded to the
  /// grouping proposals (type-homogeneous groups, pinned singletons).
  /// Throws std::runtime_error when no candidate could be mapped.
  ExplorationResult explore(
      const std::map<std::string, std::string>& process_type = {},
      const std::set<std::string>& fixed = {}) const;

 private:
  /// Candidate descriptor: everything needed to evaluate independently.
  struct Candidate {
    std::size_t target_groups = 0;
    std::uint32_t variant = 0;   ///< 0 = greedy
    std::uint64_t seed = 0;      ///< rng seed for variant > 0
  };

  std::vector<Candidate> make_candidates() const;
  CandidateResult evaluate(std::size_t index, const Candidate& candidate,
                           const std::map<std::string, std::string>& process_type,
                           const std::set<std::string>& fixed) const;

  ProcessStats stats_;
  std::vector<PeDesc> pes_;
  CostModel model_;
  EngineOptions options_;
  std::size_t threads_ = 1;
};

}  // namespace tut::explore
