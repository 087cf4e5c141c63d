#include "explore/engine.hpp"

#include <stdexcept>
#include <utility>

#include "sim/scenario.hpp"

namespace tut::explore {

namespace {

/// splitmix64 — cheap, well-mixed per-candidate seeds from the base seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ExploreEngine::ExploreEngine(ProcessStats stats, std::vector<PeDesc> pes,
                             CostModel model, EngineOptions options)
    : stats_(std::move(stats)),
      pes_(std::move(pes)),
      model_(std::move(model)),
      options_(options),
      threads_(sim::resolve_workers(options_.threads, {})) {}

std::size_t ExploreEngine::candidate_count() const noexcept {
  const std::size_t sizes = std::max<std::size_t>(stats_.processes.size(), 1);
  return sizes * (1 + options_.restarts_per_size);
}

std::vector<ExploreEngine::Candidate> ExploreEngine::make_candidates() const {
  // Generated serially and identically for every thread count: the sweep
  // covers every target group count, each with the deterministic greedy
  // grouping (variant 0) and seeded-random restarts (variants 1..R).
  std::vector<Candidate> candidates;
  const std::size_t sizes = std::max<std::size_t>(stats_.processes.size(), 1);
  candidates.reserve(sizes * (1 + options_.restarts_per_size));
  for (std::size_t size = 1; size <= sizes; ++size) {
    for (std::uint32_t variant = 0; variant <= options_.restarts_per_size;
         ++variant) {
      Candidate c;
      c.target_groups = size;
      c.variant = variant;
      c.seed = mix(mix(options_.seed ^ size) ^ variant);
      candidates.push_back(c);
    }
  }
  return candidates;
}

CandidateResult ExploreEngine::evaluate(
    std::size_t index, const Candidate& candidate,
    const std::map<std::string, std::string>& process_type,
    const std::set<std::string>& fixed) const {
  CandidateResult r;
  r.index = index;
  r.target_groups = candidate.target_groups;
  r.variant = candidate.variant;
  try {
    r.grouping =
        candidate.variant == 0
            ? propose_grouping(stats_, process_type, candidate.target_groups,
                               fixed)
            : propose_grouping_randomized(stats_, process_type,
                                          candidate.target_groups,
                                          candidate.seed, options_.breadth,
                                          fixed);
    r.group_type.reserve(r.grouping.size());
    for (const auto& group : r.grouping) {
      // Groups are type-homogeneous by construction, so the front member's
      // type is the group's type.
      auto it = process_type.find(group.front());
      r.group_type.push_back(it != process_type.end() ? it->second
                                                      : "general");
    }
    r.inter_group = CrossingCounter(r.grouping, stats_).crossing();
    r.mapping = propose_mapping(r.grouping, r.group_type, stats_, pes_, model_);
    r.feasible = true;
  } catch (const std::exception&) {
    r.feasible = false;  // e.g. no compatible PE for a hardware group
  }
  return r;
}

ExplorationResult ExploreEngine::explore(
    const std::map<std::string, std::string>& process_type,
    const std::set<std::string>& fixed) const {
  const std::vector<Candidate> candidates = make_candidates();
  std::vector<CandidateResult> results(candidates.size());

  // Each worker writes only the slots it claims: scheduling cannot show.
  sim::parallel_claim(0, candidates.size(), threads_, [&] {
    return [&](std::uint64_t i) {
      results[i] = evaluate(i, candidates[i], process_type, fixed);
      return true;
    };
  });

  // Serial reduce in index order: lowest total cost (makespan plus any
  // fault-scenario term), ties to the lowest index.
  ExplorationResult out;
  out.candidates = std::move(results);
  bool found = false;
  for (std::size_t i = 0; i < out.candidates.size(); ++i) {
    const CandidateResult& r = out.candidates[i];
    if (!r.feasible) continue;
    if (!found || r.mapping.cost.total() <
                      out.candidates[out.best].mapping.cost.total()) {
      out.best = i;
      found = true;
    }
  }
  if (!found) {
    throw std::runtime_error("exploration found no feasible mapping");
  }
  return out;
}

}  // namespace tut::explore
