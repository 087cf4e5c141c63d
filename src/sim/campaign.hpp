// sim::Campaign — scenario-sweep campaigns: 1e5+ runs over one compiled
// image with streaming aggregation and sharded, resumable execution.
//
// BatchRunner executes a hand-listed vector of scenarios and returns one
// result per run; that shape cannot reach the ROADMAP's 1e5–1e7 scenario
// campaigns. A campaign instead describes its runs as a *sweep*: axes over
// seeds, horizons, fault plans, mappings and free traffic parameters,
// combined cartesian or zipped. Scenario i is materialized on demand from
// its index (CampaignSpec::scenario is a pure function of i — nothing is
// ever expanded into a stored list), executed on a per-thread reusable run
// context (Simulation::reset over the shared CompiledModel, so per-run cost
// excludes construction), and reduced *streamingly*: a per-scenario FNV-1a
// digest plus a compact summary feed campaign totals and P² percentile
// sketches, and the full log is released before the next run claims the
// context. Resident log memory is O(threads), never O(scenarios).
//
// Determinism is the contract everything else leans on:
//  - scenario(i) is pure in i; per-scenario fault seeds come from a
//    splitmix64 draw keyed on (base seed, seed-axis value, i);
//  - reduction happens in scenario-index order behind a reorder buffer, so
//    digests and sketches are byte-identical across any thread count;
//  - shards cover contiguous index ranges and record their per-scenario
//    summaries; merging replays them in global index order through the same
//    reduction, so merged output is byte-identical to a single-process run;
//  - checkpoints snapshot the reduction state at index boundaries, so a
//    killed campaign resumes to byte-identical final aggregates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "intern/fnv.hpp"
#include "sim/backend.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"

namespace tut::sim {

// ---------------------------------------------------------------------------
// Streaming aggregation
// ---------------------------------------------------------------------------

/// P² quantile sketch (Jain & Chlamtac 1985): an O(1)-memory running
/// estimate of one quantile over a stream. The update is order-dependent,
/// which the campaign reducer turns into a feature: samples are always fed
/// in scenario-index order, so the sketch state — and its serialized bytes —
/// are invariant across thread counts, shards and resume.
class P2Quantile {
 public:
  /// Sketch for the `p`-quantile (0 < p < 1).
  explicit P2Quantile(double p);

  void add(double sample);
  /// Current estimate. Exact while fewer than 5 samples were seen.
  double value() const;
  std::uint64_t count() const noexcept { return count_; }

  /// Appends the exact state (doubles as bit patterns) for checkpoints and
  /// byte-identity assertions.
  void serialize(std::string& out) const;
  /// Reads state back from a serialize() blob, advancing `cursor`. Throws
  /// std::invalid_argument ("[campaign.checkpoint.corrupt]") on truncation.
  static P2Quantile deserialize(std::string_view bytes, std::size_t& cursor);

 private:
  double parabolic(int i, double d) const;
  double linear(int i, int d) const;

  double p_;
  std::uint64_t count_ = 0;
  double q_[5] = {0, 0, 0, 0, 0};   ///< marker heights
  double n_[5] = {0, 0, 0, 0, 0};   ///< marker positions (exact integers)
  double np_[5] = {0, 0, 0, 0, 0};  ///< desired positions
  double dn_[5] = {0, 0, 0, 0, 0};  ///< desired-position increments
};

/// What one scenario leaves behind: a canonical log digest plus the summary
/// numbers the campaign aggregates. Fixed 96-byte layout in shard part
/// files. `error != 0` marks a failed run (defective plan, diverging EFSM);
/// its other fields are zero.
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

/// Canonical FNV-1a digest of a simulation log: SimulationLog::digest(),
/// the hash of the rendered text computed without rendering it. It covers
/// the *names* behind the interned ids, never the id values, so a reusable
/// context's persistent name table cannot leak into the digest. Two logs
/// digest equal iff their rendered text is equal.
std::uint64_t log_digest(const SimulationLog& log);
/// A forward to log_digest(log), kept for the callers that still pass a
/// render buffer (the end-to-end benchmark's campaign replay); the buffer
/// is unused.
std::uint64_t log_digest(const SimulationLog& log, std::string& scratch);

/// The campaign-level reduction state. add() must be called in scenario
/// index order (the runner and the shard merger guarantee it); serialize()
/// is byte-exact, so equal campaigns compare equal as strings.
struct CampaignAggregate {
  std::uint64_t scenarios = 0;
  std::uint64_t errors = 0;
  /// Classified envelope rejections (a subset of `errors`): total plus the
  /// per-ceiling split. One scenario hitting its envelope never corrupts
  /// the aggregate of the rest — it is counted here and in the digest (via
  /// its deterministic error hash) and contributes nothing else.
  std::uint64_t rejected = 0;
  std::uint64_t rejected_log = 0;    ///< [envelope.log.overflow]
  std::uint64_t rejected_queue = 0;  ///< [envelope.queue.full]
  std::uint64_t rejected_other = 0;  ///< arena / concurrency / unknown
  /// Rolling FNV-1a over (index, digest) pairs in index order.
  std::uint64_t digest = intern::Fnv::kOffset;
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  std::uint64_t drops = 0;
  std::uint64_t retries = 0;
  Time makespan_min = 0;
  Time makespan_max = 0;
  P2Quantile makespan_p50{0.5}, makespan_p90{0.9}, makespan_p99{0.99};
  /// Latency metric: per-scenario mean segment grant-queue wait in ticks.
  P2Quantile latency_p50{0.5}, latency_p90{0.9}, latency_p99{0.99};

  void add(const ScenarioSummary& s);
  std::string serialize() const;
  static CampaignAggregate deserialize(std::string_view bytes);
  /// Human-readable summary block (CLI output).
  std::string to_text() const;
};

// ---------------------------------------------------------------------------
// Sweep grammar
// ---------------------------------------------------------------------------

/// One sweep dimension. Axis names "seed", "horizon", "plan" and "mapping"
/// are interpreted by the campaign machinery (see CampaignSpec::scenario);
/// any other name is a free parameter handed to the setup callback (traffic
/// periods, burst sizes, ...).
struct CampaignAxis {
  std::string name;
  std::vector<long> values;
};

/// One materialized run of the sweep. `params` views the spec's axis names;
/// the spec must outlive the scenario (the runner materializes on demand and
/// discards, so this never constrains callers in practice).
struct Scenario {
  std::uint64_t index = 0;
  Config config;           ///< base config + horizon/plan/seed axis values
  std::uint32_t image = 0; ///< mapping-axis choice among the runner's images
  std::vector<std::pair<const std::string*, long>> params;

  /// Value of a free parameter, or `fallback` when the sweep has no such
  /// axis.
  long param(std::string_view name, long fallback) const;
};

/// A scenario sweep: what to run, never materialized as a list.
class CampaignSpec {
 public:
  enum class Mode { Cartesian, Zip };

  std::string name = "campaign";
  Mode mode = Mode::Cartesian;
  /// Per-run configuration before axis substitution.
  Config base;
  /// Campaign seed: per-scenario fault seeds are
  /// FaultRng::draw(base_seed, seed-axis value, scenario index).
  std::uint64_t base_seed = 1;
  std::vector<CampaignAxis> axes;
  /// Fault plans the "plan" axis indexes. Entry 0 is always the empty plan
  /// ("none").
  std::vector<std::pair<std::string, FaultPlan>> plans = {
      {"none", FaultPlan{}}};
  /// Mapping names the "mapping" axis indexes; the runner's images must be
  /// built in this order. Empty when the campaign sweeps no mappings.
  std::vector<std::string> mapping_names;

  /// Structural validation. Returns one "[campaign.*]"-tagged message per
  /// defect; empty when the sweep is well-formed.
  std::vector<std::string> validate() const;

  /// Number of scenarios: the product of axis sizes (cartesian) or their
  /// common length (zip).
  std::uint64_t total() const;

  /// Materializes scenario `index` — a pure function of the index (the
  /// lazy-expansion contract sharding and resume rely on). Cartesian order
  /// is row-major with the last axis fastest.
  Scenario scenario(std::uint64_t index) const;

  /// Stable hash over the whole sweep definition. Checkpoints and shard
  /// part files embed it so resuming or merging a *different* campaign is
  /// rejected instead of silently blending results.
  std::uint64_t fingerprint() const;

  /// Reads referenced fault-plan files for the XML loader (path → content).
  using FileReader = std::function<std::string(const std::string& file)>;

  /// Parses the `tut:campaign` XML form:
  ///
  ///   <tut:campaign name="sweep" mode="cartesian" seed="1"
  ///                 horizon="5000000">
  ///     <plan name="burst" file="plans/burst.xml"/>
  ///     <axis name="seed" count="1000"/>
  ///     <axis name="slotPeriod" values="50000 100000"/>
  ///     <axis name="rxPeriod" from="500000" step="250000" count="3"/>
  ///     <axis name="plan" values="none burst"/>
  ///     <axis name="mapping" values="paper singlePe"/>
  ///   </tut:campaign>
  ///
  /// Numeric axes take `values` (whitespace-separated) or from/step/count;
  /// the "plan" and "mapping" axes take names. Throws xml::ParseError on
  /// malformed XML and std::invalid_argument with a "[campaign.*]" rule tag
  /// on every other defect ([campaign.sweep.empty], [campaign.ref.unknown],
  /// [campaign.axis.malformed], [campaign.axis.duplicate],
  /// [campaign.zip.length], [campaign.mode.unknown],
  /// [campaign.plan.unreadable], [campaign.element.unknown]).
  ///
  /// `arena_limit` caps the parse arena in bytes (0 = unbounded); a spec
  /// that overflows it throws xml::ArenaLimitError tagged
  /// [envelope.arena.exhausted].
  static CampaignSpec from_xml_text(std::string_view text,
                                    const FileReader& read_file = {},
                                    std::size_t arena_limit = 0);
};

// ---------------------------------------------------------------------------
// Campaign runner
// ---------------------------------------------------------------------------

/// Contiguous shard `index` of `count`: this process runs scenario range
/// [total*index/count, total*(index+1)/count).
struct CampaignShard {
  std::uint32_t index = 0;
  std::uint32_t count = 1;
};

struct CampaignOptions {
  /// Worker threads; 0 resolves to std::thread::hardware_concurrency().
  std::size_t threads = 0;
  CampaignShard shard;
  /// When non-empty, the reduction state is checkpointed here every
  /// `checkpoint_every` in-order completions (atomic tmp+rename), and
  /// `resume` restarts from it.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 1024;
  bool resume = false;
  /// When non-empty, every in-order summary is appended to this shard part
  /// file (88 bytes per scenario) for a later merge_campaign_parts().
  std::string samples_path;
  /// Test hook: stop claiming once the in-order prefix reaches this many
  /// completions (simulates a kill). 0 = run to the end of the shard.
  std::uint64_t stop_after = 0;
  /// Streaming observer, called in scenario-index order under the reducer
  /// lock. Keep it cheap.
  std::function<void(const ScenarioSummary&)> on_summary;
  /// Resource envelope for the whole campaign: simulation caps are stamped
  /// into every scenario's config (spill path cleared — workers never share
  /// a spill file), `concurrency` clamps the worker count (surfaced as an
  /// [envelope.concurrency.capped] note), and `reorder_depth` bounds how
  /// far workers may claim ahead of the in-order commit frontier. Semantic
  /// lock: an in-envelope campaign digests byte-identical to an unbounded
  /// one; profile caps *do* enter the checkpoint/part fingerprint so
  /// artifacts from different envelopes never blend.
  ResourceProfile profile;
};

struct CampaignResult {
  CampaignAggregate aggregate;
  std::uint64_t first = 0;  ///< shard range start
  std::uint64_t end = 0;    ///< shard range end (exclusive)
  std::uint64_t next = 0;   ///< in-order prefix reached; == end when done
  bool completed = true;
  double wall_seconds = 0;
  /// Human-readable envelope notes (e.g. "[envelope.concurrency.capped]
  /// ..."). Advisory only — never part of the aggregate or its digest.
  std::vector<std::string> notes;
};

/// Executes campaigns over one or more shared compiled images (one per
/// mapping-axis value). The setup callback injects the scenario's workload
/// into the (reset) simulation; it runs concurrently on worker threads and
/// must only touch the passed Simulation and read-only state.
class CampaignRunner {
 public:
  using Setup = std::function<void(Simulation&, const Scenario&)>;

  /// Same as the image constructor over interpreter_image() of each model.
  CampaignRunner(std::vector<std::shared_ptr<const CompiledModel>> models,
                 Setup setup);

  /// One behaviour image per mapping, in mapping_names order (the
  /// interpreter, or e.g. codegen::NativeImage). Aggregates and digests are
  /// byte-identical across images; only ScenarioSummary::backend records
  /// the difference.
  CampaignRunner(std::vector<std::shared_ptr<const BackendImage>> images,
                 Setup setup);

  /// Runs the spec's scenarios (this shard's contiguous range), reducing in
  /// index order. Throws std::invalid_argument on spec defects (the
  /// combined "[campaign.*]" messages) and std::runtime_error on checkpoint
  /// or part-file I/O problems.
  CampaignResult run(const CampaignSpec& spec,
                     const CampaignOptions& options = {}) const;

 private:
  std::vector<std::shared_ptr<const BackendImage>> images_;
  Setup setup_;
};

/// Exact size in bytes of a shard part file covering `scenarios` summaries
/// (tutpart3 header + one fixed-size record each) — the `tut campaign
/// --dry-run` preflight quotes it before anything runs.
std::uint64_t part_file_bytes(std::uint64_t scenarios) noexcept;

/// Merges shard part files covering [0, total) into the aggregate a
/// single-process run of the same campaign produces — byte-identical,
/// because the summaries replay through the same in-order reduction. Throws
/// std::runtime_error with "[campaign.part.*]" tags on missing files,
/// fingerprint mismatches, or gaps in coverage.
CampaignResult merge_campaign_parts(const std::vector<std::string>& paths);

}  // namespace tut::sim
