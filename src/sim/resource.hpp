// sim::ResourceProfile — named resource-envelope classes with deterministic
// exhaustion.
//
// The paper targets embedded platforms where memory and queue capacity are
// hard constraints; the simulation stack mirrors that by running every
// unbounded allocation under an explicit envelope: SimulationLog retention
// (resident ring with optional spill-to-disk), EventQueue pending events,
// xml::Arena bytes, BatchRunner's retained-log budget, and campaign worker
// concurrency / reorder-buffer depth. A profile is a bundle of those caps
// under a name (constrained / balanced / server, à la ASX_CLASS_R1..R3),
// plus fully custom caps via the `tut:profile` XML element.
//
// The contract has two halves:
//  - Semantic lock: tuning may change ceilings, never results. Any run that
//    fits its envelope produces byte-identical logs, replays and campaign
//    digests under every profile and both behaviour backends. Nothing in a
//    profile may leak into the simulation semantics — caps only decide
//    *whether* a run completes, never *what* it computes.
//  - Deterministic exhaustion: an envelope miss is an explicit classified
//    rejection (EnvelopeError with an "[envelope.*]" rule tag and the sim
//    time of the hit), thrown before any partial mutation of the capped
//    structure. A rejected campaign scenario becomes a counted, classified
//    outcome in CampaignAggregate instead of a crash.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/kernel.hpp"  // Time

namespace tut::sim {

/// A classified envelope miss: which ceiling was hit, at which sim time.
/// The message embeds the rule tag ("envelope: [envelope.queue.full] ... at
/// t=N"), so log greps and error-hash digests stay attributable. Thrown
/// *before* the capped structure mutates: the structure still holds exactly
/// its envelope's worth of state afterwards.
class EnvelopeError : public std::runtime_error {
 public:
  EnvelopeError(std::string tag, Time at, const std::string& what)
      : std::runtime_error("envelope: [" + tag + "] " + what +
                           " at t=" + std::to_string(at)),
        tag_(std::move(tag)),
        at_(at) {}

  /// The rule tag without brackets, e.g. "envelope.log.overflow".
  const std::string& tag() const noexcept { return tag_; }
  /// Sim time (ticks) at which the ceiling was hit.
  Time at() const noexcept { return at_; }

 private:
  std::string tag_;
  Time at_;
};

/// Which ceiling a rejection classifies under. Stored as one word in
/// ScenarioSummary so campaign aggregates can count rejections per ceiling.
enum class RejectionCode : std::uint64_t {
  None = 0,
  Log = 1,          ///< [envelope.log.overflow]
  Queue = 2,        ///< [envelope.queue.full]
  Arena = 3,        ///< [envelope.arena.exhausted]
  Concurrency = 4,  ///< [envelope.concurrency.capped]
  Other = 5,        ///< an [envelope.*] tag this build does not know
};

/// Maps an EnvelopeError tag to its RejectionCode (Other for unknown tags).
RejectionCode classify_envelope_tag(std::string_view tag) noexcept;

/// One envelope: every cap is a count or byte ceiling, 0 = unbounded. The
/// default-constructed profile is fully unbounded, which reproduces the
/// pre-envelope behaviour bit for bit.
struct ResourceProfile {
  /// Class name for diagnostics and provenance ("unbounded", "constrained",
  /// "balanced", "server", or "custom" for XML-tuned envelopes).
  std::string name = "unbounded";

  /// SimulationLog resident-record ceiling. Without a spill path the append
  /// that would exceed it throws [envelope.log.overflow]; with one, the
  /// resident records are written to the spill file and freed, and the
  /// log's text, digest and profile stay identical to an unbounded run's.
  std::uint64_t log_records = 0;
  /// Spill file for the log ring. Single-run feature: batch and campaign
  /// runs hash-and-release logs anyway, and the runners clear this before
  /// stamping scenario configs so concurrent workers never share a file.
  std::string log_spill_path;
  /// EventQueue pending-event ceiling (heap + same-time FIFO ring
  /// together); the schedule that would exceed it throws
  /// [envelope.queue.full].
  std::uint64_t event_queue = 0;
  /// xml::Arena reserved-byte ceiling for XML loading under this profile;
  /// exceeding it throws with an [envelope.arena.exhausted] tag.
  std::uint64_t arena_bytes = 0;
  /// BatchRunner: per-scenario retained-log byte budget when keep_logs is
  /// on. A larger rendered log classifies the scenario as rejected
  /// ([envelope.log.overflow]) instead of retaining it.
  std::uint64_t keep_log_bytes = 0;
  /// Batch/campaign worker-thread ceiling. Clamping is semantics-preserving
  /// (results are thread-count-invariant); the campaign surfaces the clamp
  /// as an [envelope.concurrency.capped] note.
  std::uint64_t concurrency = 0;
  /// Campaign reorder-buffer depth: workers stop claiming more than this
  /// many scenarios ahead of the in-order commit frontier, bounding the
  /// out-of-order summary buffer at `reorder_depth` entries.
  std::uint64_t reorder_depth = 0;
  /// serve::ModelCache byte ceiling for the `tut serve` daemon: total
  /// estimated bytes of cached compiled-model entries (parsed model + lowered
  /// tables + behaviour image). Exceeding it evicts least-recently-used
  /// entries — a capacity decision, never a semantic one: an evicted model is
  /// rebuilt from its XML to a byte-identical image on the next request.
  std::uint64_t cache_bytes = 0;

  /// True when any Simulation-level cap is set (log ring, spill, queue) —
  /// the runners stamp the profile into scenario configs only then, so a
  /// caller-provided per-scenario envelope survives an unbounded profile.
  bool bounds_simulation() const noexcept {
    return log_records != 0 || event_queue != 0 || !log_spill_path.empty();
  }

  /// The named classes. unbounded() is the default-constructed profile.
  static ResourceProfile unbounded();
  /// Embedded-target envelope: tight ring/queue/arena, 2 workers.
  static ResourceProfile constrained();
  /// Workstation envelope: roomy caps that still bound a runaway model.
  static ResourceProfile balanced();
  /// Server envelope: large ceilings, hardware-sized concurrency.
  static ResourceProfile server();
  /// Resolves a class name; throws std::invalid_argument with a
  /// "[profile.class.unknown]" tag for anything else.
  static ResourceProfile by_name(std::string_view name);

  /// Parses the `tut:profile` XML element:
  ///
  ///   <tut:profile class="constrained" spill="sim.spill">
  ///     <cap name="logRecords" value="4096"/>
  ///     <cap name="eventQueue" value="1024"/>
  ///   </tut:profile>
  ///
  /// `class` (optional, default "custom") seeds the caps from a named
  /// class; each <cap> then overrides one ceiling. Cap names mirror the
  /// fields: logRecords, eventQueue, arenaBytes, keepLogBytes, concurrency,
  /// reorderDepth. Throws xml::ParseError on malformed XML and
  /// std::invalid_argument with a "[profile.*]" rule tag on every other
  /// defect ([profile.element.unknown], [profile.class.unknown],
  /// [profile.cap.unknown], [profile.cap.malformed]).
  static ResourceProfile from_xml_text(std::string_view text);

  /// One-line human-readable cap listing for CLI provenance output.
  std::string to_text() const;
};

}  // namespace tut::sim
