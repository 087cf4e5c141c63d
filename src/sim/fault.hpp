// sim::FaultPlan — deterministic fault injection for the co-simulator.
//
// The paper's profile-driven iteration loop only ever evaluates mappings on
// a healthy platform. A FaultPlan extends a co-simulation with scheduled,
// seeded fault events so the simulator can answer the question a real
// deployment asks: which mapping still meets its deadlines when components
// fail? The plan is pure data — the runtime semantics (failover migration,
// watchdog resets, bounded retry) live in sim::Simulation.
//
// Fault kinds:
//  - PE fail/recover windows: the processing element stops executing; its
//    processes migrate to the least-loaded compatible surviving PE
//    (mapping::FailoverPolicy) and migrate back on recovery.
//  - Segment fault windows: transfers that hit the faulted segment retry
//    with exponential backoff, bounded by `max_retries`, then drop.
//  - Per-transfer bit-error rates: each completed segment hop draws from the
//    counter PRNG; a corrupted transfer is dropped and NACKed, sending the
//    sender back through the retry path.
//  - Signal faults: deliveries of a matching signal to a process are lost
//    (dropped) or stuck (held and flushed when the window closes).
//
// Determinism: every random draw comes from FaultRng, a stateless
// counter-based PRNG keyed on (seed, instance, sequence). Runs are
// bit-reproducible for a fixed (plan, seed) and independent of host thread
// counts because no RNG state is shared or iterated.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "intern/fnv.hpp"
#include "sim/kernel.hpp"

namespace tut::sim {

/// Stateless counter-based PRNG (splitmix64 finalizer over a mixed key).
/// draw(seed, instance, seq) is a pure function: callers key `instance` on a
/// stable identity (e.g. a name hash) and advance `seq` per decision.
class FaultRng {
 public:
  /// 64-bit draw for the given (seed, instance, sequence) triple.
  static std::uint64_t draw(std::uint64_t seed, std::uint64_t instance,
                            std::uint64_t seq) noexcept {
    return mix(mix(seed ^ mix(instance)) ^ seq);
  }
  /// Stable 64-bit identity for a component name (FNV-1a).
  static std::uint64_t key(std::string_view name) noexcept {
    return intern::Fnv::of(name);
  }

 private:
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

/// A fail/recover window on a platform component instance or segment.
/// `end == 0` means the component never recovers.
struct FaultWindow {
  std::string component;
  Time start = 0;
  Time end = 0;
};

/// Per-transfer bit-error rate on a segment, in errors per million
/// completed hops (integer, so plans round-trip exactly through XML).
struct BitErrorSpec {
  std::string segment;
  std::uint32_t rate_ppm = 0;
};

/// A window during which signals delivered to `process` are lost (dropped)
/// or stuck (held, then flushed at `end`). Empty `signal` matches any
/// signal. Stuck faults require a finite window (`end > start`).
struct SignalFault {
  enum class Kind { Lost, Stuck };
  Kind kind = Kind::Lost;
  std::string process;
  std::string signal;
  Time start = 0;
  Time end = 0;
};

/// A complete fault scenario plus the degraded-mode runtime knobs. Attach to
/// sim::Config::faults; an empty plan leaves the fault machinery fully off.
struct FaultPlan {
  std::uint64_t seed = 1;

  std::vector<FaultWindow> pe_faults;
  std::vector<FaultWindow> segment_faults;
  std::vector<BitErrorSpec> bit_errors;
  std::vector<SignalFault> signal_faults;

  /// Per-process watchdog: a process that fires no transition for this many
  /// ticks is reset to its initial EFSM state. 0 disables watchdogs.
  Time watchdog_timeout = 0;
  /// Bounded retry for transfers that hit a faulted segment or a bit error:
  /// attempt k (1-based) waits retry_backoff << (k-1) ticks; after
  /// max_retries failed attempts the transfer is dropped.
  int max_retries = 4;
  Time retry_backoff = 200;

  /// True when the plan injects nothing and enables no runtime semantics —
  /// the simulator skips all fault bookkeeping for an empty plan.
  bool empty() const noexcept {
    return pe_faults.empty() && segment_faults.empty() && bit_errors.empty() &&
           signal_faults.empty() && watchdog_timeout == 0;
  }

  /// Structural validation (window ordering, rate bounds, retry knobs).
  /// Returns one message per defect; empty when the plan is well-formed.
  std::vector<std::string> validate() const;

  /// XML interchange (the `tut simulate --faults <plan.xml>` format).
  std::string to_xml_text() const;
  /// Parses a plan. Throws xml::ParseError on malformed XML and
  /// std::invalid_argument on unknown elements or failed validation.
  static FaultPlan from_xml_text(std::string_view text);
};

}  // namespace tut::sim
