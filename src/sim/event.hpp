// POD event queue: the compiled replacement for the closure Kernel.
//
// Kernel stores one heap-allocated std::function per event; at the event
// rates the exploration engine drives (millions of events per candidate
// mapping), allocation and indirect-call overhead dominate the hot loop.
// EventQueue stores a 16-byte tagged record instead — a kind enum plus
// dense indices into the Simulation's flat tables and one inline payload
// word — and hands records back to the caller, which dispatches them with a
// switch. No allocation per event, a moveable flat heap, and handlers
// inlined into one dispatch loop.
//
// Ordering is pinned to Kernel: a (time, seq) binary min-heap where seq is
// assigned at scheduling time, plus a FIFO bucket for events due exactly at
// now() (every heap entry due at now() predates every bucket entry, so
// heap-before-bucket is exactly seq order). poll() is Kernel::run's loop
// body turned inside out; driving it to exhaustion yields the identical
// dispatch sequence, final now(), and past-time scheduling errors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/kernel.hpp"  // Time
#include "sim/resource.hpp"

namespace tut::sim {

/// One scheduled occurrence. `a`/`b` are dense indices whose meaning the
/// kind defines (PE, segment, process, transfer, fault-window or injection
/// slots); `c` carries a wide payload (generation counter or granted
/// cycles).
struct EventRec {
  enum class Kind : std::uint8_t {
    PeFaultRaise,      ///< a = PE index
    PeFaultClear,      ///< a = PE index
    SegFaultRaise,     ///< a = segment index
    SegFaultClear,     ///< a = segment index
    SignalFaultStart,  ///< a = fault-plan signal fault index, b = process
    SignalFaultEnd,    ///< a = fault-plan signal fault index, b = process
    WatchdogCheck,     ///< a = process index
    StepDone,          ///< a = PE index, c = run generation
    TimerFired,        ///< a = process index, b = timer id, c = generation
    RetryResume,       ///< a = transfer index
    GrantDone,         ///< a = segment index, b = transfer, c = granted cycles
    Inject,            ///< a = injection index
  };

  Kind kind;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
};

/// Time-ordered queue of EventRec with Kernel's deterministic FIFO
/// tie-breaking for simultaneous events.
class EventQueue {
 public:
  /// Schedules `ev` at absolute time `at`. Scheduling into the past is a
  /// hard error in every build: it throws std::logic_error (same contract
  /// as Kernel::schedule_at). Defined inline:
  /// schedule/poll are the per-event hot pair of the whole simulator.
  void schedule_at(Time at, EventRec ev) {
    if (at < now_) {
      throw std::logic_error("cannot schedule an event in the past (at=" +
                             std::to_string(at) +
                             ", now=" + std::to_string(now_) + ")");
    }
    if (capacity_ != 0 && pending() >= capacity_) {
      throw EnvelopeError("envelope.queue.full", now_,
                          "event queue reached its envelope of " +
                              std::to_string(capacity_) + " pending events");
    }
    if (at == now_) {
      if (bucket_head_ != 0 && bucket_empty()) {
        bucket_.clear();
        bucket_head_ = 0;
      }
      bucket_.push_back(ev);
      return;
    }
    heap_.push_back(Entry{at, next_seq_++, ev});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_in(Time delay, EventRec ev) { schedule_at(now_ + delay, ev); }

  /// Pops the next event due at or before `horizon` into `out`, advancing
  /// now() as needed. Returns false when nothing further is due, leaving
  /// now() == horizon (when it was behind). `while (q.poll(h, ev)) ...`
  /// replays Kernel::run(h) exactly.
  bool poll(Time horizon, EventRec& out) {
    while (now_ <= horizon) {
      if (!heap_.empty() && heap_.front().at <= now_) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        out = heap_.back().ev;
        heap_.pop_back();
        ++dispatched_;
        return true;
      }
      if (!bucket_empty()) {
        out = bucket_[bucket_head_++];
        if (bucket_empty()) {
          bucket_.clear();
          bucket_head_ = 0;
        }
        ++dispatched_;
        return true;
      }
      if (!heap_.empty() && heap_.front().at <= horizon) {
        now_ = heap_.front().at;
        continue;
      }
      break;
    }
    if (now_ < horizon) now_ = horizon;
    return false;
  }

  /// Rewinds to the freshly-constructed state (now() == 0, empty queue,
  /// sequence and dispatch counters zeroed) while keeping the heap's
  /// capacity. Reusable run contexts (sim::Simulation::reset) depend on the
  /// counters restarting: event ordering and generation payloads must be
  /// identical to a brand-new queue.
  void reset() noexcept {
    heap_.clear();
    bucket_.clear();
    bucket_head_ = 0;
    now_ = 0;
    next_seq_ = 0;
    dispatched_ = 0;
  }

  Time now() const noexcept { return now_; }
  bool empty() const noexcept { return heap_.empty() && bucket_empty(); }
  std::size_t pending() const noexcept {
    return heap_.size() + (bucket_.size() - bucket_head_);
  }
  std::uint64_t dispatched() const noexcept { return dispatched_; }
  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Resource envelope: caps pending() at `cap` (0 = unbounded). The
  /// schedule_at that would exceed it throws [envelope.queue.full] before
  /// touching the heap or bucket. Survives reset(): the envelope belongs to
  /// the queue's owner, not to one run.
  void set_capacity(std::uint64_t cap) noexcept { capacity_ = cap; }
  std::uint64_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventRec ev;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  bool bucket_empty() const noexcept { return bucket_head_ == bucket_.size(); }

  std::vector<Entry> heap_;       ///< binary min-(at, seq) heap
  std::vector<EventRec> bucket_;  ///< events due exactly at now_, FIFO ring
  std::size_t bucket_head_ = 0;   ///< index of the oldest bucket entry
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t capacity_ = 0;  ///< pending-event ceiling; 0 = unbounded
};

}  // namespace tut::sim
