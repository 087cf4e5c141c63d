// tutbench workloads: each drives one end-to-end path of the repository
// through the same public calls the `tut` command line makes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace tutbench {

struct Params {
  std::uint64_t seed = 1;  ///< seed 1 gives the pinned inputs
  bool smoke = false;      ///< tiny fixed work (and the 10k campaign sweep)
  std::string root = ".";  ///< repository root: examples/ is read from here
  std::string scratch;     ///< writable directory (native compile caches)
};

/// Per-unit samples of a timed window in a fixed amount of memory, so the
/// harness's own footprint does not grow with the program's speed. Each
/// kept unit stores its time and the running totals of unit time and ops
/// up to it. When the buffer is full every other sample is dropped and from
/// then on only every second unit is kept; the kept units stay evenly
/// spaced in run order.
class UnitSamples {
 public:
  struct Sample {
    double ms = 0;      ///< this unit's time
    double cum_ms = 0;  ///< unit time up to and including this unit
    double cum_ops = 0; ///< ops up to and including this unit
  };
  static constexpr std::size_t kCapacity = 8192;

  UnitSamples() : buf_(kCapacity) {}

  void add(double ms, double ops) {
    total_ms_ += ms;
    total_ops_ += ops;
    if (++units_ % stride_ != 0) return;
    if (size_ == kCapacity) {
      for (std::size_t i = 0; i < kCapacity / 2; ++i) buf_[i] = buf_[2 * i + 1];
      size_ = kCapacity / 2;
      stride_ *= 2;
      if (units_ % stride_ != 0) return;
    }
    buf_[size_++] = {ms, total_ms_, total_ops_};
  }

  /// Units timed in all, kept or not.
  std::uint64_t units() const noexcept { return units_; }
  const Sample* begin() const noexcept { return buf_.data(); }
  const Sample* end() const noexcept { return buf_.data() + size_; }
  std::size_t size() const noexcept { return size_; }

 private:
  std::vector<Sample> buf_;
  std::size_t size_ = 0;
  std::uint64_t units_ = 0;
  std::uint64_t stride_ = 1;
  double total_ms_ = 0;
  double total_ops_ = 0;
};

/// What a timed window produced. An op is one session, scenario, request or
/// linted model; a unit is what one latency sample times (a session, a
/// campaign shard, a request, a corpus pass).
struct Measurement {
  UnitSamples units;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs and program state. `trace` (may be null) records the
  /// set-up calls under a "setup" root.
  virtual void setup(TraceBuffer* trace) = 0;
  /// One untimed unit, so caches fill and lazy set-up finishes.
  virtual void warm_up() = 0;
  /// Runs timed units until `seconds` have passed (at least one unit, and
  /// for sweeps at least one full pass, whose digest is checked).
  virtual Measurement measure(double seconds) = 0;
  /// The traced run: records spans into `buffers` (one per recording
  /// thread; the first holds the set-up spans and may be added to) and
  /// appends the workload's own per-layer metrics. `scale` is the share of
  /// a ten-second run's traced work. Returns the traced ops.
  virtual Measurement trace(std::vector<std::unique_ptr<TraceBuffer>>& buffers,
                            double scale, std::vector<Metric>& metrics) = 0;

  /// Output checks that failed so far, one message each.
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 protected:
  /// Records a failed check (the first few messages are kept).
  void fail(std::string message) {
    if (failures_.size() < 20) failures_.push_back(std::move(message));
  }

 private:
  std::vector<std::string> failures_;
};

const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Params& params);

}  // namespace tutbench
