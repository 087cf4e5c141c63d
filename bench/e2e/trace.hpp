// tutbench tracing: spans recorded in memory around the calls the benchmark
// makes into each layer's public functions, written out at exit as Chrome
// trace-event JSON (viewable in Perfetto or chrome://tracing).
//
// Span names are "<layer>.<call>" after the repository's modules (sim.run,
// log.parse, campaign.digest, ...). Three kinds of root span exist:
//  - "op.*"    one session, scenario, request or linted model; its children
//              are the layer calls, and the root's own self time is the time
//              no named layer accounts for;
//  - "setup"   the workload's set-up calls (model build, compile, ...);
//  - "probe.*" an extra call made outside every op to split a call the
//              benchmark cannot reach inside (xml::Tree::parse on the bytes
//              uml::from_xml_text parses, the render inside log_digest, ...).
//              A probe's time is an estimate of part of another span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tutbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  const char* name = "";     ///< static string, "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same buffer; -1 for a root
  std::uint64_t op = 0;      ///< shared by every span of one op
};

/// The spans of one recording thread. Not thread-safe: every thread that
/// records owns its own buffer.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::uint32_t tid) : tid_(tid) {}

  /// Opens a span under the innermost open one; a root takes `op`, a child
  /// inherits its parent's.
  void begin(const char* name, std::uint64_t op = 0) {
    SpanRec s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = open_.empty() ? op : spans_[static_cast<std::size_t>(open_.back())].op;
    spans_.push_back(s);
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    spans_.back().start_ns = now_ns();
  }
  void end() {
    const std::int64_t t = now_ns();
    spans_[static_cast<std::size_t>(open_.back())].end_ns = t;
    open_.pop_back();
  }
  /// Records a finished root span measured by the caller (probes).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    SpanRec s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
  }

  std::uint32_t tid() const noexcept { return tid_; }
  const std::vector<SpanRec>& spans() const noexcept { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<SpanRec> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null buffer records nothing, so one code path serves the
/// traced and the untraced run.
class Span {
 public:
  Span(TraceBuffer* buffer, const char* name, std::uint64_t op = 0)
      : buffer_(buffer) {
    if (buffer_ != nullptr) buffer_->begin(name, op);
  }
  ~Span() {
    if (buffer_ != nullptr) buffer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceBuffer* buffer_;
};

/// Where the traced time went, summed over one or more buffers.
struct Ledger {
  double op_ns = 0;     ///< total duration of the "op.*" roots
  double setup_ns = 0;  ///< total duration of the "setup" roots
  std::map<std::string, double> op_self_ns;     ///< span name -> self time
  std::map<std::string, double> setup_self_ns;  ///< span name -> self time
  std::map<std::string, double> probe_ns;       ///< probe name (no prefix)

  /// Share of op time (percent) that named layers account for.
  double attributed_pct() const;
};

Ledger make_ledger(const std::vector<const TraceBuffer*>& buffers);

/// Writes the buffers as Chrome trace-event JSON. Returns false when the
/// file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const TraceBuffer*>& buffers);

}  // namespace tutbench
