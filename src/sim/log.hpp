// The simulation log-file.
//
// Figure 2 of the paper: the generated application code is complemented with
// custom C functions that write a log-file during simulation; the profiling
// tool later parses that file. This module defines the in-memory records, a
// line-oriented text serialization (the actual "log-file"), and its parser.
//
// Records are stored in a compact interned form: every process/peer/signal
// name is a dense intern::Id into the log's name table, so appends never
// allocate per record and downstream analyses (the profiler, exploration)
// can key flat vectors by id instead of std::map<std::string, ...>. The
// string-based record view is materialized on demand for compatibility.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "intern/intern.hpp"
#include "sim/kernel.hpp"
#include "sim/resource.hpp"

namespace tut::sim {

/// Sentinel process name for the environment.
inline constexpr const char* kEnvironment = "env";

/// One log record in the string-based compatibility view. `process`, `peer`
/// are application process names (or `kEnvironment`).
struct LogRecord {
  enum class Kind : std::uint8_t {
    Run,      ///< `process` executed `cycles` cycles for `duration` ticks
    Send,     ///< `process` sent `signal` (`bytes` bytes) towards `peer`
    Receive,  ///< `process` received `signal` from `peer`
    Drop,     ///< `process` discarded `signal` (no matching transition,
              ///< a fault-induced loss, or a transfer out of retries)
    Fault,    ///< fault raised on component `process` (PE, segment or the
              ///< receiving process of a signal fault)
    Clear,    ///< fault cleared on component `process`
    Retry,    ///< `process` retries sending `signal`; `cycles` = attempt no.
    Watchdog, ///< `process` was reset by its watchdog timer
    Migrate,  ///< `process` migrated from PE `peer` to PE `signal`
  };

  Time time = 0;
  Kind kind = Kind::Run;
  std::string process;
  std::string peer;
  std::string signal;
  long cycles = 0;
  Time duration = 0;
  std::size_t bytes = 0;
};

/// Append-only simulation log with text round trip.
class SimulationLog {
 public:
  /// One record in the hot-path form: names as ids into names(). Fields a
  /// record kind does not use hold intern::kNoId.
  struct Compact {
    Time time = 0;
    LogRecord::Kind kind = LogRecord::Kind::Run;
    intern::Id process = intern::kNoId;
    intern::Id peer = intern::kNoId;
    intern::Id signal = intern::kNoId;
    long cycles = 0;
    Time duration = 0;
    std::size_t bytes = 0;
  };

  void run(Time t, std::string_view process, long cycles, Time duration);
  void send(Time t, std::string_view from, std::string_view to,
            std::string_view signal, std::size_t bytes);
  void receive(Time t, std::string_view process, std::string_view from,
               std::string_view signal);
  void drop(Time t, std::string_view process, std::string_view signal);
  void fault(Time t, std::string_view component);
  void fault_cleared(Time t, std::string_view component);
  void retry(Time t, std::string_view process, std::string_view signal,
             long attempt);
  void watchdog_reset(Time t, std::string_view process);
  void migrate(Time t, std::string_view process, std::string_view from_pe,
               std::string_view to_pe);

  /// Interns a name for use with the id-based append paths below. Writers
  /// that log the same names repeatedly (the co-simulator) intern once and
  /// append by id, skipping even the hash lookup.
  intern::Id intern_name(std::string_view name) { return names_.intern(name); }
  void run_id(Time t, intern::Id process, long cycles, Time duration);
  void send_id(Time t, intern::Id from, intern::Id to, intern::Id signal,
               std::size_t bytes);
  void receive_id(Time t, intern::Id process, intern::Id from,
                  intern::Id signal);
  void drop_id(Time t, intern::Id process, intern::Id signal);
  void fault_id(Time t, intern::Id component);
  void clear_id(Time t, intern::Id component);
  void retry_id(Time t, intern::Id process, intern::Id signal, long attempt);
  void watchdog_id(Time t, intern::Id process);
  void migrate_id(Time t, intern::Id process, intern::Id from_pe,
                  intern::Id to_pe);

  /// The *resident* records in compact interned form — the profiler's
  /// input. With an active spill envelope this is the tail that has not yet
  /// been flushed; spilled records are only reachable through to_text().
  const std::vector<Compact>& compact_records() const noexcept {
    return compact_;
  }
  /// The name table the compact records' ids index.
  const intern::Table& names() const noexcept { return names_; }

  /// String-based view of the resident records, materialized lazily
  /// (append-only, so already materialized prefixes are reused).
  const std::vector<LogRecord>& records() const;

  /// Resource envelope: caps the resident records at `capacity` (0 =
  /// unbounded, the default). Without a spill path, the append that would
  /// exceed the cap throws EnvelopeError ("[envelope.log.overflow]", with
  /// the record's sim time) before mutating anything. With a spill path,
  /// reaching the cap renders the resident records to the spill file and
  /// frees them; to_text() reads the spill back, so the serialized log —
  /// and every digest over it — is byte-identical to an unbounded run.
  void set_envelope(std::uint64_t capacity, std::string spill_path = {});
  std::uint64_t envelope_capacity() const noexcept { return capacity_; }
  /// Records flushed to the spill file so far.
  std::uint64_t spilled() const noexcept { return spilled_; }

  /// Running counters maintained on append. They cover spilled records too,
  /// so campaign summaries stay exact under any envelope.
  std::uint64_t drop_count() const noexcept { return drops_; }
  std::uint64_t retry_count() const noexcept { return retries_; }
  /// Time of the most recent record (0 when the log is empty).
  Time last_time() const noexcept { return last_time_; }

  /// Logical record count: spilled + resident.
  std::size_t size() const noexcept { return spilled_ + compact_.size(); }
  /// Drops every record and counter; removes the spill file if one was
  /// written (a reset run must start from a genuinely empty log).
  void clear();
  /// Reserves capacity for `n` records (e.g. from the injected-event count).
  void reserve(std::size_t n);

  /// Serializes to the line-oriented log-file format:
  ///   # tut-simlog v1
  ///   R <time> <process> <cycles> <duration>
  ///   S <time> <from> <to> <signal> <bytes>
  ///   V <time> <process> <from> <signal>
  ///   D <time> <process> <signal>
  ///   F <time> <component>
  ///   C <time> <component>
  ///   T <time> <process> <signal> <attempt>
  ///   W <time> <process>
  ///   M <time> <process> <from_pe> <to_pe>
  std::string to_text() const;
  /// Appends the same serialization to `out` (no clearing). Batch and
  /// campaign runs render thousands of logs; reusing one buffer keeps the
  /// render allocation-free after the first run.
  void to_text(std::string& out) const;

  /// FNV-1a 64 of the serialization: always exactly
  /// intern::Fnv::of(to_text()), but no string is built. The header, then
  /// the spill file (read back in bounded chunks), then each resident
  /// record's line, piece by piece as the per-record formatter that
  /// to_text() also runs emits it, are folded straight into the hash. It
  /// hashes names, never intern ids, so a reused context's name table
  /// cannot leak into it.
  std::uint64_t digest() const;

  /// Parses a log-file in one pass over `text`. The grammar is what
  /// to_text() emits, read leniently in three ways only: fields may be
  /// separated by runs of spaces or tabs, a line may end in CR (CRLF
  /// files), and blank lines and lines whose first field starts with '#'
  /// are skipped. A record line is exactly one kind letter plus that kind's
  /// fields; a name is any run of bytes other than space, tab, CR and LF.
  /// <time>, <duration> and <bytes> are unsigned decimal; <cycles> and
  /// <attempt> are signed decimal ('-' allowed: a Compute total can be
  /// negative). Numbers take no '+' and must fit their field. Anything else
  /// — an unknown or multi-character kind, a missing or extra field, a sign
  /// or out-of-range value in a numeric field, a CR inside a line — throws
  /// std::runtime_error("[log.line.malformed] malformed simulation log line
  /// N: '<line, at most 120 bytes>'"). For text that to_text() rendered,
  /// the records and the name-table order match the rendering log's, so
  /// to_text() reproduces the text byte for byte.
  static SimulationLog parse(std::string_view text);

 private:
  /// Envelope-checked append: every public append path funnels through
  /// here. Throws (or spills) *before* pushing, so a rejected log still
  /// holds exactly `capacity_` records.
  void append(const Compact& r);
  /// Renders the resident records to the spill file and frees them.
  void spill_resident(Time at);
  /// Renders the resident records (no header) — shared by to_text and the
  /// spill flush so both paths serialize identically. It and digest() run
  /// the same per-record line formatter, so the digest cannot drift from
  /// the text.
  void render_body(std::string& out) const;

  std::vector<Compact> compact_;
  intern::Table names_;
  mutable std::vector<LogRecord> materialized_;  // lazy prefix of compact_
  std::uint64_t capacity_ = 0;   ///< resident-record ceiling; 0 = unbounded
  std::string spill_path_;       ///< empty: overflow throws instead
  std::uint64_t spilled_ = 0;    ///< records already flushed to spill_path_
  std::uint64_t drops_ = 0;      ///< Drop records appended (incl. spilled)
  std::uint64_t retries_ = 0;    ///< Retry records appended (incl. spilled)
  Time last_time_ = 0;           ///< time of the most recent record
};

}  // namespace tut::sim
