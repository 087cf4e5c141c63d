// The simulation log-file.
//
// Figure 2 of the paper: the generated application code is complemented with
// custom C functions that write a log-file during simulation; the profiling
// tool later parses that file. This module defines the in-memory records, a
// line-oriented text serialization (the actual "log-file"), and its parser.
//
// There is one record type, LogRecord: every process/peer/signal name is a
// dense intern::Id into the log's name table, so appends never allocate per
// record and downstream analyses (the profiler, exploration) can key flat
// vectors by id instead of std::map<std::string, ...>. Every in-process
// reader walks the records with SimulationLog::for_each, which also reads
// the records an envelope spilled to disk.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "intern/intern.hpp"
#include "sim/kernel.hpp"
#include "sim/resource.hpp"

namespace tut::sim {

/// Sentinel process name for the environment.
inline constexpr const char* kEnvironment = "env";

/// One log record. Names are ids into the owning log's names(); fields a
/// record kind does not use hold intern::kNoId (or 0). `process`, `peer`
/// name application processes (or `kEnvironment`).
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
  intern::Id process = intern::kNoId;
  intern::Id peer = intern::kNoId;
  intern::Id signal = intern::kNoId;
  long cycles = 0;
  Time duration = 0;
  std::size_t bytes = 0;
};

/// Append-only simulation log with text round trip.
class SimulationLog {
 public:
  /// Former name of LogRecord, kept for callers that still spell it.
  using Compact = LogRecord;

  /// Interns a name for the appends below. Writers that log the same names
  /// repeatedly (the co-simulator) intern once and append by id.
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

  /// Calls f(const LogRecord&) on every record in append order: the records
  /// the envelope spilled to disk first, then the resident ones. This is the
  /// one way in-tree readers (the profiler, the latency table, to_text,
  /// digest) read a log, so a spilled log reads exactly like an unbounded
  /// one. Before handing out any spilled record the spill file is checked:
  /// it must hold exactly spilled() records, each of a valid kind whose
  /// names are ids below names().size(); otherwise std::runtime_error
  /// "[log.spill.corrupt] ..." is thrown. The spill is read back in bounded
  /// chunks.
  template <class F>
  void for_each(F&& f) const {
    // One loop over runs of records, so f is expanded, and inlined, once.
    Walk walk(*this);
    for (std::span<const LogRecord> run = walk.next(); !run.empty();
         run = walk.next()) {
      for (const LogRecord& r : run) f(r);
    }
  }

  /// The *resident* records only: with an active spill envelope, the tail
  /// not yet flushed. In-tree readers use for_each, which also reads the
  /// spilled records; this view is kept for external callers.
  const std::vector<LogRecord>& compact_records() const noexcept {
    return compact_;
  }
  /// The name table the records' ids index.
  const intern::Table& names() const noexcept { return names_; }

  /// Resource envelope: caps the resident records at `capacity` (0 =
  /// unbounded, the default). Without a spill path, the append that would
  /// exceed the cap throws EnvelopeError ("[envelope.log.overflow]", with
  /// the record's sim time) before mutating anything. With a spill path,
  /// reaching the cap writes the resident records, as raw fixed-size
  /// records, to the spill file and frees them; for_each reads them back,
  /// so the serialized log, every digest over it and every report read
  /// from it are identical to an unbounded run's.
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
  /// written (a reset run must start from a genuinely empty log). A dying
  /// log removes it too: the spill is a memory device, not an output.
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
  /// each record's line, piece by piece as the per-record formatter that
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
  void append(const LogRecord& r);
  /// Writes the resident records to the spill file and frees them.
  void spill_resident(Time at);
  /// spill_file_'s deleter: removes the file (best effort), frees the path.
  struct RemoveSpill {
    void operator()(std::string* path) const noexcept;
  };
  /// for_each's cursor: the spilled records in bounded chunks, read out of
  /// line, then the resident records, then an empty run.
  class Walk {
   public:
    // Out of line: std::ifstream is incomplete here.
    explicit Walk(const SimulationLog& log);
    ~Walk();

    std::span<const LogRecord> next() {
      if (handed_out_ < log_.spilled_) return next_spilled();
      if (resident_) {
        resident_ = false;
        return log_.compact_;
      }
      return {};
    }

   private:
    /// Opens and checks the whole spill file on the first call, then reads
    /// the next chunk.
    std::span<const LogRecord> next_spilled();
    /// Reads and checks the records after the first `handed_out_`, at most
    /// a chunk; returns their count.
    std::size_t read_chunk();

    const SimulationLog& log_;
    std::unique_ptr<std::ifstream> spill_;
    std::vector<LogRecord> chunk_;
    std::uint64_t handed_out_ = 0;  ///< spilled records handed out so far
    bool resident_ = true;
  };

  std::vector<LogRecord> compact_;
  intern::Table names_;
  std::uint64_t capacity_ = 0;   ///< resident-record ceiling; 0 = unbounded
  std::string spill_path_;       ///< empty: overflow throws instead
  /// The spill file, owned once written. Move-only, so the log keeps its
  /// implicit moves and a moved-from log leaves the file to its new owner.
  std::unique_ptr<std::string, RemoveSpill> spill_file_;
  std::uint64_t spilled_ = 0;    ///< records already flushed to spill_path_
  std::uint64_t drops_ = 0;      ///< Drop records appended (incl. spilled)
  std::uint64_t retries_ = 0;    ///< Retry records appended (incl. spilled)
  Time last_time_ = 0;           ///< time of the most recent record
};

}  // namespace tut::sim
