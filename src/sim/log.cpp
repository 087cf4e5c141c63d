#include "sim/log.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "intern/fnv.hpp"

namespace tut::sim {

void SimulationLog::run_id(Time t, intern::Id process, long cycles,
                           Time duration) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Run;
  r.process = process;
  r.cycles = cycles;
  r.duration = duration;
  append(r);
}

void SimulationLog::send_id(Time t, intern::Id from, intern::Id to,
                            intern::Id signal, std::size_t bytes) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Send;
  r.process = from;
  r.peer = to;
  r.signal = signal;
  r.bytes = bytes;
  append(r);
}

void SimulationLog::receive_id(Time t, intern::Id process, intern::Id from,
                               intern::Id signal) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Receive;
  r.process = process;
  r.peer = from;
  r.signal = signal;
  append(r);
}

void SimulationLog::drop_id(Time t, intern::Id process, intern::Id signal) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Drop;
  r.process = process;
  r.signal = signal;
  append(r);
  ++drops_;
}

void SimulationLog::fault_id(Time t, intern::Id component) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Fault;
  r.process = component;
  append(r);
}

void SimulationLog::clear_id(Time t, intern::Id component) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Clear;
  r.process = component;
  append(r);
}

void SimulationLog::retry_id(Time t, intern::Id process, intern::Id signal,
                             long attempt) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Retry;
  r.process = process;
  r.signal = signal;
  r.cycles = attempt;
  append(r);
  ++retries_;
}

void SimulationLog::watchdog_id(Time t, intern::Id process) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Watchdog;
  r.process = process;
  append(r);
}

void SimulationLog::migrate_id(Time t, intern::Id process, intern::Id from_pe,
                               intern::Id to_pe) {
  LogRecord r;
  r.time = t;
  r.kind = LogRecord::Kind::Migrate;
  r.process = process;
  r.peer = from_pe;
  r.signal = to_pe;
  append(r);
}

void SimulationLog::append(const LogRecord& r) {
  if (capacity_ != 0 && compact_.size() >= capacity_) {
    if (spill_path_.empty()) {
      throw EnvelopeError("envelope.log.overflow", r.time,
                          "simulation log reached its envelope of " +
                              std::to_string(capacity_) + " resident records");
    }
    spill_resident(r.time);
  }
  compact_.push_back(r);
  last_time_ = r.time;
}

void SimulationLog::spill_resident(Time at) {
  // One write per flush: the records go out as their fixed-size in-memory
  // image. Only this log reads the file back (read_spill), in this process.
  std::ofstream os(spill_path_, spilled_ == 0
                                    ? std::ios::binary | std::ios::trunc
                                    : std::ios::binary | std::ios::app);
  if (os && !spill_file_) spill_file_.reset(new std::string(spill_path_));
  if (!os ||
      !os.write(reinterpret_cast<const char*>(compact_.data()),
                static_cast<std::streamsize>(compact_.size() *
                                             sizeof(LogRecord))) ||
      !os.flush()) {
    throw EnvelopeError("envelope.log.overflow", at,
                        "cannot write log spill file '" + spill_path_ + "'");
  }
  spilled_ += compact_.size();
  compact_.clear();
}

void SimulationLog::set_envelope(std::uint64_t capacity,
                                 std::string spill_path) {
  capacity_ = capacity;
  spill_path_ = std::move(spill_path);
}

void SimulationLog::RemoveSpill::operator()(std::string* path) const noexcept {
  std::error_code ec;
  std::filesystem::remove(*path, ec);
  delete path;
}

void SimulationLog::clear() {
  compact_.clear();
  spill_file_.reset();
  spilled_ = 0;
  drops_ = 0;
  retries_ = 0;
  last_time_ = 0;
}

void SimulationLog::reserve(std::size_t n) { compact_.reserve(n); }

namespace {

constexpr std::string_view kHeader = "# tut-simlog v1\n";

/// Bytes a record line needs besides its names: the kind letter, at most
/// five separators, at most three numbers of at most 20 characters each
/// (a 64-bit value or a negative long) and the '\n'.
constexpr std::size_t kLineFixedBytes = 1 + 5 + 3 * 20 + 1;
/// The render's stack line buffer: it holds every line of a log whose
/// longest name has at most (kLineBufBytes - kLineFixedBytes) / 3 = 63 bytes.
constexpr std::size_t kLineBufBytes = 256;
/// Records per read when the spill file is walked back.
constexpr std::size_t kSpillChunkRecords = 16 * 1024 / sizeof(LogRecord);

/// The one per-record formatter, behind to_text() and digest(): emits `r`'s
/// line, '\n' included, piece by piece into `out`, which takes put(char),
/// put(string_view) and num(value) (a separating blank, then the decimal
/// value). `names` is the name table as views; only the fields `r.kind`
/// uses are read, and their ids are valid (by construction, or checked by
/// read_spill).
template <typename Out>
void format_line(const LogRecord& r, const std::string_view* names,
                 Out& out) {
  const auto field = [&](intern::Id id) {
    out.put(' ');
    out.put(names[id]);
  };
  switch (r.kind) {
    case LogRecord::Kind::Run:
      out.put('R');
      out.num(r.time);
      field(r.process);
      out.num(r.cycles);
      out.num(r.duration);
      break;
    case LogRecord::Kind::Send:
      out.put('S');
      out.num(r.time);
      field(r.process);
      field(r.peer);
      field(r.signal);
      out.num(r.bytes);
      break;
    case LogRecord::Kind::Receive:
      out.put('V');
      out.num(r.time);
      field(r.process);
      field(r.peer);
      field(r.signal);
      break;
    case LogRecord::Kind::Drop:
      out.put('D');
      out.num(r.time);
      field(r.process);
      field(r.signal);
      break;
    case LogRecord::Kind::Fault:
      out.put('F');
      out.num(r.time);
      field(r.process);
      break;
    case LogRecord::Kind::Clear:
      out.put('C');
      out.num(r.time);
      field(r.process);
      break;
    case LogRecord::Kind::Retry:
      out.put('T');
      out.num(r.time);
      field(r.process);
      field(r.signal);
      out.num(r.cycles);
      break;
    case LogRecord::Kind::Watchdog:
      out.put('W');
      out.num(r.time);
      field(r.process);
      break;
    case LogRecord::Kind::Migrate:
      out.put('M');
      out.num(r.time);
      field(r.process);
      field(r.peer);
      field(r.signal);
      break;
  }
  out.put('\n');
}

/// format_line's output for the render: writes the line into a buffer the
/// caller sized for it.
struct LineWriter {
  char* p = nullptr;

  void put(char c) { *p++ = c; }
  void put(std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
  template <typename N>
  void num(N value) {
    *p++ = ' ';
    p = std::to_chars(p, p + 20, value).ptr;
  }
};

/// format_line's output for the digest: folds each piece straight into
/// FNV-1a, so no line is assembled. Hashing piece by piece lets the CPU
/// format the next piece while the previous one's multiply chain runs.
struct LineHasher {
  intern::Fnv fnv;

  void put(char c) { fnv.bytes(&c, 1); }
  void put(std::string_view s) { fnv.bytes(s.data(), s.size()); }
  template <typename N>
  void num(N value) {
    char digits[21] = {' '};
    const char* end = std::to_chars(digits + 1, digits + 21, value).ptr;
    fnv.bytes(digits, static_cast<std::size_t>(end - digits));
  }
};

/// True when `r` has a valid kind and every name that kind uses is an id
/// below `names`: what format_line and the profiler may index by.
bool well_formed(const LogRecord& r, std::size_t names) {
  const auto ok = [names](intern::Id id) { return id < names; };
  switch (r.kind) {
    case LogRecord::Kind::Run:
    case LogRecord::Kind::Fault:
    case LogRecord::Kind::Clear:
    case LogRecord::Kind::Watchdog:
      return ok(r.process);
    case LogRecord::Kind::Drop:
    case LogRecord::Kind::Retry:
      return ok(r.process) && ok(r.signal);
    case LogRecord::Kind::Send:
    case LogRecord::Kind::Receive:
    case LogRecord::Kind::Migrate:
      return ok(r.process) && ok(r.peer) && ok(r.signal);
  }
  return false;
}

[[noreturn]] void spill_corrupt(const std::string& path,
                               const std::string& why) {
  throw std::runtime_error("[log.spill.corrupt] log spill file '" + path +
                           "' " + why);
}

}  // namespace

SimulationLog::Walk::Walk(const SimulationLog& log) : log_(log) {}

SimulationLog::Walk::~Walk() = default;

std::span<const LogRecord> SimulationLog::Walk::next_spilled() {
  if (!spill_) {
    const std::string& path = log_.spill_path_;
    spill_ = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*spill_) {
      throw std::runtime_error("cannot read log spill file '" + path + "'");
    }
    spill_->seekg(0, std::ios::end);
    const auto bytes = static_cast<std::uint64_t>(spill_->tellg());
    if (bytes != log_.spilled_ * sizeof(LogRecord)) {
      spill_corrupt(path, "holds " + std::to_string(bytes) +
                              " bytes, not the " +
                              std::to_string(log_.spilled_) +
                              " records written to it");
    }
    spill_->seekg(0);
    chunk_.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(log_.spilled_, kSpillChunkRecords)));
    // Check every record before the first is handed out. The reads below
    // check each chunk again, so a file changed in between cannot slip a
    // bad id through.
    while (handed_out_ < log_.spilled_) handed_out_ += read_chunk();
    handed_out_ = 0;
    spill_->seekg(0);
  }
  const std::size_t n = read_chunk();
  handed_out_ += n;
  return {chunk_.data(), n};
}

std::size_t SimulationLog::Walk::read_chunk() {
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(log_.spilled_ - handed_out_, chunk_.size()));
  if (!spill_->read(reinterpret_cast<char*>(chunk_.data()),
                    static_cast<std::streamsize>(n * sizeof(LogRecord)))) {
    spill_corrupt(log_.spill_path_, "ended early");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!well_formed(chunk_[i], log_.names_.size())) {
      spill_corrupt(log_.spill_path_, "holds a malformed record " +
                                          std::to_string(handed_out_ + i));
    }
  }
  return n;
}

std::string SimulationLog::to_text() const {
  std::string out;
  to_text(out);
  return out;
}

void SimulationLog::to_text(std::string& out) const {
  // ~32 bytes per rendered line; reserving up front keeps the append loop
  // free of reallocation even on the first use of a fresh buffer.
  out.reserve(out.size() + kHeader.size() + 32 * size());
  out += kHeader;
  const std::vector<std::string_view>& names = names_.views();
  std::size_t longest = 0;
  for (const std::string_view name : names) {
    longest = std::max(longest, name.size());
  }
  // A line holds at most three names. Only a log with a name too long for
  // the stack buffer renders through a heap one.
  char stack_line[kLineBufBytes] = {};
  std::string heap_line;
  char* line = stack_line;
  if (kLineFixedBytes + 3 * longest > sizeof stack_line) {
    heap_line.resize(kLineFixedBytes + 3 * longest);
    line = heap_line.data();
  }
  for_each([&](const LogRecord& r) {
    LineWriter w{line};
    format_line(r, names.data(), w);
    out.append(line, w.p);
  });
}

std::uint64_t SimulationLog::digest() const {
  LineHasher h;
  h.put(kHeader);
  const std::string_view* names = names_.views().data();
  for_each([&](const LogRecord& r) { format_line(r, names, h); });
  return h.fnv.h;
}

namespace {

/// Longest line excerpt quoted in a [log.line.malformed] message.
constexpr std::size_t kExcerptBytes = 120;
/// Kind plus the five operands of the widest record (S).
constexpr std::size_t kMaxFields = 6;

[[noreturn]] void malformed(std::size_t lineno, std::string_view line) {
  std::string msg = "[log.line.malformed] malformed simulation log line " +
                    std::to_string(lineno) + ": '";
  msg.append(line.substr(0, kExcerptBytes));
  if (line.size() > kExcerptBytes) msg += "...";
  msg += '\'';
  throw std::runtime_error(msg);
}

/// Splits `line` at runs of spaces and tabs. Returns the field count, or
/// kMaxFields + 1 when the line has more fields than any record kind.
std::size_t split_fields(std::string_view line,
                         std::string_view (&fields)[kMaxFields]) {
  std::size_t n = 0;
  std::size_t i = 0;
  const std::size_t size = line.size();
  for (;;) {
    while (i < size && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == size) return n;
    std::size_t j = i;
    while (j < size && line[j] != ' ' && line[j] != '\t') ++j;
    if (n == kMaxFields) return kMaxFields + 1;
    fields[n++] = line.substr(i, j - i);
    i = j;
  }
}

/// Decimal field that must consume the whole token. std::from_chars takes
/// no '+' and, for unsigned N, no '-'; out-of-range values fail.
template <typename N>
bool parse_num(std::string_view field, N& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Fields (kind included) of each record kind; 0 for an unknown kind.
std::size_t arity(char kind) {
  switch (kind) {
    case 'S':
      return 6;
    case 'R':
    case 'V':
    case 'T':
    case 'M':
      return 5;
    case 'D':
      return 4;
    case 'F':
    case 'C':
    case 'W':
      return 3;
    default:
      return 0;
  }
}

}  // namespace

SimulationLog SimulationLog::parse(std::string_view text) {
  SimulationLog log;
  if (text.empty()) return log;
  const char* pos = text.data();
  const char* const end = pos + text.size();
  const auto next_newline = [end](const char* from) {
    return static_cast<const char*>(std::memchr(from, '\n', end - from));
  };
  // At most one record per line: size the record vector once.
  std::size_t lines = 1;
  for (const char* p = next_newline(pos); p != nullptr;
       p = next_newline(p + 1)) {
    ++lines;
  }
  log.compact_.reserve(lines);

  // Every line repeats a handful of names. A direct-mapped cache of views
  // into `text` answers most of them without the name table's hash lookup;
  // only a miss interns, so the table order does not depend on the cache.
  struct CachedName {
    std::string_view name;
    intern::Id id = intern::kNoId;
  };
  std::array<CachedName, 64> cache{};
  const auto id = [&](std::string_view name) {
    CachedName& c = cache[(name.size() * 31 +
                           static_cast<unsigned char>(name.back())) %
                          cache.size()];
    if (c.id == intern::kNoId || c.name != name) {
      c.name = name;
      c.id = log.names_.intern(name);
    }
    return c.id;
  };

  std::string_view f[kMaxFields];
  for (std::size_t lineno = 1; pos < end; ++lineno) {
    const char* eol = next_newline(pos);
    if (eol == nullptr) eol = end;
    std::string_view line(pos, static_cast<std::size_t>(eol - pos));
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    const std::size_t n = split_fields(line, f);
    if (n == 0 || f[0][0] == '#') continue;  // blank line or comment
    // A CR anywhere else would survive into a name and break the round trip.
    if (f[0].size() != 1 || n != arity(f[0][0]) ||
        line.find('\r') != std::string_view::npos) {
      malformed(lineno, line);
    }

    // Names are interned last field first, so the name table's order does
    // not depend on argument evaluation order.
    Time t = 0;
    if (!parse_num(f[1], t)) malformed(lineno, line);
    switch (f[0][0]) {
      case 'R': {
        long cycles = 0;
        Time d = 0;
        if (!parse_num(f[3], cycles) || !parse_num(f[4], d)) {
          malformed(lineno, line);
        }
        log.run_id(t, id(f[2]), cycles, d);
        break;
      }
      case 'S': {
        std::size_t bytes = 0;
        if (!parse_num(f[5], bytes)) malformed(lineno, line);
        const intern::Id sig = id(f[4]), to = id(f[3]);
        log.send_id(t, id(f[2]), to, sig, bytes);
        break;
      }
      case 'V': {
        const intern::Id sig = id(f[4]), from = id(f[3]);
        log.receive_id(t, id(f[2]), from, sig);
        break;
      }
      case 'D': {
        const intern::Id sig = id(f[3]);
        log.drop_id(t, id(f[2]), sig);
        break;
      }
      case 'F':
        log.fault_id(t, id(f[2]));
        break;
      case 'C':
        log.clear_id(t, id(f[2]));
        break;
      case 'W':
        log.watchdog_id(t, id(f[2]));
        break;
      case 'T': {
        long attempt = 0;
        if (!parse_num(f[4], attempt)) malformed(lineno, line);
        const intern::Id sig = id(f[3]);
        log.retry_id(t, id(f[2]), sig, attempt);
        break;
      }
      case 'M': {
        const intern::Id to = id(f[4]), from = id(f[3]);
        log.migrate_id(t, id(f[2]), from, to);
        break;
      }
    }
  }
  return log;
}

}  // namespace tut::sim
