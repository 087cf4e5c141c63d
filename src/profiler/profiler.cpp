#include "profiler/profiler.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "appmodel/appmodel.hpp"
#include "uml/serialize.hpp"

namespace tut::profiler {

namespace {

const std::string kEnvString = kEnvironmentParty;

constexpr std::size_t kNoParty = static_cast<std::size_t>(-1);

/// Packs a directed (from, to) id pair into one hash key.
constexpr std::uint64_t pair_key(intern::Id from, intern::Id to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

const std::string& ProcessGroupInfo::party_of(
    const std::string& process) const {
  auto it = group_of.find(process);
  return it != group_of.end() ? it->second : kEnvString;
}

ProcessGroupInfo ProcessGroupInfo::from_model(const uml::Model& model) {
  ProcessGroupInfo info;
  appmodel::ApplicationView view(model);
  for (const uml::Property* g : view.groups()) {
    info.groups.push_back(g->name());
  }
  for (const uml::Property* p : view.processes()) {
    const uml::Property* g = view.group_of(*p);
    if (g != nullptr) info.group_of[p->name()] = g->name();
  }
  return info;
}

ProcessGroupInfo ProcessGroupInfo::from_xml(const std::string& xml_text) {
  const auto model = uml::from_xml_string(xml_text);
  return from_model(*model);
}

std::uint64_t ProfilingReport::total_signals() const {
  std::uint64_t n = 0;
  for (const auto& row : signals) {
    for (std::uint64_t v : row) n += v;
  }
  return n;
}

long ProfilingReport::total_cycles() const {
  long n = 0;
  for (const auto& row : execution) n += row.cycles;
  return n;
}

std::uint64_t ProfilingReport::inter_group_signals() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < signals.size(); ++i) {
    for (std::size_t j = 0; j < signals[i].size(); ++j) {
      if (i != j) n += signals[i][j];
    }
  }
  return n;
}

std::size_t ProfilingReport::party_index(const std::string& party) const {
  for (std::size_t i = 0; i < parties.size(); ++i) {
    if (parties[i] == party) return i;
  }
  return static_cast<std::size_t>(-1);
}

std::string ProfilingReport::to_text() const {
  std::ostringstream os;
  os << "(a) Process group execution\n";
  std::size_t width = 17;  // "Sender/Receiver" + margin
  for (const auto& row : execution) width = std::max(width, row.group.size() + 2);
  os << std::left << std::setw(static_cast<int>(width)) << "Process group"
     << std::right << std::setw(20) << "Total execution time" << std::setw(12)
     << "Proportion" << '\n';
  for (const auto& row : execution) {
    std::ostringstream cycles;
    cycles << row.cycles << " cycles";
    os << std::left << std::setw(static_cast<int>(width)) << row.group
       << std::right << std::setw(20) << cycles.str() << std::setw(10)
       << std::fixed << std::setprecision(1) << row.proportion << " %\n";
  }
  os << "\n(b) Number of signals between groups\n";
  os << std::left << std::setw(static_cast<int>(width)) << "Sender/Receiver";
  for (const auto& p : parties) {
    os << std::right << std::setw(static_cast<int>(std::max<std::size_t>(
                             p.size() + 2, 8))) << p;
  }
  os << '\n';
  for (std::size_t i = 0; i < parties.size(); ++i) {
    os << std::left << std::setw(static_cast<int>(width)) << parties[i];
    for (std::size_t j = 0; j < parties.size(); ++j) {
      os << std::right << std::setw(static_cast<int>(std::max<std::size_t>(
                               parties[j].size() + 2, 8))) << signals[i][j];
    }
    os << '\n';
  }
  if (reliability.present) {
    std::size_t cwidth = 11;  // "Component" + margin
    for (const auto& c : reliability.components) {
      cwidth = std::max(cwidth, c.component.size() + 2);
    }
    os << "\n(c) Reliability\n";
    os << std::left << std::setw(static_cast<int>(cwidth)) << "Component"
       << std::right << std::setw(8) << "Faults" << std::setw(16)
       << "Downtime" << '\n';
    for (const auto& c : reliability.components) {
      std::ostringstream down;
      down << c.downtime << " ticks";
      os << std::left << std::setw(static_cast<int>(cwidth)) << c.component
         << std::right << std::setw(8) << c.faults << std::setw(16)
         << down.str() << '\n';
    }
    os << "Signals delivered: " << reliability.delivered
       << "  dropped: " << reliability.dropped
       << "  transfer retries: " << reliability.retries << '\n';
    os << "Watchdog resets: " << reliability.watchdog_resets
       << "  migrations: " << reliability.migrations
       << "  worst recovery latency: " << reliability.worst_recovery_latency
       << " ticks\n";
  }
  return os.str();
}

ProfilingReport analyze(const ProcessGroupInfo& info,
                        const sim::SimulationLog& log) {
  ProfilingReport report;
  report.parties = info.groups;
  report.parties.push_back(kEnvironmentParty);
  const std::size_t n = report.parties.size();
  report.signals.assign(n, std::vector<std::uint64_t>(n, 0));
  const std::size_t env_party = n - 1;

  // Resolve every interned log name to its party index once; the record loop
  // then runs entirely on dense ids. Two tables because Run records resolve
  // through party_of() alone while Send records special-case the literal
  // environment name first.
  const intern::Table& names = log.names();
  const std::size_t name_count = names.size();
  std::vector<std::size_t> run_party(name_count, kNoParty);
  std::vector<std::size_t> msg_party(name_count, kNoParty);
  for (intern::Id id = 0; id < name_count; ++id) {
    const std::string& process = names.name(id);
    // Run: info.party_of(process), mapped into parties (or discarded).
    const std::string& run_p = info.party_of(process);
    run_party[id] = report.party_index(run_p);
    // Send: kEnvironment short-circuits to the environment column.
    msg_party[id] = process == sim::kEnvironment
                        ? env_party
                        : report.party_index(info.party_of(process));
  }

  // Dense accumulators, translated into the string-keyed report at the end.
  std::vector<long> party_cycles(n, 0);
  std::vector<sim::Time> party_busy(n, 0);
  std::vector<long> cycles_by_id(name_count, 0);
  std::vector<std::uint64_t> drops_by_id(name_count, 0);
  std::vector<bool> ran(name_count, false);
  std::unordered_map<std::uint64_t, std::uint64_t> pair_signals;

  // Reliability accumulators (all stay zero for a fault-free log).
  constexpr sim::Time kNoTime = static_cast<sim::Time>(-1);
  ReliabilityReport& rel = report.reliability;
  std::vector<sim::Time> fault_open(name_count, kNoTime);
  std::vector<std::uint64_t> fault_count(name_count, 0);
  std::vector<sim::Time> fault_down(name_count, 0);
  std::vector<sim::Time> migrated_at(name_count, kNoTime);
  sim::Time last_time = 0;

  // always_inline: without it, GCC's growth limit for large callers keeps
  // this body out of line, a call per record.
  log.for_each([&](const sim::LogRecord& r) __attribute__((always_inline)) {
    last_time = r.time;
    switch (r.kind) {
      case sim::LogRecord::Kind::Run: {
        cycles_by_id[r.process] += r.cycles;
        ran[r.process] = true;
        const std::size_t party = run_party[r.process];
        if (party < n) {
          party_cycles[party] += r.cycles;
          party_busy[party] += r.duration;
        }
        if (migrated_at[r.process] != kNoTime) {
          rel.worst_recovery_latency = std::max(
              rel.worst_recovery_latency, r.time - migrated_at[r.process]);
          migrated_at[r.process] = kNoTime;
        }
        break;
      }
      case sim::LogRecord::Kind::Send: {
        const std::size_t i = msg_party[r.process];
        const std::size_t j = msg_party[r.peer];
        if (i < n && j < n) ++report.signals[i][j];
        ++pair_signals[pair_key(r.process, r.peer)];
        break;
      }
      case sim::LogRecord::Kind::Receive:
        // Sends already fill the matrix; receives would double-count there,
        // but they are the delivery count the reliability section reports.
        ++rel.delivered;
        break;
      case sim::LogRecord::Kind::Drop:
        ++drops_by_id[r.process];
        ++rel.dropped;
        break;
      case sim::LogRecord::Kind::Fault:
        rel.present = true;
        ++fault_count[r.process];
        if (fault_open[r.process] == kNoTime) fault_open[r.process] = r.time;
        break;
      case sim::LogRecord::Kind::Clear:
        rel.present = true;
        if (fault_open[r.process] != kNoTime) {
          fault_down[r.process] += r.time - fault_open[r.process];
          fault_open[r.process] = kNoTime;
        }
        break;
      case sim::LogRecord::Kind::Retry:
        rel.present = true;
        ++rel.retries;
        break;
      case sim::LogRecord::Kind::Watchdog:
        rel.present = true;
        ++rel.watchdog_resets;
        break;
      case sim::LogRecord::Kind::Migrate:
        rel.present = true;
        ++rel.migrations;
        // Keep the earliest open migration: latency measures how long the
        // process sat without execution after being moved.
        if (migrated_at[r.process] == kNoTime) migrated_at[r.process] = r.time;
        break;
    }
  });

  // Faults never cleared accrue downtime up to the last log record.
  for (intern::Id id = 0; id < name_count; ++id) {
    if (fault_open[id] != kNoTime && last_time > fault_open[id]) {
      fault_down[id] += last_time - fault_open[id];
    }
    if (fault_count[id] > 0) {
      rel.components.push_back(
          {names.name(id), fault_count[id], fault_down[id]});
    }
  }
  std::sort(rel.components.begin(), rel.components.end(),
            [](const ComponentReliability& a, const ComponentReliability& b) {
              return a.component < b.component;
            });

  for (intern::Id id = 0; id < name_count; ++id) {
    if (ran[id]) report.process_cycles[names.name(id)] += cycles_by_id[id];
    if (drops_by_id[id] > 0) report.drops[names.name(id)] += drops_by_id[id];
  }
  for (const auto& [key, count] : pair_signals) {
    report.process_signals[{names.name(static_cast<intern::Id>(key >> 32)),
                            names.name(static_cast<intern::Id>(key))}] +=
        count;
  }

  long total = 0;
  for (std::size_t p = 0; p < n; ++p) total += party_cycles[p];
  for (std::size_t p = 0; p < n; ++p) {
    GroupExecution row;
    row.group = report.parties[p];
    row.cycles = party_cycles[p];
    row.busy_time = party_busy[p];
    row.proportion = total > 0 ? 100.0 * static_cast<double>(row.cycles) /
                                     static_cast<double>(total)
                               : 0.0;
    report.execution.push_back(std::move(row));
  }
  return report;
}

std::vector<LatencyStats> latency_report(const sim::SimulationLog& log) {
  // Stream key: (from, to, signal) as interned ids. Sends queue up; receives
  // match FIFO.
  struct Stream {
    std::vector<sim::Time> pending;  // unmatched send times
    std::size_t cursor = 0;          // next unmatched index
    LatencyStats stats;
  };
  struct KeyHash {
    std::size_t operator()(const std::tuple<intern::Id, intern::Id,
                                            intern::Id>& k) const noexcept {
      const auto [a, b, c] = k;
      std::uint64_t h = (static_cast<std::uint64_t>(a) << 32) | b;
      h ^= 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(c) + (h << 6) +
           (h >> 2);
      return static_cast<std::size_t>(std::hash<std::uint64_t>{}(h));
    }
  };
  std::unordered_map<std::tuple<intern::Id, intern::Id, intern::Id>, Stream,
                     KeyHash>
      streams;

  // always_inline: see analyze().
  log.for_each([&](const sim::LogRecord& r) __attribute__((always_inline)) {
    if (r.kind == sim::LogRecord::Kind::Send) {
      streams[{r.process, r.peer, r.signal}].pending.push_back(r.time);
    } else if (r.kind == sim::LogRecord::Kind::Receive) {
      auto it = streams.find({r.peer, r.process, r.signal});
      if (it == streams.end()) return;
      Stream& stream = it->second;
      if (stream.cursor >= stream.pending.size()) return;  // recv w/o send
      const sim::Time sent = stream.pending[stream.cursor++];
      const sim::Time latency = r.time >= sent ? r.time - sent : 0;
      LatencyStats& s = stream.stats;
      if (s.samples == 0) {
        s.min = latency;
        s.max = latency;
      } else {
        s.min = std::min(s.min, latency);
        s.max = std::max(s.max, latency);
      }
      // Streaming mean.
      s.mean += (static_cast<double>(latency) - s.mean) /
                static_cast<double>(s.samples + 1);
      ++s.samples;
    }
  });
  std::vector<LatencyStats> out;
  out.reserve(streams.size());
  const intern::Table& names = log.names();
  for (auto& [key, stream] : streams) {
    if (stream.stats.samples == 0) continue;  // sends never matched
    LatencyStats s = std::move(stream.stats);
    s.from = names.name(std::get<0>(key));
    s.to = names.name(std::get<1>(key));
    s.signal = names.name(std::get<2>(key));
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const LatencyStats& a, const LatencyStats& b) {
              return std::tie(a.from, a.to, a.signal) <
                     std::tie(b.from, b.to, b.signal);
            });
  return out;
}

std::string latency_to_text(const std::vector<LatencyStats>& report) {
  std::ostringstream os;
  os << std::left << std::setw(14) << "from" << std::setw(14) << "to"
     << std::setw(16) << "signal" << std::right << std::setw(9) << "samples"
     << std::setw(12) << "min" << std::setw(12) << "mean" << std::setw(12)
     << "max" << '\n';
  for (const LatencyStats& s : report) {
    os << std::left << std::setw(14) << s.from << std::setw(14) << s.to
       << std::setw(16) << s.signal << std::right << std::setw(9) << s.samples
       << std::setw(12) << s.min << std::setw(12) << std::fixed
       << std::setprecision(1) << s.mean << std::setw(12) << s.max << '\n';
  }
  return os.str();
}

}  // namespace tut::profiler
