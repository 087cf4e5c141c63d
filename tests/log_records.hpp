// Test helpers for simulation logs: name shorthand for the id appends, and a
// log's records with their names spelled out, for assertions that compare
// names. The records are read through SimulationLog::for_each, so a spilled
// log's records are all there.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/log.hpp"

namespace tut::test {

/// Interns names into a log for its id appends:
///   const test::Ids id{log};
///   log.send_id(t, id("a"), id("b"), id("Sig"), 8);
struct Ids {
  sim::SimulationLog& log;
  intern::Id operator()(std::string_view name) const {
    return log.intern_name(name);
  }
};

/// A sim::LogRecord with its name ids resolved; a name the record's kind does
/// not use is "".
struct NamedRecord {
  sim::Time time = 0;
  sim::LogRecord::Kind kind = sim::LogRecord::Kind::Run;
  std::string process;
  std::string peer;
  std::string signal;
  long cycles = 0;
  sim::Time duration = 0;
  std::size_t bytes = 0;

  bool operator==(const NamedRecord&) const = default;
};

inline std::vector<NamedRecord> named_records(const sim::SimulationLog& log) {
  const intern::Table& names = log.names();
  const auto name = [&names](intern::Id id) {
    return id == intern::kNoId ? std::string() : names.name(id);
  };
  std::vector<NamedRecord> out;
  log.for_each([&](const sim::LogRecord& r) {
    out.push_back({r.time, r.kind, name(r.process), name(r.peer),
                   name(r.signal), r.cycles, r.duration, r.bytes});
  });
  return out;
}

}  // namespace tut::test
