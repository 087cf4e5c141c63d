// tut::intern — string interning for the simulate→profile→explore hot paths.
//
// Process, signal and component names recur millions of times across a
// simulation log and its downstream analyses. Interning maps each distinct
// name to a dense uint32 id once; the hot paths then key flat vectors and
// integer-keyed hash maps instead of std::map<std::string, ...>. The
// string-based public APIs stay; they translate at the boundary.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tut::intern {

/// Dense interned-name id. Ids are assigned 0, 1, 2, ... in first-seen
/// order, so a Table with n names supports vector<...>(n) side tables.
using Id = std::uint32_t;

/// Sentinel for "no name" (e.g. the peer field of a Run log record).
inline constexpr Id kNoId = 0xffffffffu;

/// Name <-> id table. Not thread-safe while mutating; safe to share across
/// threads once fully built (all members are const-qualified reads).
class Table {
 public:
  Table() = default;
  // The views and the index point into names_: a copy would point into the
  // source table. Moving keeps the deque's elements where they are.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  /// Id of `name`, interning it on first sight.
  Id intern(std::string_view name);

  /// Id of `name`, or kNoId when it was never interned.
  Id find(std::string_view name) const noexcept;

  /// The name behind an id. Throws std::out_of_range for invalid ids.
  const std::string& name(Id id) const;

  /// Number of distinct names interned (== one past the largest id).
  std::size_t size() const noexcept { return names_.size(); }

  /// Every name as a view, indexed by id, for callers that look up many
  /// ids without a checked name() call per id. The views stay valid as long
  /// as the table (interning never moves a name).
  const std::vector<std::string_view>& views() const noexcept {
    return views_;
  }

 private:
  struct Hash {
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // The deque owns the strings; deque push_back never relocates existing
  // elements, so the views and the map's string_view keys stay valid.
  std::deque<std::string> names_;
  std::vector<std::string_view> views_;  // views_[id] == names_[id]
  std::unordered_map<std::string_view, Id, Hash> index_;
};

}  // namespace tut::intern
