#include "intern/intern.hpp"

#include <stdexcept>

namespace tut::intern {

Id Table::intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const Id id = static_cast<Id>(names_.size());
  views_.push_back(names_.emplace_back(name));
  index_.emplace(views_.back(), id);
  return id;
}

Id Table::find(std::string_view name) const noexcept {
  auto it = index_.find(name);
  return it != index_.end() ? it->second : kNoId;
}

const std::string& Table::name(Id id) const {
  if (id >= names_.size()) {
    throw std::out_of_range("intern::Table: invalid id " + std::to_string(id));
  }
  return names_[id];
}

}  // namespace tut::intern
