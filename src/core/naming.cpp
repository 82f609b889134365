#include "core/naming.hpp"

#include <algorithm>

namespace rbay::core {

void Taxonomy::add_major(const std::string& attribute) {
  if (!is_major(attribute)) majors_.push_back(attribute);
}

bool Taxonomy::is_major(const std::string& attribute) const {
  return std::find(majors_.begin(), majors_.end(), attribute) != majors_.end();
}

bool Taxonomy::link(const std::string& attribute, const std::string& parent) {
  if (attribute == parent) return false;
  // Refuse links that would create a cycle.
  std::string at = parent;
  int steps = 0;
  while (true) {
    if (at == attribute) return false;
    auto it = parents_.find(at);
    if (it == parents_.end()) break;
    at = it->second;
    if (++steps > 64) return false;
  }
  parents_[attribute] = parent;
  return true;
}

void Directory::intern_trees() {
  topics_.clear();
  topics_.reserve(site_names.size() * tree_specs.size());
  for (const auto& site_name : site_names) {
    for (const auto& spec : tree_specs) topics_.push_back(site_topic(spec.canonical, site_name));
  }
  spec_by_canonical_.clear();
  for (std::size_t i = 0; i < tree_specs.size(); ++i) {
    spec_by_canonical_.emplace(tree_specs[i].canonical, i);  // first registration wins
  }
}

std::optional<std::string> Taxonomy::major_of(const std::string& attribute) const {
  std::string at = attribute;
  int steps = 0;
  while (!is_major(at)) {
    auto it = parents_.find(at);
    if (it == parents_.end()) return std::nullopt;
    at = it->second;
    if (++steps > 64) return std::nullopt;
  }
  return at;
}

}  // namespace rbay::core
