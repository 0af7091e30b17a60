// A named collection of integer-valued attributes — the CV component of an
// object's state in the paper's formal model (§3.1). A snapshot of all
// current values is an instance CV_i; the set of such instances is Φ, and a
// full object configuration is a pair from Γ × Φ (method implementation
// selector × attribute snapshot).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/attribute.hpp"

namespace adx::core {

/// Snapshot of CV — one instance CV_i in the paper's notation.
struct attribute_snapshot {
  std::vector<std::pair<std::string, std::int64_t>> values;
  friend bool operator==(const attribute_snapshot&, const attribute_snapshot&) = default;
};

/// A full object configuration: ⟨Γ_i, Φ_i⟩.
struct configuration {
  std::string method_impl;  ///< which Γ member implements the methods
  attribute_snapshot attrs;
  friend bool operator==(const configuration&, const configuration&) = default;
};

class attribute_set {
 public:
  /// Declares a new attribute; names must be unique.
  attribute<std::int64_t>& declare(std::string_view name, std::int64_t initial) {
    if (find(name) != nullptr) {
      throw std::invalid_argument("attribute_set: duplicate attribute " + std::string(name));
    }
    attrs_.emplace_back(std::string(name), initial);
    return attrs_.back();
  }

  [[nodiscard]] attribute<std::int64_t>* find(std::string_view name) {
    for (auto& a : attrs_) {
      if (a.name() == name) return &a;
    }
    return nullptr;
  }
  [[nodiscard]] const attribute<std::int64_t>* find(std::string_view name) const {
    for (const auto& a : attrs_) {
      if (a.name() == name) return &a;
    }
    return nullptr;
  }

  attribute<std::int64_t>& at(std::string_view name) {
    auto* a = find(name);
    if (!a) throw std::out_of_range("attribute_set: no attribute " + std::string(name));
    return *a;
  }
  [[nodiscard]] const attribute<std::int64_t>& at(std::string_view name) const {
    const auto* a = find(name);
    if (!a) throw std::out_of_range("attribute_set: no attribute " + std::string(name));
    return *a;
  }

  [[nodiscard]] std::int64_t value(std::string_view name) const { return at(name).get(); }

  /// Declaration-order position of `name`; attributes are never removed, so
  /// hot paths look a name up once and then read by_index().
  [[nodiscard]] std::size_t index_of(std::string_view name) const {
    return static_cast<std::size_t>(&at(name) - attrs_.data());
  }
  attribute<std::int64_t>& by_index(std::size_t i) { return attrs_[i]; }
  [[nodiscard]] const attribute<std::int64_t>& by_index(std::size_t i) const {
    return attrs_[i];
  }

  [[nodiscard]] std::size_t size() const { return attrs_.size(); }
  [[nodiscard]] auto begin() const { return attrs_.begin(); }
  [[nodiscard]] auto end() const { return attrs_.end(); }

  [[nodiscard]] attribute_snapshot snapshot() const {
    attribute_snapshot s;
    s.values.reserve(attrs_.size());
    for (const auto& a : attrs_) s.values.emplace_back(a.name(), a.get());
    return s;
  }

  /// The paper's I operation: every attribute back to its initial value.
  void reset_all() {
    for (auto& a : attrs_) a.reset();
  }

 private:
  // Deque-like stability is unnecessary: attributes are declared once at
  // construction; reserve generously and never reallocate afterwards.
  std::vector<attribute<std::int64_t>> attrs_;
};

}  // namespace adx::core
