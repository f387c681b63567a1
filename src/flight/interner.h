// NameInterner: string → stable u32 id, collision-safe.
//
// Records carry no strings; the variable-length names (task-name stems,
// session-state labels, attribution components) are interned once and
// referenced by id. Interning happens where the string already exists —
// task creation, session lifecycle edges — never inside a
// per-task-completion hot path.
//
// Lookups take a shared lock (the common case: every stem after the first
// occurrence); only a first-seen string takes the exclusive lock. Ids are
// assigned densely starting at 1 (0 = "no name"), and equal strings always
// map to the same id — the table is keyed on the full string, so two
// distinct names can never share an id regardless of hash collisions.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace flight {

class NameInterner {
 public:
  /// Id for `s`, assigning a fresh one on first sight. Thread-safe.
  std::uint32_t intern(std::string_view s);

  /// The string behind `id` ("" for 0 or out-of-range). Thread-safe.
  [[nodiscard]] std::string name(std::uint32_t id) const;

  /// Snapshot of the full table, indexed by id (index 0 is ""). Thread-safe.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const;

 private:
  /// Transparent hashing: lets the shared-lock fast path probe the map with
  /// a string_view, no temporary std::string allocation.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> ids_;
  std::vector<std::string> by_id_{""};  ///< id 0 reserved for "no name"
};

}  // namespace flight
