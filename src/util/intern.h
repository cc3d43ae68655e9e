// Append-only string interning: maps each distinct string to a dense id and
// hands back a stable std::string_view for the lifetime of the table.
// Interning happens once per distinct string; every later lookup is a hash
// probe with no allocation, which is what lets SpanRecord hold four ids
// instead of four owning std::strings, and Message a MessageId (DESIGN.md
// §16).
//
// Id 0 is reserved for the empty string, so a zero-initialized record reads
// back as "". Ids are assigned in first-intern order and never reused or
// rewritten — a view returned by name_of() stays valid forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ioc::util {

/// The table behind util::intern and ev::intern_type, which differ only in
/// id width and in what they wrap around it (a mutex; a preregistered
/// vocabulary). Not synchronized.
template <typename Id>
class InternTable {
 public:
  InternTable() { add(""); }
  // The views point into this table's own storage.
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  /// Append `s` (which must be new) under the next id.
  Id add(std::string_view s) {
    const Id id = static_cast<Id>(views_.size());
    // Deque gives pointer-stable storage: a view into an element survives
    // every later push_back, which is the stability guarantee name() makes.
    strings_.emplace_back(s);
    views_.push_back(strings_.back());
    ids_.emplace(views_.back(), id);
    return id;
  }

  std::optional<Id> find(std::string_view s) const {
    const auto it = ids_.find(s);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  /// The string behind `id`; "" for ids never handed out.
  std::string_view name(Id id) const {
    return id < views_.size() ? views_[id] : std::string_view();
  }

  /// Number of distinct strings ("" counts).
  std::size_t size() const { return views_.size(); }

 private:
  std::deque<std::string> strings_;
  std::vector<std::string_view> views_;  // id -> view, parallel to strings_
  std::unordered_map<std::string_view, Id> ids_;
};

/// Dense id of an interned string. 0 <=> "".
using NameId = std::uint32_t;

inline constexpr NameId kEmptyName = 0;

/// Intern `s`, returning its id (allocates only the first time a given
/// string is seen). Thread-safe: kernel spans may be emitted from pool
/// threads while the DES thread interns message names.
NameId intern(std::string_view s);

/// The string behind `id`. Views are stable for the process lifetime.
/// Unknown ids resolve to "" rather than faulting, matching the
/// zero-initialized-record convention.
std::string_view name_of(NameId id);

}  // namespace ioc::util
