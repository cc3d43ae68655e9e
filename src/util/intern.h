// Append-only string interner shared by the tracing layer: maps each
// distinct string to a dense 32-bit id and hands back a stable
// std::string_view for the lifetime of the process. Interning happens once
// per distinct string; every later lookup is a hash probe with no
// allocation, which is what lets SpanRecord hold four ids instead of four
// owning std::strings (DESIGN.md §16).
//
// Id 0 is reserved for the empty string, so a zero-initialized record reads
// back as "". Ids are assigned in first-intern order and never reused or
// rewritten — a view returned by name_of() stays valid forever.
#pragma once

#include <cstdint>
#include <string_view>

namespace ioc::util {

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
