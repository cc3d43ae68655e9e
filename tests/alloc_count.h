// A counting hook on the global allocation functions, for the tests and
// benches that assert or report how often a path allocates. Linking the
// ioc_alloc_count object library (alloc_count.cpp) into a binary replaces
// the replaceable operator new/delete in all four forms — plain, array,
// aligned and aligned array — so no allocation escapes the count
// (util::RingDeque, which backs every des::Queue and so every endpoint
// mailbox, grows through the aligned form). The replacements live in their
// own translation unit: defined where a new-expression can see them, GCC
// inlines the free() into the caller and warns of a mismatched delete.
#pragma once

#include <cstdint>

namespace ioc {

/// Global operator new calls so far in this process, in every form.
std::uint64_t alloc_count();

}  // namespace ioc
