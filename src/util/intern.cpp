#include "util/intern.h"

#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ioc::util {

namespace {

// Transparent hashing so lookups take string_view without building a
// temporary std::string.
struct SvHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

struct Table {
  std::mutex mu;
  // Deque gives pointer-stable storage: a view into an element survives
  // every later push_back, which is the stability guarantee name_of() makes.
  std::deque<std::string> strings;
  std::vector<std::string_view> views;  // id -> view, parallel to strings
  std::unordered_map<std::string_view, NameId, SvHash, SvEq> ids;

  Table() {
    strings.emplace_back();  // id 0 <=> ""
    views.push_back(strings.back());
    ids.emplace(views.back(), kEmptyName);
  }
};

Table& table() {
  static Table t;
  return t;
}

}  // namespace

NameId intern(std::string_view s) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(s);
  if (it != t.ids.end()) return it->second;
  const NameId id = static_cast<NameId>(t.views.size());
  t.strings.emplace_back(s);
  t.views.push_back(t.strings.back());
  t.ids.emplace(t.views.back(), id);
  return id;
}

std::string_view name_of(NameId id) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id >= t.views.size()) return {};
  return t.views[id];
}

}  // namespace ioc::util
