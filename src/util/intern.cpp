#include "util/intern.h"

#include <mutex>

namespace ioc::util {

namespace {

struct Table {
  std::mutex mu;
  InternTable<NameId> names;
};

Table& table() {
  static Table t;
  return t;
}

}  // namespace

NameId intern(std::string_view s) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  if (const auto id = t.names.find(s)) return *id;
  return t.names.add(s);
}

std::string_view name_of(NameId id) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names.name(id);
}

}  // namespace ioc::util
