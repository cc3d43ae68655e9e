#include "sio/group.h"

namespace ioc::sio {

std::size_t type_size(DataType t) {
  switch (t) {
    case DataType::kByte: return 1;
    case DataType::kInt32: return 4;
    case DataType::kInt64: return 8;
    case DataType::kFloat: return 4;
    case DataType::kDouble: return 8;
  }
  return 0;
}

void Group::define_var(VarDef def) {
  for (auto& v : vars_) {
    if (v.name == def.name) {
      v = std::move(def);
      return;
    }
  }
  vars_.push_back(std::move(def));
}

const VarDef* Group::find_var(const std::string& name) const {
  for (const auto& v : vars_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

void Group::define_attribute(const std::string& key,
                             const std::string& value) {
  attributes_[key] = value;
}

std::optional<std::string> Group::attribute(const std::string& key) const {
  auto it = attributes_.find(key);
  if (it == attributes_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ioc::sio
