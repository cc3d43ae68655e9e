// ADIOS-like I/O metadata: groups declare typed variables and attributes;
// components use the group's read/write interfaces as their well-defined
// inputs and outputs — the property I/O containers rely on to swap and
// manage components without integrating them into one executable.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ioc::sio {

enum class DataType { kByte, kInt32, kInt64, kFloat, kDouble };

std::size_t type_size(DataType t);

struct VarDef {
  std::string name;
  DataType type = DataType::kDouble;
  /// Global dimensions; empty means scalar. A dimension of 0 is resolved at
  /// write time (e.g. a per-step atom count).
  std::vector<std::uint64_t> shape;
};

class Group {
 public:
  explicit Group(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Declare a variable; redefinition with the same name replaces it.
  void define_var(VarDef def);
  const VarDef* find_var(const std::string& name) const;
  const std::vector<VarDef>& vars() const { return vars_; }

  /// Group-level (static) attributes, e.g. units or schema version.
  void define_attribute(const std::string& key, const std::string& value);
  std::optional<std::string> attribute(const std::string& key) const;
  const std::map<std::string, std::string>& attributes() const {
    return attributes_;
  }

 private:
  std::string name_;
  std::vector<VarDef> vars_;
  std::map<std::string, std::string> attributes_;
};

}  // namespace ioc::sio
