// ADIOS-style open/write/close interface for producing output steps, with a
// runtime-switchable method. Components write through this and never know
// whether their output goes to the staging transport or to disk.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "des/process.h"
#include "sio/group.h"
#include "sio/method.h"
#include "sio/step.h"

namespace ioc::sio {

class Writer {
 public:
  Writer(des::Simulator& sim, const Group& group,
         std::shared_ptr<Method> method)
      : sim_(&sim), group_(&group), method_(std::move(method)) {}

  const Group& group() const { return *group_; }
  Method& method() const { return *method_; }

  /// Switch the output method; takes effect at the next open(). This is the
  /// hook the container runtime uses when taking downstream stages offline.
  void set_method(std::shared_ptr<Method> m) { pending_method_ = std::move(m); }

  /// Begin an output step. Only one step may be open at a time.
  void open(std::uint64_t step);

  /// Record a variable write. The variable must exist in the group. `count`
  /// is the element count; bytes are derived from the declared type.
  void write(const std::string& var, std::uint64_t count,
             std::shared_ptr<const void> data = nullptr);
  /// Record a raw byte payload for a declared variable (already-sized data).
  void write_bytes(const std::string& var, std::uint64_t bytes,
                   std::shared_ptr<const void> data = nullptr);
  /// Attach a per-step attribute (e.g. provenance labels).
  void attribute(const std::string& key, const std::string& value);

  /// Finish the step and emit it through the current method.
  des::Task<bool> close();

  std::uint64_t steps_emitted() const { return steps_emitted_; }

 private:
  des::Simulator* sim_;
  const Group* group_;
  std::shared_ptr<Method> method_;
  std::shared_ptr<Method> pending_method_;
  StepRecord current_;
  bool open_ = false;
  std::uint64_t steps_emitted_ = 0;
};

/// Staging-side reader: presents the pulled StepRecords of a stream.
class Reader {
 public:
  explicit Reader(dt::Stream& stream) : stream_(&stream) {}

  /// Pull the next step to `node`; nullopt at end-of-stream. Steps written
  /// by a StagingMethod carry their full StepRecord; raw dt writes are
  /// wrapped in a synthetic record.
  des::Task<std::optional<StepRecord>> next(net::NodeId node);

  dt::Stream& stream() const { return *stream_; }

 private:
  dt::Stream* stream_;
};

}  // namespace ioc::sio
