// DataTap/DataStager-style staged transport. One Stream carries the output
// of one pipeline stage to the replicas of the next:
//
//   writer side              reader side (container replicas)
//   write(step) ──buffer──▶  metadata queue ──claim──▶ RDMA-style pull
//
// Key behaviours reproduced from the paper:
//  * asynchronous writes: write() buffers and returns; the application (or
//    upstream analytics) moves on to its next timestep while readers pull;
//  * reader-initiated pulls, optionally *scheduled* (serialized per stream)
//    the way DataStager schedules pulls to avoid interconnect contention;
//  * pause/drain/resume: a pause stops new deliveries and completes in-flight
//    pulls — the dominant cost of the container 'decrease' protocol (Fig. 5);
//  * bounded writer buffer: when it fills, write() blocks, which is exactly
//    the "application blocking" the container policies exist to prevent.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "des/event.h"
#include "des/process.h"
#include "des/semaphore.h"
#include "net/network.h"
#include "util/stats.h"

namespace ioc::dt {

/// One timestep's worth of output moving through the pipeline.
struct StepData {
  std::uint64_t step = 0;
  std::uint64_t bytes = 0;
  std::uint64_t items = 0;    ///< element count (atoms for the MD pipeline);
                              ///< analytics cost models scale with this
  des::SimTime created = 0;   ///< when this hop's writer emitted it
  des::SimTime origin = 0;    ///< when the simulation originally emitted the
                              ///< timestep (carried through every hop; the
                              ///< end-to-end latency baseline of Fig. 10)
  des::SimTime ingress = 0;   ///< set by the stream when the step entered
                              ///< this hop's writer buffer; container latency
                              ///< is measured from here to component exit
  std::uint64_t checksum = 0; ///< soft-error hash; 0 = not hashed
  std::shared_ptr<const void> payload;  ///< real data when examples carry it
};

/// Hash of a step's identifying fields (+ payload bytes when `payload_len`
/// is non-zero), used by the soft-error-detection control feature.
std::uint64_t step_checksum(const StepData& s, std::size_t payload_len = 0);

struct StreamConfig {
  std::uint64_t buffer_capacity = 2ull * 1024 * 1024 * 1024;  ///< writer side
  bool scheduled_pulls = true;   ///< DataStager pull scheduling on/off
};

class Stream {
 public:
  Stream(net::Network& net, net::NodeId writer_node, StreamConfig cfg = {});

  net::NodeId writer_node() const { return writer_node_; }

  // --- writer side ------------------------------------------------------
  /// Asynchronous write: blocks only while the writer buffer is full.
  /// Returns false if the stream closed before the step was admitted.
  des::Task<bool> write(StepData s);
  /// Synchronous write: additionally waits until the step has been pulled
  /// by a reader. Used by the async-vs-sync ablation.
  des::Task<bool> write_sync(StepData s);
  /// No more writes; readers drain what is buffered, then see end-of-stream.
  void close();
  bool closed() const { return closed_; }

  // --- reader side ------------------------------------------------------
  /// Claim the next undelivered step and pull it to `reader_node`. Returns
  /// nullopt at end-of-stream, or — when `cancel` is given — once the cancel
  /// event is set and no step has been claimed yet (the caller must kick()
  /// the stream after setting the event to wake blocked readers). Multiple
  /// replicas may call concurrently; steps are claimed in order, giving
  /// round-robin-by-availability.
  des::Task<std::optional<StepData>> read(net::NodeId reader_node,
                                          des::Event* cancel = nullptr);

  /// Wake readers blocked in read() so they can observe a cancel event.
  void kick() { readable_.notify_all(); }

  // --- control ----------------------------------------------------------
  /// Stop new deliveries and wait for in-flight pulls to drain.
  /// Writes continue to buffer during a pause (asynchronous upstream).
  des::Task<void> pause();
  void resume();
  bool paused() const { return paused_; }

  // --- observability ----------------------------------------------------
  std::uint64_t buffered_bytes() const { return buffered_bytes_; }
  std::size_t backlog() const { return queue_.size(); }      ///< undelivered steps
  std::size_t backlog_high_watermark() const { return backlog_hwm_; }
  std::uint64_t steps_written() const { return steps_written_; }
  std::uint64_t steps_delivered() const { return steps_delivered_; }
  bool write_blocked() const { return write_blocked_ > 0; }
  /// Total virtual time writes spent blocked on a full buffer (seconds).
  double total_block_seconds() const { return total_block_seconds_; }
  /// Per-delivery time from write admission to pull completion (seconds).
  const util::OnlineStats& delivery_latency() const { return delivery_lat_; }

 private:
  struct Entry {
    StepData data;
    des::SimTime admitted = 0;
    /// Set once pulled; only write_sync, which waits on it, makes one.
    std::shared_ptr<des::Event> delivered;
  };

  des::Task<bool> admit(StepData s, std::shared_ptr<des::Event>* delivered);
  void finish_pull(const Entry& e);

  net::Network* net_;
  net::NodeId writer_node_;
  StreamConfig cfg_;

  std::deque<Entry> queue_;
  std::uint64_t buffered_bytes_ = 0;
  bool closed_ = false;
  bool paused_ = false;
  bool pause_pending_ = false;
  int in_flight_ = 0;
  int write_blocked_ = 0;

  des::Condition readable_;   // new item / resume / close
  des::Condition writable_;   // space freed / close
  des::Event drained_;        // pause completion

  std::size_t backlog_hwm_ = 0;
  std::uint64_t steps_written_ = 0;
  std::uint64_t steps_delivered_ = 0;
  double total_block_seconds_ = 0;
  util::OnlineStats delivery_lat_;
  des::Semaphore pull_slot_;  // serializes pulls when scheduled_pulls
};

}  // namespace ioc::dt
