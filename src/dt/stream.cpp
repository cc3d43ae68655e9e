#include "dt/stream.h"

#include "util/hash.h"

namespace ioc::dt {

namespace {
/// Size of the metadata notification a reader receives before each pull.
constexpr std::uint64_t kMetadataBytes = 256;
}  // namespace

std::uint64_t step_checksum(const StepData& s, std::size_t payload_len) {
  std::uint64_t h = util::fnv1a_value(s.step);
  h = util::fnv1a_value(s.bytes, h);
  h = util::fnv1a_value(s.items, h);
  h = util::fnv1a_value(s.origin, h);
  if (s.payload != nullptr && payload_len > 0) {
    h = util::fnv1a(s.payload.get(), payload_len, h);
  }
  return h;
}

Stream::Stream(net::Network& net, net::NodeId writer_node, StreamConfig cfg)
    : net_(&net),
      writer_node_(writer_node),
      cfg_(cfg),
      readable_(net.cluster().sim()),
      writable_(net.cluster().sim()),
      drained_(net.cluster().sim()),
      pull_slot_(net.cluster().sim(), 1) {}

des::Task<bool> Stream::admit(StepData s,
                              std::shared_ptr<des::Event>* delivered) {
  auto& sim = net_->cluster().sim();
  const des::SimTime wait_start = sim.now();
  bool blocked = false;
  while (!closed_ && buffered_bytes_ + s.bytes > cfg_.buffer_capacity) {
    if (!blocked) {
      blocked = true;
      ++write_blocked_;
    }
    co_await writable_.wait();
  }
  if (blocked) {
    --write_blocked_;
    total_block_seconds_ += des::to_seconds(sim.now() - wait_start);
  }
  if (closed_) co_return false;

  Entry e;
  e.data = std::move(s);
  e.data.ingress = sim.now();
  e.admitted = sim.now();
  if (delivered != nullptr) {
    e.delivered = std::make_shared<des::Event>(sim);
    *delivered = e.delivered;
  }
  buffered_bytes_ += e.data.bytes;
  queue_.push_back(std::move(e));
  backlog_hwm_ = std::max(backlog_hwm_, queue_.size());
  ++steps_written_;
  readable_.notify_all();
  co_return true;
}

des::Task<bool> Stream::write(StepData s) {
  co_return co_await admit(std::move(s), nullptr);
}

des::Task<bool> Stream::write_sync(StepData s) {
  std::shared_ptr<des::Event> delivered;
  bool ok = co_await admit(std::move(s), &delivered);
  if (!ok) co_return false;
  co_await delivered->wait();
  co_return true;
}

void Stream::close() {
  if (closed_) return;
  closed_ = true;
  readable_.notify_all();
  writable_.notify_all();
}

void Stream::finish_pull(const Entry& e) {
  auto& sim = net_->cluster().sim();
  buffered_bytes_ -= e.data.bytes;
  ++steps_delivered_;
  delivery_lat_.add(des::to_seconds(sim.now() - e.admitted));
  if (e.delivered != nullptr) e.delivered->set();
  writable_.notify_all();
  --in_flight_;
  if (in_flight_ == 0 && pause_pending_) {
    pause_pending_ = false;
    paused_ = true;
    drained_.set();
  }
}

des::Task<std::optional<StepData>> Stream::read(net::NodeId reader_node,
                                                des::Event* cancel) {
  // Claim the next step, respecting pauses and cancellation.
  while (true) {
    if (cancel != nullptr && cancel->is_set()) co_return std::nullopt;
    if (!paused_ && !pause_pending_ && !queue_.empty()) break;
    if (closed_ && queue_.empty()) co_return std::nullopt;
    co_await readable_.wait();
  }
  Entry e = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;

  // Metadata notification, then the (optionally scheduled) bulk pull.
  co_await net_->transfer(writer_node_, reader_node, kMetadataBytes);
  if (cfg_.scheduled_pulls) co_await pull_slot_.acquire();
  co_await net_->transfer(writer_node_, reader_node, e.data.bytes);
  if (cfg_.scheduled_pulls) pull_slot_.release();

  finish_pull(e);
  co_return std::move(e.data);
}

des::Task<void> Stream::pause() {
  if (paused_) co_return;
  if (in_flight_ == 0) {
    paused_ = true;
    co_return;
  }
  pause_pending_ = true;
  drained_.reset();
  co_await drained_.wait();
}

void Stream::resume() {
  if (!paused_ && !pause_pending_) return;
  paused_ = false;
  pause_pending_ = false;
  readable_.notify_all();
}

}  // namespace ioc::dt
