// The live service plane (src/svc): frame codec round-trips, SocketBus
// delivery over real loopback sockets, the DES-vs-socket control-round
// equivalence the BusIf split exists for, and the HTTP control API's edge
// cases (truncation, pipelining, oversized heads, malformed bodies).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/protocol.h"
#include "core/protocol_fsm.h"
#include "core/runtime.h"
#include "core/spec.h"
#include "des/process.h"
#include "des/simulator.h"
#include "mon/metric.h"
#include "svc/frame.h"
#include "svc/host.h"
#include "svc/socket_bus.h"
#include "trace/json.h"
#include "util/intern.h"

namespace ioc::svc {
namespace {

// --- frame codec ----------------------------------------------------------

WireFrame roundtrip(const WireFrame& in) {
  std::string bytes;
  encode_frame(in, &bytes);
  WireFrame out;
  std::string err;
  const int n = try_decode(bytes, &out, &err);
  EXPECT_EQ(n, static_cast<int>(bytes.size())) << err;
  return out;
}

WireFrame make_frame(const char* type) {
  WireFrame f;
  f.seq = 42;
  f.traffic_class = 1;
  f.msg.set_type(type);
  f.msg.from = 7;
  f.msg.to = 9;
  f.msg.token = 123456789;
  f.msg.size_bytes = 512;
  return f;
}

TEST(Frame, RoundTripsPlainMessage) {
  const WireFrame out = roundtrip(make_frame("HELLO"));
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.traffic_class, 1);
  EXPECT_EQ(out.msg.type(), "HELLO");
  EXPECT_EQ(out.msg.from, 7u);
  EXPECT_EQ(out.msg.to, 9u);
  EXPECT_EQ(out.msg.token, 123456789u);
  EXPECT_EQ(out.msg.size_bytes, 512u);
  EXPECT_FALSE(out.msg.payload.has_value());
}

TEST(Frame, RoundTripsIncreasePayload) {
  WireFrame f = make_frame(core::kMsgIncrease);
  f.msg.payload = core::IncreasePayload{{3, 5, 8}};
  const WireFrame out = roundtrip(f);
  const auto* p = out.msg.as<core::IncreasePayload>();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->nodes, (std::vector<net::NodeId>{3, 5, 8}));
}

TEST(Frame, RoundTripsDecreasePayload) {
  WireFrame f = make_frame(core::kMsgDecrease);
  f.msg.payload = core::DecreasePayload{4};
  const WireFrame out = roundtrip(f);
  const auto* p = out.msg.as<core::DecreasePayload>();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->count, 4u);
}

TEST(Frame, RoundTripsDonePayload) {
  core::ProtocolReport rep;
  rep.action = "increase";
  rep.container = "csym";
  rep.delta = 2;
  rep.total = 777;
  rep.aprun = 555;
  rep.metadata_messages = 12;
  rep.ok = false;
  WireFrame f = make_frame(core::kMsgDone);
  f.msg.payload = core::DonePayload{rep, {11, 12}};
  const WireFrame out = roundtrip(f);
  const auto* p = out.msg.as<core::DonePayload>();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->report.action, "increase");
  EXPECT_EQ(p->report.container, "csym");
  EXPECT_EQ(p->report.delta, 2);
  EXPECT_EQ(p->report.total, 777);
  EXPECT_EQ(p->report.aprun, 555);
  EXPECT_EQ(p->report.metadata_messages, 12u);
  EXPECT_FALSE(p->report.ok);
  EXPECT_EQ(p->freed_nodes, (std::vector<net::NodeId>{11, 12}));
}

TEST(Frame, RoundTripsNeedsPayload) {
  WireFrame f = make_frame(core::kMsgNeeds);
  f.msg.payload = core::NeedsPayload{3, 0.25};
  const WireFrame out = roundtrip(f);
  const auto* p = out.msg.as<core::NeedsPayload>();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->extra_nodes, 3u);
  EXPECT_DOUBLE_EQ(p->predicted_latency, 0.25);
}

TEST(Frame, RoundTripsEnableHashesPayload) {
  WireFrame f = make_frame(core::kMsgEnableHashes);
  f.msg.payload = core::EnableHashesPayload{false};
  const WireFrame out = roundtrip(f);
  const auto* p = out.msg.as<core::EnableHashesPayload>();
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->enabled);
}

TEST(Frame, RoundTripsSwitchToDiskPayload) {
  WireFrame f = make_frame(core::kMsgSwitchToDisk);
  f.msg.payload = core::SwitchToDiskPayload{"bonds,csym", "cna"};
  const WireFrame out = roundtrip(f);
  const auto* p = out.msg.as<core::SwitchToDiskPayload>();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->provenance, "bonds,csym");
  EXPECT_EQ(p->pending, "cna");
}

TEST(Frame, RoundTripsMetricSample) {
  mon::MetricSample s;
  s.source = "helper";
  s.kind = mon::MetricKind::kQueueDepth;
  s.step = 17;
  s.value = 3.5;
  s.at = 999;
  WireFrame f = make_frame("METRIC_SAMPLE");
  f.msg.payload = s;
  const WireFrame out = roundtrip(f);
  const auto* p = out.msg.as<mon::MetricSample>();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->source, "helper");
  EXPECT_EQ(p->kind, mon::MetricKind::kQueueDepth);
  EXPECT_EQ(p->step, 17u);
  EXPECT_DOUBLE_EQ(p->value, 3.5);
  EXPECT_EQ(p->at, 999);
}

TEST(Frame, EveryTruncationPrefixAsksForMoreBytes) {
  WireFrame f = make_frame(core::kMsgIncrease);
  f.msg.payload = core::IncreasePayload{{1, 2, 3, 4}};
  std::string bytes;
  encode_frame(f, &bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireFrame out;
    EXPECT_EQ(try_decode(std::string_view(bytes).substr(0, cut), &out), 0)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Frame, DecodesBackToBackFrames) {
  std::string bytes;
  encode_frame(make_frame("A"), &bytes);
  const std::size_t first = bytes.size();
  encode_frame(make_frame("B"), &bytes);
  WireFrame out;
  std::string_view view = bytes;
  int n = try_decode(view, &out);
  ASSERT_EQ(n, static_cast<int>(first));
  EXPECT_EQ(out.msg.type(), "A");
  view.remove_prefix(static_cast<std::size_t>(n));
  n = try_decode(view, &out);
  ASSERT_GT(n, 0);
  EXPECT_EQ(out.msg.type(), "B");
}

TEST(Frame, RejectsUnknownPayloadTag) {
  std::string bytes;
  encode_frame(make_frame("X"), &bytes);
  bytes[bytes.size() - 1] = static_cast<char>(200);  // tag is the last byte
  WireFrame out;
  std::string err;
  EXPECT_EQ(try_decode(bytes, &out, &err), -1);
  EXPECT_NE(err.find("payload tag"), std::string::npos) << err;
}

TEST(Frame, RejectsOversizedBodyLength) {
  std::string bytes(4, '\0');
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(bytes.data(), &huge, 4);
  WireFrame out;
  std::string err;
  EXPECT_EQ(try_decode(bytes, &out, &err), -1);
}

TEST(Frame, RejectsTrailingGarbageInsideBody) {
  std::string bytes;
  encode_frame(make_frame("X"), &bytes);
  // Grow the declared body by one byte without appending payload content:
  // the decoder must flag the inconsistency, not read out of bounds.
  std::uint32_t body = 0;
  std::memcpy(&body, bytes.data(), 4);
  ++body;
  std::memcpy(bytes.data(), &body, 4);
  bytes.push_back('\0');
  WireFrame out;
  std::string err;
  EXPECT_EQ(try_decode(bytes, &out, &err), -1);
}

// --- SocketBus ------------------------------------------------------------

struct SocketBusFixture {
  des::Simulator sim;
  net::Cluster cluster{sim, 4};
  net::Network net{cluster};
  SocketBus bus{net};

  /// sim + transport to quiescence (the owner loop StagedPipeline uses).
  void pump() {
    for (;;) {
      sim.run_until(sim.now());
      if (bus.pump_transport()) continue;
      if (!sim.step()) break;
    }
  }
};

des::Process post_one(ev::BusIf& bus, ev::EndpointId from, ev::EndpointId to,
                      std::string type, bool* ok) {
  ev::Message m;
  m.set_type(type);
  auto t = bus.post(from, to, std::move(m));
  *ok = co_await t;
}

des::Process recv_n(ev::Endpoint& ep, std::vector<ev::Message>* got, int n) {
  for (int i = 0; i < n; ++i) {
    auto m = co_await ep.mailbox().get();
    if (!m.has_value()) break;
    got->push_back(std::move(*m));
  }
}

TEST(SocketBus, PostDeliversThroughRealSockets) {
  SocketBusFixture f;
  auto& a = f.bus.open(0, "a");
  auto& b = f.bus.open(1, "b");
  bool ok = false;
  std::vector<ev::Message> got;
  spawn(f.sim, recv_n(b, &got, 1));
  spawn(f.sim, post_one(f.bus, a.id(), b.id(), "HELLO", &ok));
  f.pump();
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type(), "HELLO");
  EXPECT_EQ(got[0].from, a.id());
  EXPECT_GE(f.bus.frames_sent(), 1u);
  EXPECT_EQ(f.bus.frames_sent(), f.bus.frames_received());
  EXPECT_EQ(f.bus.in_flight(), 0u);
}

TEST(SocketBus, PostToUnknownEndpointFails) {
  SocketBusFixture f;
  auto& a = f.bus.open(0, "a");
  bool ok = true;
  spawn(f.sim, post_one(f.bus, a.id(), 999, "X", &ok));
  f.pump();
  EXPECT_FALSE(ok);
  EXPECT_EQ(f.bus.dropped(), 1u);
}

des::Process echo_server(ev::BusIf& bus, ev::Endpoint& ep) {
  for (;;) {
    auto m = co_await ep.mailbox().get();
    if (!m.has_value()) break;
    ev::Message reply;
    reply.set_type("REPLY");
    reply.token = m->token;
    auto t = bus.post(ep.id(), m->from, std::move(reply));
    co_await t;
  }
}

des::Process requester(ev::BusIf& bus, ev::EndpointId from, ev::EndpointId to,
                       std::string* reply_type) {
  ev::Message m;
  m.set_type("ASK");
  m.token = bus.fresh_token();
  auto t = bus.request(from, to, std::move(m));
  ev::Message r = co_await t;
  *reply_type = std::string(r.type());
}

TEST(SocketBus, RequestReplyLadderRunsOverSockets) {
  SocketBusFixture f;
  auto& client = f.bus.open(0, "client");
  auto& server = f.bus.open(1, "server");
  std::string reply;
  spawn(f.sim, echo_server(f.bus, server));
  spawn(f.sim, requester(f.bus, client.id(), server.id(), &reply));
  f.pump();
  EXPECT_EQ(reply, "REPLY");
  f.bus.close(server.id());
  f.bus.close(client.id());
  f.pump();
}

/// A local process the bus never connected to: a blocking loopback socket
/// on the bus's listener.
int connect_stranger(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(SocketBus, RefusesConnectionsItDidNotOpen) {
  {
    // A stranger's broken framing while a post is in flight must not fail
    // the post: it resolves true and is delivered once. The stranger
    // connects before the bus's own connection, so it is read first.
    SocketBusFixture f;
    auto& a = f.bus.open(0, "a");
    auto& b = f.bus.open(1, "b");
    const int stranger = connect_stranger(f.bus.port());
    bool ok = false;
    std::vector<ev::Message> got;
    spawn(f.sim, recv_n(b, &got, 1));
    spawn(f.sim, post_one(f.bus, a.id(), b.id(), "HELLO", &ok));
    f.sim.run_until(f.sim.now());
    ASSERT_EQ(f.bus.in_flight(), 1u);
    std::string broken(8, '\0');
    const std::uint32_t huge = kMaxFrameBytes + 1;
    std::memcpy(broken.data(), &huge, 4);
    send_all(stranger, broken);
    f.pump();
    ::close(stranger);
    EXPECT_TRUE(ok);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].type(), "HELLO");
  }
  {
    // A stranger's well-formed frame is never delivered.
    SocketBusFixture f;
    f.bus.open(0, "a");
    auto& b = f.bus.open(1, "b");
    WireFrame forged = make_frame(core::kMsgIncrease);
    forged.msg.from = 12345;
    forged.msg.to = b.id();
    std::string bytes;
    encode_frame(forged, &bytes);
    const int stranger = connect_stranger(f.bus.port());
    send_all(stranger, bytes);
    // The first poll accepts, the next ones read whatever was accepted.
    for (int i = 0; i < 10; ++i) f.bus.pump_transport();
    ::close(stranger);
    EXPECT_EQ(b.mailbox().size(), 0u);
    EXPECT_EQ(f.bus.frames_received(), 0u);
  }
}

// --- DES vs socket equivalence --------------------------------------------

struct ScriptResult {
  std::vector<std::string> trace;    // "container/type/to_cm/delta"
  std::vector<std::string> reports;  // "action/container/delta/ok"
  bool script_done = false;
};

des::Process control_script(core::StagedPipeline* p, ScriptResult* out) {
  core::GlobalManager& gm = p->gm();
  {
    auto t = gm.increase("csym", 1);
    const core::ProtocolReport r = co_await t;
    out->reports.push_back(r.action + "/" + r.container + "/" +
                           std::to_string(r.delta) + "/" +
                           (r.ok ? "ok" : "fail"));
  }
  {
    auto t = gm.enable_hashes("bonds", true);
    const bool ok = co_await t;
    out->reports.push_back(std::string("enable_hashes/bonds/0/") +
                           (ok ? "ok" : "fail"));
  }
  {
    auto t = gm.decrease("csym", 1);
    const core::ProtocolReport r = co_await t;
    out->reports.push_back(r.action + "/" + r.container + "/" +
                           std::to_string(r.delta) + "/" +
                           (r.ok ? "ok" : "fail"));
  }
  {
    auto t = gm.increase("bonds", 2);
    const core::ProtocolReport r = co_await t;
    out->reports.push_back(r.action + "/" + r.container + "/" +
                           std::to_string(r.delta) + "/" +
                           (r.ok ? "ok" : "fail"));
  }
  {
    auto t = gm.decrease("bonds", 2);
    const core::ProtocolReport r = co_await t;
    out->reports.push_back(r.action + "/" + r.container + "/" +
                           std::to_string(r.delta) + "/" +
                           (r.ok ? "ok" : "fail"));
  }
  out->script_done = true;
}

ScriptResult run_script(bool live) {
  // 1024/24: the preset with spare staging nodes, so increase rounds have
  // something to grant. Management off: the only control rounds in the
  // trace are the scripted ones.
  auto spec = core::PipelineSpec::lammps_smartpointer(1024, 24);
  spec.steps = 4;
  spec.management_enabled = false;
  core::StagedPipeline::Options opt;
  if (live) {
    opt.bus_factory = [](net::Network& n) -> std::unique_ptr<ev::BusIf> {
      return std::make_unique<SocketBus>(n);
    };
  }
  core::StagedPipeline p(std::move(spec), opt);
  p.start();
  ScriptResult out;
  spawn(p.sim(), control_script(&p, &out));
  p.pump_to_idle();
  EXPECT_TRUE(p.all_done());
  for (const auto& e : p.gm().control_trace()) {
    out.trace.push_back(std::string(util::name_of(e.peer)) + "/" +
                        std::string(ev::type_name(e.type)) + "/" +
                        (e.to_cm ? "req" : "reply") + "/" +
                        std::to_string(e.delta));
  }
  return out;
}

TEST(Equivalence, SocketAndDesBusesRunIdenticalControlRounds) {
  const ScriptResult des = run_script(false);
  const ScriptResult live = run_script(true);
  EXPECT_TRUE(des.script_done);
  EXPECT_TRUE(live.script_done);
  ASSERT_FALSE(des.trace.empty());
  // The same Container/FSM/GM code drove both transports: the message-type
  // sequence, request/reply directions, and node deltas must be identical
  // (timestamps differ — the DES transport pays modeled latency).
  EXPECT_EQ(des.trace, live.trace);
  EXPECT_EQ(des.reports, live.reports);
  // Both transports could drift together; a golden literal cannot.
  const std::vector<std::string> golden = {
      "csym/INCREASE_REQ/req/0",  "csym/DONE/reply/1",
      "csym/DECREASE_REQ/req/0",  "csym/DONE/reply/-1",
      "bonds/INCREASE_REQ/req/0", "bonds/DONE/reply/2",
      "bonds/DECREASE_REQ/req/0", "bonds/DONE/reply/-2"};
  EXPECT_EQ(des.trace, golden);
}

TEST(Equivalence, LiveControlTraceReplaysThroughTheProtocolFsm) {
  const ScriptResult live = run_script(true);
  std::map<std::string, core::ProtocolFsm> fsms;
  for (const auto& line : live.trace) {
    const std::size_t s1 = line.find('/');
    const std::size_t s2 = line.find('/', s1 + 1);
    const std::string container = line.substr(0, s1);
    const std::string type = line.substr(s1 + 1, s2 - s1 - 1);
    const ev::MessageId id = ev::intern_type(type);
    if (core::cm_message_is_marker(id)) continue;
    EXPECT_TRUE(fsms[container].advance(id))
        << container << " rejected " << type << " in state "
        << core::cm_state_name(fsms[container].state());
  }
  for (auto& [name, fsm] : fsms) {
    EXPECT_EQ(fsm.state(), core::CmState::kIdle) << name;
  }
}

// --- HTTP control API -----------------------------------------------------

/// Blocking loopback client used against a ServiceHost running on its own
/// thread. Sends raw bytes, reads until `responses` complete HTTP messages
/// (Content-Length framing) or EOF, returns what arrived.
class BlockingClient {
 public:
  explicit BlockingClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~BlockingClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  /// One complete response's size at the front of buf_, or 0.
  static std::size_t response_size(const std::string& buf) {
    const std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end == std::string::npos) return 0;
    std::size_t body = 0;
    const std::size_t cl = buf.find("Content-Length:");
    if (cl != std::string::npos && cl < head_end) {
      body = static_cast<std::size_t>(
          std::strtoull(buf.c_str() + cl + 15, nullptr, 10));
    }
    const std::size_t total = head_end + 4 + body;
    return buf.size() >= total ? total : 0;
  }

  std::vector<std::string> read_responses(std::size_t n) {
    std::vector<std::string> out;
    char chunk[8192];
    while (out.size() < n) {
      const std::size_t sz = response_size(buf_);
      if (sz != 0) {
        out.push_back(buf_.substr(0, sz));
        buf_.erase(0, sz);
        continue;
      }
      const ssize_t r = ::read(fd_, chunk, sizeof(chunk));
      if (r <= 0) break;
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
    return out;
  }

  std::string request(const std::string& method, const std::string& target,
                      const std::string& body = "") {
    std::string req = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
    if (!body.empty()) {
      req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    req += "\r\n" + body;
    send_raw(req);
    auto rs = read_responses(1);
    return rs.empty() ? std::string() : rs[0];
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

int status_of(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

class HttpApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    host_ = std::make_unique<ServiceHost>();
    port_ = host_->http_port();
    thread_ = std::thread([this] { host_->run(); });
  }
  void TearDown() override {
    host_->stop();
    thread_.join();
    host_.reset();
  }

  std::unique_ptr<ServiceHost> host_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST_F(HttpApiTest, PipelineCrudAndResizeLifecycle) {
  BlockingClient c(port_);
  ASSERT_TRUE(c.connected());

  // Create: a small live pipeline (spare nodes for the resize below).
  const std::string create_body =
      "{\"preset\": \"lammps_smartpointer\", \"sim_nodes\": 1024, "
      "\"staging_nodes\": 24, \"steps\": 2, \"name\": \"crud\"}";
  std::string r = c.request("POST", "/v1/pipelines", create_body);
  ASSERT_EQ(status_of(r), 201) << r;
  trace::json::Value doc;
  std::string err;
  ASSERT_TRUE(trace::json::parse(body_of(r), &doc, &err)) << err;
  const auto id = static_cast<std::uint64_t>(doc.num_or("id"));
  EXPECT_GE(id, 1u);
  EXPECT_EQ(doc.str_or("name"), "crud");

  // List + detail (same keep-alive connection).
  r = c.request("GET", "/v1/pipelines");
  EXPECT_EQ(status_of(r), 200);
  EXPECT_NE(body_of(r).find("\"crud\""), std::string::npos);
  r = c.request("GET", "/v1/pipelines/" + std::to_string(id));
  ASSERT_EQ(status_of(r), 200);
  ASSERT_TRUE(trace::json::parse(body_of(r), &doc, &err)) << err;
  EXPECT_TRUE(doc.find("containers") != nullptr);

  // Resize: a real GM increase round over the live SocketBus.
  r = c.request("POST", "/v1/pipelines/" + std::to_string(id) + "/resize",
                "{\"container\": \"csym\", \"delta\": 1}");
  ASSERT_EQ(status_of(r), 200) << r;
  ASSERT_TRUE(trace::json::parse(body_of(r), &doc, &err)) << err;
  EXPECT_EQ(doc.str_or("action"), "increase");
  EXPECT_EQ(doc.str_or("container"), "csym");

  // Metrics: Prometheus text over the monitoring hub.
  r = c.request("GET", "/metrics");
  EXPECT_EQ(status_of(r), 200);
  EXPECT_NE(body_of(r).find("pipeline"), std::string::npos);

  // Delete, then the detail route 404s.
  r = c.request("DELETE", "/v1/pipelines/" + std::to_string(id));
  EXPECT_EQ(status_of(r), 204);
  r = c.request("GET", "/v1/pipelines/" + std::to_string(id));
  EXPECT_EQ(status_of(r), 404);
}

TEST_F(HttpApiTest, TruncatedRequestThenCompletionIsServed) {
  BlockingClient c(port_);
  ASSERT_TRUE(c.connected());
  // Half a request line; the server must wait, not reject.
  c.send_raw("GET /v1/pipe");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  c.send_raw("lines HTTP/1.1\r\nHost: t\r\n\r\n");
  auto rs = c.read_responses(1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(status_of(rs[0]), 200);
}

TEST_F(HttpApiTest, PipelinedRequestsAnswerInOrder) {
  BlockingClient c(port_);
  ASSERT_TRUE(c.connected());
  c.send_raw(
      "GET /v1/pipelines HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  auto rs = c.read_responses(2);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(status_of(rs[0]), 200);
  EXPECT_NE(body_of(rs[0]).find("pipelines"), std::string::npos);
  EXPECT_EQ(status_of(rs[1]), 200);
}

TEST_F(HttpApiTest, OversizedHeaderIsRejectedWith431) {
  BlockingClient c(port_);
  ASSERT_TRUE(c.connected());
  std::string req = "GET / HTTP/1.1\r\nHost: t\r\nX-Pad: ";
  req += std::string(16 * 1024, 'x');
  req += "\r\n\r\n";
  c.send_raw(req);
  auto rs = c.read_responses(1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(status_of(rs[0]), 431);
}

TEST_F(HttpApiTest, MalformedJsonBodyIs400NotACrash) {
  BlockingClient c(port_);
  ASSERT_TRUE(c.connected());
  std::string r = c.request("POST", "/v1/pipelines", "{\"preset\": ");
  EXPECT_EQ(status_of(r), 400);
  EXPECT_NE(body_of(r).find("malformed"), std::string::npos);
  // The connection and the host survive; the next request works.
  r = c.request("GET", "/v1/pipelines");
  EXPECT_EQ(status_of(r), 200);
}

TEST_F(HttpApiTest, MalformedRequestLineIs400) {
  // Each rejection on a connection of its own, answered with its status;
  // the server then closes that connection and still serves a fresh one.
  const struct {
    const char* raw;
    int status;
  } kCases[] = {
      {"NONSENSE\r\n\r\n", 400},
      {"GET /v1/pipelines HTTP/1.1\r\nNoColon\r\nHost: t\r\n\r\n", 400},
      {"POST /v1/pipelines HTTP/1.1\r\nContent-Length: 12x\r\n\r\n", 400},
      {"POST /v1/pipelines HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
       413},
  };
  static_assert(kMaxBodyBytes + 1 == 1048577, "the 413 case is one byte over");
  for (const auto& k : kCases) {
    BlockingClient c(port_);
    ASSERT_TRUE(c.connected());
    c.send_raw(k.raw);
    // Half-close: a server that waited for a body would end the connection
    // instead of hanging the test.
    c.finish_sending();
    auto rs = c.read_responses(1);
    ASSERT_EQ(rs.size(), 1u) << k.raw;
    EXPECT_EQ(status_of(rs[0]), k.status) << k.raw;
    BlockingClient fresh(port_);
    ASSERT_TRUE(fresh.connected());
    EXPECT_EQ(status_of(fresh.request("GET", "/v1/pipelines")), 200) << k.raw;
  }
}

TEST_F(HttpApiTest, UnknownRoutesAndMethods) {
  BlockingClient c(port_);
  ASSERT_TRUE(c.connected());
  EXPECT_EQ(status_of(c.request("GET", "/nope")), 404);
  EXPECT_EQ(status_of(c.request("DELETE", "/metrics")), 405);
  EXPECT_EQ(status_of(c.request("PUT", "/v1/pipelines")), 405);
  EXPECT_EQ(status_of(c.request("GET", "/v1/pipelines/999")), 404);
  EXPECT_EQ(status_of(c.request("GET", "/v1/pipelines/notanumber")), 404);
  EXPECT_EQ(status_of(c.request("POST", "/v1/pipelines",
                                "{\"preset\": \"unknown\"}")),
            400);
}

TEST_F(HttpApiTest, ResizeValidatesContainerAndDelta) {
  BlockingClient c(port_);
  ASSERT_TRUE(c.connected());
  const std::string create_body =
      "{\"sim_nodes\": 256, \"staging_nodes\": 13, \"steps\": 1}";
  std::string r = c.request("POST", "/v1/pipelines", create_body);
  ASSERT_EQ(status_of(r), 201);
  trace::json::Value doc;
  std::string err;
  ASSERT_TRUE(trace::json::parse(body_of(r), &doc, &err)) << err;
  const std::string base =
      "/v1/pipelines/" +
      std::to_string(static_cast<std::uint64_t>(doc.num_or("id")));
  EXPECT_EQ(status_of(c.request("POST", base + "/resize",
                                "{\"container\": \"nope\", \"delta\": 1}")),
            400);
  EXPECT_EQ(status_of(c.request("POST", base + "/resize",
                                "{\"container\": \"csym\", \"delta\": 0}")),
            400);
  EXPECT_EQ(status_of(c.request("POST", base + "/resize", "not json")), 400);
}

}  // namespace
}  // namespace ioc::svc
