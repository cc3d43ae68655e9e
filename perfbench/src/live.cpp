// live: one svc::ServiceHost over SocketBus and four keep-alive HTTP
// connections in a closed loop (four controllers, each waiting for its
// reply). One thread drives both sides — it calls ServiceHost::poll_once(0)
// between its own socket polls — so the numbers measure the program, not
// cross-CPU wake-ups. Each connection owns one pipeline and sends ~80%
// GET /v1/pipelines/{id}, 5% GET /v1/pipelines, 5% GET /metrics and 10%
// POST .../resize (+1/-1 on csym, alternating, so widths return to where
// they started). The only workload with real sockets, HTTP and live GM
// rounds. latency_floor_ms weights the floor of each request class by the
// class's share of the run's requests, so a faster resize or scrape shows
// as well as a faster read.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/protocol.h"
#include "mon/metric.h"
#include "svc/frame.h"
#include "svc/host.h"
#include "svc/socket_bus.h"
#include "trace/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace json = ioc::trace::json;
using ioc::svc::ServiceHost;

constexpr int kConnections = 4;
constexpr double kRequestsPerWallSecond = 14000;
/// Throwaway set-ups timed during an untraced run, about 2 ms each. They
/// run between chunks of the closed loop, when no request is in flight.
constexpr std::uint64_t kSetups = 301;
/// sim_latency_* covers the increase rounds among each connection's first
/// kSimPrefix requests: a fixed prefix, so the figure is the same for
/// every run of a seed.
constexpr std::uint64_t kSimPrefix = 20000;

enum Cls { kRead = 0, kList, kScrape, kResize };

struct Reply {
  int status = 0;
  std::string body;
};

class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the service failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& method, const std::string& target,
            const std::string& body = "") {
    out_ += method + " " + target + " HTTP/1.1\r\nHost: perfbench\r\n";
    if (!body.empty()) {
      out_ += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    out_ += "\r\n" + body;
    waiting_ = true;
    flush();
  }

  void flush() {
    while (!out_.empty()) {
      const ssize_t n = ::write(fd_, out_.data(), out_.size());
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
        throw std::runtime_error("write to the service failed");
      }
      out_.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Non-blocking: true once a whole response has been read into *r.
  bool poll(Reply* r) {
    if (!waiting_) return false;
    flush();
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n > 0) {
        in_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("service closed a connection");
      if (errno == EAGAIN || errno == EINTR) break;
      throw std::runtime_error("read from the service failed");
    }
    const std::size_t head = in_.find("\r\n\r\n");
    if (head == std::string::npos) return false;
    const std::size_t cl = in_.find("Content-Length: ");
    if (cl == std::string::npos || cl > head) {
      throw std::runtime_error("response without Content-Length");
    }
    const std::size_t len = std::strtoul(in_.c_str() + cl + 16, nullptr, 10);
    if (in_.size() < head + 4 + len) return false;
    r->status = in_.size() > 12 ? std::atoi(in_.c_str() + 9) : 0;
    r->body = in_.substr(head + 4, len);
    in_.erase(0, head + 4 + len);
    waiting_ = false;
    return true;
  }

  bool waiting() const { return waiting_; }

 private:
  int fd_ = -1;
  std::string out_;
  std::string in_;
  bool waiting_ = false;
};

/// One controller: a connection, the pipeline it owns, its request stream.
struct Controller {
  std::unique_ptr<Client> client;
  std::uint64_t id = 0;
  std::string base;
  ioc::util::Rng rng{1};
  Cls cls = kRead;
  double sent_at = 0;
  bool grow_next = true;  ///< next resize is +1
  std::uint64_t sent = 0;
  std::vector<double> sim_ms;  ///< simulated time of each increase round
};

/// Drive one request/response on every controller until all have replied.
void await_all(ServiceHost& host, std::vector<Controller>& cs,
               std::vector<Reply>* replies) {
  replies->assign(cs.size(), Reply{});
  std::size_t left = cs.size();
  while (left > 0) {
    host.poll_once(0);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (cs[i].client->waiting() && cs[i].client->poll(&(*replies)[i])) {
        --left;
      }
    }
  }
}

struct Live {
  std::unique_ptr<ServiceHost> host;
  std::vector<Controller> cs;
  std::vector<std::uint64_t> csym_width;  ///< initial width per controller
};

std::uint64_t csym_width(const std::string& detail) {
  json::Value doc;
  std::string err;
  if (!json::parse(detail, &doc, &err)) return 0;
  const json::Value* cs = doc.find("containers");
  if (cs == nullptr) return 0;
  for (const auto& c : cs->array) {
    if (c.str_or("name") == "csym") {
      return static_cast<std::uint64_t>(c.num_or("width"));
    }
  }
  return 0;
}

/// Set-up: start the host, connect, create one small pipeline per
/// connection and let each run its campaign to done, read initial widths.
/// Returns the wall seconds that took.
double setup(Live& l, std::uint64_t seed) {
  l.cs.clear();
  l.host.reset();
  const double t0 = now_s();
  l.host = std::make_unique<ServiceHost>();
  l.cs.resize(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    Controller& c = l.cs[static_cast<std::size_t>(i)];
    c.client = std::make_unique<Client>(l.host->http_port());
    c.rng = ioc::util::Rng(seed * 7919 + static_cast<std::uint64_t>(i) + 1);
    c.client->send("POST", "/v1/pipelines",
                   "{\"preset\":\"lammps_smartpointer\",\"sim_nodes\":1024,"
                   "\"staging_nodes\":24,\"steps\":2,\"management\":false,"
                   "\"name\":\"c" +
                       std::to_string(i) + "\"}");
  }
  std::vector<Reply> rs;
  await_all(*l.host, l.cs, &rs);
  for (std::size_t i = 0; i < l.cs.size(); ++i) {
    json::Value doc;
    std::string err;
    if (rs[i].status != 201 || !json::parse(rs[i].body, &doc, &err)) {
      throw std::runtime_error("pipeline create failed: " + rs[i].body);
    }
    l.cs[i].id = static_cast<std::uint64_t>(doc.num_or("id"));
    l.cs[i].base = "/v1/pipelines/" + std::to_string(l.cs[i].id);
  }
  bool done = false;
  while (!done) {
    l.host->poll_once(0);
    done = true;
    for (const auto& [id, e] : l.host->entries()) {
      done = done && e.pipeline->all_done();
    }
  }
  for (auto& c : l.cs) c.client->send("GET", c.base);
  await_all(*l.host, l.cs, &rs);
  l.csym_width.clear();
  for (const auto& r : rs) l.csym_width.push_back(csym_width(r.body));
  return now_s() - t0;
}

struct Tally {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t resizes = 0;
  std::uint64_t resize_ok = 0;
  std::vector<double> all_ms;
  std::vector<double> by_cls_ms[4];
  double wall_s = 0;

  /// Floor of each class, weighted by the class's share of the samples.
  double mix_floor() const {
    double sum = 0;
    for (const auto& v : by_cls_ms) {
      if (!v.empty()) sum += floor_of(v) * static_cast<double>(v.size());
    }
    return sum / static_cast<double>(all_ms.size());
  }
};

void send_next(Controller& c) {
  const std::uint64_t u = c.rng.below(100);
  c.cls = u < 80 ? kRead : u < 85 ? kList : u < 90 ? kScrape : kResize;
  c.sent_at = now_s();
  ++c.sent;
  switch (c.cls) {
    case kRead: c.client->send("GET", c.base); break;
    case kList: c.client->send("GET", "/v1/pipelines"); break;
    case kScrape: c.client->send("GET", "/metrics"); break;
    case kResize:
      c.client->send("POST", c.base + "/resize",
                     std::string("{\"container\":\"csym\",\"delta\":") +
                         (c.grow_next ? "1" : "-1") + "}");
      c.grow_next = !c.grow_next;
      break;
  }
}

/// Check one response; false marks the operation failed.
bool valid(Controller& c, const Reply& rep, Tally& t) {
  if (rep.status < 200 || rep.status > 299) return false;
  if (c.cls == kScrape) return rep.body.find("# TYPE") != std::string::npos;
  json::Value doc;
  std::string err;
  if (!json::parse(rep.body, &doc, &err) || !doc.is_object()) return false;
  switch (c.cls) {
    case kRead: return doc.find("containers") != nullptr;
    case kList: return doc.find("pipelines") != nullptr;
    case kResize: {
      ++t.resizes;
      const json::Value* ok = doc.find("ok");
      if (ok == nullptr || !ok->boolean) return false;
      ++t.resize_ok;
      // Decrease rounds cost no simulated time over sockets (no launch);
      // increases pay the modeled aprun launch.
      if (doc.str_or("action") == "increase" && c.sent <= kSimPrefix) {
        c.sim_ms.push_back(doc.num_or("total_s") * 1e3);
      }
      return doc.str_or("container") == "csym";
    }
    default: return true;
  }
}

/// The closed loop, adding to `t`. A connection stops sending once
/// `per_conn` requests in all went out on it; if its last resize was +1 it
/// then sends the matching -1. The work is fixed, not timed: the global
/// manager's control trace grows with every resize round, so a timed
/// window would make peak_rss_mb follow the request rate.
void drive(Live& l, std::uint64_t per_conn, const WallSpans& spans,
           Tally& t) {
  const double t0 = now_s();
  std::size_t active = l.cs.size();
  for (auto& c : l.cs) send_next(c);
  while (active > 0) {
    {
      auto s = spans("svc", "ServiceHost::poll_once");
      l.host->poll_once(0);
    }
    for (auto& c : l.cs) {
      if (!c.client->waiting()) continue;
      Reply rep;
      if (!c.client->poll(&rep)) continue;
      const double ms = (now_s() - c.sent_at) * 1e3;
      ++t.requests;
      const bool ok = valid(c, rep, t);
      if (!ok) {
        ++t.failed;
        std::fprintf(stderr, "live: bad response (%d): %.200s\n", rep.status,
                     rep.body.c_str());
      }
      // Latency is sampled only while every connection is still in the
      // loop: once one has stopped, the rest wait on fewer peers and run
      // faster than the closed loop of four does.
      if (active == l.cs.size()) {
        const double sample = ok ? ms : kMissed;  // misses every limit
        t.all_ms.push_back(sample);
        t.by_cls_ms[c.cls].push_back(sample);
      }
      if (c.sent < per_conn) {
        send_next(c);
      } else if (!c.grow_next) {
        c.cls = kResize;  // close the +1 with its -1
        c.sent_at = now_s();
        ++c.sent;
        c.client->send("POST", c.base + "/resize",
                       "{\"container\":\"csym\",\"delta\":-1}");
        c.grow_next = true;
      } else {
        --active;
      }
    }
  }
  t.wall_s += now_s() - t0;
}

void check_widths(Live& l, Report& r) {
  std::vector<Reply> rs;
  for (auto& c : l.cs) c.client->send("GET", c.base);
  await_all(*l.host, l.cs, &rs);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    r.gate(csym_width(rs[i].body) == l.csym_width[i] && l.csym_width[i] > 0,
           "live: csym width of pipeline " + std::to_string(l.cs[i].id) +
               " did not return to its initial value");
  }
}

std::uint64_t frames_sent(ServiceHost& host) {
  std::uint64_t n = 0;
  for (const auto& [id, e] : host.entries()) {
    if (auto* b = dynamic_cast<ioc::svc::SocketBus*>(&e.pipeline->bus())) {
      n += b->frames_sent();
    }
  }
  return n;
}

std::uint64_t sim_events(ServiceHost& host) {
  std::uint64_t n = 0;
  for (const auto& [id, e] : host.entries()) {
    n += e.pipeline->sim().events_processed();
  }
  return n;
}

/// Encode + decode of the frames one resize round puts on the wire.
double codec_ns_per_frame(Report& r) {
  using ioc::svc::WireFrame;
  std::vector<WireFrame> frames;
  auto make = [&](const char* type) -> WireFrame& {
    WireFrame f;
    f.seq = frames.size() + 1;
    f.msg.set_type(type);
    f.msg.from = 3;
    f.msg.to = 5;
    f.msg.token = 1000 + frames.size();
    frames.push_back(std::move(f));
    return frames.back();
  };
  make(ioc::core::kMsgIncrease).msg.payload =
      ioc::core::IncreasePayload{{6, 7}};
  make(ioc::core::kMsgReplicaHello);
  make(ioc::core::kMsgReplicaConfig);
  make(ioc::core::kMsgEndpointUpdate);
  ioc::core::ProtocolReport rep;
  rep.action = "increase";
  rep.container = "csym";
  rep.delta = 1;
  make(ioc::core::kMsgDone).msg.payload = ioc::core::DonePayload{rep, {}};
  make(ioc::core::kMsgDecrease).msg.payload = ioc::core::DecreasePayload{1};
  ioc::mon::MetricSample m;
  m.source = "csym";
  m.value = 0.25;
  make(ioc::core::kMsgMetric).msg.payload = m;

  constexpr int kRounds = 4000;
  std::string buf;
  std::size_t decoded = 0;
  const double t0 = now_s();
  for (int k = 0; k < kRounds; ++k) {
    buf.clear();
    for (const auto& f : frames) ioc::svc::encode_frame(f, &buf);
    std::string_view view(buf);
    WireFrame out;
    int n = 0;
    while ((n = ioc::svc::try_decode(view, &out)) > 0) {
      view.remove_prefix(static_cast<std::size_t>(n));
      ++decoded;
    }
  }
  const double dt = now_s() - t0;
  r.gate(decoded == frames.size() * kRounds,
         "live: frame codec did not round-trip");
  return dt * 1e9 / static_cast<double>(frames.size() * kRounds);
}

/// Requests per connection for about `seconds` of closed loop.
std::uint64_t per_conn(const Args& a, double seconds) {
  if (a.smoke) return 50;
  return static_cast<std::uint64_t>(seconds * kRequestsPerWallSecond /
                                    kConnections);
}

}  // namespace

Report run_live(const Args& a) {
  Report r;
  Live l;
  if (!a.trace) {
    std::vector<double> setups{setup(l, a.seed)};
    const std::uint64_t n = per_conn(a, a.seconds);
    const std::uint64_t chunks = std::min(kSetups, n);
    Tally t;
    for (std::uint64_t k = 1; k <= chunks; ++k) {
      drive(l, n * k / chunks, WallSpans(), t);
      Live spare;
      setups.push_back(setup(spare, a.seed));
    }
    check_widths(l, r);
    r.attempted = t.requests;
    r.failed = t.failed;
    r.gate(t.failed == 0, "live: " + std::to_string(t.failed) +
                              " responses broke a correctness gate");
    r.set("latency_floor_ms", t.mix_floor(), "ms");
    r.floors["latency_floor_ms"] = t.all_ms.size();
    std::vector<double> sim_ms;
    for (const auto& c : l.cs) {
      sim_ms.insert(sim_ms.end(), c.sim_ms.begin(), c.sim_ms.end());
    }
    r.gate(!sim_ms.empty(), "live: no resize completed");
    r.set_latency("sim_latency_p50_ms", "sim_latency_tail_ms", sim_ms,
                  "sim_ms");
    r.set_floor("setup_s", setups, "s");
    r.note_wall(t.all_ms, static_cast<double>(t.requests) / t.wall_s, setups);
    r.record["resizes"] = std::to_string(t.resizes);
    r.record["connections"] = std::to_string(kConnections);
    return r;
  }

  // Traced run: fixed work per connection, untraced then traced, each on a
  // fresh host so both start from the same state.
  setup(l, a.seed);
  Tally plain;
  drive(l, per_conn(a, a.seconds / 2), WallSpans(), plain);
  check_widths(l, r);

  ioc::trace::TraceSink wall;
  setup(l, a.seed);
  const std::uint64_t f0 = frames_sent(*l.host);
  const std::uint64_t e0 = sim_events(*l.host);
  Tally t;
  drive(l, per_conn(a, a.seconds / 2), WallSpans(&wall), t);
  const std::uint64_t frames = frames_sent(*l.host) - f0;
  const std::uint64_t events = sim_events(*l.host) - e0;
  check_widths(l, r);
  r.attempted = plain.requests + t.requests;
  r.failed = plain.failed + t.failed;
  r.gate(r.failed == 0, "live: " + std::to_string(r.failed) +
                            " responses broke a correctness gate");

  const double ops = static_cast<double>(t.requests);
  r.set("des.events_per_op", static_cast<double>(events) / ops, "count");
  r.set("core.rounds_per_op", static_cast<double>(t.resizes) / ops, "count");
  r.set_latency("svc.read_p50_ms", "svc.read_tail_ms", t.by_cls_ms[kRead],
                "ms");
  r.set("svc.scrape_p50_ms", median(t.by_cls_ms[kScrape]), "ms");
  r.set_latency("svc.resize_p50_ms", "svc.resize_tail_ms",
                t.by_cls_ms[kResize], "ms");
  r.set("svc.resize_ok_ratio",
        t.resizes > 0 ? static_cast<double>(t.resize_ok) /
                            static_cast<double>(t.resizes)
                      : 0.0,
        "ratio");
  r.set("svc.frames_per_resize",
        t.resizes > 0 ? static_cast<double>(frames) /
                            static_cast<double>(t.resizes)
                      : 0.0,
        "count");
  r.set("svc.codec_ns_per_frame", codec_ns_per_frame(r), "ns");
  r.set("trace.spans_per_op", static_cast<double>(wall.recorded()) / ops,
        "count");
  r.set("trace.dropped", static_cast<double>(wall.dropped()), "count");
  r.set("trace.overhead_pct", (t.mix_floor() / plain.mix_floor() - 1.0) * 100.0,
        "%");
  write_trace(a.trace_out, {&wall});
  return r;
}

}  // namespace perfbench
