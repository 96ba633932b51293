// Serving phase: dime_server lifecycle, the open-loop load generator, the
// delta/reload writer, the rate ladder, the serve-live corpus sweep and the
// per-layer probes of the serving and store layers.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <thread>

#include "perfbench/runner/runner.h"
#include "src/server/http.h"
#include "src/server/net_util.h"
#include "src/server/service.h"
#include "src/server/wire.h"
#include "src/store/snapshot.h"

namespace perfbench {
namespace {

using dime::Group;
using dime::WireRequest;

/// A window whose generator ran later than this share of the SLO (p99) is
/// not a valid measurement: its latencies would describe the generator.
constexpr double kLatenessShare = 0.5;

/// Share of checks sent as inline group_tsv over HTTP.
constexpr double kHttpShare = 0.05;

/// CPU placement while serving: the server gets the first n-1 of the CPUs
/// the process may use and the load generator's threads the last one, so
/// the two never trade places from run to run (with fewer than 2 CPUs
/// nothing is pinned). Pins the calling thread to the allowed CPUs with
/// positions [first, last].
void PinToCores(unsigned first, unsigned last) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned position = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (position >= first && position <= last) CPU_SET(cpu, &set);
    ++position;
  }
  if (CPU_COUNT(&set) > 0) ::sched_setaffinity(0, sizeof(set), &set);
}

void PinGenerator(unsigned nproc) {
  if (nproc >= 2) PinToCores(nproc - 1, nproc - 1);
}

// ---- sockets --------------------------------------------------------------

/// A connection to the server on loopback with Nagle off, so a request
/// line leaves when it is written.
int Connect(int port, int recv_timeout_ms = 0) {
  int fd = dime::ConnectToHost("127.0.0.1", port, recv_timeout_ms);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking request/reply over one line-protocol connection (reloads,
/// stats, shutdown).
class ControlConn {
 public:
  // A wedged server must not wedge the runner: give up on a reply after
  // 30 s (a reload takes well under a second).
  explicit ControlConn(int port) : fd_(Connect(port, 30000)) {}
  ~ControlConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  /// Sends one request line and returns the reply line ("" on error).
  std::string Call(const std::string& line) {
    std::string reply;
    if (fd_ < 0 || !dime::SendAll(fd_, line) || !dime::RecvLine(fd_, &reply)) {
      return "";
    }
    return reply;
  }

 private:
  int fd_;
};

std::string RequestLine(WireRequest::Type type, const std::string& group = "",
                        bool no_cache = false) {
  WireRequest r;
  r.type = type;
  r.group_name = group;
  r.no_cache = no_cache;
  return dime::SerializeRequest(r);
}

double JsonNumberField(const dime::JsonObject& o, const char* key) {
  auto it = o.find(key);
  return it == o.end() ? -1 : it->second.number_value;
}

std::string JsonStringField(const dime::JsonObject& o, const char* key) {
  auto it = o.find(key);
  return it == o.end() ? "" : it->second.string_value;
}

/// Hash of the sorted ids of a raw JSON string array.
uint64_t HashIdArray(const std::string& raw) {
  std::vector<std::string> ids;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '"') continue;
    std::string id;
    for (++i; i < raw.size() && raw[i] != '"'; ++i) {
      if (raw[i] == '\\' && i + 1 < raw.size()) ++i;
      id += raw[i];
    }
    ids.push_back(std::move(id));
  }
  std::sort(ids.begin(), ids.end());
  Hasher h;
  for (const std::string& id : ids) h.Str(id);
  return h.h;
}

uint64_t HashIds(const std::vector<std::string>& sorted_ids) {
  Hasher h;
  for (const std::string& id : sorted_ids) h.Str(id);
  return h.h;
}

// ---- open-loop load ---------------------------------------------------------

/// One scheduled request: due time (seconds from the window start) and the
/// request-table entry it sends.
struct Planned {
  double due = 0;
  uint32_t item = 0;
};

struct Outcome {
  double due = 0;   ///< absolute scheduled send time
  double sent = 0;  ///< when the generator actually queued it
  double done = -1; ///< reply fully read; -1 = no reply
  uint32_t item = 0;
  bool ok = false;
  bool cached = false;
  uint64_t epoch = 0;
  uint64_t flagged = 0;
  std::string error;
};

/// Request bytes, serialized once per run and indexed by Planned::item.
struct RequestTable {
  std::vector<std::string> line;  ///< per served group
  std::vector<std::string> http;  ///< per inline group
  std::vector<std::string> sweep; ///< per served group, no_cache
};

void ParseReply(std::string_view body, Outcome* o) {
  dime::StatusOr<dime::JsonObject> parsed = dime::ParseJsonObjectLine(body);
  if (!parsed.ok()) {
    o->error = "unparsable reply";
    return;
  }
  std::string status = JsonStringField(*parsed, "status");
  if (status != "OK") {
    o->error = status + ": " + JsonStringField(*parsed, "error");
    return;
  }
  o->ok = true;
  auto cached = parsed->find("cached");
  o->cached = cached != parsed->end() && cached->second.bool_value;
  o->epoch = static_cast<uint64_t>(JsonNumberField(*parsed, "epoch"));
  auto flagged = parsed->find("flagged");
  o->flagged =
      HashIdArray(flagged == parsed->end() ? "" : flagged->second.string_value);
}

/// Extracts complete replies from `in` (line or HTTP framing). Returns the
/// bodies; consumed bytes are erased.
std::vector<std::string> TakeReplies(bool http, std::string* in) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (true) {
    if (!http) {
      size_t nl = in->find('\n', pos);
      if (nl == std::string::npos) break;
      out.push_back(in->substr(pos, nl - pos));
      pos = nl + 1;
      continue;
    }
    size_t head_end = in->find("\r\n\r\n", pos);
    if (head_end == std::string::npos) break;
    size_t cl = in->find("Content-Length: ", pos);
    if (cl == std::string::npos || cl > head_end) break;
    size_t len = std::strtoul(in->c_str() + cl + 16, nullptr, 10);
    if (in->size() < head_end + 4 + len) break;
    out.push_back(in->substr(head_end + 4, len));
    pos = head_end + 4 + len;
  }
  in->erase(0, pos);
  return out;
}

/// One client connection of the load generator.
struct Conn {
  bool http = false;
  const std::vector<std::string>* table = nullptr;
  const std::vector<Planned>* plan = nullptr;
  std::vector<Outcome>* out = nullptr;
  int fd = -1;
  size_t next_send = 0, next_reply = 0, out_off = 0;
  std::string outbuf, inbuf;
  bool done = false;
  size_t max_inflight = 0;  ///< 0: open loop; else a closed-loop window
};

/// Sends each connection's plan on schedule (relative to `t0`) and reads
/// the replies in order, until every reply arrived or `hard_end`, sleeping
/// in ppoll until the next send is due or a reply arrives. Runs on the
/// generator's own core.
void DriveConnections(int port, std::vector<Conn>* conns, double t0,
                      double hard_end, unsigned nproc) {
  PinGenerator(nproc);
  for (Conn& c : *conns) {
    c.out->assign(c.plan->size(), Outcome());
    for (size_t i = 0; i < c.plan->size(); ++i) {
      (*c.out)[i].item = (*c.plan)[i].item;
      (*c.out)[i].due = t0 + (*c.plan)[i].due;
    }
    c.fd = Connect(port);
    if (c.fd < 0) {
      for (Outcome& o : *c.out) o.error = "connect failed";
      c.done = true;
      continue;
    }
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    c.done = c.plan->empty();
  }
  char buf[65536];
  std::vector<pollfd> fds;
  size_t open = 0;
  do {
    open = 0;
    double now = NowS();
    if (now > hard_end) break;
    double next_due = hard_end;
    fds.clear();
    for (Conn& c : *conns) {
      if (c.done) continue;
      ++open;
      while (c.next_send < c.plan->size() &&
             (*c.out)[c.next_send].due <= now &&
             (c.max_inflight == 0 ||
              c.next_send - c.next_reply < c.max_inflight)) {
        c.outbuf += (*c.table)[(*c.plan)[c.next_send].item];
        (*c.out)[c.next_send].sent = now;
        ++c.next_send;
      }
      while (c.out_off < c.outbuf.size()) {
        ssize_t n = ::send(c.fd, c.outbuf.data() + c.out_off,
                           c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<size_t>(n);
        } else {
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          c.done = true;
          break;
        }
      }
      if (c.out_off == c.outbuf.size()) {
        c.outbuf.clear();
        c.out_off = 0;
      }
      if (c.next_send < c.plan->size()) {
        next_due = std::min(next_due, (*c.out)[c.next_send].due);
      }
      short events = POLLIN | (c.outbuf.empty() ? 0 : POLLOUT);
      fds.push_back({c.fd, events, 0});
      ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        c.done = true;
      }
      if (n <= 0) continue;
      double read_at = NowS();
      c.inbuf.append(buf, static_cast<size_t>(n));
      for (const std::string& body : TakeReplies(c.http, &c.inbuf)) {
        if (c.next_reply >= c.next_send) break;
        Outcome& o = (*c.out)[c.next_reply++];
        o.done = read_at;
        ParseReply(body, &o);
      }
      if (c.next_reply == c.plan->size()) c.done = true;
    }
    double wait = std::clamp(next_due - NowS(), 0.0, 0.02);
    timespec ts{0, static_cast<long>(wait * 1e9)};
    if (!fds.empty() && wait > 0) {
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
  } while (open > 0);
  for (Conn& c : *conns) {
    if (c.fd >= 0) ::close(c.fd);
    for (size_t i = c.next_reply; i < c.out->size(); ++i) {
      (*c.out)[i].error =
          i < c.next_send ? "no reply (timeout)" : "never sent";
    }
  }
}

/// Zipf(1) page popularity over the served groups: group i has rank i, so the
/// size at each rank is the same for every seed (see inputs.cc).
class Popularity {
 public:
  explicit Popularity(size_t n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(std::mt19937_64* rng) const {
    double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrivals at `qps` for `duration` seconds. Two client
/// populations share the line protocol: one connection carries the hottest
/// groups (the top half of what the cache holds), the other the rest of
/// the Zipf tail; inline checks go over HTTP. Replies on one connection
/// leave in request order, so mixing hot and cold groups on one
/// connection would time hits mostly by the misses queued ahead of them.
struct Schedule {
  std::vector<Planned> line[2];
  std::vector<Planned> http;
};

Schedule MakeSchedule(const RunContext& ctx, const Popularity& pop, double qps,
                      double duration, uint64_t salt) {
  Schedule s;
  std::mt19937_64 rng(Mix(ctx.seed, salt));
  std::exponential_distribution<double> gap(qps);
  std::uniform_real_distribution<double> u(0, 1);
  size_t inline_n = ctx.inputs.inline_groups.size();
  size_t hot = ctx.spec.cache_capacity / 2;
  for (double t = gap(rng); t < duration; t += gap(rng)) {
    if (inline_n > 0 && u(rng) < kHttpShare) {
      s.http.push_back({t, static_cast<uint32_t>(rng() % inline_n)});
    } else {
      size_t g = pop.Sample(&rng);
      s.line[g < hot ? 0 : 1].push_back({t, static_cast<uint32_t>(g)});
    }
  }
  return s;
}

struct WindowResult {
  std::vector<Outcome> line;  ///< both line connections
  std::vector<Outcome> http;
};

/// Runs one open-loop window; `during` runs on the calling thread until the
/// window's schedule ends (reloads, stats sampling).
template <typename During>
WindowResult RunWindow(int port, unsigned nproc, const RequestTable& table,
                       const Schedule& s, double duration, double drain_s,
                       During during, size_t max_inflight = 0) {
  double t0 = NowS() + 0.02;
  double hard_end = t0 + duration + drain_s;
  std::vector<Outcome> out[3];
  // One thread per connection: a connection never waits for another's
  // reply parsing.
  std::vector<Conn> conns[3];
  for (int i = 0; i < 3; ++i) {
    conns[i].resize(1);
    Conn& c = conns[i][0];
    c.http = i == 2;
    c.table = i == 2 ? &table.http : &table.line;
    c.plan = i == 2 ? &s.http : &s.line[i];
    c.out = &out[i];
    c.max_inflight = max_inflight;
  }
  std::vector<std::thread> threads;
  for (auto& c : conns) {
    threads.emplace_back(DriveConnections, port, &c, t0, hard_end, nproc);
  }
  during(t0, t0 + duration);
  for (std::thread& t : threads) t.join();
  WindowResult r;
  r.line = std::move(out[0]);
  r.line.insert(r.line.end(), out[1].begin(), out[1].end());
  r.http = std::move(out[2]);
  return r;
}

// ---- expected verdicts ----------------------------------------------------

struct Expectations {
  std::vector<uint64_t> base;           ///< per served group
  std::vector<uint64_t> inline_groups;  ///< per inline group
  /// Per delta batch: served group index -> expected hash after the batch.
  std::vector<std::map<size_t, uint64_t>> batches;
  std::vector<std::vector<dime::DeltaRecord>> records;
  uint64_t initial_epoch = 0;
  std::vector<uint64_t> batch_epoch;  ///< reload reply epoch, 0 = failed

  /// Expected hash of a named check at `epoch`; false when the epoch is
  /// not one the runner produced.
  bool Named(size_t g, uint64_t epoch, uint64_t* out) const {
    if (epoch == initial_epoch) {
      *out = base[g];
      return true;
    }
    for (size_t k = 0; k < batch_epoch.size(); ++k) {
      if (batch_epoch[k] == 0) continue;
      if (epoch == batch_epoch[k]) {
        auto it = batches[k].find(g);
        *out = it == batches[k].end() ? base[g] : it->second;
        return true;
      }
      if (epoch + 1 == batch_epoch[k]) {  // snapshot re-read, pre-merge
        *out = base[g];
        return true;
      }
    }
    return false;
  }
};

uint64_t ExpectedHash(const Group& g, const RuleSet& rules) {
  return HashIds(FlaggedIds(g, ReferenceVerdict(g, rules)));
}

Expectations ComputeExpectations(const RunContext& ctx, size_t num_batches) {
  Expectations e;
  for (const Group& g : ctx.inputs.served) {
    e.base.push_back(ExpectedHash(g, ctx.rules));
  }
  for (const Group& g : ctx.inputs.inline_groups) {
    e.inline_groups.push_back(ExpectedHash(g, ctx.rules));
  }
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < ctx.inputs.served.size(); ++i) {
    index[ctx.inputs.served[i].name] = i;
  }
  for (size_t k = 0; k < num_batches; ++k) {
    e.records.push_back(MakeDeltaBatch(ctx.spec, ctx.inputs, ctx.seed, k));
    std::map<size_t, uint64_t> changed;
    for (const dime::DeltaRecord& r : e.records.back()) {
      size_t g = index.at(r.group);
      if (changed.count(g) != 0) continue;
      Group copy = ctx.inputs.served[g];
      dime::Status st = dime::ApplyDeltaRecords(e.records.back(), &copy);
      if (!st.ok()) {
        ctx.tally->Invalid("delta batch does not apply: " + st.ToString());
      }
      changed[g] = ExpectedHash(copy, ctx.rules);
    }
    e.batches.push_back(std::move(changed));
  }
  return e;
}

/// Checks every outcome of a window against the expectations. Wrong
/// verdicts always fail the run; errors and timeouts fail it only when
/// `count_errors` (at the nominal rate, not on overload ladder rungs).
/// Returns the number of outcomes that were not correct replies.
size_t Verify(const RunContext& ctx, const Expectations& e,
              const WindowResult& w, bool count_errors, const char* phase) {
  size_t bad = 0;
  auto check = [&](const Outcome& o, bool is_inline) {
    if (!o.ok) {
      ++bad;
      if (count_errors) ctx.tally->Fail(std::string(phase) + ": " + o.error);
      return;
    }
    uint64_t want = 0;
    bool known = is_inline ? (want = e.inline_groups[o.item], true)
                           : e.Named(o.item, o.epoch, &want);
    if (!known || want != o.flagged) {
      ++bad;
      ctx.tally->Fail(std::string(phase) + ": wrong verdict for " +
                      (is_inline ? "inline " : "group ") +
                      std::to_string(o.item) + " at epoch " +
                      std::to_string(o.epoch));
      return;
    }
    if (count_errors) ctx.tally->Ok();
  };
  for (const Outcome& o : w.line) check(o, false);
  for (const Outcome& o : w.http) check(o, true);
  return bad;
}

/// Latencies (ms, from the scheduled send time) of the correct replies with
/// `cached` == 1 / 0 (-1: all), optionally only those due in [from, to).
std::vector<double> LatenciesMs(const WindowResult& w, int cached,
                                double from = 0, double to = 1e300) {
  std::vector<double> v;
  for (const auto* list : {&w.line, &w.http}) {
    for (const Outcome& o : *list) {
      if (!o.ok || o.due < from || o.due >= to) continue;
      if (cached >= 0 && o.cached != (cached == 1)) continue;
      v.push_back((o.done - o.due) * 1e3);
    }
  }
  return v;
}

/// p99 of each quarter of the window [t0, t1), then the median of the four:
/// a stall of the shared host in one quarter (a co-tenant, a steal burst)
/// moves it far less than one pooled p99, while every quarter still holds
/// hundreds of samples.
double QuarteredP99Ms(const WindowResult& w, int cached, double t0,
                      double t1) {
  std::vector<double> per_quarter;
  for (int i = 0; i < 4; ++i) {
    std::vector<double> lat = LatenciesMs(w, cached, t0 + (t1 - t0) * i / 4,
                                          t0 + (t1 - t0) * (i + 1) / 4);
    if (!lat.empty()) per_quarter.push_back(Quantile(lat, 0.99));
  }
  return Median(per_quarter);
}

std::vector<double> LatenessMs(const WindowResult& w) {
  std::vector<double> v;
  for (const auto* list : {&w.line, &w.http}) {
    for (const Outcome& o : *list) {
      if (o.sent > 0) v.push_back((o.sent - o.due) * 1e3);
    }
  }
  return v;
}

struct StatsSample {
  double cache_hits = 0, cache_misses = 0, rejected = 0, queue_depth = 0,
         epoch = 0;
};

bool ReadStats(ControlConn* control, StatsSample* s) {
  std::string reply = control->Call(RequestLine(WireRequest::Type::kStats));
  dime::StatusOr<dime::JsonObject> o = dime::ParseJsonObjectLine(reply);
  if (!o.ok() || JsonStringField(*o, "status") != "OK") return false;
  s->cache_hits = JsonNumberField(*o, "cache_hits");
  s->cache_misses = JsonNumberField(*o, "cache_misses");
  s->rejected = JsonNumberField(*o, "rejected");
  s->queue_depth = JsonNumberField(*o, "queue_depth");
  s->epoch = JsonNumberField(*o, "epoch");
  return true;
}

void WaitQueueEmpty(ControlConn* control, double limit_s) {
  double end = NowS() + limit_s;
  StatsSample s;
  while (NowS() < end && ReadStats(control, &s) && s.queue_depth > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void SleepUntil(double t) {
  double d = t - NowS();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

RequestTable MakeRequestTable(const RunContext& ctx) {
  RequestTable t;
  for (const Group& g : ctx.inputs.served) {
    t.line.push_back(RequestLine(WireRequest::Type::kCheck, g.name));
    t.sweep.push_back(RequestLine(WireRequest::Type::kCheck, g.name, true));
  }
  for (const Group& g : ctx.inputs.inline_groups) {
    WireRequest r;
    r.type = WireRequest::Type::kCheck;
    r.group_tsv = dime::GroupToTsv(g);
    std::string body = dime::SerializeRequest(r);
    t.http.push_back("POST /v1/check HTTP/1.1\r\nHost: perfbench\r\n"
                     "Content-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  return t;
}

// ---- phases -----------------------------------------------------------------

/// serve-live's batch verdict: every served group checked once with the
/// cache bypassed, pipelined over the line connections.
void RunSweep(RunContext& ctx, ServerProcess* server, const RequestTable& table,
              const Expectations& e) {
  std::vector<double> walls, cpus;
  double end = NowS() + ctx.spec.batch_share * ctx.seconds;
  for (int rep = 0; rep < 60 && (rep < 5 || NowS() < end); ++rep) {
    Schedule s;
    for (size_t g = 0; g < ctx.inputs.served.size(); ++g) {
      s.line[g % 2].push_back({0.0, static_cast<uint32_t>(g)});
    }
    RequestTable sweep_table = table;
    sweep_table.line = table.sweep;
    double cpu0 = PidCpuS(server->pid());
    // A batch client keeps a window of requests in flight per connection,
    // below the server's per-connection pipeline cap.
    WindowResult w = RunWindow(server->port(), ctx.threads, sweep_table, s,
                               0.0, 60.0, [](double, double) {}, 16);
    double cpu1 = PidCpuS(server->pid());
    double first_due = w.line.empty() ? 0 : w.line.front().due;
    double last = first_due;
    for (const Outcome& o : w.line) last = std::max(last, o.done);
    Verify(ctx, e, w, /*count_errors=*/true, "sweep");
    walls.push_back(last - first_due);
    cpus.push_back(cpu1 - cpu0);
  }
  ctx.metrics->Set("verdict_s", Median(walls), "s");
  ctx.metrics->Set("cpu_s", Median(cpus), "s");
  // The server's peak over start-up and the sweeps, before any reload
  // builds a second epoch beside the first.
  ctx.metrics->Set("peak_rss_mb", PeakRssMb(server->pid()), "MB");
}

/// Highest rung of a fixed geometric rate ladder whose window meets the SLO
/// with every reply correct and the generator on time (latency is timed
/// from the schedule, so a growing backlog fails the rung). The ladder has
/// 64 rungs from 0.4x to 2.5x the workload's anchor rate; a binary search
/// (at most seven probes) picks the rung, so every run spends about the
/// same time on it.
double RunLadder(RunContext& ctx, ServerProcess* server,
                 const RequestTable& table, const Expectations& e,
                 const Popularity& pop, ControlConn* control) {
  const int rungs = 64;
  const double window = ctx.smoke ? 0.3 : 0.6;
  auto rate = [&](int k) {
    return ctx.spec.ladder_anchor_qps * 0.4 *
           std::pow(2.5 / 0.4, static_cast<double>(k) / (rungs - 1));
  };
  int lo = -1, hi = rungs;  // rung lo passed (-1: none yet), rung hi failed
  for (int probe = 0; hi - lo > 1; ++probe) {
    int k = (lo + hi) / 2;
    Schedule s = MakeSchedule(ctx, pop, rate(k), window, 700 + probe);
    WindowResult w = RunWindow(server->port(), ctx.threads, table, s, window,
                               std::max(1.0, 4 * ctx.spec.slo_ms / 1e3),
                               [](double, double) {});
    size_t bad = Verify(ctx, e, w, /*count_errors=*/false, "ladder");
    std::vector<double> lat = LatenciesMs(w, -1);
    bool ok = bad == 0 && !lat.empty() &&
              Quantile(lat, 0.99) <= ctx.spec.slo_ms &&
              Quantile(LatenessMs(w), 0.99) <= kLatenessShare * ctx.spec.slo_ms;
    std::fprintf(stderr, "ladder: %.0f req/s -> %s (p99 %.1f ms, %zu bad)\n",
                 rate(k), ok ? "pass" : "fail",
                 lat.empty() ? 0.0 : Quantile(lat, 0.99), bad);
    if (ok) {
      lo = k;
    } else {
      hi = k;
      WaitQueueEmpty(control, 5.0);
    }
  }
  return lo < 0 ? 0.0 : rate(lo);
}

/// In-process probes of the serving and store layers on the same snapshot.
void ServeLayerProbes(RunContext& ctx, const RequestTable& table,
                      const Expectations& e) {
  MetricTable& m = *ctx.metrics;
  Tracer& tr = *ctx.tracer;
  auto load = [&]() {
    Tracer::Scope span(&tr, "snapshot.load");
    return dime::LoadSnapshot(ctx.inputs.snapshot_path);
  };
  for (int i = 0; i < 3; ++i) {
    dime::StatusOr<dime::LoadedSnapshot> s = load();
    if (!s.ok()) ctx.tally->Invalid("snapshot load: " + s.status().ToString());
  }
  m.Set("snapshot.load_s", Median(tr.Durations("snapshot.load")), "s");
  struct stat st{};
  ::stat(ctx.inputs.snapshot_path.c_str(), &st);
  m.Set("snapshot.bytes", static_cast<double>(st.st_size), "bytes");

  dime::StatusOr<dime::LoadedSnapshot> loaded =
      dime::LoadSnapshot(ctx.inputs.snapshot_path);
  if (!loaded.ok()) return;
  dime::ServiceOptions options;
  options.num_workers = ctx.threads;
  options.cache_capacity = ctx.spec.cache_capacity;
  dime::DimeService service(dime::CorpusFromSnapshot(std::move(loaded).value()),
                            options);
  std::vector<std::shared_ptr<const dime::DimeResult>> results;
  for (size_t g = 0; g < ctx.inputs.served.size(); ++g) {
    dime::CheckRequest req;
    req.group_name = ctx.inputs.served[g].name;
    // The first check misses and fills the cache; the second hits.
    for (bool hit : {false, true}) {
      const char* kind = hit ? "service.hit" : "service.miss";
      Tracer::Scope span(&tr, kind, g + 1);
      dime::StatusOr<dime::CheckReply> r = service.Check(req);
      if (!r.ok()) {
        ctx.tally->Invalid(std::string(kind) + ": " + r.status().ToString());
        continue;
      }
      if (hit) results.push_back(r->result);
      if (HashIds(FlaggedIds(*r->group, *r->result)) != e.base[g]) {
        ctx.tally->Fail("in-process service: wrong verdict for group " +
                        std::to_string(g));
      }
    }
  }
  m.Set("service.miss_us", Median(tr.Durations("service.miss")) * 1e6, "us");
  m.Set("service.hit_us", Median(tr.Durations("service.hit")) * 1e6, "us");

  // Codec layers, timed over the run's own request and reply bytes.
  const int iters = 20;
  double t0 = NowS();
  size_t parsed = 0;
  for (int it = 0; it < iters; ++it) {
    for (const std::string& line : table.line) {
      dime::StatusOr<WireRequest> r = dime::ParseRequestLine(line);
      parsed += r.ok() ? 1 : 0;
    }
  }
  m.Set("wire.parse_us", (NowS() - t0) * 1e6 / std::max<size_t>(parsed, 1),
        "us");
  t0 = NowS();
  size_t replies = 0;
  for (int it = 0; it < iters; ++it) {
    for (size_t g = 0; g < results.size(); ++g) {
      dime::CheckReply reply;
      reply.result = results[g];
      replies += dime::SerializeCheckResponse("", ctx.inputs.served[g], reply)
                     .size() > 0;
    }
  }
  m.Set("wire.reply_us", (NowS() - t0) * 1e6 / std::max<size_t>(replies, 1),
        "us");
  t0 = NowS();
  size_t http_parsed = 0;
  for (int it = 0; it < iters; ++it) {
    for (const std::string& req : table.http) {
      dime::HttpRequest out;
      http_parsed += dime::ParseHttpRequest(req, dime::HttpLimits(), &out)
                         .outcome == dime::HttpParseOutcome::kOk;
    }
  }
  m.Set("http.parse_us",
        (NowS() - t0) * 1e6 / std::max<size_t>(http_parsed, 1), "us");

  // Store: a reload of the same snapshot plus a merge of one delta batch.
  std::string log = ctx.work_dir + "/probe.dlog";
  for (int i = 0; i < 3 && i < static_cast<int>(e.records.size()); ++i) {
    dime::StatusOr<dime::DeltaLogWriter> writer =
        dime::DeltaLogWriter::Open(log);
    if (!writer.ok()) break;
    for (const dime::DeltaRecord& r : e.records[i]) {
      if (!writer->Append(r).ok()) ctx.tally->Invalid("probe delta append");
    }
    Tracer::Scope span(&tr, "service.reload");
    if (!service.ReloadFromSnapshot(ctx.inputs.snapshot_path).ok() ||
        !service.ApplyDeltaLog(log, /*rotate_applied=*/true).ok()) {
      ctx.tally->Invalid("in-process reload failed");
    }
  }
  m.Set("service.reload_ms", Median(tr.Durations("service.reload")) * 1e3,
        "ms");
  service.Shutdown();
}

}  // namespace

// ---- server process ---------------------------------------------------

std::string ServerProcess::Start(const RunContext& ctx) {
  Stop();
  std::string out_path = ctx.work_dir + "/server.out";
  std::string err_path = ctx.work_dir + "/server.err";
  std::remove(out_path.c_str());
  std::vector<std::string> args = {
      ctx.server_bin,        "--snapshot",
      ctx.inputs.snapshot_path, "--delta-log",
      ctx.inputs.delta_log_path, "--delta-threshold-bytes",
      "1099511627776",       "--port",
      "0",                   "--workers",
      std::to_string(std::max(1u, ctx.threads - 1)), "--cache-cap",
      std::to_string(ctx.spec.cache_capacity)};
  // Everything the child needs is built before fork: it only makes system
  // calls until exec.
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) return "fork failed";
  if (pid_ == 0) {
    int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    ::dup2(out, 1);
    ::dup2(err, 2);
    if (ctx.threads >= 2) PinToCores(0, ctx.threads - 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  double deadline = NowS() + 60;
  const std::string marker = "dime_server listening on ";
  while (NowS() < deadline) {
    std::ifstream in(out_path);
    std::string line;
    while (std::getline(in, line)) {
      size_t at = line.find(marker);
      size_t colon = line.rfind(':');
      if (at != std::string::npos && colon != std::string::npos) {
        port_ = std::atoi(line.c_str() + colon + 1);
        return "";
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return "dime_server exited before listening (see " + err_path + ")";
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Stop();
  return "dime_server did not start listening within 60 s";
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  if (port_ > 0) {
    ControlConn control(port_);
    control.Call(RequestLine(WireRequest::Type::kShutdown));
  }
  for (int i = 0; i < 1000; ++i) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      port_ = 0;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  port_ = 0;
}

// ---- the serving phase ------------------------------------------------

void RunServePhase(RunContext& ctx, ServerProcess* server) {
  MetricTable& m = *ctx.metrics;
  // A read-only window for the check latencies, then a live window with
  // delta appends and reloads; traced runs add the rate ladder. Keeping the
  // writes out of the latency window keeps reload storms (cache cleared,
  // every group re-prepared) from deciding the percentiles run by run; the
  // live window still checks every reply against its epoch.
  const double read_s = ctx.seconds * ctx.spec.read_share;
  const double live_s = ctx.seconds * ctx.spec.live_share;
  size_t num_batches =
      static_cast<size_t>(live_s / ctx.spec.reload_every_s) + 4;
  Expectations e = ComputeExpectations(ctx, num_batches);
  RequestTable table = MakeRequestTable(ctx);
  Popularity pop(ctx.inputs.served.size());
  ControlConn control(server->port());
  StatsSample before;
  if (!control.ok() || !ReadStats(&control, &before)) {
    ctx.tally->Fail("stats request failed");
    return;
  }
  e.initial_epoch = static_cast<uint64_t>(before.epoch);

  if (ctx.spec.batch_through_server) RunSweep(ctx, server, table, e);

  // Warm the cache the way steady traffic would.
  Schedule warm = MakeSchedule(ctx, pop, ctx.spec.nominal_qps, 1.0, 500);
  Verify(ctx, e,
         RunWindow(server->port(), ctx.threads, table, warm, 1.0, 5.0,
                   [](double, double) {}),
         /*count_errors=*/true, "warm-up");

  // Read window at the nominal rate.
  if (!ReadStats(&control, &before)) ctx.tally->Fail("stats request failed");
  double depth_max = 0;
  auto sample_stats = [&](double t_end) {
    while (NowS() < t_end) {
      StatsSample s;
      if (ReadStats(&control, &s)) {
        depth_max = std::max(depth_max, s.queue_depth);
      }
      SleepUntil(std::min(t_end, NowS() + 0.1));
    }
  };
  double cpu0 = PidCpuS(server->pid());
  double read_t0 = 0;
  WindowResult w = RunWindow(
      server->port(), ctx.threads, table,
      MakeSchedule(ctx, pop, ctx.spec.nominal_qps, read_s, 600), read_s, 10.0,
      [&](double t0, double t_end) {
        read_t0 = t0;
        sample_stats(t_end);
      });
  double cpu1 = PidCpuS(server->pid());
  StatsSample after;
  if (!ReadStats(&control, &after)) ctx.tally->Fail("stats request failed");
  Verify(ctx, e, w, /*count_errors=*/true, "nominal");

  std::vector<double> hits = LatenciesMs(w, 1);
  std::vector<double> misses = LatenciesMs(w, 0);
  double completed = static_cast<double>(hits.size() + misses.size());
  m.Set("hit_p50_ms", Quantile(hits, 0.5), "ms");
  m.Set("hit_p99_ms", QuarteredP99Ms(w, 1, read_t0, read_t0 + read_s), "ms");
  m.Set("miss_p50_ms", Quantile(misses, 0.5), "ms");
  m.Set("miss_p99_ms", QuarteredP99Ms(w, 0, read_t0, read_t0 + read_s),
        "ms");
  m.Set("cpu_ms_per_check",
        (cpu1 - cpu0) * 1e3 / std::max(completed, 1.0), "ms");
  double late_p99 = Quantile(LatenessMs(w), 0.99);
  m.Set("gen.lateness_ms", late_p99, "ms");
  if (late_p99 > kLatenessShare * ctx.spec.slo_ms) {
    ctx.tally->Invalid("load generator ran late (p99 " +
                       std::to_string(late_p99) + " ms)");
  }
  if (hits.size() < 1000 || misses.size() < 1000) {
    std::fprintf(stderr, "note: p99 from few samples (hits=%zu misses=%zu)\n",
                 hits.size(), misses.size());
  }
  double lookups = (after.cache_hits - before.cache_hits) +
                   (after.cache_misses - before.cache_misses);
  m.Set("cache.hit_ratio",
        lookups > 0 ? (after.cache_hits - before.cache_hits) / lookups : 0,
        "ratio");
  m.Set("queue.rejected", after.rejected - before.rejected, "count");
  m.Set("queue.depth_max", depth_max, "count");

  // Live window: the same traffic plus a delta batch and a reload every
  // reload_every_s.
  dime::StatusOr<dime::DeltaLogWriter> writer =
      dime::DeltaLogWriter::Open(ctx.inputs.delta_log_path);
  if (!writer.ok()) {
    ctx.tally->Fail("delta log open: " + writer.status().ToString());
    return;
  }
  std::vector<double> reload_ms, append_us;
  WindowResult live = RunWindow(
      server->port(), ctx.threads, table,
      MakeSchedule(ctx, pop, ctx.spec.nominal_qps, live_s, 650), live_s, 10.0,
      [&](double t0, double t_end) {
        double next = t0 + 0.1;
        for (size_t k = 0; k < e.records.size() && next < t_end; ++k) {
          SleepUntil(next);
          double ta = NowS();
          for (const dime::DeltaRecord& r : e.records[k]) {
            double a0 = NowS();
            dime::Status st = writer->Append(r);
            append_us.push_back((NowS() - a0) * 1e6);
            if (!st.ok()) ctx.tally->Fail("delta append: " + st.ToString());
          }
          std::string reply =
              control.Call(RequestLine(WireRequest::Type::kReload));
          double tb = NowS();
          dime::StatusOr<dime::JsonObject> o = dime::ParseJsonObjectLine(reply);
          uint64_t epoch = 0;
          if (o.ok() && JsonStringField(*o, "status") == "OK" &&
              JsonNumberField(*o, "delta_records") ==
                  static_cast<double>(e.records[k].size())) {
            epoch = static_cast<uint64_t>(JsonNumberField(*o, "epoch"));
            reload_ms.push_back((tb - ta) * 1e3);
            ctx.tally->Ok();
          } else {
            ctx.tally->Fail("reload failed: " + reply);
          }
          e.batch_epoch.push_back(epoch);
          next += ctx.spec.reload_every_s;
        }
      });
  Verify(ctx, e, live, /*count_errors=*/true, "live");
  m.Set("reload_p50_ms", Median(reload_ms), "ms");
  m.Set("delta.append_us", Median(append_us), "us");

  if (ctx.trace) {
    // The live window's last reload left the cache cold: refill it at the
    // nominal rate before the ladder's first rung.
    Verify(ctx, e,
           RunWindow(server->port(), ctx.threads, table,
                     MakeSchedule(ctx, pop, ctx.spec.nominal_qps, 0.5, 660),
                     0.5, 5.0, [](double, double) {}),
           /*count_errors=*/true, "ladder warm-up");
    m.Set("max_qps_at_slo",
          RunLadder(ctx, server, table, e, pop, &control), "req/s");
    ServeLayerProbes(ctx, table, e);
    m.Set("transport.hit_overhead_us",
          Quantile(hits, 0.5) * 1e3 - m.Get("service.hit_us"), "us");
  }
  std::fprintf(stderr,
               "serve: %zu hits, %zu misses, %zu reloads, hit ratio %.3f\n",
               hits.size(), misses.size(), reload_ms.size(),
               lookups > 0 ? (after.cache_hits - before.cache_hits) / lookups
                           : 0.0);
}

}  // namespace perfbench
