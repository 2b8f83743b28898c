// The load generator for `topk` and `score`: one process, kThreads threads,
// one keep-alive connection per thread.
//
//  * Open loop: request i is due at start + i / rate, whatever the server
//    is doing. Thread t owns requests i = t (mod kThreads) and pipelines
//    them on its connection, so a slow answer never delays a later send;
//    latency is timed from the due time and the send lag is recorded.
//  * Closed loop: each thread keeps exactly one request in flight.
//
// The two phases alternate over kRounds rounds, each round an equal share
// of both, so every figure samples the whole run: the speed of a shared
// host drifts within a run. Every request is logged (requests.log) with
// its timing, status and the answer fields the checks need; every Nth
// answer body is kept verbatim (samples.log) for the brute-force checks.
// Before each phase it prints "phase open|closed <round>" and waits for a
// line on stdin, so run.py can mark the server's CPU clock at the
// boundary; "phase end" follows the last one.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <iostream>
#include <thread>

#include "bench_util.h"
#include "obs/http_client.h"
#include "obs/json.h"
#include "subcommands.h"
#include "util/io.h"
#include "util/string_util.h"
#include "workload_inputs.h"

namespace perfbench {

using inf2vec::Result;
using inf2vec::Status;
using inf2vec::obs::JsonValue;

namespace {

constexpr uint32_t kThreads = 4;
constexpr uint32_t kRounds = 3;
constexpr int kNice = -10;
/// The server's request-head limit (StatsServerOptions default).
constexpr size_t kMaxHeadBytes = 8192;
/// Answer timeout. A closed-loop request fails when it is still
/// unanswered this long after it was sent; an open-loop thread fails the
/// answers it still waits for this long after its last send.
constexpr uint64_t kTimeoutNs = 10'000'000'000ULL;
/// Closed-loop request ids start here, above every open-loop id.
constexpr uint64_t kClosedIdBase = 1ULL << 40;

enum Phase : int { kOpen = 0, kClosed = 1 };

struct Record {
  uint64_t id = 0;    // X-Request-Id, unique within the run.
  uint32_t line = 0;  // Index into the request file.
  Phase phase = kOpen;
  uint64_t due_ns = 0;   // Open loop: schedule; closed loop: send time.
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  int status = 0;  // 0 = transport failure.
  std::string body;
};

/// One parsed request line.
struct Query {
  std::string target;  // GET target, or "/score" for POST.
  std::string body;    // Non-empty for POST.
};

Result<Query> BuildQuery(const std::string& kind, const std::string& line) {
  Query query;
  if (kind == "topk") {
    query.target = "/topk?seeds=" + line + "&k=" + std::to_string(kTopK);
    return query;
  }
  const size_t tab = line.find('\t');
  const size_t tab2 = line.find('\t', tab + 1);
  if (tab == std::string::npos) return Status::InvalidArgument("bad line");
  const std::string candidate = line.substr(0, tab);
  const std::string seeds = line.substr(tab + 1, tab2 - tab - 1);
  query.target = "/score?candidate=" + candidate + "&seeds=" + seeds;
  // A case whose GET head would pass the server's limit goes as a
  // one-item POST batch; no case is dropped. The id header is at most
  // 20 digits.
  const std::string probe = inf2vec::obs::HttpClient::FormatRequest(
      "GET", query.target, "127.0.0.1", "",
      {"X-Request-Id: 00000000000000000000"});
  if (probe.size() > kMaxHeadBytes) {
    query.target = "/score";
    query.body = "{\"queries\":[{\"candidate\":" + candidate + ",\"seeds\":[" +
                 seeds + "]}]}";
  }
  return query;
}

std::string Wire(const Query& query, uint64_t id) {
  return inf2vec::obs::HttpClient::FormatRequest(
      query.body.empty() ? "GET" : "POST", query.target, "127.0.0.1",
      query.body, {"X-Request-Id: " + std::to_string(id)});
}

/// A pipelining HTTP/1.1 client connection over a non-blocking socket.
class Conn {
 public:
  explicit Conn(uint16_t port) : port_(port) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Open() {
    Close();
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    out_.clear();
    in_.clear();
    return true;
  }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }
  bool open() const { return fd_ >= 0; }

  void Queue(const std::string& bytes) { out_ += bytes; }

  /// Flushes pending output, then waits until `deadline_ns` at most for
  /// the socket and reads what arrived. False on a transport failure.
  bool Pump(uint64_t deadline_ns) {
    if (!Flush()) return false;
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
               0};
    const uint64_t now = MonoNs();
    const uint64_t wait = deadline_ns > now ? deadline_ns - now : 0;
    timespec ts{static_cast<time_t>(wait / 1'000'000'000ULL),
                static_cast<long>(wait % 1'000'000'000ULL)};
    const int ready = ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    if (pfd.revents & (POLLERR | POLLNVAL)) return false;
    if (pfd.revents & POLLOUT) {
      if (!Flush()) return false;
    }
    if (pfd.revents & (POLLIN | POLLHUP)) {
      char buf[65536];
      const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) return errno == EAGAIN || errno == EINTR;
      in_.append(buf, static_cast<size_t>(n));
    }
    return true;
  }

  /// Pops one complete response off the input buffer, if there is one.
  bool NextResponse(int* status, std::string* body) {
    const size_t head_end = in_.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    size_t length = 0;
    const std::string head = in_.substr(0, head_end);
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
    const size_t cl = lower.find("\r\ncontent-length:");
    if (cl != std::string::npos) {
      length = std::strtoull(head.c_str() + cl + 17, nullptr, 10);
    }
    if (in_.size() < head_end + 4 + length) return false;
    *status = head.size() > 12 ? std::atoi(head.c_str() + 9) : 0;
    *body = in_.substr(head_end + 4, length);
    in_.erase(0, head_end + 4 + length);
    return true;
  }

 private:
  bool Flush() {
    while (!out_.empty()) {
      const ssize_t n = send(fd_, out_.data(), out_.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EINTR;
      out_.erase(0, static_cast<size_t>(n));
    }
    return true;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string out_;
  std::string in_;
};

struct Shared {
  uint16_t port = 0;
  std::vector<Query> queries;
};

/// Open-loop worker: requests begin + t, begin + t + kThreads, ... of the
/// schedule, up to `count`.
void OpenLoopThread(const Shared& shared, uint32_t t, uint64_t start_ns,
                    size_t begin, size_t count, std::vector<Record>* records) {
  Conn conn(shared.port);
  conn.Open();
  std::deque<size_t> inflight;  // Indices into *records, in send order.
  size_t next = begin + t;
  uint64_t last_send = start_ns;
  const auto fail_inflight = [&]() {
    for (size_t i : inflight) (*records)[i].done_ns = MonoNs();
    inflight.clear();
    conn.Open();
  };
  while (next < count || !inflight.empty()) {
    const uint64_t now = MonoNs();
    if (next < count) {
      Record& rec = (*records)[next];
      if (now >= rec.due_ns) {
        if (!conn.open()) conn.Open();
        rec.sent_ns = now;
        conn.Queue(Wire(shared.queries[rec.line], rec.id));
        inflight.push_back(next);
        last_send = now;
        next += kThreads;
        continue;
      }
    } else if (now > last_send + kTimeoutNs) {
      for (size_t i : inflight) (*records)[i].done_ns = now;
      break;
    }
    const uint64_t wake = next < count ? (*records)[next].due_ns
                                       : now + 1'000'000;  // 1 ms.
    if (!conn.Pump(wake)) {
      fail_inflight();
      continue;
    }
    int status = 0;
    std::string body;
    while (!inflight.empty() && conn.NextResponse(&status, &body)) {
      Record& rec = (*records)[inflight.front()];
      inflight.pop_front();
      rec.done_ns = MonoNs();
      rec.status = status;
      rec.body = std::move(body);
    }
  }
}

/// Closed-loop worker: one request in flight until `stop_ns`.
void ClosedLoopThread(const Shared& shared, std::atomic<size_t>* cursor,
                      size_t first_line, uint64_t stop_ns,
                      std::vector<Record>* records) {
  Conn conn(shared.port);
  conn.Open();
  while (MonoNs() < stop_ns) {
    const size_t n = cursor->fetch_add(1);
    Record rec;
    rec.phase = kClosed;
    rec.line = static_cast<uint32_t>((first_line + n) % shared.queries.size());
    if (!conn.open()) conn.Open();
    rec.id = kClosedIdBase + n;
    rec.due_ns = rec.sent_ns = MonoNs();
    conn.Queue(Wire(shared.queries[rec.line], rec.id));
    int status = 0;
    std::string body;
    bool alive = true;
    while (alive && !conn.NextResponse(&status, &body)) {
      alive = MonoNs() < rec.sent_ns + kTimeoutNs &&
              conn.Pump(std::min<uint64_t>(rec.sent_ns + kTimeoutNs,
                                           MonoNs() + 100'000'000ULL));
    }
    rec.done_ns = MonoNs();
    if (alive) {
      rec.status = status;
      rec.body = std::move(body);
    } else {
      conn.Open();
    }
    records->push_back(std::move(rec));
  }
}

/// Answer fields run.py reads back: generation, coalesced, scanned. The
/// raw body goes to the samples file for the brute-force checks.
std::string AnswerFields(const Record& rec) {
  uint64_t generation = 0;
  bool coalesced = false;
  uint64_t scanned = 0;
  Result<JsonValue> parsed = inf2vec::obs::ParseJson(rec.body);
  if (rec.status == 200 && parsed.ok()) {
    const JsonValue& body = parsed.value();
    if (const JsonValue* g = body.Find("generation")) generation = g->AsInt();
    if (const JsonValue* c = body.Find("coalesced")) coalesced = c->AsBool();
    if (const JsonValue* s = body.Find("scanned")) scanned = s->AsInt();
  }
  return inf2vec::StrFormat("%llu\t%d\t%llu",
                            static_cast<unsigned long long>(generation),
                            coalesced ? 1 : 0,
                            static_cast<unsigned long long>(scanned));
}

void WaitForGo(const std::string& phase) {
  std::printf("phase %s\n", phase.c_str());
  std::fflush(stdout);
  std::string line;
  std::getline(std::cin, line);
}

}  // namespace

Status RunLoadgen(const inf2vec::FlagParser& flags) {
  const std::string kind = flags.GetString("kind", "");
  if (kind != "topk" && kind != "score") {
    return Status::InvalidArgument("--kind must be topk or score");
  }
  Result<int64_t> port = flags.GetInt("port", 0);
  Result<double> rate = flags.GetDouble("rate", 0.0);
  Result<double> open_s = flags.GetDouble("open-seconds", 0.0);
  Result<double> closed_s = flags.GetDouble("closed-seconds", 0.0);
  Result<int64_t> sample_every = flags.GetInt("sample-every", 100);
  for (const Status& s : {port.status(), rate.status(), open_s.status(),
                          closed_s.status(), sample_every.status()}) {
    INF2VEC_RETURN_IF_ERROR(s);
  }
  if (rate.value() <= 0 || open_s.value() <= 0 || closed_s.value() <= 0 ||
      sample_every.value() <= 0) {
    return Status::InvalidArgument(
        "--rate, --open-seconds, --closed-seconds and --sample-every must "
        "be positive");
  }
  const std::string out_dir = flags.GetString("out-dir", ".");

  std::vector<std::string> lines;
  INF2VEC_RETURN_IF_ERROR(
      inf2vec::ReadLines(flags.GetString("requests", ""), &lines));
  if (lines.empty()) return Status::InvalidArgument("no requests");
  Shared shared;
  shared.port = static_cast<uint16_t>(port.value());
  for (const std::string& line : lines) {
    Result<Query> query = BuildQuery(kind, line);
    INF2VEC_RETURN_IF_ERROR(query.status());
    shared.queries.push_back(std::move(query).value());
  }

  // The generator shares the cores with the server. A higher scheduling
  // priority (where the host allows it) lets its threads preempt busy
  // workers when a send falls due, so the schedule holds at load.
  const bool prioritized = setpriority(PRIO_PROCESS, 0, kNice) == 0;

  const double interval_ns = 1e9 / rate.value();
  const size_t per_round =
      static_cast<size_t>(open_s.value() / kRounds * rate.value());
  const size_t open_count = per_round * kRounds;
  std::vector<Record> open(open_count);
  for (size_t i = 0; i < open_count; ++i) {
    open[i].id = i + 1;
    open[i].line = static_cast<uint32_t>(i % shared.queries.size());
  }
  // The closed loop continues through the request file after the open
  // loop's lines.
  std::atomic<size_t> cursor{0};
  std::vector<std::vector<Record>> closed(kThreads);
  uint64_t closed_ns = 0;
  for (uint32_t round = 0; round < kRounds; ++round) {
    WaitForGo("open " + std::to_string(round));
    const size_t begin = round * per_round;
    const uint64_t start = MonoNs() + 5'000'000;  // Threads spin up.
    for (size_t i = begin; i < begin + per_round; ++i) {
      open[i].due_ns = start + static_cast<uint64_t>(
                                   static_cast<double>(i - begin) * interval_ns);
    }
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back(OpenLoopThread, std::cref(shared), t, start, begin,
                           begin + per_round, &open);
    }
    for (std::thread& thread : threads) thread.join();
    threads.clear();

    WaitForGo("closed " + std::to_string(round));
    const uint64_t closed_start = MonoNs();
    const uint64_t closed_stop =
        closed_start + static_cast<uint64_t>(closed_s.value() / kRounds * 1e9);
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back(ClosedLoopThread, std::cref(shared), &cursor,
                           open_count, closed_stop, &closed[t]);
    }
    for (std::thread& thread : threads) thread.join();
    closed_ns += MonoNs() - closed_start;
  }
  std::printf("phase end\n");
  std::fflush(stdout);

  // Logs: one line per request, plus every Nth 200 body verbatim.
  std::string log;
  std::string samples;
  size_t ok_seen = 0;
  const auto emit = [&](const Record& rec) {
    log += inf2vec::StrFormat(
        "%llu\t%d\t%u\t%llu\t%llu\t%llu\t%d\t%d\t%s\n",
        static_cast<unsigned long long>(rec.id), rec.phase, rec.line,
        static_cast<unsigned long long>(rec.due_ns),
        static_cast<unsigned long long>(rec.sent_ns),
        static_cast<unsigned long long>(rec.done_ns), rec.status,
        shared.queries[rec.line].body.empty() ? 0 : 1,
        AnswerFields(rec).c_str());
    if (rec.status == 200 &&
        ok_seen++ % static_cast<size_t>(sample_every.value()) == 0) {
      samples += std::to_string(rec.id) + "\t" + std::to_string(rec.line) +
                 "\t" + rec.body + "\n";
    }
  };
  for (const Record& rec : open) emit(rec);
  for (const auto& part : closed) {
    for (const Record& rec : part) emit(rec);
  }
  INF2VEC_RETURN_IF_ERROR(inf2vec::WriteFile(out_dir + "/requests.log", log));
  INF2VEC_RETURN_IF_ERROR(
      inf2vec::WriteFile(out_dir + "/samples.log", samples));

  JsonValue result = JsonValue::Object();
  result.Set("open_requests", static_cast<uint64_t>(open_count));
  result.Set("closed_seconds", static_cast<double>(closed_ns) * 1e-9);
  result.Set("nice", prioritized ? kNice : 0);
  PrintResult(result);
  return Status::OK();
}

}  // namespace perfbench
