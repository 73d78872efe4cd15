// The wire run: starts osap_serve --listen, times its set-up, and drives it
// over loopback with the benchmark's own single-threaded generator.
//
// The generator owns one non-blocking TCP connection and pipelines every
// frame, OPEN and CLOSE included, matching replies by request id (slot and
// frame type), so a session ending mid-stream never blocks the others.
// Phases: open the population, warm up, then blocks of kBlockSeconds, each
//   - a fixed-rate open loop: slot s steps at t0 + (phase[s] + k) * P with
//     P = sessions / rate, latency timed from that scheduled send, and
//   - a closed loop holding up to kWindow STEPs in flight (capacity),
//   - kStartsPerBlock timed starts of a fresh server (set-up),
// and finally pipelined CLOSEs, SIGTERM, and the server's drain report.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "net/client.h"
#include "net/protocol.h"

namespace perfbench {

namespace net = osap::net;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kStartsPerBlock = 2;  // timed set-ups between blocks
constexpr double kBlockSeconds = 2.0;     // one fixed-rate + closed-loop pair
constexpr std::size_t kWindow = 1024;     // closed-loop in-flight STEPs
constexpr std::uint64_t kOpenWindow = 512;  // pipelined OPENs / CLOSEs

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- /proc readers ------------------------------------------------------

/// CPU time of every thread of `pid` in seconds: the scheduler's
/// nanosecond run time of each task (/proc/<pid>/task/*/schedstat, field 1),
/// which, unlike utime+stime, is not sampled at clock ticks.
double ProcessCpuSeconds(pid_t pid) {
  double ns = 0.0;
  for (const auto& task :
       fs::directory_iterator("/proc/" + std::to_string(pid) + "/task")) {
    std::ifstream in(task.path() / "schedstat");
    unsigned long long run_ns = 0;
    if (in >> run_ns) ns += static_cast<double>(run_ns);
  }
  return ns * 1e-9;
}

double RssMib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// Aggregate (steal, total) jiffies from /proc/stat.
std::pair<double, double> StealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// --- server process -----------------------------------------------------

/// osap_serve --listen as a child process whose stdout is a pipe. The
/// destructor kills and reaps a server that was not stopped.
class ServerProcess {
 public:
  explicit ServerProcess(const WireConfig& config) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const std::string server = fs::absolute(config.server).string();
    const std::string work = config.work.string();
    std::vector<std::string> args = {server,
                                     config.workload.signal,
                                     "--listen",
                                     "0",
                                     "--shards",
                                     std::to_string(kShards),
                                     "--edge-threads",
                                     "1",
                                     "--backend",
                                     config.workload.backend};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // posix_spawn, unlike fork, does not copy this process's page tables,
    // so set-up time does not grow with the generator's memory.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addchdir_np(&actions, work.c_str());
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      close(fds[0]);
      throw std::runtime_error("cannot start osap_serve");
    }
    out_fd_ = fds[0];
    // Blocking read of the start-up line: no polling interval in set-up.
    while (true) {
      const std::size_t nl = output_.find('\n', scanned_);
      if (nl == std::string::npos) {
        if (!ReadSome()) throw std::runtime_error("osap_serve exited early");
        continue;
      }
      const std::string line = output_.substr(scanned_, nl - scanned_);
      scanned_ = nl + 1;
      const std::size_t at = line.find("listening on port ");
      if (at != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::stoi(line.substr(at + 18)));
        break;
      }
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM, read stdout to EOF, reap; returns the drain report.
  ServerReport Stop(std::vector<std::string>& failures) {
    kill(pid_, SIGTERM);
    while (ReadSome()) {
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      failures.push_back("osap_serve did not exit cleanly");
    }
    ServerReport r;
    std::istringstream lines(output_.substr(scanned_));
    std::string line;
    while (std::getline(lines, line)) {
      unsigned long long v[6];
      char backend[32];
      long vcs = 0, ivcs = 0;
      unsigned long long sys = 0;
      double per = 0.0;
      if (std::sscanf(line.c_str(),
                      "shutdown: %llu decided, %llu busy, %llu rejected "
                      "opens, %llu errors, %llu epochs, %llu sessions open",
                      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5]) == 6) {
        r.decided = v[0];
        r.busy = v[1];
        r.rejected = v[2];
        r.errors = v[3];
        r.epochs = v[4];
        r.open_sessions = v[5];
        r.parsed = true;
      } else if (std::sscanf(line.c_str(),
                             "io: %31s backend, %llu syscalls (%lf per "
                             "decision), %ld voluntary + %ld involuntary",
                             backend, &sys, &per, &vcs, &ivcs) == 5) {
        r.backend = backend;
        r.syscalls = sys;
        r.involuntary_cs = ivcs;
      }
    }
    if (!r.parsed || r.backend.empty()) {
      failures.push_back("osap_serve printed no shutdown:/io: report");
    }
    return r;
  }

 private:
  bool ReadSome() {
    char buf[4096];
    while (true) {
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n > 0) {
        output_.append(buf, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string output_;
  std::size_t scanned_ = 0;
};

// --- generator ----------------------------------------------------------

enum Kind : std::uint64_t { kStepId = 0, kOpenId = 1, kCloseId = 2 };

struct Slot {
  std::uint64_t session = 0;
  std::int64_t step_due = 0;      // scheduled send of the outstanding STEP
  std::int64_t open_due = 0;
  std::int64_t deferred_due = 0;  // tick that found the slot busy
  bool open = false;              // session usable for STEP
  bool step_out = false, open_out = false;
  bool deferred = false;
  bool measure_step = false, measure_open = false;
};

class Generator {
 public:
  Generator(const WireConfig& config, const Trajectories& traj,
            std::uint16_t port, WireResult& result)
      : config_(config), traj_(traj), result_(result) {
    const std::size_t n = config.workload.sessions;
    for (std::uint32_t d = 0; d < kDatasets; ++d) {
      by_dataset_.push_back(traj.OfDataset(d));
    }
    streams_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      streams_.emplace_back(config_.workload, traj_, by_dataset_,
                            config.seed, s);
    }
    slots_.resize(n);
    result_.steps.assign(n, 0);
    result_.digests.assign(n, SlotDigest{});
    const std::vector<double> phase = SlotPhases(config.seed, n);
    order_.resize(n);
    for (std::size_t s = 0; s < n; ++s) order_[s] = s;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return phase[a] < phase[b];
    });
    phase_ns_.resize(n);
    period_ns_ = static_cast<double>(n) / config.workload.rate * 1e9;
    for (std::size_t s = 0; s < n; ++s) phase_ns_[s] = phase[s] * period_ns_;

    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) close(fd_);
      throw std::runtime_error("generator: cannot connect");
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
    // The frame append helpers reserve exactly one more frame; a buffer
    // with room for a whole window keeps appends amortized O(1).
    out_.reserve(4 << 20);
  }

  ~Generator() {
    if (fd_ >= 0) close(fd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Pipelined OPEN for every slot, at most kOpenWindow outstanding.
  void OpenPopulation() {
    std::size_t next = 0;
    const std::int64_t deadline = NowNs() + 120'000'000'000;
    while (next < slots_.size() || outstanding_ > 0) {
      while (next < slots_.size() && outstanding_ < kOpenWindow) {
        SendOpen(next++, NowNs(), false);
      }
      if (!Pump() || NowNs() > deadline) {
        Fail("population open stalled");
        return;
      }
    }
  }

  /// Open loop at the workload's rate for `seconds`: starts a new block and
  /// records its latencies, lateness, server CPU and RSS.
  void FixedRate(double seconds, pid_t server) {
    const std::int64_t t0 = NowNs() + 1'000'000;
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    measure_begin_ = t0;
    measure_end_ = end;
    result_.blocks.emplace_back();
    const double cpu0 = ProcessCpuSeconds(server);
    const std::uint64_t done0 = decisions_;
    mode_ = Mode::kFixed;
    std::uint64_t tick = 0;
    const std::size_t n = slots_.size();
    while (true) {
      const std::int64_t now = NowNs();
      while (true) {
        const std::size_t s = order_[tick % n];
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(
                     phase_ns_[s] +
                     static_cast<double>(tick / n) * period_ns_);
        if (due > now || due >= end) break;
        Tick(s, due, now);
        ++tick;
      }
      if (now >= end) break;
      if (!Pump()) return Fail("connection lost in fixed-rate phase");
    }
    mode_ = Mode::kIdle;
    for (Slot& slot : slots_) slot.deferred = false;
    WireResult::Block& block = result_.blocks.back();
    block.cpu_s = ProcessCpuSeconds(server) - cpu0;
    block.decisions = static_cast<double>(decisions_ - done0);
    block.seconds = seconds;
    block.rss_mib = RssMib(server);
    Drain();
    measure_begin_ = measure_end_ = 0;
  }

  /// Closed loop with kWindow STEPs in flight for `seconds`. `server` > 0
  /// records the block's decisions per second of wall time and per second
  /// of server CPU time.
  void ClosedLoop(double seconds, pid_t server) {
    const std::int64_t t0 = NowNs();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::uint64_t done0 = decisions_;
    const double cpu0 = server > 0 ? ProcessCpuSeconds(server) : 0.0;
    mode_ = Mode::kClosed;
    std::int64_t now = t0;
    while (now < end) {
      FillWindow(now);
      if (!Pump()) return Fail("connection lost in closed-loop phase");
      now = NowNs();
    }
    const std::uint64_t done = decisions_ - done0;
    mode_ = Mode::kIdle;
    if (server > 0) {
      WireResult::Block& block = result_.blocks.back();
      block.closed_rate =
          static_cast<double>(done) / (static_cast<double>(now - t0) * 1e-9);
      const double cpu = ProcessCpuSeconds(server) - cpu0;
      block.capacity = cpu > 0.0 ? static_cast<double>(done) / cpu : 0.0;
    }
    Drain();
  }

  /// Pipelined CLOSE of every open session.
  void ClosePopulation() {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].open) SendClose(s);
      while (outstanding_ >= kOpenWindow) {
        if (!Pump()) return Fail("connection lost closing sessions");
      }
    }
    Drain();
  }

  std::uint64_t Outstanding() const { return outstanding_; }

 private:
  enum class Mode { kIdle, kFixed, kClosed };

  void Fail(const std::string& what) { result_.failures.push_back(what); }

  void Tick(std::size_t s, std::int64_t due, std::int64_t now) {
    Slot& slot = slots_[s];
    if (slot.open && !slot.step_out) {
      if (due >= measure_begin_ && due < measure_end_) {
        result_.late_us.push_back(static_cast<double>(now - due) * 1e-3);
      }
      SendStep(s, due);
    } else if (!slot.deferred) {
      slot.deferred = true;
      slot.deferred_due = due;
    } else {
      ++result_.overruns;  // the slot is a whole period behind
    }
  }

  /// Tops the window up once half of it has drained. Refilling in bursts
  /// keeps the server's epochs large, and their size the same from run to
  /// run; per-reply refill let it settle on run-dependent batch sizes.
  void FillWindow(std::int64_t now) {
    if (steps_out_ > kWindow / 2) return;
    const std::size_t n = slots_.size();
    for (std::size_t probes = 0; steps_out_ < kWindow && probes < n;
         ++probes) {
      const std::size_t s = order_[cursor_];
      cursor_ = (cursor_ + 1) % n;
      if (slots_[s].open && !slots_[s].step_out) SendStep(s, now);
    }
  }

  void SendStep(std::size_t s, std::int64_t due) {
    Slot& slot = slots_[s];
    net::RequestHeader h;
    h.type = net::MsgType::kStep;
    h.request_id = (s << 2) | kStepId;
    h.session_id = slot.session;
    net::AppendRequestFrame(out_, h, {streams_[s].State(), traj_.dim});
    slot.step_out = true;
    slot.step_due = due;
    slot.measure_step = due >= measure_begin_ && due < measure_end_;
    ++steps_out_;
    Sent();
  }

  void SendOpen(std::size_t s, std::int64_t due, bool measure) {
    Slot& slot = slots_[s];
    net::RequestHeader h;
    h.type = net::MsgType::kOpenSession;
    h.request_id = (s << 2) | kOpenId;
    net::AppendRequestFrame(out_, h);
    slot.open_out = true;
    slot.open_due = due;
    slot.measure_open = measure;
    Sent();
  }

  void SendClose(std::size_t s) {
    Slot& slot = slots_[s];
    net::RequestHeader h;
    h.type = net::MsgType::kCloseSession;
    h.request_id = (s << 2) | kCloseId;
    h.session_id = slot.session;
    net::AppendRequestFrame(out_, h);
    slot.open = false;
    Sent();
  }

  void Sent() {
    ++result_.sent;
    ++outstanding_;
  }

  /// Writes pending output, reads and dispatches every complete reply.
  /// False on a dead connection.
  bool Pump() {
    while (out_off_ < out_.size()) {
      const ssize_t n = send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    if (in_.size() - in_end_ < 64 * 1024) {
      std::memmove(in_.data(), in_.data() + in_off_, in_end_ - in_off_);
      in_end_ -= in_off_;
      in_off_ = 0;
      if (in_.size() < in_end_ + 64 * 1024) in_.resize(in_end_ + 64 * 1024);
    }
    const ssize_t n = recv(fd_, in_.data() + in_end_, in_.size() - in_end_,
                           MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    in_end_ += static_cast<std::size_t>(n);
    const std::int64_t now = NowNs();
    while (in_end_ - in_off_ >= net::kLengthPrefixBytes) {
      const std::uint32_t len = net::GetU32(in_.data() + in_off_);
      if (len > net::kMaxFrameBody) return false;
      if (in_end_ - in_off_ < net::kLengthPrefixBytes + len) break;
      net::Reply reply;
      const std::span<const std::uint8_t> body(
          in_.data() + in_off_ + net::kLengthPrefixBytes, len);
      in_off_ += net::kLengthPrefixBytes + len;
      if (net::DecodeReply(body, reply) != net::DecodeResult::kOk) {
        return false;
      }
      OnReply(reply, now);
    }
    return true;
  }

  void OnReply(const net::Reply& reply, std::int64_t now) {
    const std::size_t s = reply.request_id >> 2;
    const std::uint64_t kind = reply.request_id & 3;
    if (s >= slots_.size()) {
      ++result_.error;
      return Fail("reply for an unknown request id");
    }
    Slot& slot = slots_[s];
    --outstanding_;
    if (reply.status == net::Status::kBusy && kind == kStepId) {
      // Not queued by the server: retry from the same scheduled send.
      ++result_.busy;
      --steps_out_;
      slot.step_out = false;
      slot.deferred = true;
      slot.deferred_due = slot.step_due;
      if (mode_ == Mode::kIdle) SendStep(s, slot.step_due);
      return;
    }
    if (reply.status != net::Status::kOk) {
      ++result_.error;
      return Fail("server replied with a non-OK status");
    }
    ++result_.ok;
    if (kind == kCloseId) return;
    if (kind == kOpenId) {
      slot.open_out = false;
      slot.open = true;
      slot.session = reply.session_id;
      if (slot.measure_open) {
        result_.blocks.back().open_us.push_back(
            static_cast<double>(now - slot.open_due) * 1e-3);
      }
    } else {
      slot.step_out = false;
      --steps_out_;
      ++decisions_;
      if (slot.measure_step) {
        result_.blocks.back().step_us.push_back(
            static_cast<double>(now - slot.step_due) * 1e-3);
      }
      result_.digests[s].Step(reply.action, reply.Defaulted());
      ++result_.steps[s];
      if (streams_[s].Advance()) {
        // Lifetime over: the viewer leaves and a new one takes the slot.
        result_.digests[s].Boundary();
        SendClose(s);
        SendOpen(s, now, now >= measure_begin_ && now < measure_end_);
        return;
      }
    }
    if (slot.deferred && slot.open && mode_ == Mode::kFixed) {
      slot.deferred = false;
      SendStep(s, slot.deferred_due);
    }
  }

  /// Waits for every outstanding reply (10 s limit; the rest go missing).
  void Drain() {
    const std::int64_t deadline = NowNs() + 10'000'000'000;
    while (outstanding_ > 0 && NowNs() < deadline) {
      if (!Pump()) break;
    }
  }

  const WireConfig& config_;
  const Trajectories& traj_;
  WireResult& result_;
  std::vector<std::vector<std::uint32_t>> by_dataset_;
  std::vector<SlotStream> streams_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> order_;  // slots by phase
  std::vector<double> phase_ns_;
  double period_ns_ = 0.0;
  std::size_t cursor_ = 0;
  Mode mode_ = Mode::kIdle;
  std::int64_t measure_begin_ = 0, measure_end_ = 0;
  std::uint64_t outstanding_ = 0, steps_out_ = 0, decisions_ = 0;

  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> in_ = std::vector<std::uint8_t>(1 << 20);
  std::size_t in_off_ = 0, in_end_ = 0;
};

/// One timed start: spawn to the first STEP reply. The session is closed
/// again so the server's drain accounting stays exact.
double TimedStart(const WireConfig& config, const Trajectories& traj,
                  std::unique_ptr<ServerProcess>& server, WireResult& result) {
  const std::int64_t t0 = NowNs();
  server = std::make_unique<ServerProcess>(config);
  net::Client client;
  client.Connect("127.0.0.1", server->port());
  const std::uint64_t session = client.OpenSession();
  const net::Reply reply =
      client.Step(session, {traj.State(0, 0), traj.dim});
  const std::int64_t t1 = NowNs();
  if (reply.status != net::Status::kOk) {
    result.failures.push_back("set-up STEP was not answered OK");
  }
  client.CloseSession(session);
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// A timed start of a server that is stopped again at once; its drain
/// report must show the one set-up decision and no open session.
double TimedStartStop(const WireConfig& config, const Trajectories& traj,
                      WireResult& result) {
  std::unique_ptr<ServerProcess> server;
  const double seconds = TimedStart(config, traj, server, result);
  const ServerReport r = server->Stop(result.failures);
  if (r.decided != 1 || r.open_sessions != 0) {
    result.failures.push_back("set-up server drain report mismatch");
  }
  return seconds;
}

}  // namespace

WireResult RunWire(const WireConfig& config, const Trajectories& traj) {
  WireResult result;
  // The first timed start is the measured server; its set-up exchange
  // (OPEN, STEP, CLOSE) counts in the accounting.
  std::unique_ptr<ServerProcess> server;
  result.setup_samples_s.push_back(TimedStart(config, traj, server, result));
  result.sent = result.ok = 3;

  {
    Generator gen(config, traj, server->port(), result);
    gen.OpenPopulation();
    // Warm-up at full speed moves the sessions well into their lifetimes
    // (windows filled, defaulting settled), so the first measured block
    // sees the same session mix as the later ones.
    gen.ClosedLoop(config.workload.warmup_s, 0);
    const auto [steal0, total0] = StealAndTotal();
    // Short interleaved blocks: a host stall spoils one block, and the
    // per-block medians leave it out.
    const auto blocks = static_cast<std::size_t>(
        std::max(1.0, std::round(config.seconds / kBlockSeconds)));
    const double block = config.seconds / static_cast<double>(blocks);
    // The other timed starts run between blocks, so that set-up, like the
    // blocks, samples the whole run and not one stretch of the host's speed.
    for (std::size_t b = 0; b < blocks && result.failures.empty(); ++b) {
      gen.FixedRate(block * 0.6, server->pid());
      gen.ClosedLoop(block * 0.4, server->pid());
      for (std::size_t i = 0; i < kStartsPerBlock; ++i) {
        result.setup_samples_s.push_back(
            TimedStartStop(config, traj, result));
      }
    }
    const auto [steal1, total1] = StealAndTotal();
    result.steal_share =
        total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
    gen.ClosePopulation();
    result.missing = gen.Outstanding();
  }
  result.server = server->Stop(result.failures);
  const ServerReport& s = result.server;
  const std::uint64_t decided_here = 1 + [&] {
    std::uint64_t n = 0;
    for (std::uint64_t v : result.steps) n += v;
    return n;
  }();
  if (s.backend != config.workload.backend) {
    result.failures.push_back("server ran the " + s.backend +
                              " backend, not " + config.workload.backend);
  }
  if (s.decided != decided_here || s.busy != result.busy ||
      s.errors != result.error || s.open_sessions != 0 ||
      s.rejected != 0) {
    result.failures.push_back("server drain accounting differs from the "
                              "generator's");
  }
  if (result.error > 0 || result.missing > 0) {
    result.failures.push_back("errors or missing replies");
  }
  return result;
}

}  // namespace perfbench
