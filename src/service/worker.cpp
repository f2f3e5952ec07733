#include "service/worker.hpp"

#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "runtime/sweep_runner.hpp"
#include "service/json.hpp"
#include "util/check.hpp"

namespace afs::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Supervisor poll slice: short enough that cancellation and deadlines
/// fire promptly, long enough that an idle wait costs nothing.
constexpr int kPollSliceMs = 25;

/// Hard cap on one worker response line. A serialized SimResult is a few
/// KB even on the largest machines; 4 MiB means "the worker is spraying
/// garbage at us", which the supervisor treats as a crash.
constexpr std::size_t kMaxWorkerLineBytes = 4u << 20;

std::string signal_name(int sig) {
#ifdef SIGABRT
  if (sig == SIGABRT) return "SIGABRT";
#endif
#ifdef SIGSEGV
  if (sig == SIGSEGV) return "SIGSEGV";
#endif
#ifdef SIGBUS
  if (sig == SIGBUS) return "SIGBUS";
#endif
#ifdef SIGKILL
  if (sig == SIGKILL) return "SIGKILL";
#endif
#ifdef SIGILL
  if (sig == SIGILL) return "SIGILL";
#endif
#ifdef SIGFPE
  if (sig == SIGFPE) return "SIGFPE";
#endif
#ifdef SIGTERM
  if (sig == SIGTERM) return "SIGTERM";
#endif
  return "signal " + std::to_string(sig);
}

std::string classify_wait_status(int status) {
  if (WIFSIGNALED(status))
    return "killed by " + signal_name(WTERMSIG(status));
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == 127) return "exec failed (exit 127)";
    return "exited with status " + std::to_string(code);
  }
  return "died with wait status " + std::to_string(status);
}

/// Writes all of `line` to fd, retrying short writes and EINTR. False on
/// any other error (typically EPIPE: the worker is dead).
bool write_all(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking buffered line reader over a raw fd (worker side: fd 0, and
/// the parent's spawn handshake). Returns false on EOF/error before a
/// complete line.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  bool read_line(std::string& out) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      if (buf_.size() > kMaxWorkerLineBytes) return false;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

}  // namespace

// --------------------------------------------------------------------------
// WorkerPoolOptions

void WorkerPoolOptions::validate() const {
  AFS_CHECK_MSG(workers >= 1, "WorkerPoolOptions::workers must be >= 1");
  AFS_CHECK_MSG(poison_strikes >= 1,
                "WorkerPoolOptions::poison_strikes must be >= 1");
  AFS_CHECK_MSG(restart_burst >= 0.0,
                "WorkerPoolOptions::restart_burst must be >= 0");
  AFS_CHECK_MSG(restart_refill_per_s >= 0.0,
                "WorkerPoolOptions::restart_refill_per_s must be >= 0");
  AFS_CHECK_MSG(spawn_timeout_s > 0.0,
                "WorkerPoolOptions::spawn_timeout_s must be > 0");
  AFS_CHECK_MSG(!args.empty(), "WorkerPoolOptions::args must name an argv");
}

// --------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(WorkerPoolOptions opts) : opts_(std::move(opts)) {
  opts_.validate();
  tokens_ = opts_.restart_burst;
  last_refill_ = Clock::now();
  // A write to a worker that died mid-cell raises SIGPIPE, which would
  // kill the daemon — the one failure mode this pool exists to prevent.
  // Pipes have no MSG_NOSIGNAL, so the process-wide disposition it is.
  std::signal(SIGPIPE, SIG_IGN);
}

WorkerPool::~WorkerPool() {
  std::vector<std::unique_ptr<Worker>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.swap(workers_);
  }
  // Polite shutdown: closing stdin is EOF, on which worker_main exits 0.
  for (auto& w : live)
    if (w->to_child >= 0) {
      ::close(w->to_child);
      w->to_child = -1;
    }
  for (auto& w : live) {
    if (w->pid <= 0) continue;
    bool reaped = false;
    for (int i = 0; i < 20 && !reaped; ++i) {  // ~2s of grace
      int status = 0;
      const pid_t r = ::waitpid(w->pid, &status, WNOHANG);
      if (r == w->pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!reaped) {
      ::kill(w->pid, SIGKILL);
      int status = 0;
      ::waitpid(w->pid, &status, 0);
    }
    if (w->from_child >= 0) ::close(w->from_child);
  }
}

std::string WorkerPool::cell_id(const CellExecSpec& spec,
                                const std::string& label, int procs) {
  std::string base;
  if (!spec.experiment.empty()) {
    base = spec.experiment;
  } else {
    base = "grid(" + spec.kernel + "|" + spec.machine + "|" + spec.perturb +
           ")";
  }
  return base + "/" + label + "/P" + std::to_string(procs);
}

WorkerPool::Worker* WorkerPool::find_idle_locked() {
  for (auto& w : workers_)
    if (!w->busy) return w.get();
  return nullptr;
}

int WorkerPool::live_locked() const { return static_cast<int>(workers_.size()); }

void WorkerPool::refill_locked() {
  const auto now = Clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(opts_.restart_burst,
                     tokens_ + elapsed * opts_.restart_refill_per_s);
}

std::unique_ptr<WorkerPool::Worker> WorkerPool::spawn_locked(
    bool charge, bool& denied, std::string& error) {
  denied = false;
  if (charge) {
    refill_locked();
    if (free_respawns_ > 0) {
      --free_respawns_;
    } else if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
    } else {
      ++restarts_denied_;
      denied = true;
      error = "worker restart budget exhausted";
      return nullptr;
    }
  }

  const std::string exe = opts_.exe.empty() ? "/proc/self/exe" : opts_.exe;
  // argv must be materialized before fork(): only async-signal-safe calls
  // are legal between fork and exec in a multithreaded process.
  std::vector<std::string> argv_store;
  argv_store.push_back(exe);
  for (const std::string& a : opts_.args) argv_store.push_back(a);
  std::vector<char*> argv;
  argv.reserve(argv_store.size() + 1);
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  int to_child[2] = {-1, -1};    // parent writes -> worker stdin
  int from_child[2] = {-1, -1};  // worker stdout -> parent reads
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
      if (fd >= 0) ::close(fd);
    return nullptr;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    error = std::string("fork: ") + std::strerror(errno);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
      ::close(fd);
    return nullptr;
  }
  if (pid == 0) {
    // Child. Async-signal-safe territory until execv.
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    // Close everything else (pipe ends, the daemon's listener and client
    // sockets, store fds) so a worker can never hold a connection open or
    // scribble on daemon state.
    for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }

  // Parent.
  ::close(to_child[0]);
  ::close(from_child[1]);
  auto w = std::make_unique<Worker>();
  w->pid = pid;
  w->to_child = to_child[1];
  w->from_child = from_child[0];

  // Ready handshake: the worker announces itself before we count it live,
  // which catches exec failures and bad argv up front.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts_.spawn_timeout_s));
  std::string line;
  bool ready = false;
  while (Clock::now() < deadline) {
    const std::size_t nl = w->rbuf.find('\n');
    if (nl != std::string::npos) {
      line = w->rbuf.substr(0, nl);
      w->rbuf.erase(0, nl + 1);
      JsonValue msg;
      std::string jerr;
      const JsonValue* ev = nullptr;
      if (parse_json(line, msg, jerr) && (ev = msg.find("event")) != nullptr &&
          ev->is_string() && ev->string == "ready") {
        ready = true;
      }
      break;
    }
    struct pollfd pfd {};
    pfd.fd = w->from_child;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, kPollSliceMs);
    if (pr < 0 && errno != EINTR) break;
    if (pr > 0) {
      char chunk[4096];
      const ssize_t n = ::read(w->from_child, chunk, sizeof chunk);
      if (n <= 0) break;  // EOF before ready: exec failed or crashed
      w->rbuf.append(chunk, static_cast<std::size_t>(n));
    }
  }
  if (!ready) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ::close(w->to_child);
    ::close(w->from_child);
    error = "worker failed ready handshake (" + classify_wait_status(status) +
            ")";
    return nullptr;
  }

  ++spawned_;
  degraded_ = false;
  if (opts_.log)
    *opts_.log << "[worker-pool] spawned worker pid=" << pid
               << " (live=" << live_locked() + 1 << ")" << std::endl;
  return w;
}

std::unique_ptr<WorkerPool::Worker> WorkerPool::detach_locked(Worker* w) {
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if (it->get() == w) {
      std::unique_ptr<Worker> out = std::move(*it);
      workers_.erase(it);
      return out;
    }
  }
  return nullptr;
}

void WorkerPool::release_locked(Worker* w) {
  w->busy = false;
  cv_.notify_one();
}

std::string WorkerPool::reap(std::unique_ptr<Worker> w) {
  if (w->to_child >= 0) ::close(w->to_child);
  if (w->from_child >= 0) ::close(w->from_child);
  int status = 0;
  if (::waitpid(w->pid, &status, 0) != w->pid) return "unreapable worker";
  return classify_wait_status(status);
}

bool WorkerPool::start(std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < opts_.workers; ++i) {
    bool denied = false;
    auto w = spawn_locked(/*charge=*/false, denied, error);
    if (w == nullptr) {
      if (!workers_.empty()) break;  // partial pool is still a pool
      return false;
    }
    workers_.push_back(std::move(w));
  }
  return true;
}

SimResult WorkerPool::execute(const CellExecSpec& spec,
                              const std::string& label, int procs,
                              const EngineToggles& toggles,
                              const CancelToken& token) {
  const std::string cid = cell_id(spec, label, procs);

  // ---- acquire a worker -------------------------------------------------
  Worker* w = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (poisoned_.count(cid) != 0)
        throw PoisonedCellError("cell " + cid +
                                " is quarantined (crashed workers " +
                                std::to_string(opts_.poison_strikes) +
                                " times)");
      if (token.cancelled())
        throw CancelledError("cell cancelled while waiting for a worker");
      w = find_idle_locked();
      if (w != nullptr) break;
      if (live_locked() < opts_.workers) {
        bool denied = false;
        std::string err;
        auto nw = spawn_locked(/*charge=*/true, denied, err);
        if (nw != nullptr) {
          workers_.push_back(std::move(nw));
          w = workers_.back().get();
          break;
        }
        if (live_locked() == 0) {
          // Nothing alive and nothing spawnable: cache-only mode until
          // the bucket refills (the next execute() retries the spawn).
          degraded_ = true;
          if (opts_.log)
            *opts_.log << "[worker-pool] degraded: no live workers and "
                       << (denied ? "restart budget exhausted"
                                  : ("spawn failed: " + err))
                       << std::endl;
          throw DegradedError(
              "worker pool degraded (cache-only): " +
              (denied ? "restart budget exhausted" : err));
        }
        // Workers exist but are busy and the budget blocked growing the
        // pool: fall through and wait for one to free up.
      }
      cv_.wait_for(lock, std::chrono::milliseconds(2 * kPollSliceMs));
    }
    w->busy = true;
    w->rbuf.clear();
  }

  // ---- build and send the request --------------------------------------
  std::ostringstream req;
  req << "{\"op\":\"cell\",\"label\":" << json_quote(label)
      << ",\"procs\":" << procs
      << ",\"batch\":" << (toggles.batch_iterations ? "true" : "false");
  if (!spec.experiment.empty()) {
    req << ",\"experiment\":" << json_quote(spec.experiment);
  } else {
    req << ",\"grid\":{\"kernel\":" << json_quote(spec.kernel)
        << ",\"machine\":" << json_quote(spec.machine)
        << ",\"schedulers\":" << json_quote(spec.schedulers)
        << ",\"perturb\":" << json_quote(spec.perturb) << ",\"procs\":[";
    for (std::size_t i = 0; i < spec.procs.size(); ++i) {
      if (i != 0) req << ",";
      req << spec.procs[i];
    }
    req << "]}";
  }
  req << "}\n";

  if (!write_all(w->to_child, req.str())) {
    // The worker died idle, before this cell ever reached it: a crash for
    // the stats, but no strike against the cell (it did not cause it).
    std::unique_ptr<Worker> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      dead = detach_locked(w);
      ++crashes_;
      cv_.notify_all();
    }
    const std::string how = reap(std::move(dead));
    throw std::runtime_error("worker died before receiving cell " + cid +
                             " (" + how + ")");
  }

  // ---- await the response, mirroring deadline + cancellation -----------
  // The token's own deadline check is throttled (every kClockStride-th
  // poll); at our 25ms poll cadence that could mean minutes of slack, so
  // the supervisor watches the wall clock itself.
  const bool has_deadline = token.has_deadline();
  const auto deadline = has_deadline ? token.deadline() : Clock::time_point{};

  std::string line;
  bool got_line = false;
  bool worker_eof = false;
  for (;;) {
    const std::size_t nl = w->rbuf.find('\n');
    if (nl != std::string::npos) {
      line = w->rbuf.substr(0, nl);
      w->rbuf.erase(0, nl + 1);
      got_line = true;
      break;
    }
    if (w->rbuf.size() > kMaxWorkerLineBytes) {
      worker_eof = true;  // garbage flood: treat exactly like a crash
      break;
    }
    if (token.cancelled() || (has_deadline && Clock::now() >= deadline)) {
      // Deadline/cancel: the worker is mid-simulation with no way to be
      // interrupted cooperatively — kill it. Not the cell's fault and not
      // churn, so no strike and a free respawn credit instead of a token.
      std::unique_ptr<Worker> dead;
      {
        std::lock_guard<std::mutex> lock(mu_);
        dead = detach_locked(w);
        ++deadline_kills_;
        ++free_respawns_;
        cv_.notify_all();
      }
      ::kill(dead->pid, SIGKILL);
      reap(std::move(dead));
      if (opts_.log)
        *opts_.log << "[worker-pool] killed worker for deadline on cell "
                   << cid << std::endl;
      throw CancelledError("cell " + cid +
                           " cancelled (worker killed at deadline)");
    }
    struct pollfd pfd {};
    pfd.fd = w->from_child;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, kPollSliceMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      worker_eof = true;
      break;
    }
    if (pr == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(w->from_child, chunk, sizeof chunk);
    if (n <= 0) {
      worker_eof = true;
      break;
    }
    w->rbuf.append(chunk, static_cast<std::size_t>(n));
  }

  if (!got_line || worker_eof) {
    // The worker died *running this cell*: classify, count a strike, and
    // quarantine the cell once it has killed enough workers.
    std::unique_ptr<Worker> dead;
    int strikes = 0;
    bool poisoned_now = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      dead = detach_locked(w);
      ++crashes_;
      strikes = ++strikes_[cid];
      if (strikes >= opts_.poison_strikes) {
        poisoned_.insert(cid);
        poisoned_now = true;
      }
      cv_.notify_all();
    }
    if (dead->pid > 0) ::kill(dead->pid, SIGKILL);  // flood case: still alive
    const std::string how = reap(std::move(dead));
    if (opts_.log)
      *opts_.log << "[worker-pool] worker crashed on cell " << cid << " ("
                 << how << "), strike " << strikes << "/"
                 << opts_.poison_strikes
                 << (poisoned_now ? " — cell quarantined" : "") << std::endl;
    if (poisoned_now)
      throw PoisonedCellError("cell " + cid + " quarantined after " +
                              std::to_string(strikes) +
                              " worker crashes (last: " + how + ")");
    throw std::runtime_error("worker crashed running cell " + cid + " (" +
                             how + ")");
  }

  // ---- parse the response ----------------------------------------------
  JsonValue msg;
  std::string jerr;
  const JsonValue* ev = nullptr;
  if (!parse_json(line, msg, jerr) || (ev = msg.find("event")) == nullptr ||
      !ev->is_string()) {
    // Protocol violation: this worker cannot be trusted; replace it. Not
    // a strike (the cell's simulation may have been fine).
    std::unique_ptr<Worker> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      dead = detach_locked(w);
      ++crashes_;
      cv_.notify_all();
    }
    ::kill(dead->pid, SIGKILL);
    reap(std::move(dead));
    throw std::runtime_error("worker sent malformed response for cell " + cid);
  }

  if (ev->string == "cell_done") {
    const JsonValue* res = msg.find("result");
    SimResult out;
    if (res == nullptr || !res->is_string() ||
        !parse_sim_result(res->string, out)) {
      std::unique_ptr<Worker> dead;
      {
        std::lock_guard<std::mutex> lock(mu_);
        dead = detach_locked(w);
        ++crashes_;
        cv_.notify_all();
      }
      ::kill(dead->pid, SIGKILL);
      reap(std::move(dead));
      throw std::runtime_error(
          "worker sent unparseable result for cell " + cid);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++cells_executed_;
    strikes_.erase(cid);  // a success clears earlier strikes
    release_locked(w);
    return out;
  }

  if (ev->string == "cell_fail") {
    // The worker is healthy — it caught the exception itself. Return it
    // to the pool before rethrowing on the caller's side of the wire.
    const JsonValue* kind = msg.find("kind");
    const JsonValue* message = msg.find("message");
    const std::string what =
        (message != nullptr && message->is_string())
            ? message->string
            : "worker reported cell failure without a message";
    {
      std::lock_guard<std::mutex> lock(mu_);
      release_locked(w);
    }
    if (kind != nullptr && kind->is_string() && kind->string == "invariant")
      throw CheckFailure(what);
    throw std::runtime_error(what);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    release_locked(w);
  }
  throw std::runtime_error("worker sent unexpected event '" + ev->string +
                           "' for cell " + cid);
}

WorkerPoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerPoolStats s;
  s.live = static_cast<int>(workers_.size());
  s.degraded = degraded_;
  s.spawned = spawned_;
  s.crashes = crashes_;
  s.deadline_kills = deadline_kills_;
  s.restarts_denied = restarts_denied_;
  s.cells_executed = cells_executed_;
  s.poisoned = static_cast<std::int64_t>(poisoned_.size());
  return s;
}

bool WorkerPool::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

std::vector<std::string> WorkerPool::poisoned_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {poisoned_.begin(), poisoned_.end()};  // std::set: already sorted
}

// --------------------------------------------------------------------------
// worker_main — the subprocess side

namespace {

/// Rebuilds the FigureSpec a cell request describes. Throws runtime_error
/// with a protocol-worthy message on anything malformed.
FigureSpec rebuild_spec(const JsonValue& msg) {
  const JsonValue* experiment = msg.find("experiment");
  if (experiment != nullptr && experiment->is_string()) {
    const Experiment* e = find_experiment(experiment->string);
    if (e == nullptr)
      throw std::runtime_error("unknown experiment '" + experiment->string +
                               "'");
    if (!e->make_spec)
      throw std::runtime_error("experiment '" + experiment->string +
                               "' has no rebuildable spec");
    return e->make_spec();
  }
  const JsonValue* grid = msg.find("grid");
  if (grid == nullptr || !grid->is_object())
    throw std::runtime_error("cell request names no experiment and no grid");
  GridSpec g;
  const auto str = [&](const char* key) {
    const JsonValue* v = grid->find(key);
    return (v != nullptr && v->is_string()) ? v->string : std::string();
  };
  g.kernel = str("kernel");
  g.machine = str("machine");
  g.schedulers = str("schedulers");
  g.perturb = str("perturb");
  if (const JsonValue* procs = grid->find("procs");
      procs != nullptr && procs->is_array())
    for (const JsonValue& p : procs->array)
      if (p.is_number()) g.procs.push_back(static_cast<int>(p.number));
  return make_grid_experiment(g).make_spec();
}

}  // namespace

int worker_main() {
  // fd 1 is the protocol stream. Engine code (or a library) printing to
  // stdout would corrupt it, so keep the protocol on a private dup and
  // point fd 1 at stderr for the rest of the process's life.
  const int proto_fd = ::dup(1);
  if (proto_fd < 0) return 1;
  ::dup2(2, 1);

  const auto respond = [proto_fd](const std::string& line) {
    return write_all(proto_fd, line + "\n");
  };

  if (!respond("{\"event\":\"ready\",\"pid\":" +
               std::to_string(static_cast<long>(::getpid())) + "}"))
    return 1;

  FdLineReader in(0);
  std::string line;
  while (in.read_line(line)) {
    JsonValue msg;
    std::string jerr;
    const JsonValue* op = nullptr;
    if (!parse_json(line, msg, jerr) || (op = msg.find("op")) == nullptr ||
        !op->is_string()) {
      if (!respond("{\"event\":\"cell_fail\",\"kind\":\"error\",\"message\":" +
                   json_quote("malformed worker request: " + jerr) + "}"))
        return 1;
      continue;
    }
    if (op->string == "exit") return 0;
    if (op->string == "ping") {
      if (!respond("{\"event\":\"pong\"}")) return 1;
      continue;
    }
    if (op->string != "cell") {
      if (!respond("{\"event\":\"cell_fail\",\"kind\":\"error\",\"message\":" +
                   json_quote("unknown op '" + op->string + "'") + "}"))
        return 1;
      continue;
    }

    std::string reply;
    try {
      const JsonValue* label = msg.find("label");
      const JsonValue* procs = msg.find("procs");
      if (label == nullptr || !label->is_string() || procs == nullptr ||
          !procs->is_number())
        throw std::runtime_error("cell request needs label and procs");
      const int p = static_cast<int>(procs->number);

      FigureSpec spec = rebuild_spec(msg);
      if (const JsonValue* batch = msg.find("batch");
          batch != nullptr && batch->is_bool())
        spec.sim_options.batch_iterations = batch->boolean;

      const SchedulerEntry* se = nullptr;
      for (const SchedulerEntry& e : spec.schedulers)
        if (e.label == label->string) {
          se = &e;
          break;
        }
      if (se == nullptr)
        throw std::runtime_error("spec has no scheduler labelled '" +
                                 label->string + "'");
      if (p < 1 || p > spec.machine.max_processors)
        throw std::runtime_error("P=" + std::to_string(p) + " out of range for " +
                                 spec.machine.name);

      const SimResult r = run_figure_cell(spec, *se, p, spec.sim_options);
      reply = "{\"event\":\"cell_done\",\"result\":" +
              json_quote(serialize_sim_result(r)) + "}";
    } catch (const CheckFailure& e) {
      reply = "{\"event\":\"cell_fail\",\"kind\":\"invariant\",\"message\":" +
              json_quote(e.what()) + "}";
    } catch (const std::exception& e) {
      reply = "{\"event\":\"cell_fail\",\"kind\":\"error\",\"message\":" +
              json_quote(e.what()) + "}";
    }
    if (!respond(reply)) return 1;
  }
  return 0;  // EOF: the supervisor closed our stdin — clean shutdown
}

}  // namespace afs::service
