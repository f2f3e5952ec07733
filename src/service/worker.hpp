// Supervised sandbox workers: the --isolation=process execution tier.
//
// A WorkerPool forks a small set of worker subprocesses (re-exec'ing this
// same binary with a `worker` argv) and speaks the service's
// line-delimited JSON protocol to them over pipes. Each sweep cell that
// misses the result store is shipped to a worker as a declarative recipe
// (runtime/cell_executor.hpp); the worker rebuilds the cell from the
// experiment registry or the grid grammars, simulates it, and returns the
// serialized SimResult — bit-identical to an in-process run, because a
// cell is a pure function of its inputs.
//
// What the supervisor buys over the in-process ThreadPool:
//   * crash containment — a segfault, abort() or OOM-kill inside the
//     engine takes down one worker; the daemon and every other request
//     keep running;
//   * restart budget — dead workers are respawned under a token bucket
//     (capacity --restart-burst, refill --restart-refill tokens/s), so a
//     crash loop cannot turn the daemon into a fork bomb;
//   * poison-cell quarantine — a cell that crashes workers
//     --poison-strikes times is blacklisted for the pool's lifetime and
//     answered with PoisonedCellError (protocol code "poison_cell")
//     instead of being retried forever;
//   * degraded cache-only mode — when no worker is alive and the restart
//     budget is empty, execute() throws DegradedError (protocol code
//     "degraded"); store hits are unaffected (they never reach the
//     executor), and the pool recovers by itself as the bucket refills;
//   * kill classification — a worker death is reported as the signal or
//     exit status that took it, a deadline kill as CancelledError, so the
//     sweep runner's CellFailure taxonomy stays truthful.
//
// Wire protocol (one JSON object per line, worker stdin/stdout):
//   parent -> worker:
//     {"op":"cell","label":L,"procs":P,"batch":B,
//      "experiment":"fig04"}                          (registered figure)
//     {"op":"cell",...,"grid":{"kernel":K,"machine":M,"schedulers":S,
//      "perturb":X,"procs":[..]}}                     (ad-hoc grid)
//     {"op":"ping"}        {"op":"exit"}
//   worker -> parent:
//     {"event":"ready","pid":N}          (once, after exec)
//     {"event":"pong"}
//     {"event":"cell_done","result":"<serialize_sim_result output>"}
//     {"event":"cell_fail","kind":"invariant"|"error","message":"..."}
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "runtime/cell_executor.hpp"

namespace afs::service {

struct WorkerPoolOptions {
  int workers = 1;  ///< pool size (usually the daemon's --jobs)
  /// Executable to spawn; empty = /proc/self/exe (re-exec ourselves).
  std::string exe;
  /// argv[1..] of the worker process. afs_sweep uses {"worker"}; tests
  /// point it at their own binary's worker dispatch.
  std::vector<std::string> args = {"worker"};
  int poison_strikes = 3;        ///< crashes before a cell is blacklisted
  double restart_burst = 8.0;    ///< token-bucket capacity for respawns
  double restart_refill_per_s = 0.5;  ///< bucket refill rate
  double spawn_timeout_s = 10.0;      ///< ready-handshake deadline
  std::ostream* log = nullptr;        ///< supervisor events; null = quiet

  /// Throws CheckFailure naming the offending field.
  void validate() const;
};

/// Point-in-time supervisor counters (all monotonic except live/degraded).
struct WorkerPoolStats {
  int live = 0;                        ///< workers currently alive
  bool degraded = false;               ///< cache-only mode active
  std::int64_t spawned = 0;            ///< total successful spawns
  std::int64_t crashes = 0;            ///< unexpected worker deaths
  std::int64_t deadline_kills = 0;     ///< workers killed for a deadline
  std::int64_t restarts_denied = 0;    ///< spawns refused (bucket empty)
  std::int64_t cells_executed = 0;     ///< cells completed by workers
  std::int64_t poisoned = 0;           ///< cells currently blacklisted
};

class WorkerPool : public CellExecutor {
 public:
  explicit WorkerPool(WorkerPoolOptions opts);
  ~WorkerPool() override;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns the initial workers (handshake included). False with `error`
  /// when not even one worker could be brought up.
  bool start(std::string& error);

  /// CellExecutor: ships the cell to an idle worker (spawning or waiting
  /// as needed) and blocks for the result. Throws per the taxonomy in
  /// runtime/cell_executor.hpp.
  SimResult execute(const CellExecSpec& spec, const std::string& label,
                    int procs, const EngineToggles& toggles,
                    const CancelToken& token) override;

  WorkerPoolStats stats() const;
  bool degraded() const;
  /// Blacklisted cell ids, sorted (stable for responses and logs).
  std::vector<std::string> poisoned_cells() const;

  /// Stable id a cell is striked/blacklisted under: the experiment id (or
  /// the grid recipe) plus "/<label>/P<procs>".
  static std::string cell_id(const CellExecSpec& spec,
                             const std::string& label, int procs);

 private:
  struct Worker {
    pid_t pid = -1;
    int to_child = -1;    ///< parent writes requests (worker stdin)
    int from_child = -1;  ///< parent reads responses (worker stdout)
    std::string rbuf;     ///< bytes read past the last complete line
    bool busy = false;
  };

  // All private helpers expect mu_ held unless noted.
  Worker* find_idle_locked();
  int live_locked() const;
  /// Spawns one worker. `charge` consumes a restart token (initial spawns
  /// and post-deadline-kill respawns are free). Null on denial/failure
  /// with `error` set; "denied" distinguishes bucket exhaustion.
  std::unique_ptr<Worker> spawn_locked(bool charge, bool& denied,
                                       std::string& error);
  void refill_locked();
  /// Reaps `w` (blocking waitpid) and returns the human classification of
  /// how it died. Closes fds. Does not touch strike/poison state.
  std::string reap(std::unique_ptr<Worker> w);  // mu_ NOT held
  std::unique_ptr<Worker> detach_locked(Worker* w);
  void release_locked(Worker* w);

  WorkerPoolOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  double tokens_ = 0.0;
  int free_respawns_ = 0;  ///< credits from deadline kills (not churn)
  std::chrono::steady_clock::time_point last_refill_{};
  std::map<std::string, int> strikes_;
  std::set<std::string> poisoned_;
  bool degraded_ = false;
  // counters (guarded by mu_)
  std::int64_t spawned_ = 0, crashes_ = 0, deadline_kills_ = 0,
               restarts_denied_ = 0, cells_executed_ = 0;
};

/// The worker side: a blocking serve loop over stdin/stdout that this
/// binary enters when exec'd with the `worker` argv. Returns the process
/// exit code (0 on clean EOF/exit op). Re-points fd 1 at stderr first so
/// stray prints from engine code can never corrupt the protocol stream.
int worker_main();

}  // namespace afs::service
