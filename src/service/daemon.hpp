// The sweep daemon: `afs_sweep serve` (docs/SWEEP_SERVICE.md, "Serving").
//
// A long-running service over a Unix-domain socket that accepts sweep
// requests from many concurrent clients and executes them — in arrival
// order, one at a time — against the experiment registry and the shared
// content-addressed result store. The scheduling is deliberately the
// paper's own central-queue policy restated at the service layer: a
// bounded FIFO admission queue feeds a single dispatcher that reuses one
// warm worker pool (intra-request parallelism via --jobs), so requests
// inherit both the arrival-order fairness and the affinity benefit of
// never rebuilding workers.
//
// Robustness contract:
//   * backpressure — a full admission queue rejects with a structured
//     `overloaded` error; daemon memory is bounded by --max-queue;
//   * deadlines — each request carries (or inherits) a wall-clock
//     deadline that propagates into the CancelToken chain: an expired
//     request cancels its queued cells without poisoning the shared pool;
//   * graceful drain — SIGTERM/SIGINT stop admission, finish (or, after
//     --drain-timeout, cancel) in-flight work, flush checkpoints, log the
//     counters and exit 0;
//   * crash recovery — state lives in the content-addressed store, so a
//     SIGKILLed daemon restarted over the same .store serves re-issued
//     requests warm and byte-identical;
//   * client isolation — a client that disconnects, floods garbage or
//     stops reading is torn down (its in-flight request cancelled)
//     without affecting any other connection.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/bench_cli.hpp"
#include "runtime/thread_pool.hpp"
#include "service/listener.hpp"
#include "service/request.hpp"
#include "service/service_stats.hpp"
#include "service/worker.hpp"
#include "store/result_store.hpp"
#include "util/cancel.hpp"

namespace afs::service {

struct DaemonOptions {
  std::string socket_path;  ///< required; <= 107 bytes
  /// The run options every request executes with, as `afs_sweep run`
  /// reads them: out_dir (CSVs land here), the store (bench::store_root;
  /// no_store = requests always simulate), jobs (intra-request sweep
  /// parallelism), cell_timeout and cell_retries. Resume is always on.
  bench::BenchCli cli;
  int max_queue = 64;  ///< admission queue bound (backpressure)
  int max_connections = 64;
  double default_deadline = 0.0;  ///< seconds; 0 = requests have none
  double drain_timeout = 30.0;    ///< seconds to finish in-flight on drain
  double write_timeout = 10.0;    ///< seconds before a slow reader is cut
  /// "thread" (default): cells simulate in-process on the shared pool.
  /// "process": store-missed cells run in supervised sandbox workers
  /// (service/worker.hpp) — a crashing cell kills one subprocess, not the
  /// daemon — under the quarantine/budget knobs below.
  std::string isolation = "thread";
  int poison_strikes = 3;           ///< worker crashes before quarantine
  double restart_burst = 8.0;       ///< worker respawn token-bucket size
  double restart_refill = 0.5;      ///< worker respawn tokens per second
  /// Test hooks: the worker executable and argv. Empty = re-exec
  /// /proc/self/exe with {"worker"} (what afs_sweep serve wants).
  std::string worker_exe;
  std::vector<std::string> worker_args;
  bool install_signal_handlers = true;  ///< SIGTERM/SIGINT -> drain
  std::ostream* log = nullptr;          ///< daemon progress; null = quiet

  /// Throws CheckFailure naming the offending field.
  void validate() const;
};

/// Parses `afs_sweep serve`'s flags into `opts`: the daemon's own, plus
/// the run flags it applies to every request (--out-dir, --store,
/// --no-store, --jobs, --cell-timeout, --cell-retries), which go through
/// bench::parse_cli_args so that `run` and `serve` accept exactly the same
/// values. --socket=PATH is required. Returns false with `error` naming
/// the offending flag.
bool parse_serve_args(const std::vector<std::string>& args,
                      DaemonOptions& opts, std::string& error);

class SweepDaemon {
 public:
  explicit SweepDaemon(DaemonOptions opts);
  ~SweepDaemon();

  SweepDaemon(const SweepDaemon&) = delete;
  SweepDaemon& operator=(const SweepDaemon&) = delete;

  /// Binds the socket and serves until drained. Returns 0 on a clean
  /// drain (SIGTERM/SIGINT/shutdown verb), nonzero when the socket could
  /// not be opened.
  int serve();

  /// Initiates the drain from any thread (what the signal handlers and
  /// the `shutdown` verb call).
  void request_drain();

  const ServiceStats& stats() const { return stats_; }
  const DaemonOptions& options() const { return opts_; }

 private:
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& frame);
  void handle_frame_error(const std::shared_ptr<Connection>& conn,
                          const ProtocolError& e);
  void admit(const std::shared_ptr<Connection>& conn, Request req);
  void execute(std::unique_ptr<ServiceRequest> r);
  void begin_drain();
  void finish_drain_watchdog();
  std::string stats_response(const std::string& tag) const;
  std::string health_response(const std::string& tag) const;
  double uptime_s() const;

  DaemonOptions opts_;
  ServiceStats stats_;
  RequestRegistry registry_;
  AdmissionQueue queue_;
  CancelToken drain_token_;  ///< parent of every request token
  std::optional<ResultStore> store_;
  std::optional<ThreadPool> pool_;
  std::unique_ptr<WorkerPool> workers_;  ///< non-null iff isolation=process
  std::unique_ptr<Listener> listener_;
  std::chrono::steady_clock::time_point start_{};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_begun_{false};

  // Drain watchdog: arms drain_token_.cancel() after drain_timeout unless
  // the queue empties first.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool drained_ = false;
};

}  // namespace afs::service
