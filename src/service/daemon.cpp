#include "service/daemon.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <streambuf>
#include <thread>
#include <utility>

#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace afs::service {
namespace {

// Signal handlers may only touch lock-free state; the dispatcher's signal
// watcher polls this and runs the actual drain on a normal thread.
volatile std::sig_atomic_t g_drain_signal = 0;

void drain_signal_handler(int sig) { g_drain_signal = sig; }

std::int64_t us_between(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}

/// Streams an experiment's human-readable progress as one "log" response
/// per line. A write failure is deliberately ignored here: write_line has
/// already torn the connection down and cancelled the request's token, so
/// the run aborts at its next event boundary — swallowing the line is the
/// cheapest way to keep the experiment code oblivious to transport state.
class LogLineBuf : public std::streambuf {
 public:
  LogLineBuf(Connection* conn, std::uint64_t seq, std::string tag)
      : conn_(conn), seq_(seq), tag_(std::move(tag)) {}
  ~LogLineBuf() override { flush_line(); }

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    if (ch == '\n')
      flush_line();
    else
      line_.push_back(static_cast<char>(ch));
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
    return n;
  }

 private:
  void flush_line() {
    if (line_.empty()) return;
    conn_->write_line(response_line("log",
                                    {{"request", json_number(double(seq_))},
                                     {"text", json_quote(line_)}},
                                    tag_));
    line_.clear();
  }

  Connection* conn_;
  std::uint64_t seq_;
  std::string tag_;
  std::string line_;
};

/// "1,2,4" -> {1,2,4} with the same bounds as the batch --procs flag.
bool parse_procs_list(const std::string& s, std::vector<int>& out,
                      std::string& error) {
  out.clear();
  if (s.empty()) return true;  // machine default
  bench::BenchCli tmp;
  bool want_help = false;
  if (!bench::parse_cli_args({"--procs=" + s}, tmp, error, want_help))
    return false;
  out = tmp.procs;
  return true;
}

GridSpec grid_spec_of(const Request& req, std::vector<int> procs) {
  GridSpec g;
  g.kernel = req.kernel;
  g.machine = req.machine;
  g.schedulers = req.schedulers;
  g.perturb = req.perturb;
  g.procs = std::move(procs);
  return g;
}

}  // namespace

void DaemonOptions::validate() const {
  AFS_CHECK_MSG(!socket_path.empty(), "serve needs --socket=PATH");
  AFS_CHECK_MSG(!cli.out_dir.empty(), "serve needs a non-empty --out-dir");
  AFS_CHECK_MSG(cli.jobs >= 1 && cli.jobs <= 256, "--jobs must be in 1..256");
  AFS_CHECK_MSG(max_queue >= 1 && max_queue <= 4096,
                "--max-queue must be in 1..4096");
  AFS_CHECK_MSG(max_connections >= 1 && max_connections <= 1024,
                "--max-connections must be in 1..1024");
  AFS_CHECK_MSG(default_deadline >= 0.0 && default_deadline <= 86400.0,
                "--default-deadline must be in [0, 86400] seconds");
  AFS_CHECK_MSG(drain_timeout > 0.0 && drain_timeout <= 86400.0,
                "--drain-timeout must be in (0, 86400] seconds");
  AFS_CHECK_MSG(write_timeout > 0.0 && write_timeout <= 3600.0,
                "--write-timeout must be in (0, 3600] seconds");
  AFS_CHECK_MSG(cli.cell_timeout >= 0.0, "--cell-timeout must be >= 0");
  AFS_CHECK_MSG(isolation == "thread" || isolation == "process",
                "--isolation must be thread or process");
  AFS_CHECK_MSG(poison_strikes >= 1, "--poison-strikes must be >= 1");
  AFS_CHECK_MSG(restart_burst >= 0.0, "--restart-burst must be >= 0");
  AFS_CHECK_MSG(restart_refill >= 0.0, "--restart-refill must be >= 0");
}

SweepDaemon::SweepDaemon(DaemonOptions opts)
    : opts_(std::move(opts)), queue_(static_cast<std::size_t>(
                                  opts_.max_queue > 0 ? opts_.max_queue : 1)) {}

SweepDaemon::~SweepDaemon() {
  if (watchdog_.joinable()) {
    {
      std::scoped_lock lock(watchdog_mu_);
      drained_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

double SweepDaemon::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

int SweepDaemon::serve() {
  opts_.validate();
  start_ = std::chrono::steady_clock::now();
  std::error_code ec;
  std::filesystem::create_directories(opts_.cli.out_dir, ec);
  if (ec) {
    if (opts_.log)
      *opts_.log << "serve: cannot create out-dir '" << opts_.cli.out_dir
                 << "': " << ec.message() << "\n";
    return 1;
  }
  if (!opts_.cli.no_store) store_.emplace(bench::store_root(opts_.cli));
  if (opts_.cli.jobs > 1) pool_.emplace(opts_.cli.jobs);

  if (opts_.isolation == "process") {
    WorkerPoolOptions wopts;
    wopts.workers = opts_.cli.jobs;
    wopts.exe = opts_.worker_exe;
    if (!opts_.worker_args.empty()) wopts.args = opts_.worker_args;
    wopts.poison_strikes = opts_.poison_strikes;
    wopts.restart_burst = opts_.restart_burst;
    wopts.restart_refill_per_s = opts_.restart_refill;
    wopts.log = opts_.log;
    workers_ = std::make_unique<WorkerPool>(std::move(wopts));
    std::string werror;
    if (!workers_->start(werror)) {
      if (opts_.log)
        *opts_.log << "serve: cannot start sandbox workers: " << werror
                   << "\n";
      return 1;
    }
  }

  Listener::Handlers handlers;
  handlers.on_frame = [this](const std::shared_ptr<Connection>& conn,
                             const std::string& frame) {
    handle_frame(conn, frame);
  };
  handlers.on_frame_error = [this](const std::shared_ptr<Connection>& conn,
                                   const ProtocolError& e) {
    handle_frame_error(conn, e);
  };
  listener_ = std::make_unique<Listener>(
      opts_.socket_path, opts_.write_timeout,
      static_cast<std::size_t>(opts_.max_connections), &stats_,
      std::move(handlers));
  std::string error;
  if (!listener_->start(error)) {
    if (opts_.log) *opts_.log << "serve: " << error << "\n";
    return 1;
  }

  struct sigaction old_term {}, old_int {};
  if (opts_.install_signal_handlers) {
    g_drain_signal = 0;
    struct sigaction sa {};
    sa.sa_handler = drain_signal_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, &old_term);
    sigaction(SIGINT, &sa, &old_int);
  }

  if (opts_.log)
    *opts_.log << "serving on " << opts_.socket_path << " (store "
               << (store_ ? store_->root() : std::string("off")) << ", jobs "
               << opts_.cli.jobs << ", queue " << opts_.max_queue << ")\n";

  // The drain can be initiated while a request is mid-run (a signal, the
  // shutdown verb, a test calling request_drain()); the watcher thread
  // makes a pending signal take effect without waiting for the dispatcher
  // to come back from execute().
  std::atomic<bool> stop_watching{false};
  std::thread signal_watcher([this, &stop_watching] {
    while (!stop_watching.load(std::memory_order_acquire)) {
      if (opts_.install_signal_handlers && g_drain_signal != 0) request_drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // The dispatcher: arrival-ordered, one request at a time, reusing the
  // warm pool — the paper's central-queue policy at the service layer.
  while (true) {
    std::unique_ptr<ServiceRequest> r =
        queue_.pop_wait(std::chrono::milliseconds(100));
    if (r == nullptr) {
      if (queue_.closed() && queue_.depth() == 0) break;
      continue;
    }
    execute(std::move(r));
  }

  // Queue drained: release the watchdog before it fires, stop the
  // watcher, tear the transport down.
  {
    std::scoped_lock lock(watchdog_mu_);
    drained_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  stop_watching.store(true, std::memory_order_release);
  signal_watcher.join();
  listener_->close_all();

  if (opts_.install_signal_handlers) {
    sigaction(SIGTERM, &old_term, nullptr);
    sigaction(SIGINT, &old_int, nullptr);
  }

  if (opts_.log) {
    *opts_.log << "drained: admitted=" << stats_.admitted.load()
               << " completed=" << stats_.completed.load()
               << " failed=" << stats_.failed.load()
               << " cancelled=" << stats_.cancelled.load()
               << " deadline_expired=" << stats_.deadline_expired.load()
               << " rejected_overloaded=" << stats_.rejected_overloaded.load()
               << " rejected_draining=" << stats_.rejected_draining.load()
               << " protocol_errors=" << stats_.protocol_errors.load()
               << " connections=" << stats_.connections_total.load()
               << " queue_wait_ms_mean=" << stats_.queue_wait_ms_mean()
               << " run_ms_mean=" << stats_.run_ms_mean();
    if (store_)
      *opts_.log << " store_hits=" << store_->hits()
                 << " store_misses=" << store_->misses()
                 << " store_writes=" << store_->writes();
    if (workers_) {
      const WorkerPoolStats ws = workers_->stats();
      *opts_.log << " worker_spawned=" << ws.spawned
                 << " worker_crashes=" << ws.crashes
                 << " worker_cells=" << ws.cells_executed
                 << " poisoned_cells=" << ws.poisoned;
    }
    *opts_.log << "\n";
  }
  return 0;
}

void SweepDaemon::request_drain() {
  if (drain_begun_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  if (opts_.log)
    *opts_.log << "draining (queue " << queue_.depth() << ", in-flight "
               << registry_.in_flight() << ", timeout " << opts_.drain_timeout
               << "s)\n";
  if (listener_ != nullptr) listener_->stop_accepting();
  // Start the watchdog before closing the queue: once closed() is
  // observable the dispatcher may finish the drain and join watchdog_, so
  // the thread must already be assigned.
  watchdog_ = std::thread([this] { finish_drain_watchdog(); });
  queue_.close();
}

void SweepDaemon::finish_drain_watchdog() {
  std::unique_lock lock(watchdog_mu_);
  watchdog_cv_.wait_for(lock,
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::duration<double>(opts_.drain_timeout)),
                        [this] { return drained_; });
  if (!drained_) {
    if (opts_.log)
      *opts_.log << "drain timeout (" << opts_.drain_timeout
                 << "s): cancelling in-flight work\n";
    drain_token_.cancel();
  }
}

void SweepDaemon::handle_frame_error(const std::shared_ptr<Connection>& conn,
                                     const ProtocolError& e) {
  stats_.protocol_errors.fetch_add(1);
  conn->write_line(response_error(e, ""));
  if (conn->strike()) conn->teardown(true);
}

void SweepDaemon::handle_frame(const std::shared_ptr<Connection>& conn,
                               const std::string& frame) {
  Request req;
  ProtocolError e;
  if (!parse_request(frame, req, e)) {
    handle_frame_error(conn, e);
    return;
  }
  switch (req.verb) {
    case Verb::kHealth:
      conn->write_line(health_response(req.tag));
      return;
    case Verb::kStats:
      conn->write_line(stats_response(req.tag));
      return;
    case Verb::kShutdown:
      conn->write_line(response_line("shutting_down", {}, req.tag));
      request_drain();
      return;
    case Verb::kRun:
    case Verb::kGrid:
      admit(conn, std::move(req));
      return;
  }
}

void SweepDaemon::admit(const std::shared_ptr<Connection>& conn, Request req) {
  if (draining_.load(std::memory_order_acquire)) {
    stats_.rejected_draining.fetch_add(1);
    conn->write_line(response_error(
        {err::kShuttingDown, "daemon is draining; not accepting work"},
        req.tag));
    return;
  }

  // Semantic validation happens at admission, on the connection's reader
  // thread, so a bad request is bounced immediately instead of poisoning
  // the dispatcher: ids against the registry, grid specs against the
  // grammars (a thrown usage hint becomes the error message).
  if (req.verb == Verb::kRun) {
    if (!req.all) {
      for (const std::string& id : req.ids) {
        const Experiment* exp = find_experiment(id);
        if (exp == nullptr) {
          conn->write_line(response_error(
              {err::kUnknownExperiment, "unknown experiment '" + id + "'"},
              req.tag));
          return;
        }
        if (exp->kind == ExperimentKind::kMicro) {
          conn->write_line(response_error(
              {err::kBadRequest,
               "'" + id + "' is a google-benchmark binary, not servable"},
              req.tag));
          return;
        }
      }
    }
  } else {
    std::vector<int> procs;
    std::string perror;
    if (!parse_procs_list(req.procs, procs, perror)) {
      conn->write_line(response_error({err::kBadGrid, perror}, req.tag));
      return;
    }
    try {
      (void)make_grid_experiment(grid_spec_of(req, std::move(procs)));
    } catch (const std::exception& ex) {
      conn->write_line(response_error({err::kBadGrid, ex.what()}, req.tag));
      return;
    }
  }

  auto r = std::make_unique<ServiceRequest>(&drain_token_);
  r->seq = registry_.next_seq();
  r->req = std::move(req);
  r->conn = conn;
  r->arrived = std::chrono::steady_clock::now();
  const double deadline =
      r->req.deadline > 0.0 ? r->req.deadline : opts_.default_deadline;
  // Armed before the token is shared with anyone (the deadline fields are
  // not atomic); from here on only cancel()/cancelled() touch it.
  if (deadline > 0.0) r->cancel.set_timeout(deadline);

  const std::uint64_t seq = r->seq;
  const std::string tag = r->req.tag;
  // Valid after the move below for exactly as long as accepted_written is
  // unset: the executor blocks on the flag before touching (or ever
  // destroying) the entry.
  ServiceRequest* admitted = r.get();
  if (!queue_.try_push(std::move(r))) {
    if (queue_.closed()) {
      stats_.rejected_draining.fetch_add(1);
      conn->write_line(response_error(
          {err::kShuttingDown, "daemon is draining; not accepting work"},
          tag));
    } else {
      stats_.rejected_overloaded.fetch_add(1);
      conn->write_line(response_line(
          "error",
          {{"code", json_quote(err::kOverloaded)},
           {"message",
            json_quote("admission queue full; retry with backoff")},
           {"queue_depth", json_number(double(queue_.depth()))},
           {"max_queue", json_number(double(queue_.capacity()))}},
          tag));
    }
    return;
  }
  registry_.enqueued(seq);
  stats_.admitted.fetch_add(1);
  conn->write_line(response_line(
      "accepted",
      {{"request", json_number(double(seq))},
       {"queue_depth", json_number(double(queue_.depth()))}},
      tag));
  admitted->accepted_written.store(true, std::memory_order_release);
}

void SweepDaemon::execute(std::unique_ptr<ServiceRequest> r) {
  // The dispatcher can pop a request before its admitting thread has the
  // "accepted" line on the wire; emitting anything (or finishing and
  // destroying the entry) before that would reorder the stream.
  while (!r->accepted_written.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  registry_.running(r->seq);
  r->started = std::chrono::steady_clock::now();
  stats_.queue_wait_us.fetch_add(us_between(r->arrived, r->started));
  const std::string& tag = r->req.tag;

  const auto finish = [&](const char* outcome) {
    stats_.run_us.fetch_add(
        us_between(r->started, std::chrono::steady_clock::now()));
    registry_.finished(r->seq);
    if (opts_.log)
      *opts_.log << "request " << r->seq << ": " << outcome << "\n";
  };

  // Classify a fired token: drain beats disconnect beats deadline (a
  // request can hit several at once; the coarser condition is the truth a
  // client can act on).
  const auto respond_cancelled = [&] {
    if (drain_token_.cancelled()) {
      stats_.cancelled.fetch_add(1);
      r->conn->write_line(response_error(
          {err::kCancelled, "cancelled: daemon drain timeout"}, tag, r->seq));
      finish("cancelled (drain)");
    } else if (r->conn->dead()) {
      stats_.cancelled.fetch_add(1);
      finish("cancelled (client gone)");
    } else {
      stats_.deadline_expired.fetch_add(1);
      r->conn->write_line(response_error(
          {err::kDeadlineExpired, "request deadline expired"}, tag, r->seq));
      finish("deadline expired");
    }
  };

  if (r->conn->dead() || r->cancel.cancelled()) {
    // Never started: client hung up while queued, the deadline burned out
    // in the queue, or the drain timeout fired. No pool time spent.
    respond_cancelled();
    return;
  }

  // From here the client's disappearance must abort the run: tie the
  // token to the connection for the duration.
  r->conn->register_cancel(&r->cancel);

  bench::BenchCli cli = opts_.cli;
  // Resume is always on in serve mode: between the store and the sweep
  // checkpoints, a re-issued request after any kind of crash recomputes
  // only what was genuinely never finished.
  cli.resume = true;

  std::vector<const Experiment*> experiments;
  Experiment grid_exp;  // keeps the grid's closure alive while running
  if (r->req.verb == Verb::kGrid) {
    // Each distinct grid gets a stable private directory so repeated
    // identical grids overwrite themselves (idempotent, warm) and
    // different grids never clobber each other's grid.csv. The id stays
    // "grid", so the CSV content matches the batch driver byte for byte.
    std::vector<int> procs;
    std::string perror;
    parse_procs_list(r->req.procs, procs, perror);  // validated at admission
    const GridSpec g = grid_spec_of(r->req, std::move(procs));
    cli.out_dir =
        opts_.cli.out_dir + "/grid-" + hex64(fnv1a64(grid_identity(g)));
    try {
      grid_exp = make_grid_experiment(g);
    } catch (const std::exception& ex) {
      // Can only differ from admission if the environment changed.
      r->conn->unregister_cancel(&r->cancel);
      stats_.failed.fetch_add(1);
      r->conn->write_line(
          response_error({err::kBadGrid, ex.what()}, tag, r->seq));
      finish("failed (bad grid)");
      return;
    }
    experiments.push_back(&grid_exp);
  } else if (r->req.all) {
    for (const Experiment& exp : all_experiments())
      if (exp.kind != ExperimentKind::kMicro) experiments.push_back(&exp);
  } else {
    for (const std::string& id : r->req.ids)
      experiments.push_back(find_experiment(id));  // non-null per admission
  }

  ExperimentContext ctx;
  ctx.cli = cli;
  ctx.store = store_ ? &*store_ : nullptr;
  ctx.pool = pool_ ? &*pool_ : nullptr;
  ctx.cancel = &r->cancel;
  ctx.executor = workers_ ? workers_.get() : nullptr;
  // Quarantine and degradation are per-cell, not per-request: surface
  // them as non-terminal "cell_error" events so a client naming a
  // poisoned cell still gets every healthy cell's result (and the done
  // event) on the same connection.
  Connection* connp = r->conn.get();
  const std::uint64_t rseq = r->seq;
  ctx.on_cell_failure = [connp, rseq, &tag](const std::string& id,
                                            const CellFailure& f) {
    if (f.kind != "poison" && f.kind != "degraded") return;
    connp->write_line(response_line(
        "cell_error",
        {{"request", json_number(double(rseq))},
         {"code", json_quote(f.kind == "poison" ? err::kPoisonCell
                                                : err::kDegraded)},
         {"experiment", json_quote(id)},
         {"scheduler", json_quote(f.label)},
         {"procs", json_number(double(f.procs))},
         {"message", json_quote(f.message)}},
        tag));
  };

  const std::int64_t hits0 = store_ ? store_->hits() : 0;
  const std::int64_t misses0 = store_ ? store_->misses() : 0;
  const std::int64_t writes0 = store_ ? store_->writes() : 0;

  LogLineBuf logbuf(r->conn.get(), r->seq, tag);
  std::ostream logstream(&logbuf);

  int worst_exit = 0;
  std::string experiments_json = "[";
  bool internal_error = false;
  std::string internal_message;
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const Experiment* exp = experiments[i];
    if (r->cancel.cancelled()) break;
    int exit_code = 0;
    try {
      exit_code = run_experiment(*exp, ctx, logstream);
    } catch (const CancelledError&) {
      break;  // classified below from the token
    } catch (const std::exception& ex) {
      internal_error = true;
      internal_message = ex.what();
      break;
    }
    if (exit_code > worst_exit) worst_exit = exit_code;
    if (experiments_json.size() > 1) experiments_json += ",";
    experiments_json += "{\"id\":" + json_quote(exp->id) +
                        ",\"exit\":" + json_number(double(exit_code)) +
                        ",\"csv\":[";
    for (std::size_t c = 0; c < exp->csv_ids.size(); ++c) {
      if (c > 0) experiments_json += ",";
      experiments_json +=
          json_quote(ctx.cli.out_dir + "/" + exp->csv_ids[c] + ".csv");
    }
    experiments_json += "]}";
  }
  experiments_json += "]";

  r->conn->unregister_cancel(&r->cancel);

  if (internal_error) {
    stats_.failed.fetch_add(1);
    r->conn->write_line(
        response_error({err::kInternal, internal_message}, tag, r->seq));
    finish("failed (internal)");
    return;
  }
  if (r->cancel.cancelled()) {
    respond_cancelled();
    return;
  }

  std::vector<JsonField> fields;
  fields.push_back({"request", json_number(double(r->seq))});
  fields.push_back({"ok", worst_exit == 0 ? "true" : "false"});
  fields.push_back({"exit", json_number(double(worst_exit))});
  fields.push_back({"experiments", experiments_json});
  fields.push_back(
      {"elapsed_s",
       json_number(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - r->started)
                       .count())});
  if (store_) {
    fields.push_back({"store",
                      "{\"hits\":" + json_number(double(store_->hits() - hits0)) +
                          ",\"misses\":" +
                          json_number(double(store_->misses() - misses0)) +
                          ",\"writes\":" +
                          json_number(double(store_->writes() - writes0)) +
                          "}"});
  }
  r->conn->write_line(response_line("done", fields, tag));
  if (worst_exit == 0) {
    stats_.completed.fetch_add(1);
    finish("done");
  } else {
    stats_.failed.fetch_add(1);
    finish("failed (nonzero exit)");
  }
}

std::string SweepDaemon::health_response(const std::string& tag) const {
  // Drain beats degradation: a draining daemon rejects new work either
  // way, and "draining" is the state a client must react to first.
  const char* status = draining_.load()                ? "draining"
                       : (workers_ && workers_->degraded()) ? "degraded"
                                                            : "serving";
  std::vector<JsonField> fields = {
      {"status", json_quote(status)},
      {"uptime_s", json_number(uptime_s())},
      {"queue_depth", json_number(double(queue_.depth()))},
      {"max_queue", json_number(double(queue_.capacity()))},
      {"in_flight", json_number(double(registry_.in_flight()))}};
  fields.push_back(
      {"isolation", json_quote(workers_ ? "process" : "thread")});
  if (workers_) {
    const WorkerPoolStats ws = workers_->stats();
    fields.push_back({"workers_live", json_number(double(ws.live))});
    fields.push_back({"poisoned_cells", json_number(double(ws.poisoned))});
  }
  return response_line("health", fields, tag);
}

std::string SweepDaemon::stats_response(const std::string& tag) const {
  const char* status = draining_.load()                ? "draining"
                       : (workers_ && workers_->degraded()) ? "degraded"
                                                            : "serving";
  std::vector<JsonField> fields = {
      {"status", json_quote(status)},
      {"uptime_s", json_number(uptime_s())},
      {"queue_depth", json_number(double(queue_.depth()))},
      {"max_queue", json_number(double(queue_.capacity()))},
      {"in_flight", json_number(double(registry_.in_flight()))},
      {"admitted", json_number(double(stats_.admitted.load()))},
      {"rejected_overloaded",
       json_number(double(stats_.rejected_overloaded.load()))},
      {"rejected_draining",
       json_number(double(stats_.rejected_draining.load()))},
      {"protocol_errors", json_number(double(stats_.protocol_errors.load()))},
      {"completed", json_number(double(stats_.completed.load()))},
      {"failed", json_number(double(stats_.failed.load()))},
      {"cancelled", json_number(double(stats_.cancelled.load()))},
      {"deadline_expired",
       json_number(double(stats_.deadline_expired.load()))},
      {"connections_total",
       json_number(double(stats_.connections_total.load()))},
      {"connections_open",
       json_number(double(stats_.connections_open.load()))},
      {"connections_torn_down",
       json_number(double(stats_.connections_torn_down.load()))},
      {"queue_wait_ms_mean", json_number(stats_.queue_wait_ms_mean())},
      {"run_ms_mean", json_number(stats_.run_ms_mean())},
  };
  if (store_) {
    fields.push_back({"store_hits", json_number(double(store_->hits()))});
    fields.push_back({"store_misses", json_number(double(store_->misses()))});
    fields.push_back({"store_writes", json_number(double(store_->writes()))});
    fields.push_back({"store_hit_rate", json_number(store_->hit_rate())});
  }
  fields.push_back(
      {"isolation", json_quote(workers_ ? "process" : "thread")});
  if (workers_) {
    const WorkerPoolStats ws = workers_->stats();
    fields.push_back({"workers_live", json_number(double(ws.live))});
    fields.push_back({"workers_spawned", json_number(double(ws.spawned))});
    fields.push_back({"worker_crashes", json_number(double(ws.crashes))});
    fields.push_back(
        {"worker_deadline_kills", json_number(double(ws.deadline_kills))});
    fields.push_back(
        {"worker_restarts_denied", json_number(double(ws.restarts_denied))});
    fields.push_back(
        {"worker_cells_executed", json_number(double(ws.cells_executed))});
    fields.push_back({"poisoned_cells", json_number(double(ws.poisoned))});
  }
  return response_line("stats", fields, tag);
}

bool parse_serve_args(const std::vector<std::string>& args,
                      DaemonOptions& opts, std::string& error) {
  // The run flags a daemon applies to every request; the rest of
  // `afs_sweep run`'s flags are per-invocation and make no sense here.
  static constexpr std::string_view kRunFlags[] = {
      "--out-dir=", "--store=", "--no-store", "--jobs=", "--cell-timeout=",
      "--cell-retries="};
  std::vector<std::string> run_flags;
  for (const std::string& a : args) {
    const auto has = [&a](std::string_view prefix) {
      return a.rfind(prefix, 0) == 0;
    };
    bool ok = true;
    if (has("--socket=")) {
      opts.socket_path = a.substr(9);
    } else if (has("--max-queue=")) {
      ok = bench::parse_flag_value(a, "--max-queue", 1, 4096, opts.max_queue,
                                   error);
    } else if (has("--max-connections=")) {
      ok = bench::parse_flag_value(a, "--max-connections", 1, 1024,
                                   opts.max_connections, error);
    } else if (has("--default-deadline=")) {
      ok = bench::parse_flag_value(a, "--default-deadline", 0.0, 86400.0,
                                   opts.default_deadline, error);
    } else if (has("--drain-timeout=")) {
      ok = bench::parse_flag_value(a, "--drain-timeout", 0.001, 86400.0,
                                   opts.drain_timeout, error);
    } else if (has("--write-timeout=")) {
      ok = bench::parse_flag_value(a, "--write-timeout", 0.001, 3600.0,
                                   opts.write_timeout, error);
    } else if (has("--isolation=")) {
      opts.isolation = a.substr(12);
      if (opts.isolation != "thread" && opts.isolation != "process") {
        error = "--isolation must be thread or process";
        return false;
      }
    } else if (has("--poison-strikes=")) {
      ok = bench::parse_flag_value(a, "--poison-strikes", 1, 100,
                                   opts.poison_strikes, error);
    } else if (has("--restart-burst=")) {
      ok = bench::parse_flag_value(a, "--restart-burst", 0.0, 10000.0,
                                   opts.restart_burst, error);
    } else if (has("--restart-refill=")) {
      ok = bench::parse_flag_value(a, "--restart-refill", 0.0, 10000.0,
                                   opts.restart_refill, error);
    } else if (a == "--quiet") {
      opts.log = nullptr;
    } else if (std::any_of(std::begin(kRunFlags), std::end(kRunFlags), has)) {
      run_flags.push_back(a);
    } else {
      error = "unknown argument '" + a + "'";
      return false;
    }
    if (!ok) return false;
  }
  bool want_help = false;  // --help is not a run flag here: never set
  if (!bench::parse_cli_args(run_flags, opts.cli, error, want_help))
    return false;
  if (opts.socket_path.empty()) {
    error = "--socket=PATH is required";
    return false;
  }
  return true;
}

}  // namespace afs::service
