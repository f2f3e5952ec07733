// Tests for the supervised worker sandbox (--isolation=process): cells run
// in forked subprocesses bit-identically to in-process runs, a crashing
// cell kills one worker (which the supervisor replaces and classifies),
// repeat offenders are quarantined as poison, an exhausted restart budget
// degrades the pool to cache-only mode, and deadlines kill workers without
// charging the cell a strike.
//
// The pool re-execs *this* test binary as the worker: main() below
// dispatches argv[1] == "afs-worker-main" into worker_main() before gtest
// ever initializes, so WorkerPoolOptions{args={"afs-worker-main"}} turns
// any test process into its own sandbox fleet.
#include "service/worker.hpp"

#include <stdlib.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "runtime/cell_executor.hpp"
#include "runtime/sweep_runner.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace afs::service {
namespace {

namespace fs = std::filesystem;

/// Keeps AFS_CRASH_CELL scoped to one test: the hook aborts whatever
/// process simulates the named cell, so leaking it across tests (or into
/// an in-process batch run) would abort the test binary itself.
class ScopedCrashCell {
 public:
  explicit ScopedCrashCell(const std::string& spec) {
    ::setenv("AFS_CRASH_CELL", spec.c_str(), 1);
  }
  ~ScopedCrashCell() { ::unsetenv("AFS_CRASH_CELL"); }
};

/// The recipe every pool test ships: a small ad-hoc grid (gauss:64 on the
/// iris) — cheap, deterministic, and exercising the same wire fields as
/// real requests.
CellExecSpec small_grid_spec() {
  CellExecSpec spec;
  spec.kernel = "gauss:64";
  spec.machine = "iris";
  spec.schedulers = "SS,GSS,AFS";
  spec.procs = {1, 2, 4};
  return spec;
}

GridSpec small_grid() {
  GridSpec g;
  g.kernel = "gauss:64";
  g.machine = "iris";
  g.schedulers = "SS,GSS,AFS";
  g.procs = {1, 2, 4};
  return g;
}

WorkerPoolOptions test_pool_options(int workers = 1) {
  WorkerPoolOptions o;
  o.workers = workers;
  o.args = {"afs-worker-main"};  // exe defaults to /proc/self/exe
  return o;
}

SimResult in_process_cell(const std::string& label, int procs) {
  const FigureSpec spec = make_grid_experiment(small_grid()).make_spec();
  for (const SchedulerEntry& se : spec.schedulers)
    if (se.label == label)
      return run_figure_cell(spec, se, procs, spec.sim_options);
  throw std::runtime_error("no scheduler labelled " + label);
}

TEST(WorkerPool, CellResultsAreBitIdenticalToInProcess) {
  WorkerPool pool(test_pool_options(2));
  std::string error;
  ASSERT_TRUE(pool.start(error)) << error;

  const CancelToken token;
  for (const std::string label : {"SS", "GSS", "AFS"})
    for (int p : {1, 2, 4}) {
      const SimResult sandboxed = pool.execute(
          small_grid_spec(), label, p, EngineToggles{false}, token);
      EXPECT_EQ(serialize_sim_result(sandboxed),
                serialize_sim_result(in_process_cell(label, p)))
          << label << " P=" << p;
    }

  const WorkerPoolStats s = pool.stats();
  EXPECT_EQ(s.cells_executed, 9);
  EXPECT_EQ(s.crashes, 0);
  EXPECT_EQ(s.poisoned, 0);
  EXPECT_FALSE(s.degraded);
  EXPECT_EQ(s.live, 2);
}

TEST(WorkerPool, BadRecipesFailStructurallyWithoutKillingWorkers) {
  WorkerPool pool(test_pool_options());
  std::string error;
  ASSERT_TRUE(pool.start(error)) << error;
  const CancelToken token;

  // Unknown scheduler label: the worker reports it; the worker survives.
  EXPECT_THROW(pool.execute(small_grid_spec(), "NOT-A-SCHEDULER", 2, EngineToggles{false}, token),
               std::runtime_error);
  // P beyond the machine: same.
  EXPECT_THROW(pool.execute(small_grid_spec(), "SS", 10'000, EngineToggles{false},
                            token),
               std::runtime_error);
  // Unknown registered experiment id: same.
  CellExecSpec unknown;
  unknown.experiment = "no-such-experiment";
  EXPECT_THROW(pool.execute(unknown, "SS", 1, EngineToggles{false}, token),
               std::runtime_error);

  const WorkerPoolStats s = pool.stats();
  EXPECT_EQ(s.crashes, 0) << "structured failures must not kill workers";
  EXPECT_EQ(s.live, 1);

  // And the same worker still executes real cells afterwards.
  EXPECT_EQ(serialize_sim_result(
                pool.execute(small_grid_spec(), "SS", 1, EngineToggles{false}, token)),
            serialize_sim_result(in_process_cell("SS", 1)));
}

TEST(WorkerPool, CrashIsClassifiedAndTheWorkerReplaced) {
  const ScopedCrashCell crash("grid:GSS:2");
  WorkerPool pool(test_pool_options());
  std::string error;
  ASSERT_TRUE(pool.start(error)) << error;
  const CancelToken token;

  try {
    pool.execute(small_grid_spec(), "GSS", 2, EngineToggles{false}, token);
    FAIL() << "crashing cell must throw";
  } catch (const PoisonedCellError&) {
    FAIL() << "first crash is a strike, not a quarantine";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SIGABRT"), std::string::npos)
        << "kill must be classified: " << e.what();
  }

  WorkerPoolStats s = pool.stats();
  EXPECT_EQ(s.crashes, 1);
  EXPECT_EQ(s.poisoned, 0);

  // The supervisor respawns on demand; a healthy cell goes through.
  EXPECT_EQ(serialize_sim_result(
                pool.execute(small_grid_spec(), "SS", 1, EngineToggles{false}, token)),
            serialize_sim_result(in_process_cell("SS", 1)));
  s = pool.stats();
  EXPECT_EQ(s.live, 1);
  EXPECT_GE(s.spawned, 2);
}

TEST(WorkerPool, RepeatOffenderIsQuarantinedAsPoison) {
  const ScopedCrashCell crash("grid:GSS:2");
  WorkerPoolOptions opts = test_pool_options();
  opts.poison_strikes = 3;
  WorkerPool pool(opts);
  std::string error;
  ASSERT_TRUE(pool.start(error)) << error;
  const CancelToken token;

  // Strikes 1 and 2 are transient crashes; strike 3 quarantines.
  EXPECT_THROW(pool.execute(small_grid_spec(), "GSS", 2, EngineToggles{false}, token),
               std::runtime_error);
  EXPECT_THROW(pool.execute(small_grid_spec(), "GSS", 2, EngineToggles{false}, token),
               std::runtime_error);
  EXPECT_THROW(pool.execute(small_grid_spec(), "GSS", 2, EngineToggles{false}, token),
               PoisonedCellError);
  EXPECT_EQ(pool.stats().crashes, 3);

  // Blacklisted for the pool's lifetime: answered without burning another
  // worker, under the stable cell id.
  EXPECT_THROW(pool.execute(small_grid_spec(), "GSS", 2, EngineToggles{false}, token),
               PoisonedCellError);
  EXPECT_EQ(pool.stats().crashes, 3);
  EXPECT_EQ(pool.stats().poisoned, 1);
  const std::vector<std::string> poisoned = pool.poisoned_cells();
  ASSERT_EQ(poisoned.size(), 1u);
  EXPECT_EQ(poisoned[0],
            WorkerPool::cell_id(small_grid_spec(), "GSS", 2));

  // The quarantine is per-cell: its neighbours still execute.
  EXPECT_EQ(serialize_sim_result(
                pool.execute(small_grid_spec(), "GSS", 4, EngineToggles{false}, token)),
            serialize_sim_result(in_process_cell("GSS", 4)));
}

TEST(WorkerPool, ExhaustedRestartBudgetDegradesToCacheOnly) {
  const ScopedCrashCell crash("grid:GSS:2");
  WorkerPoolOptions opts = test_pool_options();
  opts.restart_burst = 0.0;  // initial spawns are free; respawns are not
  opts.restart_refill_per_s = 0.0;
  WorkerPool pool(opts);
  std::string error;
  ASSERT_TRUE(pool.start(error)) << error;
  const CancelToken token;
  EXPECT_FALSE(pool.degraded());

  // The crash takes the only worker; the empty bucket refuses a respawn.
  EXPECT_THROW(pool.execute(small_grid_spec(), "GSS", 2, EngineToggles{false}, token),
               std::runtime_error);
  EXPECT_THROW(pool.execute(small_grid_spec(), "SS", 1, EngineToggles{false}, token),
               DegradedError);

  EXPECT_TRUE(pool.degraded());
  const WorkerPoolStats s = pool.stats();
  EXPECT_EQ(s.live, 0);
  EXPECT_GE(s.restarts_denied, 1);
}

TEST(WorkerPool, PreCancelledTokenNeverReachesAWorker) {
  WorkerPool pool(test_pool_options());
  std::string error;
  ASSERT_TRUE(pool.start(error)) << error;

  CancelToken token;
  token.cancel();
  EXPECT_THROW(pool.execute(small_grid_spec(), "SS", 1, EngineToggles{false}, token),
               CancelledError);
  const WorkerPoolStats s = pool.stats();
  EXPECT_EQ(s.crashes, 0);
  EXPECT_EQ(s.deadline_kills, 0);
  EXPECT_EQ(s.live, 1);
}

TEST(WorkerPool, DeadlineKillsTheWorkerWithoutAStrike) {
  WorkerPool pool(test_pool_options());
  std::string error;
  ASSERT_TRUE(pool.start(error)) << error;

  // A cell slow enough (seconds) that a 50ms deadline reliably fires
  // mid-simulation.
  CellExecSpec slow;
  slow.kernel = "gauss:4000";
  slow.machine = "butterfly1";
  slow.schedulers = "SS";
  slow.procs = {1};

  CancelToken token;
  token.set_timeout(0.05);
  EXPECT_THROW(pool.execute(slow, "SS", 1, EngineToggles{false}, token),
               CancelledError);

  WorkerPoolStats s = pool.stats();
  EXPECT_EQ(s.deadline_kills, 1);
  EXPECT_EQ(s.crashes, 0) << "a deadline kill is not worker churn";
  EXPECT_EQ(s.poisoned, 0) << "a deadline kill is not the cell's fault";

  // The kill earned a free respawn credit: the next cell runs even with
  // an empty-looking budget.
  const CancelToken fresh;
  EXPECT_EQ(serialize_sim_result(
                pool.execute(small_grid_spec(), "SS", 1, EngineToggles{false}, fresh)),
            serialize_sim_result(in_process_cell("SS", 1)));
}

TEST(WorkerPool, CellIdsAreStableAndShapeSpecific) {
  CellExecSpec fig;
  fig.experiment = "fig04";
  EXPECT_EQ(WorkerPool::cell_id(fig, "AFS", 8), "fig04/AFS/P8");
  const std::string grid_id =
      WorkerPool::cell_id(small_grid_spec(), "GSS", 2);
  EXPECT_NE(grid_id.find("gauss:64"), std::string::npos);
  EXPECT_NE(grid_id.find("/GSS/P2"), std::string::npos);
  EXPECT_NE(grid_id, WorkerPool::cell_id(small_grid_spec(), "GSS", 4));
}

// ---------------------------------------------------------------------------
// The daemon seam: a request naming poisoned and healthy cells gets the
// healthy cells (byte-identical to a batch run) plus structured
// "cell_error" events for the quarantined one — and the daemon stays up.

class WorkerDaemonTest : public ::testing::Test {
 protected:
  void Start(const std::function<void(DaemonOptions&)>& tweak = nullptr) {
    dir_ = fs::path(::testing::TempDir()) /
           ("afs_worker_daemon." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    DaemonOptions o;
    o.socket_path = (dir_ / "sock").string();
    o.cli.out_dir = (dir_ / "out").string();
    o.cli.no_store = true;
    o.drain_timeout = 2.0;
    o.install_signal_handlers = false;
    o.log = nullptr;
    o.isolation = "process";
    o.worker_args = {"afs-worker-main"};
    o.cli.jobs = 2;
    if (tweak) tweak(o);
    daemon_.emplace(std::move(o));
    serve_thread_ = std::thread([this] { rc_ = daemon_->serve(); });
  }

  void TearDown() override {
    if (daemon_ && serve_thread_.joinable()) {
      daemon_->request_drain();
      serve_thread_.join();
    }
    daemon_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  bool Connect(ServiceClient& c) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::string error;
    while (std::chrono::steady_clock::now() < deadline) {
      if (c.connect(daemon_->options().socket_path, error)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "could not connect: " << error;
    return false;
  }

  fs::path dir_;
  std::optional<SweepDaemon> daemon_;
  std::thread serve_thread_;
  int rc_ = -1;
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Drops the CSV rows of one (scheduler, P) cell — "grid,GSS,2,..." —
/// keeping byte order of everything else.
std::string without_cell_rows(const std::string& csv, const std::string& label,
                              int procs) {
  const std::string prefix = "grid," + label + "," + std::to_string(procs) + ",";
  std::istringstream in(csv);
  std::string out, line;
  while (std::getline(in, line))
    if (line.compare(0, prefix.size(), prefix) != 0) out += line + "\n";
  return out;
}

TEST_F(WorkerDaemonTest, PoisonedCellIsIsolatedHealthyCellsMatchBatch) {
  // Batch ground truth first, with the crash hook OFF — the same grid run
  // in-process writes the reference grid.csv.
  const GridSpec grid = [] {
    GridSpec g;
    g.kernel = "gauss:600";
    g.machine = "butterfly1";
    g.schedulers = "SS,GSS";
    g.procs = {1, 2};
    return g;
  }();
  const fs::path batch_dir =
      fs::path(::testing::TempDir()) / "afs_worker_batch";
  fs::remove_all(batch_dir);
  fs::create_directories(batch_dir);
  {
    FigureSpec spec = make_grid_experiment(grid).make_spec();
    spec.out_dir = batch_dir.string();
    std::ostringstream quiet;
    run_figure(spec, quiet);
  }
  const std::string batch_csv = read_file(batch_dir / "grid.csv");
  ASSERT_FALSE(batch_csv.empty());

  // Now the daemon, workers inheriting a hook that aborts grid/GSS/P2.
  // poison_strikes=2 so the runner's in-request retries (3 attempts)
  // cross the quarantine threshold inside this one request.
  const ScopedCrashCell crash("grid:GSS:2");
  Start([](DaemonOptions& o) { o.poison_strikes = 2; });

  ServiceClient c;
  ASSERT_TRUE(Connect(c));
  ASSERT_TRUE(c.send_line(
      "{\"verb\":\"grid\",\"kernel\":\"gauss:600\",\"machine\":\"butterfly1\","
      "\"schedulers\":\"SS,GSS\",\"procs\":\"1,2\",\"tag\":\"mixed\"}"));

  bool saw_poison_error = false;
  std::vector<std::string> csvs;
  for (;;) {
    std::string line;
    ASSERT_TRUE(c.read_line(line, 60.0)) << "daemon hung or died mid-request";
    JsonValue v;
    std::string jerr;
    ASSERT_TRUE(parse_json(line, v, jerr)) << line;
    const JsonValue* event = v.find("event");
    ASSERT_NE(event, nullptr);
    if (event->string == "cell_error") {
      const JsonValue* code = v.find("code");
      ASSERT_NE(code, nullptr);
      EXPECT_EQ(code->string, err::kPoisonCell);
      const JsonValue* sched = v.find("scheduler");
      ASSERT_NE(sched, nullptr);
      EXPECT_EQ(sched->string, "GSS");
      EXPECT_DOUBLE_EQ(v.find("procs")->number, 2.0);
      saw_poison_error = true;
      continue;
    }
    if (event->string == "done") {
      const JsonValue* experiments = v.find("experiments");
      ASSERT_NE(experiments, nullptr);
      ASSERT_EQ(experiments->array.size(), 1u);
      if (const JsonValue* cs = experiments->array[0].find("csv"))
        for (const JsonValue& p : cs->array) csvs.push_back(p.string);
      break;
    }
    ASSERT_NE(event->string, "error") << line;
  }
  EXPECT_TRUE(saw_poison_error)
      << "quarantine must surface as a structured cell_error";

  // Healthy cells are byte-identical to the batch run; only the poisoned
  // cell's row is missing.
  ASSERT_EQ(csvs.size(), 1u);
  const std::string daemon_csv = read_file(csvs[0]);
  EXPECT_EQ(daemon_csv, without_cell_rows(batch_csv, "GSS", 2));
  EXPECT_NE(daemon_csv, batch_csv);

  // The daemon took the crashes in stride: still serving, workers alive,
  // the quarantine visible in health.
  ASSERT_TRUE(c.send_line("{\"verb\":\"health\"}"));
  std::string line;
  ASSERT_TRUE(c.read_line(line, 10.0));
  JsonValue h;
  std::string jerr;
  ASSERT_TRUE(parse_json(line, h, jerr));
  EXPECT_EQ(h.find("status")->string, "serving");
  EXPECT_EQ(h.find("isolation")->string, "process");
  // live workers may be 0 here — the pool respawns lazily on demand.
  ASSERT_NE(h.find("workers_live"), nullptr);
  EXPECT_DOUBLE_EQ(h.find("poisoned_cells")->number, 1.0);

  ASSERT_TRUE(c.send_line("{\"verb\":\"stats\"}"));
  ASSERT_TRUE(c.read_line(line, 10.0));
  JsonValue st;
  ASSERT_TRUE(parse_json(line, st, jerr));
  EXPECT_GE(st.find("worker_crashes")->number, 2.0);
  EXPECT_GE(st.find("workers_spawned")->number, 2.0);
  EXPECT_DOUBLE_EQ(st.find("poisoned_cells")->number, 1.0);

  // A repeat request gets the poison answer instantly — no fresh crashes.
  ASSERT_TRUE(c.send_line(
      "{\"verb\":\"grid\",\"kernel\":\"gauss:600\",\"machine\":\"butterfly1\","
      "\"schedulers\":\"GSS\",\"procs\":\"2\",\"tag\":\"again\"}"));
  bool saw_second_poison = false;
  for (;;) {
    ASSERT_TRUE(c.read_line(line, 30.0));
    JsonValue v;
    ASSERT_TRUE(parse_json(line, v, jerr)) << line;
    const std::string event = v.find("event")->string;
    if (event == "cell_error") {
      EXPECT_EQ(v.find("code")->string, err::kPoisonCell);
      saw_second_poison = true;
    }
    if (event == "done") break;
  }
  EXPECT_TRUE(saw_second_poison);

  // And a healthy request still runs to done — the pool respawned workers
  // on demand after the crashes.
  ASSERT_TRUE(c.send_line(
      "{\"verb\":\"grid\",\"kernel\":\"gauss:600\",\"machine\":\"butterfly1\","
      "\"schedulers\":\"SS\",\"procs\":\"1\",\"tag\":\"healthy\"}"));
  for (;;) {
    ASSERT_TRUE(c.read_line(line, 30.0));
    JsonValue v;
    ASSERT_TRUE(parse_json(line, v, jerr)) << line;
    const std::string event = v.find("event")->string;
    ASSERT_NE(event, "error") << line;
    ASSERT_NE(event, "cell_error") << line;
    if (event == "done") {
      EXPECT_TRUE(v.find("ok")->boolean);
      break;
    }
  }

  fs::remove_all(batch_dir);
}

}  // namespace
}  // namespace afs::service

int main(int argc, char** argv) {
  // Worker dispatch: the pool re-execs this binary with a marker argv to
  // turn it into a sandbox worker. Must run before gtest sees the args.
  if (argc > 1 && std::string(argv[1]) == "afs-worker-main")
    return afs::service::worker_main();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
