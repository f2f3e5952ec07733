// The experiment registry: every paper reproduction keyed by id, plus the
// cached-cell helper the bespoke tables run through. End-to-end coverage
// (an experiment run under a store serving >= 95% of cells on the warm
// pass) lives in CI's sweep-service job; these tests pin the registry
// contract itself.
#include "experiments/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/registry.hpp"
#include "store/result_store.hpp"
#include "support/test_dir.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(Registry, AllHistoricalBinariesAreRegistered) {
  const std::set<std::string> expected{
      "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
      "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
      "fig17", "tab2",  "tab3",  "tab4",  "tab5",  "tab6",  "tab7",
      "ablation_afs", "trend_comm_ratio", "frontier_tradeoff",
      "micro_queues"};
  std::set<std::string> actual;
  for (const Experiment& e : all_experiments()) actual.insert(e.id);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(all_experiments().size(), expected.size());  // ids are unique
}

TEST(Registry, EntriesAreWellFormed) {
  for (const Experiment& e : all_experiments()) {
    EXPECT_FALSE(e.title.empty()) << e.id;
    EXPECT_TRUE(e.run != nullptr) << e.id;
    if (e.kind != ExperimentKind::kMicro) {
      EXPECT_FALSE(e.csv_ids.empty()) << e.id;
    }
  }
}

TEST(Registry, FindExperimentByIdAndUnknown) {
  const Experiment* fig04 = find_experiment("fig04");
  ASSERT_NE(fig04, nullptr);
  EXPECT_EQ(fig04->id, "fig04");
  EXPECT_EQ(fig04->kind, ExperimentKind::kFigure);
  EXPECT_EQ(find_experiment("fig99"), nullptr);
  EXPECT_EQ(find_experiment(""), nullptr);
}

TEST(Registry, MicroExperimentShortCircuits) {
  const Experiment* micro = find_experiment("micro_queues");
  ASSERT_NE(micro, nullptr);
  EXPECT_EQ(micro->kind, ExperimentKind::kMicro);
  ExperimentContext ctx;
  std::ostringstream out;
  EXPECT_EQ(run_experiment(*micro, ctx, out), 0);
  EXPECT_NE(out.str().find("google-benchmark"), std::string::npos);
}

TEST(Registry, RunCellCachedServesTheSecondLookup) {
  ResultStore store(fresh_dir("registry_cells"));
  ExperimentContext ctx;
  ctx.store = &store;

  const auto program = balanced_program(256);
  const SimResult cold =
      run_cell_cached(ctx, iris(), program, "AFS", 4);
  EXPECT_EQ(store.hits(), 0);
  EXPECT_EQ(store.writes(), 1);

  const SimResult warm =
      run_cell_cached(ctx, iris(), program, "AFS", 4);
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.remote_grabs, cold.remote_grabs);

  // No store in the context: same numbers, nothing served or written.
  ExperimentContext bare;
  const SimResult direct =
      run_cell_cached(bare, iris(), program, "AFS", 4);
  EXPECT_EQ(direct.makespan, cold.makespan);
  EXPECT_EQ(store.writes(), 1);
}

TEST(Registry, RunCellCachedKeysEngineToggles) {
  // tab7's batching A/B check must simulate both engines, not be served
  // the batched result twice.
  ResultStore store(fresh_dir("registry_toggles"));
  ExperimentContext ctx;
  ctx.store = &store;
  const auto program = balanced_program(128);
  run_cell_cached(ctx, iris(), program, "GSS", 2);
  SimOptions unbatched;
  unbatched.batch_iterations = false;
  run_cell_cached(ctx, iris(), program, "GSS", 2, unbatched);
  EXPECT_EQ(store.writes(), 2);
  EXPECT_EQ(store.hits(), 0);
}

TEST(Registry, SchedulerDisplayNameMatchesTheBuiltScheduler) {
  for (const char* spec : {"AFS", "GSS", "SS", "FACTORING", "TRAPEZOID"})
    EXPECT_EQ(scheduler_display_name(spec), make_scheduler(spec)->name())
        << spec;
}

/// A context with the store off, writing into `out_dir`, optionally on a
/// shared pool at --jobs=jobs.
ExperimentContext table_context(const std::string& out_dir, ThreadPool* pool,
                                int jobs) {
  ExperimentContext ctx;
  ctx.cli.out_dir = out_dir;
  ctx.cli.jobs = jobs;
  ctx.pool = pool;
  return ctx;
}

TEST(TableCells, PoolRunsEveryCellExactlyOnce) {
  ThreadPool pool(4);
  const ExperimentContext ctx = table_context("unused", &pool, 4);
  std::vector<std::atomic<int>> runs(97);
  for_each_cell(ctx, runs.size(), [&](std::size_t i) { ++runs[i]; });
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].load(), 1) << "cell " << i;
}

TEST(TableCells, WithoutAPoolCellsRunInDeclarationOrder) {
  ThreadPool pool(4);
  for (const ExperimentContext& ctx :
       {table_context("unused", nullptr, 4),  // no pool
        table_context("unused", &pool, 1)}) {  // --jobs=1
    std::vector<std::size_t> order;
    for_each_cell(ctx, 10, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(TableCells, TablesAreByteIdenticalOnThePool) {
  // Each table's cells run in declaration order without a pool and under
  // self-scheduling on four workers with one: the assembled CSVs must not
  // differ by a byte.
  const TestDir dir;
  ThreadPool pool(4);
  for (const char* id :
       {"tab2", "tab3", "tab5", "tab7", "trend_comm_ratio"}) {
    const Experiment* e = find_experiment(id);
    ASSERT_NE(e, nullptr) << id;
    std::ostringstream serial_out, parallel_out;
    const int serial_rc = run_experiment(
        *e, table_context(dir / "serial", nullptr, 1), serial_out);
    const int parallel_rc = run_experiment(
        *e, table_context(dir / "parallel", &pool, 4), parallel_out);
    EXPECT_EQ(serial_rc, 0) << id;
    EXPECT_EQ(parallel_rc, serial_rc) << id;
    for (const std::string& csv : e->csv_ids) {
      const std::string serial = read_file(dir / ("serial/" + csv + ".csv"));
      EXPECT_FALSE(serial.empty()) << csv;
      EXPECT_EQ(read_file(dir / ("parallel/" + csv + ".csv")), serial)
          << csv;
    }
  }
}

TEST(TableCells, CellFailureComesOutUnchanged) {
  ThreadPool pool(4);
  for (const ExperimentContext& ctx :
       {table_context("unused", nullptr, 1),
        table_context("unused", &pool, 4)}) {
    std::atomic<int> started{0};
    try {
      for_each_cell(ctx, 64, [&](std::size_t i) {
        ++started;
        if (i == 5) throw CheckFailure("cell 5 broke an invariant");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
      ADD_FAILURE() << "no exception from the failing cell";
    } catch (const CheckFailure& e) {
      EXPECT_STREQ(e.what(), "cell 5 broke an invariant");
    }
    // Cells not yet started when the failure lands are skipped.
    EXPECT_LT(started.load(), 64);
  }
}

TEST(TableCells, PreFiredCancelIsCancelledError) {
  // The daemon classifies a request whose deadline fired by catching
  // CancelledError from the experiment: a table must raise exactly that,
  // on the pool as well as serially.
  const TestDir dir;
  ThreadPool pool(4);
  CancelToken token;
  token.cancel();
  const Experiment* tab3 = find_experiment("tab3");
  ASSERT_NE(tab3, nullptr);
  for (ExperimentContext ctx :
       {table_context(dir.str(), nullptr, 1),
        table_context(dir.str(), &pool, 4)}) {
    ctx.cancel = &token;
    std::ostringstream out;
    EXPECT_THROW(run_experiment(*tab3, ctx, out), CancelledError);
  }
}

}  // namespace
}  // namespace afs
