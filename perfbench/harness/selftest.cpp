// Self-tests of the traced harness: the hooks must observe without
// changing what they observe.
#include <gtest/gtest.h>

#include "experiments/grid.hpp"
#include "hooks.hpp"
#include "layers.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/registry.hpp"

namespace {

using perfbench::Recorder;

perfbench::SampleCell grid_cell(const std::string& kernel,
                                const std::string& machine,
                                const std::string& sched, int procs) {
  afs::GridSpec g;
  g.kernel = kernel;
  g.machine = machine;
  g.schedulers = sched;
  g.procs = {procs};
  return {afs::make_grid_experiment(g).make_spec(), 0, procs};
}

std::vector<perfbench::SampleCell> cells() {
  std::vector<perfbench::SampleCell> out;
  out.push_back(perfbench::sample_cell("fig15", "AFS", 16));
  // Feedback users, a stealing variant and a central queue, on kernels
  // with and without imbalance.
  for (const char* s : {"ADAPT", "TAILOR(0.5)", "WORKSHARE", "AFS-NN", "SS"})
    out.push_back(grid_cell("tc-random:96,0.1,7", "iris", s, 4));
  out.push_back(grid_cell("sor:64,4", "ksr1", "AFS", 8));
  return out;
}

TEST(Hooks, DecoratedRunIsBitIdenticalToUndecorated) {
  for (const perfbench::SampleCell& cell : cells()) {
    Recorder::get().set_enabled(false);
    const std::string plain =
        afs::serialize_sim_result(perfbench::run_cell(cell, nullptr));
    Recorder::get().set_enabled(true);
    Recorder::get().reset();
    perfbench::AccessRecorder observer;
    const std::string traced =
        afs::serialize_sim_result(perfbench::run_cell(cell, &observer));
    EXPECT_EQ(plain, traced) << cell.spec.id;
    // The decorator really sat in the path.
    EXPECT_EQ(Recorder::get().counters().sim_cells, 1);
    EXPECT_GT(Recorder::get().counters().sched_grabs, 0);
  }
}

TEST(Hooks, ForwardingCloneForwardsEveryGrab) {
  auto inner = afs::make_scheduler("AFS");
  perfbench::ForwardingScheduler fwd(*inner);
  auto copy = fwd.clone();
  auto reference = inner->clone();
  EXPECT_EQ(copy->name(), reference->name());
  EXPECT_EQ(copy->wants_feedback(), reference->wants_feedback());
  EXPECT_EQ(copy->victim_probe_count(8), reference->victim_probe_count(8));
  copy->start_loop(1000, 4);
  reference->start_loop(1000, 4);
  for (int i = 0; i < 200; ++i) {
    const afs::Grab a = copy->next(i % 4);
    const afs::Grab b = reference->next(i % 4);
    ASSERT_EQ(a.range.begin, b.range.begin);
    ASSERT_EQ(a.range.end, b.range.end);
    ASSERT_EQ(a.kind, b.kind);
  }
}

TEST(Replay, ReproducesRecordedHitsAndMissesExactly) {
  Recorder::get().set_enabled(false);
  for (const perfbench::SampleCell& cell : cells()) {
    perfbench::AccessRecorder rec;
    const afs::SimResult r = perfbench::run_cell(cell, &rec);
    ASSERT_EQ(static_cast<std::int64_t>(rec.records.size()),
              r.hits + r.misses);
    const perfbench::ReplayResult rr =
        perfbench::replay_accesses(cell.spec.machine, cell.procs, rec.records);
    EXPECT_EQ(rr.hits, r.hits) << cell.spec.id;
    EXPECT_EQ(rr.misses, r.misses) << cell.spec.id;
  }
}

}  // namespace
