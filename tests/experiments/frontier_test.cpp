// The frontier_tradeoff experiment and its supporting plumbing: registry
// wiring, the hard affinity pins the experiment's soft shapes point at,
// the SimResult serializer's trace-metric extension, and bit-identity of
// feedback-driven cells across sweep parallelism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "experiments/figure.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "machines/machines.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "support/test_dir.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"

namespace afs {
namespace {

TEST(FrontierRegistry, ExperimentIsRegistered) {
  const Experiment* e = find_experiment("frontier_tradeoff");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, ExperimentKind::kTable);
  ASSERT_EQ(e->csv_ids.size(), 1u);
  EXPECT_EQ(e->csv_ids[0], "frontier_tradeoff");
}

TEST(FrontierRegistry, Tab7CarriesTheAdaptiveCsv) {
  const Experiment* e = find_experiment("tab7");
  ASSERT_NE(e, nullptr);
  const std::vector<std::string> want = {"tab7", "tab7_adaptive"};
  EXPECT_EQ(e->csv_ids, want);
}

/// Simulates one traced cell and returns its trace analysis — the same
/// evidence chain frontier_tradeoff scores cells with.
TraceAnalysis traced_run(const TestDir& dir, const std::string& spec, int p) {
  // Default iris, jitter included (deterministically seeded): with a
  // zero-jitter machine SS's grab pattern repeats exactly each epoch and
  // every central-queue scheduler scores a vacuous 1.0.
  const MachineConfig m = iris();
  const LoopProgram prog = SorKernel::program(256, 8);
  const std::string path = dir / (spec + ".p" + std::to_string(p) + ".cctrace");
  SimOptions opts;
  BinaryTraceSink sink(path);
  opts.trace = &sink;
  MachineSim sim(m, opts);
  auto sched = make_scheduler(spec);
  (void)sim.run(prog, *sched, p);
  sink.finalize();
  const std::vector<TraceAnalysis> runs = analyze_trace_file(path);
  EXPECT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs.front().conserved()) << spec;
  return runs.front();
}

TEST(FrontierPins, TailorAffinityAtLeastAfsOnSorAtP8) {
  // TAILOR is operationally AFS while its affinity estimate holds above
  // threshold, and re-homes toward the observed placement when it does
  // not — so on SOR at P=8 its affinity score must never fall below
  // AFS's. This is the hard version of frontier_tradeoff's soft shape.
  const TestDir dir;
  const TraceAnalysis afs = traced_run(dir, "AFS", 8);
  const TraceAnalysis tailor = traced_run(dir, "TAILOR(0.5)", 8);
  EXPECT_GE(tailor.affinity_score(), afs.affinity_score() - 1e-12);
}

TEST(FrontierPins, AfsAffinityBeatsSelfSchedulingOnSorAtP8) {
  const TestDir dir;
  const TraceAnalysis afs = traced_run(dir, "AFS", 8);
  const TraceAnalysis ss = traced_run(dir, "SS", 8);
  EXPECT_GT(afs.affinity_score(), ss.affinity_score());
}

TEST(SimResultSerializer, RoundTripsTraceMetrics) {
  SimResult r;
  r.makespan = 123.0;
  r.iterations = 42;
  r.trace_affinity_score = 0.875;
  r.trace_imbalance = 0.03125;
  const std::string text = serialize_sim_result(r);
  EXPECT_NE(text.find("xaff"), std::string::npos);
  EXPECT_NE(text.find("ximb"), std::string::npos);
  SimResult out;
  ASSERT_TRUE(parse_sim_result(text, out));
  EXPECT_EQ(out.makespan, r.makespan);
  EXPECT_EQ(out.iterations, r.iterations);
  EXPECT_EQ(out.trace_affinity_score, r.trace_affinity_score);
  EXPECT_EQ(out.trace_imbalance, r.trace_imbalance);
}

TEST(SimResultSerializer, PlainResultsOmitTraceMetrics) {
  // Unset metrics are not serialized, so plain cells' store entries are
  // byte-identical to what every earlier version of the schema wrote.
  SimResult r;
  r.makespan = 9.0;
  const std::string text = serialize_sim_result(r);
  EXPECT_EQ(text.find("xaff"), std::string::npos);
  EXPECT_EQ(text.find("ximb"), std::string::npos);
  SimResult out;
  out.trace_affinity_score = 0.5;  // must be reset by parsing
  out.trace_imbalance = 0.5;
  ASSERT_TRUE(parse_sim_result(text, out));
  EXPECT_EQ(out.trace_affinity_score, -1.0);
  EXPECT_EQ(out.trace_imbalance, -1.0);
}

TEST(FrontierSweep, AdaptiveCellsBitIdenticalAcrossJobs) {
  // The feedback channel must not make sweep results depend on worker
  // interleaving: each cell owns a private scheduler and a deterministic
  // simulated clock, so --jobs=1 and --jobs=4 serialize identically.
  const TestDir dir;
  const auto sweep = [&dir](int jobs) {
    FigureSpec spec;
    spec.id = "frontiertest";
    spec.out_dir = dir.str();
    spec.title = "adaptive jobs determinism";
    spec.machine = iris();
    spec.machine.epoch_jitter = 0.0;
    spec.program = GaussKernel::program(64);
    spec.procs = {2, 4};
    for (const std::string& s : adaptive_scheduler_specs())
      spec.schedulers.push_back(entry(s));
    SweepOptions sw;
    sw.jobs = jobs;
    std::ostringstream out;
    return run_figure(spec, out, sw);
  };
  const FigureResult serial = sweep(1);
  const FigureResult parallel = sweep(4);
  ASSERT_TRUE(serial.failures.empty());
  ASSERT_TRUE(parallel.failures.empty());
  for (const auto& [label, by_p] : serial.results) {
    for (const auto& [p, r] : by_p) {
      const auto it = parallel.results.find(label);
      ASSERT_NE(it, parallel.results.end()) << label;
      const auto pit = it->second.find(p);
      ASSERT_NE(pit, it->second.end()) << label << " P=" << p;
      EXPECT_EQ(serialize_sim_result(r), serialize_sim_result(pit->second))
          << label << " P=" << p;
    }
  }
}

}  // namespace
}  // namespace afs
