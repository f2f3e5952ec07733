// analyze_trace on hand-built record sequences: the arithmetic of the
// per-processor breakdown, the steal matrix, the affinity score, and the
// conservation law are all small enough to verify against pencil-and-
// paper numbers; schema violations must throw rather than mis-aggregate.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/sor.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "support/test_dir.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_record.hpp"

namespace afs {
namespace {

TraceRecord run_begin(int p) {
  return {.ev = TraceEv::kRunBegin, .machine = "m", .program = "prog",
          .scheduler = "X", .p = p};
}
TraceRecord loop_begin(int epoch, std::int64_t n, int p) {
  return {.ev = TraceEv::kLoopBegin, .p = p, .epoch = epoch, .n = n};
}
TraceRecord grab(int proc, GrabKind kind, int queue, std::int64_t b,
                 std::int64_t e, double t0, double t1) {
  return {.ev = TraceEv::kGrab, .proc = proc, .kind = kind, .queue = queue,
          .begin = b, .end = e, .t0 = t0, .t1 = t1};
}
TraceRecord chunk(int proc, std::int64_t b, std::int64_t e, double t0,
                  double t1) {
  return {.ev = TraceEv::kChunk, .proc = proc, .begin = b, .end = e,
          .t0 = t0, .t1 = t1};
}
TraceRecord loop_end(int epoch, double end) {
  return {.ev = TraceEv::kLoopEnd, .epoch = epoch, .t0 = end};
}
TraceRecord run_end(double makespan) {
  return {.ev = TraceEv::kRunEnd, .t0 = makespan};
}

TEST(TraceAnalysis, BreakdownArithmetic) {
  std::vector<TraceRecord> recs = {
      run_begin(2),
      loop_begin(0, 10, 2),
      grab(0, GrabKind::kLocal, 0, 0, 6, 0.0, 1.0),
      chunk(0, 0, 6, 1.0, 13.0),
      {.ev = TraceEv::kMiss, .proc = 0, .block = 3, .size = 4.0, .t0 = 2.0,
       .t1 = 5.0},
      grab(1, GrabKind::kCentral, 0, 6, 10, 0.0, 2.0),
      chunk(1, 6, 10, 2.0, 10.0),
      {.ev = TraceEv::kStall, .proc = 1, .t0 = 10.0, .t1 = 14.0},
      loop_end(0, 14.0),
      run_end(20.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  const TraceAnalysis& a = runs.front();

  EXPECT_EQ(a.scheduler, "X");
  EXPECT_EQ(a.p, 2);
  EXPECT_EQ(a.epochs, 1);
  EXPECT_DOUBLE_EQ(a.makespan, 20.0);

  ASSERT_EQ(a.procs.size(), 2u);
  EXPECT_DOUBLE_EQ(a.procs[0].exec, 12.0);
  EXPECT_DOUBLE_EQ(a.procs[0].memory, 3.0);
  EXPECT_DOUBLE_EQ(a.procs[0].busy(), 9.0);
  EXPECT_DOUBLE_EQ(a.procs[0].sync, 1.0);
  EXPECT_DOUBLE_EQ(a.procs[0].idle, 20.0 - 12.0 - 1.0);
  EXPECT_EQ(a.procs[0].iterations, 6);
  EXPECT_EQ(a.procs[0].chunks, 1);

  EXPECT_DOUBLE_EQ(a.procs[1].exec, 8.0);
  EXPECT_DOUBLE_EQ(a.procs[1].sync, 2.0);
  EXPECT_DOUBLE_EQ(a.procs[1].stall, 4.0);
  EXPECT_DOUBLE_EQ(a.procs[1].idle, 20.0 - 8.0 - 2.0 - 4.0);

  EXPECT_EQ(a.total_iterations, 10);
  EXPECT_EQ(a.executed_iterations, 10);
  EXPECT_EQ(a.abandoned_iterations, 0);
  EXPECT_TRUE(a.conserved());
  // Single epoch: nothing has a previous-epoch owner yet.
  EXPECT_EQ(a.scored_iterations, 0);
  EXPECT_DOUBLE_EQ(a.affinity_score(), 0.0);
}

TEST(TraceAnalysis, ExecImbalanceIsMaxOverMeanMinusOne) {
  // P0 executes for 12, P1 for 8: mean 10, max 12 -> imbalance 0.2.
  std::vector<TraceRecord> recs = {
      run_begin(2),
      loop_begin(0, 10, 2),
      chunk(0, 0, 6, 0.0, 12.0),
      chunk(1, 6, 10, 0.0, 8.0),
      loop_end(0, 12.0),
      run_end(12.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs.front().exec_imbalance(), 0.2);

  // Perfect balance scores exactly 0.
  std::vector<TraceRecord> even = {
      run_begin(2),
      loop_begin(0, 10, 2),
      chunk(0, 0, 5, 0.0, 7.0),
      chunk(1, 5, 10, 0.0, 7.0),
      loop_end(0, 7.0),
      run_end(7.0),
  };
  EXPECT_DOUBLE_EQ(analyze_trace(even).front().exec_imbalance(), 0.0);

  // An empty analysis (no procs) is defined as balanced, not NaN.
  EXPECT_DOUBLE_EQ(TraceAnalysis{}.exec_imbalance(), 0.0);
}

TEST(TraceAnalysis, AffinityScoreCountsPreviousEpochOwners) {
  // Epoch 0: P0 runs [0,6), P1 runs [6,10).
  // Epoch 1: P0 runs [0,8), P1 runs [8,10) — P0 keeps its 6, steals 2 of
  // P1's; P1 keeps 2. Affine = 8 of 10 scored.
  std::vector<TraceRecord> recs = {
      run_begin(2),
      loop_begin(0, 10, 2),
      chunk(0, 0, 6, 0.0, 6.0),
      chunk(1, 6, 10, 0.0, 4.0),
      loop_end(0, 6.0),
      loop_begin(1, 10, 2),
      chunk(0, 0, 8, 6.0, 14.0),
      chunk(1, 8, 10, 6.0, 8.0),
      loop_end(1, 14.0),
      run_end(14.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  const TraceAnalysis& a = runs.front();
  EXPECT_EQ(a.scored_iterations, 10);
  EXPECT_EQ(a.affine_iterations, 8);
  EXPECT_DOUBLE_EQ(a.affinity_score(), 0.8);
}

TEST(TraceAnalysis, StealMatrixFromRemoteGrabsAndFaultSteals) {
  std::vector<TraceRecord> recs = {
      run_begin(3),
      loop_begin(0, 30, 3),
      grab(2, GrabKind::kRemote, 0, 0, 5, 0.0, 1.0),  // P2 steals 5 from P0
      chunk(2, 0, 5, 1.0, 6.0),
      grab(2, GrabKind::kRemote, 1, 10, 12, 6.0, 7.0),  // and 2 from P1
      chunk(2, 10, 12, 7.0, 9.0),
      chunk(0, 5, 10, 0.0, 5.0),
      chunk(1, 12, 20, 0.0, 8.0),
      {.ev = TraceEv::kFaultSteal, .proc = 0, .queue = 2, .n = 7},
      chunk(0, 20, 27, 5.0, 12.0),
      {.ev = TraceEv::kAbandoned, .n = 3},
      loop_end(0, 12.0),
      run_end(12.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  const TraceAnalysis& a = runs.front();

  EXPECT_EQ(a.steal_iters[2][0], 5);
  EXPECT_EQ(a.steal_iters[2][1], 2);
  EXPECT_EQ(a.steal_iters[0][2], 0);
  EXPECT_EQ(a.remote_steals(), 7);
  EXPECT_EQ(a.fault_steal_iters[0][2], 7);
  EXPECT_EQ(a.fault_steals(), 7);

  EXPECT_EQ(a.total_iterations, 30);
  EXPECT_EQ(a.executed_iterations, 27);
  EXPECT_EQ(a.abandoned_iterations, 3);
  EXPECT_TRUE(a.conserved());
}

TEST(TraceAnalysis, DetectsConservationViolation) {
  std::vector<TraceRecord> recs = {
      run_begin(1),
      loop_begin(0, 10, 1),
      chunk(0, 0, 6, 0.0, 6.0),  // 4 iterations vanish: not conserved
      loop_end(0, 6.0),
      run_end(6.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs.front().conserved());
}

TEST(TraceAnalysis, MultipleRunsAnalyzeIndependently) {
  std::vector<TraceRecord> recs = {
      run_begin(1), loop_begin(0, 4, 1), chunk(0, 0, 4, 0.0, 4.0),
      loop_end(0, 4.0), run_end(4.0),
      run_begin(2), loop_begin(0, 6, 2), chunk(0, 0, 3, 0.0, 3.0),
      chunk(1, 3, 6, 0.0, 3.0), loop_end(0, 3.0), run_end(3.0),
  };
  const auto runs = analyze_trace(recs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].p, 1);
  EXPECT_EQ(runs[0].total_iterations, 4);
  EXPECT_EQ(runs[1].p, 2);
  EXPECT_EQ(runs[1].total_iterations, 6);
  EXPECT_TRUE(runs[0].conserved());
  EXPECT_TRUE(runs[1].conserved());
}

TEST(TraceAnalysis, RejectsSchemaViolations) {
  EXPECT_THROW(analyze_trace({chunk(0, 0, 4, 0.0, 4.0)}),
               std::runtime_error);  // event outside a run
  EXPECT_THROW(analyze_trace({run_begin(1), loop_begin(0, 4, 1)}),
               std::runtime_error);  // missing run_end
  EXPECT_THROW(analyze_trace({run_begin(1), run_begin(1)}),
               std::runtime_error);  // nested run_begin
  EXPECT_THROW(
      analyze_trace({run_begin(1), chunk(5, 0, 4, 0.0, 4.0), run_end(4.0)}),
      std::runtime_error);  // processor index out of range
}

TEST(TraceAnalysis, RejectsImplausibleSizes) {
  // A corrupt count must be an error, not a giant (or negative-sized)
  // allocation.
  EXPECT_THROW(analyze_trace({run_begin(-1), run_end(0.0)}),
               std::runtime_error);
  EXPECT_THROW(analyze_trace({run_begin(1 << 20), run_end(0.0)}),
               std::runtime_error);
  EXPECT_THROW(
      analyze_trace({run_begin(1), loop_begin(0, -4, 1), run_end(0.0)}),
      std::runtime_error);
}

/// Simulates one frontier_tradeoff-style cell (multi-epoch SOR on the
/// Iris, AFS at P=8, so remote steals and affinity both show) into a
/// .cctrace under `dir` and returns its path.
std::string traced_cell(const TestDir& dir) {
  const std::string path = dir / "cell.cctrace";
  BinaryTraceSink sink(path);
  SimOptions opts;
  opts.trace = &sink;
  MachineSim sim(iris(), opts);
  const auto sched = make_scheduler("AFS");
  (void)sim.run(SorKernel::program(256, 8), *sched, 8);
  sink.finalize();
  return path;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(TraceAnalysis, StreamedFileEqualsAnalysisOfDecodedRecords) {
  const TestDir dir;
  const std::string path = traced_cell(dir);
  const std::vector<TraceAnalysis> streamed = analyze_trace_file(path);
  const std::vector<TraceAnalysis> decoded = analyze_trace(read_trace(path));
  ASSERT_EQ(streamed.size(), 1u);
  ASSERT_EQ(decoded.size(), 1u);
  const TraceAnalysis& a = streamed.front();
  const TraceAnalysis& b = decoded.front();
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.epochs, b.epochs);
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    EXPECT_EQ(a.procs[i].exec, b.procs[i].exec) << "proc " << i;
    EXPECT_EQ(a.procs[i].memory, b.procs[i].memory) << "proc " << i;
    EXPECT_EQ(a.procs[i].sync, b.procs[i].sync) << "proc " << i;
    EXPECT_EQ(a.procs[i].stall, b.procs[i].stall) << "proc " << i;
    EXPECT_EQ(a.procs[i].idle, b.procs[i].idle) << "proc " << i;
    EXPECT_EQ(a.procs[i].iterations, b.procs[i].iterations) << "proc " << i;
    EXPECT_EQ(a.procs[i].chunks, b.procs[i].chunks) << "proc " << i;
  }
  EXPECT_EQ(a.steal_iters, b.steal_iters);
  EXPECT_EQ(a.fault_steal_iters, b.fault_steal_iters);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.executed_iterations, b.executed_iterations);
  EXPECT_EQ(a.abandoned_iterations, b.abandoned_iterations);
  EXPECT_EQ(a.affine_iterations, b.affine_iterations);
  EXPECT_EQ(a.scored_iterations, b.scored_iterations);

  // Not a vacuous comparison: the cell steals, scores affinity, conserves.
  EXPECT_GT(a.remote_steals(), 0);
  EXPECT_GT(a.scored_iterations, 0);
  EXPECT_TRUE(a.conserved());
}

TEST(TraceAnalysis, TruncatedOrFlippedFilesThrowRuntimeError) {
  const TestDir dir;
  const std::string good = read_file(traced_cell(dir));
  ASSERT_GT(good.size(), 64u);
  const std::string bad = dir / "bad.cctrace";

  // The magic alone is a well-formed trace of zero runs (what a sink that
  // never saw a run writes). Every longer strict prefix is malformed: it
  // stops inside a record, after a string definition with no record to
  // use it, or at a record boundary before run_end.
  const std::size_t header = sizeof BinaryTraceSink::kMagic;
  write_bytes(bad, good.substr(0, header));
  EXPECT_TRUE(analyze_trace_file(bad).empty());
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64; ++n)
    if (n != header) cuts.push_back(n);
  for (std::size_t k = 1; k < 32; ++k) cuts.push_back(good.size() * k / 32);
  cuts.push_back(good.size() - 1);
  for (std::size_t n : cuts) {
    write_bytes(bad, good.substr(0, n));
    EXPECT_THROW(analyze_trace_file(bad), std::runtime_error)
        << "prefix of " << n << " of " << good.size() << " bytes";
  }

  // Flipping every bit of the first byte after the magic turns a string
  // definition into an unknown opcode; flipping the last byte (the end
  // of run_end's varint) sets a continuation bit with nothing after it.
  for (std::size_t at : {header, good.size() - 1}) {
    std::string flipped = good;
    flipped[at] = static_cast<char>(~flipped[at]);
    write_bytes(bad, flipped);
    EXPECT_THROW(analyze_trace_file(bad), std::runtime_error)
        << "byte " << at << " flipped";
  }

  // Anywhere else a flipped byte may still decode (a time changes value),
  // but it must never crash or escape as anything but runtime_error.
  for (std::size_t at = header; at < good.size(); at += good.size() / 509) {
    std::string flipped = good;
    flipped[at] = static_cast<char>(~flipped[at]);
    write_bytes(bad, flipped);
    try {
      (void)analyze_trace_file(bad);
    } catch (const std::runtime_error&) {
      // the expected way to refuse a corrupt file
    }
  }
}

}  // namespace
}  // namespace afs
