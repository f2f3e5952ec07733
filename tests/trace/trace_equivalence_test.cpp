// The trace subsystem's core property: for the same seeded simulation,
// the decoded .cctrace must equal, record for record and bit for bit, the
// events the simulator narrated — as captured by a recording sink that
// lives only in this test — through every scheduler family and under
// kitchen-sink fault injection. On top of the decoded stream this
// file also checks the trace conservation law (narrated + abandoned ==
// announced) and the paper's headline observable: AFS keeps a far higher
// epoch-to-epoch affinity score than central-queue self-scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "sim/perturbation.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_reader.hpp"

namespace afs {
namespace {

MachineConfig quiet(MachineConfig m) {
  m.epoch_jitter = 0.0;
  return m;
}

/// Every fault family at once (mirrors the batching-equivalence test's
/// kitchen sink): deaths mid-chunk, link bursts, memory spikes, stalls —
/// so lost / fault_steal / abandoned / stall records are all exercised.
PerturbationConfig kitchen_sink() {
  PerturbationConfig pc;
  pc.seed = 2026;
  pc.stall_mean_interval = 3000.0;
  pc.stall_duration = 250.0;
  pc.losses.push_back({1, 2000.0});  // early enough to hit small test runs
  pc.mem_spike_prob = 0.1;
  pc.mem_spike_latency = 80.0;
  pc.burst_mean_interval = 8000.0;
  pc.burst_duration = 1500.0;
  pc.burst_multiplier = 3.0;
  return pc;
}

void run_traced(const MachineConfig& m, const LoopProgram& prog,
                const std::string& spec, int p, MetricsSink& sink,
                const PerturbationConfig* pc) {
  SimOptions opts;
  opts.trace = &sink;
  if (pc != nullptr) opts.perturb = *pc;
  MachineSim sim(m, opts);
  auto sched = make_scheduler(spec);
  sim.run(prog, *sched, p);
}

std::vector<TraceRecord> decode(std::istringstream in) {
  TraceReader reader(in);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

/// The oracle: keeps every narrated event as the TraceRecord it must
/// decode to, straight from the MetricsSink callbacks (no encoding).
class RecordingSink final : public MetricsSink {
 public:
  std::vector<TraceRecord> records;

  void on_run_begin(const MachineConfig& m, const std::string& program,
                    const std::string& scheduler, int p) override {
    add({.ev = TraceEv::kRunBegin, .machine = m.name, .program = program,
         .scheduler = scheduler, .p = p});
  }
  void on_loop_begin(int epoch, std::int64_t n, int p) override {
    add({.ev = TraceEv::kLoopBegin, .p = p, .epoch = epoch, .n = n});
  }
  void on_grab(int proc, const Grab& g, double t0, double t1) override {
    add({.ev = TraceEv::kGrab, .proc = proc, .kind = g.kind,
         .queue = g.queue, .begin = g.range.begin, .end = g.range.end,
         .t0 = t0, .t1 = t1});
  }
  void on_chunk(int proc, std::int64_t begin, std::int64_t end, double t0,
                double t1) override {
    add({.ev = TraceEv::kChunk, .proc = proc, .begin = begin, .end = end,
         .t0 = t0, .t1 = t1});
  }
  void on_miss(int proc, const BlockAccess& a, double t0,
               double t1) override {
    add({.ev = TraceEv::kMiss, .proc = proc, .block = a.block,
         .size = a.size, .t0 = t0, .t1 = t1});
  }
  void on_invalidate(int proc, std::int64_t block, int copies, double t0,
                     double t1) override {
    add({.ev = TraceEv::kInval, .proc = proc, .copies = copies,
         .block = block, .t0 = t0, .t1 = t1});
  }
  void on_proc_done(int proc, double t) override {
    add({.ev = TraceEv::kDone, .proc = proc, .t0 = t});
  }
  void on_stall(int proc, double t0, double t1) override {
    add({.ev = TraceEv::kStall, .proc = proc, .t0 = t0, .t1 = t1});
  }
  void on_proc_lost(int proc, double t) override {
    add({.ev = TraceEv::kLost, .proc = proc, .t0 = t});
  }
  void on_fault_steal(int thief, int victim_queue,
                      std::int64_t iters) override {
    add({.ev = TraceEv::kFaultSteal, .proc = thief, .queue = victim_queue,
         .n = iters});
  }
  void on_abandoned(std::int64_t iters) override {
    add({.ev = TraceEv::kAbandoned, .n = iters});
  }
  void on_loop_end(int epoch, double end) override {
    add({.ev = TraceEv::kLoopEnd, .epoch = epoch, .t0 = end});
  }
  void on_barrier(int epoch, double cost, double total) override {
    add({.ev = TraceEv::kBarrier, .epoch = epoch, .size = cost,
         .t0 = total});
  }
  void on_run_end(double makespan) override {
    add({.ev = TraceEv::kRunEnd, .t0 = makespan});
  }

 private:
  void add(TraceRecord r) { records.push_back(std::move(r)); }
};

/// Runs the same deterministic cell through the recording oracle and the
/// binary sink and returns the decoded sequence after asserting the two
/// are identical.
std::vector<TraceRecord> check_equivalence(const MachineConfig& m,
                                           const LoopProgram& prog,
                                           const std::string& spec, int p,
                                           const PerturbationConfig* pc) {
  RecordingSink recorded;
  run_traced(m, prog, spec, p, recorded, pc);
  std::ostringstream binary_out;
  {
    BinaryTraceSink binary(binary_out);
    run_traced(m, prog, spec, p, binary, pc);
  }
  std::vector<TraceRecord> from_binary =
      decode(std::istringstream(binary_out.str()));

  const std::string label = m.name + "/" + spec + "/" + prog.name +
                            "/P=" + std::to_string(p);
  EXPECT_EQ(recorded.records.size(), from_binary.size()) << label;
  const std::size_t n = std::min(recorded.records.size(), from_binary.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(recorded.records[i], from_binary[i])
        << label << ": record " << i << " ("
        << to_string(recorded.records[i].ev) << ") decodes differently";
    if (!(recorded.records[i] == from_binary[i])) break;  // one is enough
  }
  return from_binary;
}

TEST(TraceEquivalence, AllPaperSchedulersDecodeIdentically) {
  const MachineConfig m = quiet(iris());
  const LoopProgram prog = GaussKernel::program(48);
  for (const std::string& spec : paper_scheduler_specs()) {
    const std::vector<TraceRecord> records =
        check_equivalence(m, prog, spec, 4, nullptr);
    ASSERT_FALSE(records.empty()) << spec;
    EXPECT_EQ(records.front().ev, TraceEv::kRunBegin) << spec;
    EXPECT_EQ(records.back().ev, TraceEv::kRunEnd) << spec;
  }
}

TEST(TraceEquivalence, KitchenSinkPerturbationsDecodeIdentically) {
  const PerturbationConfig pc = kitchen_sink();
  const MachineConfig m = quiet(ksr1());
  const LoopProgram prog = SorKernel::program(48, 4);
  for (const char* spec : {"AFS", "GSS", "STATIC", "SS"}) {
    const std::vector<TraceRecord> records =
        check_equivalence(m, prog, spec, 8, &pc);

    // The kitchen sink must actually exercise the fault records, or this
    // test silently stops covering them.
    bool saw_stall = false, saw_lost = false;
    for (const TraceRecord& r : records) {
      saw_stall |= r.ev == TraceEv::kStall;
      saw_lost |= r.ev == TraceEv::kLost;
    }
    EXPECT_TRUE(saw_stall) << spec;
    EXPECT_TRUE(saw_lost) << spec;

    // Conservation law, through the binary reader: every announced
    // iteration is either narrated in a chunk or abandoned.
    for (const TraceAnalysis& a : analyze_trace(records)) {
      EXPECT_TRUE(a.conserved())
          << spec << ": " << a.executed_iterations << " executed + "
          << a.abandoned_iterations << " abandoned != "
          << a.total_iterations << " announced";
    }
  }
}

TEST(TraceEquivalence, AffinitySchedulingScoresAboveSelfScheduling) {
  // The paper's mechanism, quantified: on a cache-friendly SOR sweep at
  // P=8, AFS re-executes almost every iteration on its previous-epoch
  // owner, while central-queue self-scheduling scatters them. Keep the
  // machine's natural epoch jitter: with perfectly synchronized epochs a
  // deterministic central queue replays the same assignment every epoch
  // and scores a (meaningless) 1.0.
  const MachineConfig m = iris();
  const LoopProgram prog = SorKernel::program(64, 6);

  const auto score = [&](const char* spec) {
    std::ostringstream out;
    double result = 0.0;
    {
      BinaryTraceSink sink(out);
      run_traced(m, prog, spec, 8, sink, nullptr);
    }
    const auto runs = analyze_trace(decode(std::istringstream(out.str())));
    EXPECT_EQ(runs.size(), 1u) << spec;
    for (const TraceAnalysis& a : runs) {
      EXPECT_GT(a.scored_iterations, 0) << spec;
      result = a.affinity_score();
    }
    return result;
  };

  const double afs = score("AFS");
  const double ss = score("SS");
  EXPECT_GT(afs, 0.8);
  EXPECT_GT(afs, ss);
}

}  // namespace
}  // namespace afs
