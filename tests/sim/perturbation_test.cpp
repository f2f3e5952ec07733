// Fault-injection subsystem tests: configuration validation, the
// determinism contract (fixed seed => bit-identical SimResults across runs
// and across batching on/off), graceful degradation under processor loss
// (AFS steal-on-loss draining, STATIC abandoned accounting), the extended
// conservation law, and the golden table for the rebased Table 2
// delayed-start experiment.
//
// The Table 2 goldens were captured from the pre-subsystem engine (values
// printed at %.17g): routing the start delay through PerturbationConfig
// must not move a single bit of the original experiment.
#include "sim/perturbation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "trace/binary_sink.hpp"
#include "trace/trace_reader.hpp"
#include "util/check.hpp"

namespace afs {
namespace {

MachineConfig quiet(MachineConfig m) {
  m.epoch_jitter = 0.0;
  return m;
}

SimResult run_perturbed(const MachineConfig& m, const LoopProgram& prog,
                        const char* spec, int p, const PerturbationConfig& pc,
                        bool batch = true) {
  SimOptions opts;
  opts.perturb = pc;
  opts.batch_iterations = batch;
  MachineSim sim(m, opts);
  auto sched = make_scheduler(spec);
  return sim.run(prog, *sched, p);
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.busy, b.busy) << label;
  EXPECT_EQ(a.sync, b.sync) << label;
  EXPECT_EQ(a.comm, b.comm) << label;
  EXPECT_EQ(a.idle, b.idle) << label;
  EXPECT_EQ(a.barrier, b.barrier) << label;
  EXPECT_EQ(a.stall_time, b.stall_time) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.misses, b.misses) << label;
  EXPECT_EQ(a.invalidations, b.invalidations) << label;
  EXPECT_EQ(a.units_transferred, b.units_transferred) << label;
  EXPECT_EQ(a.local_grabs, b.local_grabs) << label;
  EXPECT_EQ(a.remote_grabs, b.remote_grabs) << label;
  EXPECT_EQ(a.central_grabs, b.central_grabs) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.lost_processor_count, b.lost_processor_count) << label;
  EXPECT_EQ(a.stolen_under_fault, b.stolen_under_fault) << label;
  EXPECT_EQ(a.abandoned_iterations, b.abandoned_iterations) << label;
}

/// A config exercising every fault family at once.
PerturbationConfig kitchen_sink() {
  PerturbationConfig pc;
  pc.seed = 2026;
  pc.stall_mean_interval = 3000.0;
  pc.stall_duration = 250.0;
  pc.losses.push_back({1, 20000.0});
  pc.mem_spike_prob = 0.1;
  pc.mem_spike_latency = 80.0;
  pc.burst_mean_interval = 8000.0;
  pc.burst_duration = 1500.0;
  pc.burst_multiplier = 3.0;
  return pc;
}

// ------------------------------ validation -------------------------------

TEST(PerturbationConfig, DefaultIsInactive) {
  PerturbationConfig pc;
  EXPECT_FALSE(pc.any());
  EXPECT_NO_THROW(pc.validate(8));
}

TEST(PerturbationConfig, ValidateNamesTheOffendingField) {
  PerturbationConfig pc;
  pc.stall_mean_interval = 100.0;  // stalls on but no duration
  try {
    pc.validate(8);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("stall_duration"), std::string::npos)
        << e.what();
  }
}

TEST(PerturbationConfig, ValidateRejectsBadValues) {
  {
    PerturbationConfig pc;
    pc.start_delays.assign(9, 0.0);  // more delays than processors
    EXPECT_THROW(pc.validate(8), CheckFailure);
  }
  {
    PerturbationConfig pc;
    pc.start_delays = {-1.0};
    EXPECT_THROW(pc.validate(8), CheckFailure);
  }
  {
    PerturbationConfig pc;
    pc.losses.push_back({8, 100.0});  // proc out of range
    EXPECT_THROW(pc.validate(8), CheckFailure);
  }
  {
    PerturbationConfig pc;
    pc.losses.push_back({0, -5.0});
    EXPECT_THROW(pc.validate(8), CheckFailure);
  }
  {
    PerturbationConfig pc;
    pc.mem_spike_prob = 1.5;
    EXPECT_THROW(pc.validate(8), CheckFailure);
  }
  {
    PerturbationConfig pc;
    pc.burst_mean_interval = 100.0;
    pc.burst_duration = 10.0;
    pc.burst_multiplier = 0.5;  // a burst must not speed the link up
    EXPECT_THROW(pc.validate(8), CheckFailure);
  }
}

TEST(SimOptions, RejectsBothDelayMechanisms) {
  SimOptions opts;
  opts.start_delays = {100.0};
  opts.perturb.start_delays = {200.0};
  EXPECT_THROW(MachineSim(quiet(iris()), opts), CheckFailure);
}

TEST(MachineConfigValidate, RejectsBadConfigs) {
  {
    MachineConfig m = iris();
    m.work_unit_time = 0.0;
    EXPECT_THROW(MachineSim sim(m), CheckFailure);
  }
  {
    MachineConfig m = iris();
    m.max_processors = 65;
    EXPECT_THROW(MachineSim sim(m), CheckFailure);
  }
  {
    MachineConfig m = iris();
    m.miss_latency = -1.0;
    EXPECT_THROW(m.validate(), CheckFailure);
  }
  EXPECT_NO_THROW(iris().validate());
  EXPECT_NO_THROW(symmetry().validate());
  EXPECT_NO_THROW(butterfly1().validate());
  EXPECT_NO_THROW(ksr1().validate());
  EXPECT_NO_THROW(tc2000().validate());
}

// --------------------------- start-delay shim ----------------------------

TEST(Perturbation, LegacyStartDelaysShimIsBitIdentical) {
  // The deprecated SimOptions::start_delays path must produce exactly what
  // routing the same delays through PerturbationConfig produces.
  const LoopProgram prog = balanced_program(100000);
  for (const char* spec : {"AFS", "GSS", "STATIC"}) {
    SimOptions legacy;
    legacy.start_delays = {12500.0, 0.0, 0.0, 3000.0};
    MachineSim sim_legacy(quiet(iris()), legacy);
    auto s1 = make_scheduler(spec);
    const SimResult a = sim_legacy.run(prog, *s1, 4);

    PerturbationConfig pc;
    pc.start_delays = {12500.0, 0.0, 0.0, 3000.0};
    const SimResult b = run_perturbed(quiet(iris()), prog, spec, 4, pc);
    expect_identical(a, b, spec);
  }
}

TEST(Perturbation, StartDelayIsChargedToStallTime) {
  PerturbationConfig pc;
  pc.start_delays = {5000.0, 0.0};
  const SimResult r =
      run_perturbed(quiet(iris()), balanced_program(10000), "GSS", 2, pc);
  EXPECT_EQ(r.stall_time, 5000.0);
  EXPECT_TRUE(check_time_identity(r, 2));
}

// ----------------------------- determinism -------------------------------

TEST(Perturbation, SameSeedSameResultAcrossRuns) {
  const LoopProgram prog = SorKernel::program(64, 3);
  const PerturbationConfig pc = kitchen_sink();
  const SimResult a = run_perturbed(quiet(iris()), prog, "AFS", 4, pc);
  const SimResult b = run_perturbed(quiet(iris()), prog, "AFS", 4, pc);
  expect_identical(a, b, "same seed, same run");
  EXPECT_GT(a.stall_time, 0.0);
  EXPECT_EQ(a.lost_processor_count, 1);
}

TEST(Perturbation, DifferentSeedsDiverge) {
  PerturbationConfig pc;
  pc.stall_mean_interval = 2000.0;
  pc.stall_duration = 300.0;
  const LoopProgram prog = SorKernel::program(64, 3);
  const SimResult a = run_perturbed(quiet(iris()), prog, "AFS", 4, pc);
  pc.seed ^= 1;
  const SimResult b = run_perturbed(quiet(iris()), prog, "AFS", 4, pc);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Perturbation, BatchingOnOffBitIdenticalPerFaultFamily) {
  // The core batching invariant must survive each fault family alone and
  // all of them together, on a footprint kernel and a footprint-free one.
  std::vector<std::pair<std::string, PerturbationConfig>> cases;
  {
    PerturbationConfig pc;
    pc.stall_mean_interval = 2500.0;
    pc.stall_duration = 200.0;
    cases.emplace_back("stalls", pc);
  }
  {
    PerturbationConfig pc;
    pc.losses.push_back({0, 15000.0});
    cases.emplace_back("loss", pc);
  }
  {
    PerturbationConfig pc;
    pc.mem_spike_prob = 0.2;
    pc.mem_spike_latency = 60.0;
    cases.emplace_back("spikes", pc);
  }
  {
    PerturbationConfig pc;
    pc.burst_mean_interval = 5000.0;
    pc.burst_duration = 1000.0;
    pc.burst_multiplier = 4.0;
    cases.emplace_back("bursts", pc);
  }
  cases.emplace_back("kitchen-sink", kitchen_sink());

  const LoopProgram sor = SorKernel::program(64, 2);
  const LoopProgram balanced = balanced_program(50000);
  for (const auto& [name, pc] : cases) {
    for (const char* spec : {"AFS", "GSS", "STATIC"}) {
      const SimResult on = run_perturbed(quiet(iris()), sor, spec, 4, pc, true);
      const SimResult off =
          run_perturbed(quiet(iris()), sor, spec, 4, pc, false);
      expect_identical(on, off, name + "/sor/" + spec);

      const SimResult on_b =
          run_perturbed(quiet(iris()), balanced, spec, 4, pc, true);
      const SimResult off_b =
          run_perturbed(quiet(iris()), balanced, spec, 4, pc, false);
      expect_identical(on_b, off_b, name + "/balanced/" + spec);
    }
  }
}

TEST(Perturbation, InactiveConfigMatchesDefaultEngine) {
  // A constructed-but-empty PerturbationConfig must not perturb anything.
  const LoopProgram prog = GaussKernel::program(64);
  SimOptions plain;
  MachineSim sim_plain(iris(), plain);
  auto s1 = make_scheduler("AFS");
  const SimResult a = sim_plain.run(prog, *s1, 4);
  const SimResult b =
      run_perturbed(iris(), prog, "AFS", 4, PerturbationConfig{});
  expect_identical(a, b, "inactive perturbation");
  EXPECT_EQ(b.stall_time, 0.0);
  EXPECT_EQ(b.lost_processor_count, 0);
  EXPECT_EQ(b.stolen_under_fault, 0);
  EXPECT_EQ(b.abandoned_iterations, 0);
}

// ------------------------- graceful degradation --------------------------

TEST(Perturbation, AfsStealsDeadProcessorsQueue) {
  // Kill processor 0 a quarter of the way in: the survivors must drain its
  // local queue (steal-on-loss) and the loop must complete everything
  // except the chunk that died in flight.
  PerturbationConfig pc;
  pc.losses.push_back({0, 30000.0});
  const SimResult r =
      run_perturbed(quiet(iris()), balanced_program(1000000), "AFS", 4, pc);
  EXPECT_EQ(r.lost_processor_count, 1);
  EXPECT_GT(r.stolen_under_fault, 0);
  EXPECT_TRUE(check_time_identity(r, 4));
  // AFS loses at most the in-flight chunk; the queued work is all stolen.
  EXPECT_LT(r.abandoned_iterations, 1000000 / 4);
}

TEST(Perturbation, StaticReportsAbandonedWork) {
  // A footprint kernel executes iteration by iteration, so the death lands
  // mid-allotment. (A footprint-free balanced loop would not do: STATIC's
  // whole per-processor share is one analytic chunk, atomic w.r.t. faults.)
  const LoopProgram prog = GaussKernel::program(256);
  const SimResult plain =
      run_perturbed(quiet(iris()), prog, "STATIC", 4, PerturbationConfig{});
  PerturbationConfig pc;
  pc.losses.push_back({0, 0.3 * plain.makespan});
  const SimResult r = run_perturbed(quiet(iris()), prog, "STATIC", 4, pc);
  EXPECT_EQ(r.lost_processor_count, 1);
  EXPECT_EQ(r.stolen_under_fault, 0);  // STATIC has nothing to steal with
  EXPECT_GT(r.abandoned_iterations, 0);
  EXPECT_TRUE(check_time_identity(r, 4));
}

TEST(Perturbation, MidChunkDeathEmitsTruncatedChunkRecord) {
  // A processor dying mid-chunk used to vanish from the trace: its
  // executed iterations were narrated per-iteration but never closed with
  // a chunk record, so chunk-level consumers undercounted. The engine now
  // emits a truncated [first, current) chunk record at the death boundary
  // — a trace-only change (SimResult and CSV goldens are untouched), and
  // byte-identical between the batched and unbatched engines.
  const LoopProgram prog = GaussKernel::program(256);
  const SimResult plain =
      run_perturbed(quiet(iris()), prog, "STATIC", 4, PerturbationConfig{});
  PerturbationConfig pc;
  pc.losses.push_back({0, 0.3 * plain.makespan});  // lands mid-allotment

  auto traced = [&](bool batch, std::string* bytes) {
    std::ostringstream out;
    BinaryTraceSink sink(out);
    SimOptions opts;
    opts.perturb = pc;
    opts.batch_iterations = batch;
    opts.trace = &sink;
    MachineSim sim(quiet(iris()), opts);
    auto sched = make_scheduler("STATIC");
    const SimResult r = sim.run(prog, *sched, 4);
    sink.finalize();
    *bytes = out.str();
    return r;
  };

  std::string batched_trace, unbatched_trace;
  const SimResult a = traced(true, &batched_trace);
  const SimResult b = traced(false, &unbatched_trace);
  expect_identical(a, b, "mid-chunk death");
  EXPECT_EQ(batched_trace, unbatched_trace);
  ASSERT_EQ(a.lost_processor_count, 1);
  ASSERT_GT(a.abandoned_iterations, 0);  // really died holding a chunk

  // Conservation over the trace: every iteration of every epoch is either
  // narrated inside exactly one chunk record or counted as abandoned.
  // The dead processor's partially-executed chunk sits on that boundary —
  // its executed prefix is covered only by the truncated record (without
  // it the narrated side comes up short by exactly those iterations).
  std::int64_t narrated = 0, total_n = 0;
  std::istringstream in(batched_trace);
  TraceReader reader(in);
  for (TraceRecord rec; reader.next(rec);) {
    if (rec.ev == TraceEv::kChunk)
      narrated += rec.end - rec.begin;
    else if (rec.ev == TraceEv::kLoopBegin)
      total_n += rec.n;
  }
  EXPECT_EQ(narrated + a.abandoned_iterations, total_n);
  // SimResult::iterations counts *grabbed* work, so it exceeds the
  // narrated (executed) side by the dead processor's in-flight remainder.
  EXPECT_LT(narrated, a.iterations);
}

TEST(Perturbation, CentralQueueDrainsNaturallyOnLoss) {
  // A central-queue scheduler simply never hands the dead processor
  // another chunk; the survivors drain the queue. Only the in-flight
  // chunk can be lost.
  PerturbationConfig pc;
  pc.losses.push_back({0, 30000.0});
  const SimResult r =
      run_perturbed(quiet(iris()), balanced_program(1000000), "GSS", 4, pc);
  EXPECT_EQ(r.lost_processor_count, 1);
  EXPECT_TRUE(check_time_identity(r, 4));
  EXPECT_LT(r.abandoned_iterations, 1000000 / 4);
}

TEST(Perturbation, LossBeforeStartIdlesProcessorForWholeRun) {
  PerturbationConfig pc;
  pc.losses.push_back({2, 0.0});  // dead on arrival
  const SimResult r =
      run_perturbed(quiet(iris()), SorKernel::program(64, 3), "AFS", 4, pc);
  EXPECT_EQ(r.lost_processor_count, 1);
  EXPECT_TRUE(check_time_identity(r, 4));
}

TEST(Perturbation, AllProcessorsLostStillTerminates) {
  PerturbationConfig pc;
  for (int i = 0; i < 4; ++i) pc.losses.push_back({i, 100.0});
  const SimResult r =
      run_perturbed(quiet(iris()), balanced_program(100000), "AFS", 4, pc);
  EXPECT_EQ(r.lost_processor_count, 4);
  EXPECT_GT(r.abandoned_iterations, 0);
}

TEST(Perturbation, LossPersistsAcrossEpochs) {
  // A processor lost in epoch 0 must stay dead for every later epoch; its
  // per-epoch seeded queue keeps being stolen (AFS) each epoch.
  PerturbationConfig pc;
  pc.losses.push_back({1, 1000.0});
  const SimResult r =
      run_perturbed(quiet(iris()), SorKernel::program(128, 6), "AFS", 4, pc);
  EXPECT_EQ(r.lost_processor_count, 1);  // counted once, not per epoch
  EXPECT_GT(r.stolen_under_fault, 0);
  EXPECT_TRUE(check_time_identity(r, 4));
}

// ----------------------------- conservation ------------------------------

TEST(Perturbation, ExtendedConservationUnderEveryFaultFamily) {
  const LoopProgram prog = SorKernel::program(64, 2);
  const PerturbationConfig pc = kitchen_sink();
  for (const MachineConfig& base : {iris(), symmetry(), ksr1()}) {
    for (const char* spec : {"AFS", "GSS", "FACTORING", "STATIC"}) {
      const SimResult r = run_perturbed(quiet(base), prog, spec, 4, pc);
      EXPECT_TRUE(check_time_identity(r, 4))
          << base.name << "/" << spec << ": accounted " << accounted_time(r)
          << " vs " << 4.0 * r.makespan;
      EXPECT_GT(r.stall_time, 0.0) << base.name << "/" << spec;
    }
  }
}

TEST(Perturbation, StallsExtendMakespan) {
  PerturbationConfig pc;
  pc.stall_mean_interval = 2000.0;
  pc.stall_duration = 400.0;
  const LoopProgram prog = balanced_program(100000);
  const SimResult plain =
      run_perturbed(quiet(iris()), prog, "GSS", 4, PerturbationConfig{});
  const SimResult stalled = run_perturbed(quiet(iris()), prog, "GSS", 4, pc);
  EXPECT_GT(stalled.makespan, plain.makespan);
  EXPECT_GT(stalled.stall_time, 0.0);
}

TEST(Perturbation, MemoryFaultsChargeCommNotStall) {
  PerturbationConfig pc;
  pc.mem_spike_prob = 0.3;
  pc.mem_spike_latency = 100.0;
  pc.burst_mean_interval = 4000.0;
  pc.burst_duration = 800.0;
  pc.burst_multiplier = 4.0;
  const LoopProgram prog = SorKernel::program(64, 2);
  const SimResult plain =
      run_perturbed(quiet(iris()), prog, "AFS", 4, PerturbationConfig{});
  const SimResult faulted = run_perturbed(quiet(iris()), prog, "AFS", 4, pc);
  EXPECT_GT(faulted.comm, plain.comm);
  EXPECT_EQ(faulted.stall_time, 0.0);  // memory faults are comm, not stalls
  EXPECT_TRUE(check_time_identity(faulted, 4));
}

// ------------------- golden: rebased Table 2 experiment ------------------
//
// Captured from the engine before the perturbation subsystem existed
// (balanced loop N=1e6, P=8, Iris with epoch_jitter=0, processor 0 delayed
// by frac*N): the rebased delay path must reproduce every value exactly.

struct Tab2Golden {
  double frac;
  const char* spec;
  double makespan, busy, idle;
  std::int64_t remote_grabs, iterations;
};

TEST(Perturbation, RebasedTab2GoldenTable) {
  const std::vector<Tab2Golden> goldens = {
      {0.0625, "GSS", 134044, 1000000, 700, 0, 1000000},
      {0.125, "GSS", 141860, 1000000, 700, 0, 1000000},
      {0.25, "GSS", 250130, 1000000, 742483, 0, 1000000},
      {0.0625, "TRAPEZOID", 133447, 1000000, 2735, 0, 1000000},
      {0.125, "TRAPEZOID", 143403, 1000000, 19883, 0, 1000000},
      {0.25, "TRAPEZOID", 250130, 1000000, 748699, 0, 1000000},
      {0.0625, "FACTORING", 134503, 1000000, 700, 0, 1000000},
      {0.125, "FACTORING", 142315, 1000000, 700, 0, 1000000},
      {0.25, "FACTORING", 250130, 1000000, 739326, 0, 1000000},
      {0.0625, "AFS(k=2)", 156400, 1000000, 179242, 67, 1000000},
      {0.125, "AFS(k=2)", 187640, 1000000, 366457, 72, 1000000},
      {0.25, "AFS(k=2)", 250130, 1000000, 740887, 77, 1000000},
      {0.0625, "AFS", 134645, 1000000, 654, 63, 1000000},
      {0.125, "AFS", 142490, 1000000, 669, 69, 1000000},
      {0.25, "AFS", 250130, 1000000, 736687, 77, 1000000},
  };
  const std::int64_t n = 1000000;
  const LoopProgram prog = balanced_program(n);
  for (const Tab2Golden& g : goldens) {
    PerturbationConfig pc;
    pc.start_delays.assign(8, 0.0);
    pc.start_delays[0] = g.frac * static_cast<double>(n);
    const SimResult r = run_perturbed(quiet(iris()), prog, g.spec, 8, pc);
    const std::string label =
        std::string(g.spec) + " frac=" + std::to_string(g.frac);
    EXPECT_EQ(r.makespan, g.makespan) << label;
    EXPECT_EQ(r.busy, g.busy) << label;
    EXPECT_EQ(r.idle, g.idle) << label;
    EXPECT_EQ(r.remote_grabs, g.remote_grabs) << label;
    EXPECT_EQ(r.iterations, g.iterations) << label;
    // The rebase also closes Table 2's old accounting hole: the delay is
    // now visible as stall_time and conservation is exact.
    EXPECT_EQ(r.stall_time, g.frac * static_cast<double>(n)) << label;
    EXPECT_TRUE(check_time_identity(r, 8)) << label;
  }
}

}  // namespace
}  // namespace afs
