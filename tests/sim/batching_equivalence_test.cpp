// Randomized property test for the horizon-batched execution path: for
// footprint-carrying loops the engine must produce bit-identical
// SimResults with batching on or off, on every machine model and
// scheduler, with and without injected faults. The reference point is the
// unbatched configuration — the plain per-iteration engine. (The memory
// system's hit path has its own oracle: memory_oracle_test.cpp.)
//
// Programs and processor counts are drawn from a fixed-seed RNG so the
// test sweeps a different-but-reproducible corner of the space on every
// run of the binary (same seed => same corners; failures are replayable).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "sim/perturbation.hpp"

namespace afs {
namespace {

MachineConfig quiet(MachineConfig m) {
  m.epoch_jitter = 0.0;
  return m;
}

SimResult run_one(const MachineConfig& m, const LoopProgram& prog,
                  const std::string& spec, int p, bool batch,
                  const PerturbationConfig* pc) {
  SimOptions opts;
  opts.batch_iterations = batch;
  if (pc != nullptr) opts.perturb = *pc;
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

/// Runs the batched engine and checks it against the unbatched reference.
void check_all_modes(const MachineConfig& m, const LoopProgram& prog,
                     const std::string& spec, int p, const std::string& label,
                     const PerturbationConfig* pc = nullptr) {
  expect_identical(run_one(m, prog, spec, p, false, pc),
                   run_one(m, prog, spec, p, true, pc), label + " [batch]");
}

/// A random footprint-carrying program: gauss and SOR touch real blocks
/// (so the memory system is on the hot path); the synthetic shapes are
/// footprint-free (so the coalescing branch stays covered too).
LoopProgram random_program(std::mt19937& rng) {
  switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
    case 0:
      return GaussKernel::program(
          std::uniform_int_distribution<std::int64_t>(32, 96)(rng));
    case 1:
      return SorKernel::program(
          std::uniform_int_distribution<std::int64_t>(24, 64)(rng),
          std::uniform_int_distribution<int>(1, 3)(rng));
    case 2:
      return triangular_program(
          std::uniform_int_distribution<std::int64_t>(200, 800)(rng));
    default:
      return balanced_program(
          std::uniform_int_distribution<std::int64_t>(500, 2000)(rng));
  }
}

TEST(BatchingEquivalence, RandomProgramsAllMachinesAllSchedulers) {
  std::mt19937 rng(0xAF5u);  // fixed seed: failures replay exactly
  const std::vector<MachineConfig> machines = {
      quiet(iris()), quiet(symmetry()), quiet(butterfly1()), quiet(ksr1())};
  for (const MachineConfig& m : machines) {
    for (const std::string& spec : paper_scheduler_specs()) {
      const LoopProgram prog = random_program(rng);
      const int p = std::uniform_int_distribution<int>(
          2, std::min(m.max_processors, 8))(rng);
      check_all_modes(m, prog, spec, p,
                      m.name + "/" + spec + "/" + prog.name +
                          "/P=" + std::to_string(p));
    }
  }
}

TEST(BatchingEquivalence, AdaptiveSchedulersAllMachines) {
  // The feedback channel (Scheduler::report) fires at chunk-completion
  // boundaries that both engine modes visit at identical clocks, so the
  // adaptive schedulers must be bit-identical batched or not too —
  // even though their next() decisions depend on earlier report() calls.
  std::mt19937 rng(0xADA9u);
  const std::vector<MachineConfig> machines = {
      quiet(iris()), quiet(symmetry()), quiet(butterfly1()), quiet(ksr1())};
  for (const MachineConfig& m : machines) {
    for (const std::string& spec : adaptive_scheduler_specs()) {
      const LoopProgram prog = random_program(rng);
      const int p = std::uniform_int_distribution<int>(
          2, std::min(m.max_processors, 8))(rng);
      check_all_modes(m, prog, spec, p,
                      m.name + "/" + spec + "/" + prog.name +
                          "/P=" + std::to_string(p));
    }
  }
}

TEST(BatchingEquivalence, HighProcessorCountOnKsr1) {
  // The horizon hoist pays off (and is riskiest) when many processors
  // interleave; pin one dense-footprint case at a high P.
  const LoopProgram prog = GaussKernel::program(96);
  for (const char* spec : {"AFS", "GSS", "STATIC"}) {
    check_all_modes(quiet(ksr1()), prog, spec, 32,
                    std::string("ksr1/") + spec + "/gauss96/P=32");
  }
}

TEST(BatchingEquivalence, EpochBatchWarmReuseMatchesColdRuns) {
  // One MachineSim carries its warmed allocations — event ring,
  // per-processor caches, scratch — across run() calls, the sweep
  // runner's multi-run steady state (warm_machine_sim). The
  // simulated state must still start cold every run: a warmed sim's Nth
  // run must be bit-identical to a cold sim's only run for the same cell,
  // even as the program, scheduler, and processor count change between
  // rounds (shrinking and regrowing the cache array in place).
  std::mt19937 rng(0xE90Cu);
  const MachineConfig m = quiet(ksr1());
  SimOptions opts;  // defaults: batching on
  MachineSim warm(m, opts);
  std::vector<std::string> specs = paper_scheduler_specs();
  for (const std::string& s : adaptive_scheduler_specs()) specs.push_back(s);
  for (int round = 0; round < 12; ++round) {
    const LoopProgram prog = random_program(rng);
    const std::string& spec =
        specs[std::uniform_int_distribution<std::size_t>(0, specs.size() - 1)(
            rng)];
    const int p = std::uniform_int_distribution<int>(
        2, std::min(m.max_processors, 16))(rng);
    auto sched_warm = make_scheduler(spec);
    const SimResult reused = warm.run(prog, *sched_warm, p);
    MachineSim cold(m, opts);
    auto sched_cold = make_scheduler(spec);
    const SimResult fresh = cold.run(prog, *sched_cold, p);
    expect_identical(fresh, reused,
                     "warm-reuse round " + std::to_string(round) + " " + spec +
                         "/" + prog.name + "/P=" + std::to_string(p));
  }
}

TEST(BatchingEquivalence, UnderKitchenSinkFaults) {
  // Every fault family at once: deaths mid-chunk, link bursts, memory
  // spikes, stalls. The batched path must bail to exact per-iteration
  // probing wherever faults make the horizon argument unsound.
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

  std::mt19937 rng(0xFA17u);
  const std::vector<MachineConfig> machines = {
      quiet(iris()), quiet(symmetry()), quiet(butterfly1()), quiet(ksr1())};
  for (const MachineConfig& m : machines) {
    for (const char* spec : {"AFS", "GSS", "STATIC", "ADAPT", "TAILOR(0.5)",
                             "WORKSHARE", "AFS-NN"}) {
      const LoopProgram prog = random_program(rng);
      const int p = std::uniform_int_distribution<int>(
          2, std::min(m.max_processors, 8))(rng);
      check_all_modes(m, prog, spec, p,
                      m.name + "/" + spec + "/" + prog.name +
                          "/P=" + std::to_string(p) + "/faulted",
                      &pc);
    }
  }
}

}  // namespace
}  // namespace afs
