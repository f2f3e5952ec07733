// The §3 analytic results, verified against actual executions: measured
// sync-op counts must respect Theorem 3.1, and simulated finish-time skew
// must respect Theorem 3.2.
#include <gtest/gtest.h>

#include <tuple>

#include "kernels/synthetic.hpp"
#include "sched/affinity_scheduler.hpp"
#include "sched/bounds.hpp"
#include "sim/machine_sim.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"

namespace afs {
namespace {

MachineConfig clean_machine() {
  MachineConfig m;
  m.name = "clean";
  m.max_processors = 64;
  m.work_unit_time = 1.0;
  return m;  // no jitter, no sync cost, no caches
}

// ---------------------------------------------- Theorem 3.1 in practice --

class Theorem31 : public ::testing::TestWithParam<
                      std::tuple<std::int64_t, int, int>> {};

TEST_P(Theorem31, MeasuredSyncOpsRespectBound) {
  const auto& [n, p, k] = GetParam();
  AffinityOptions o;
  o.k = k;
  AffinityScheduler sched(o);
  Xoshiro256 rng(99);

  sched.start_loop(n, p);
  std::vector<bool> done(static_cast<std::size_t>(p), false);
  int done_count = 0;
  while (done_count < p) {
    const int w = static_cast<int>(rng.next_in(0, p - 1));
    if (done[static_cast<std::size_t>(w)]) continue;
    if (sched.next(w).done()) {
      done[static_cast<std::size_t>(w)] = true;
      ++done_count;
    }
  }

  const std::int64_t bound = afs_queue_sync_bound(n, p, k);
  for (const auto& q : sched.stats().queues) {
    EXPECT_LE(q.local_grabs, bound);
    EXPECT_LE(q.remote_grabs, bound);
    EXPECT_LE(q.total_grabs(), bound + bound);
  }
}

std::string theorem31_name(
    const ::testing::TestParamInfo<std::tuple<std::int64_t, int, int>>& info) {
  const auto& [n, p, k] = info.param;
  return "n" + std::to_string(n) + "_p" + std::to_string(p) + "_k" +
         std::to_string(k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem31,
    ::testing::Values(std::make_tuple(512, 8, 8), std::make_tuple(512, 8, 2),
                      std::make_tuple(1000, 4, 4), std::make_tuple(5625, 8, 8),
                      std::make_tuple(100, 16, 16),
                      std::make_tuple(10000, 8, 3)),
    theorem31_name);

// ---------------------------------------------- Theorem 3.2 in practice --

TEST(Theorem32, KEqualsPFinishWithinOneIterationDespiteDelay) {
  // Uniform loop, one processor delayed: with k=P all processors finish
  // within ~1 iteration's time of each other -> idle time per processor is
  // bounded by a few iterations' work.
  const std::int64_t n = 100000;
  const int p = 8;
  SimOptions opts;
  opts.perturb.start_delays = {
      0.0, 0.0, 0.0, static_cast<double>(n) / 16, 0.0, 0.0, 0.0, 0.0};
  MachineSim sim(clean_machine(), opts);
  auto sched = std::make_unique<AffinityScheduler>();
  const SimResult r = sim.run(balanced_program(n), *sched, p);
  // Total idle across processors <= P * (bound iterations) * unit, plus
  // the unavoidable idle of the 7 early processors while the late one
  // catches up is absorbed by stealing, so idle stays small relative to
  // the delay.
  // Theorem 3.2 is proved for continuously divisible queues; the ceil()
  // rounding of real grabs adds up to one iteration per steal round, so a
  // few extra iterations of slack are allowed on top of the bound.
  const double bound_iters = afs_imbalance_bound(n, p, p);
  EXPECT_LE(r.idle, p * (bound_iters + 4.0) + 1e-6);
}

TEST(Theorem32, SmallKSuffersMoreImbalance) {
  const std::int64_t n = 100000;
  const int p = 8;
  SimOptions opts;
  opts.perturb.start_delays = {static_cast<double>(n) / 8};
  MachineSim sim(clean_machine(), opts);

  AffinityOptions ok2;
  ok2.k = 2;
  auto afs_k2 = std::make_unique<AffinityScheduler>(ok2);
  auto afs_kp = std::make_unique<AffinityScheduler>();
  const double t_k2 = sim.run(balanced_program(n), *afs_k2, p).makespan;
  const double t_kp = sim.run(balanced_program(n), *afs_kp, p).makespan;
  // Table 2's pattern: AFS(k=2) is the worst of the algorithms, and the
  // gap respects the Theorem 3.2 imbalance bound.
  EXPECT_GE(t_k2, t_kp - 1.0);
  EXPECT_LE(t_k2 - t_kp, afs_imbalance_bound(n, p, 2) + 4.0);
}

// ------------------------------------------- Theorem 3.3 consequence ----

TEST(Theorem33, TrapezoidMatchesAfsOnTriangularButGssLags) {
  // §4.4 Fig. 10 reasoning: triangular workload balances when chunks hold
  // <= 1/(2P) of remaining iterations. TSS starts exactly there; GSS's
  // first chunk holds ~2/P of the work and becomes the bottleneck.
  MachineSim sim(clean_machine());
  const std::int64_t n = 5000;
  const int p = 16;
  auto gss = make_scheduler("GSS");
  auto tss = make_scheduler("TRAPEZOID");
  auto afs = make_scheduler("AFS");
  const double tg = sim.run(triangular_program(n), *gss, p).makespan;
  const double tt = sim.run(triangular_program(n), *tss, p).makespan;
  const double ta = sim.run(triangular_program(n), *afs, p).makespan;
  EXPECT_LT(tt, tg);
  EXPECT_LT(ta, tg);
  EXPECT_NEAR(ta, tt, 0.15 * tt);
}

}  // namespace
}  // namespace afs
