// Unit tests for the adaptive scheduler frontier (src/sched/adaptive/):
// spec parsing, the manual next()/report() protocol, conservation, and the
// behaviors that distinguish each algorithm from the paper's nine — ADAPT's
// feedback-driven chunk sizing, TAILOR's re-homing, WORKSHARE's
// sender-initiated pushes, and AFS-NN's nearest-neighbor victim order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "machines/machines.hpp"
#include "sched/adaptive/adapt_scheduler.hpp"
#include "sched/adaptive/afs_nn.hpp"
#include "sched/adaptive/tailor_scheduler.hpp"
#include "sched/adaptive/workshare_scheduler.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "util/check.hpp"

namespace afs {
namespace {

TEST(AdaptiveRegistry, SpecsResolveToCanonicalNames) {
  EXPECT_EQ(make_scheduler("ADAPT")->name(), "ADAPT");
  EXPECT_EQ(make_scheduler("TAILOR")->name(), "TAILOR(0.5)");
  EXPECT_EQ(make_scheduler("TAILOR(0.5)")->name(), "TAILOR(0.5)");
  EXPECT_EQ(make_scheduler("TAILOR(0.25)")->name(), "TAILOR(0.25)");
  EXPECT_EQ(make_scheduler("WORKSHARE")->name(), "WORKSHARE");
  EXPECT_EQ(make_scheduler("AFS-NN")->name(), "AFS-NN");
}

TEST(AdaptiveRegistry, CaseInsensitive) {
  EXPECT_EQ(make_scheduler("adapt")->name(), "ADAPT");
  EXPECT_EQ(make_scheduler("tailor(0.5)")->name(), "TAILOR(0.5)");
  EXPECT_EQ(make_scheduler("workshare")->name(), "WORKSHARE");
  EXPECT_EQ(make_scheduler("afs-nn")->name(), "AFS-NN");
}

TEST(AdaptiveRegistry, OnlyAdaptiveSchedulersWantFeedback) {
  for (const std::string& spec : adaptive_scheduler_specs()) {
    const bool feedback = spec != "AFS-NN";  // AFS-NN adapts topology, not cost
    EXPECT_EQ(make_scheduler(spec)->wants_feedback(), feedback) << spec;
  }
  for (const std::string& spec : paper_scheduler_specs())
    EXPECT_FALSE(make_scheduler(spec)->wants_feedback()) << spec;
}

TEST(AdaptiveRegistry, ThresholdOutOfRangeThrows) {
  EXPECT_THROW(make_scheduler("TAILOR(1.5)"), CheckFailure);
  EXPECT_THROW(make_scheduler("TAILOR(-0.1)"), CheckFailure);
  EXPECT_THROW(make_scheduler("TAILOR(abc)"), CheckFailure);
}

TEST(AdaptiveRegistry, UnknownSpecErrorListsTheGrammar) {
  try {
    make_scheduler("NOPE");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("valid specs"), std::string::npos);
    EXPECT_NE(msg.find("TAILOR(<threshold>)"), std::string::npos);
    EXPECT_NE(msg.find("ADAPT"), std::string::npos);
    EXPECT_NE(msg.find("WORKSHARE"), std::string::npos);
    EXPECT_NE(msg.find("REV:<spec>"), std::string::npos);
  }
}

/// Drives the manual protocol round-robin across workers, report()ing every
/// grab with a synthetic runtime, and checks the grabs form a disjoint
/// cover of [0, n). The uneven per-worker cost function gives the feedback
/// channel something to chew on.
void drain_and_check_conservation(Scheduler& s, std::int64_t n, int p,
                                  int epochs) {
  for (int epoch = 0; epoch < epochs; ++epoch) {
    s.start_loop(n, p);
    std::vector<IterRange> got;
    double clock = 0.0;
    int consecutive_done = 0;
    for (int w = 0; consecutive_done < p; w = (w + 1) % p) {
      const Grab g = s.next(w);
      if (g.done()) {
        ++consecutive_done;
        continue;
      }
      consecutive_done = 0;
      got.push_back(g.range);
      // Worker w's iterations cost (w+1) time units each: persistent
      // imbalance, which is what TAILOR and WORKSHARE react to.
      const double dur = static_cast<double>(g.range.size()) * (w + 1);
      s.report({w, g.range.begin, g.range.end, clock, clock + dur});
      clock += dur;
    }
    std::sort(got.begin(), got.end(),
              [](const IterRange& a, const IterRange& b) {
                return a.begin < b.begin;
              });
    std::int64_t expect_begin = 0;
    for (const IterRange& r : got) {
      EXPECT_EQ(r.begin, expect_begin)
          << s.name() << " epoch " << epoch << ": gap or overlap";
      EXPECT_LT(r.begin, r.end) << s.name();
      expect_begin = r.end;
    }
    EXPECT_EQ(expect_begin, n) << s.name() << " epoch " << epoch;
    s.end_loop();
  }
}

TEST(AdaptiveProtocol, EveryAdaptiveSchedulerConservesIterations) {
  for (const std::string& spec : adaptive_scheduler_specs()) {
    for (const std::int64_t n : {0L, 1L, 7L, 100L, 1000L}) {
      for (const int p : {1, 3, 8}) {
        auto s = make_scheduler(spec);
        drain_and_check_conservation(*s, n, p, 2);
      }
    }
  }
}

TEST(AdaptiveProtocol, CloneStartsFresh) {
  for (const std::string& spec : adaptive_scheduler_specs()) {
    auto s = make_scheduler(spec);
    drain_and_check_conservation(*s, 64, 4, 1);
    auto c = s->clone();
    EXPECT_EQ(c->name(), s->name()) << spec;
    EXPECT_EQ(c->stats().total().local_grabs, 0) << spec;
    drain_and_check_conservation(*c, 64, 4, 1);
  }
}

TEST(Adapt, ConvergesTowardGssChunksOnUniformFeedback) {
  // Uniform per-iteration cost => dev -> 0 => the grab fraction tends to 1
  // and chunks approach remaining/P (GSS). The first grab, before any
  // feedback, is the conservative remaining/(P*initial_divisor).
  AdaptScheduler s;
  s.start_loop(1024, 4);
  const Grab g0 = s.next(0);
  EXPECT_EQ(g0.range.size(), 128);  // ceil(1024/4 * 1/2)
  EXPECT_EQ(g0.kind, GrabKind::kCentral);
  s.report({0, g0.range.begin, g0.range.end, 0.0, 128.0});  // 1.0 per iter
  std::int64_t remaining = 1024 - 128;
  double clock = 128.0;
  for (int i = 0; i < 6; ++i) {
    const Grab g = s.next(i % 4);
    ASSERT_FALSE(g.done());
    // With zero deviation every grab is exactly ceil(remaining / 4).
    EXPECT_EQ(g.range.size(), (remaining + 3) / 4) << "grab " << i;
    const double dur = static_cast<double>(g.range.size());
    s.report({i % 4, g.range.begin, g.range.end, clock, clock + dur});
    clock += dur;
    remaining -= g.range.size();
  }
}

TEST(Adapt, HighVarianceFeedbackShrinksChunks) {
  AdaptScheduler s;
  std::int64_t remaining = 1 << 20;
  s.start_loop(remaining, 8);
  double clock = 0.0;
  // Alternate cheap and 100x-expensive chunks: dev grows toward mean and
  // the grab fraction mean/(mean+dev) stays well below 1, so every grab
  // after the first report is strictly smaller than GSS's remaining/P.
  for (int i = 0; i < 12; ++i) {
    const Grab g = s.next(i % 8);
    ASSERT_FALSE(g.done());
    if (i >= 2) {
      EXPECT_LT(g.range.size(), remaining / 8)
          << "variance should shrink chunks below remaining/P at grab " << i;
    }
    remaining -= g.range.size();
    const double per_iter = (i % 2 == 0) ? 1.0 : 100.0;
    const double dur = static_cast<double>(g.range.size()) * per_iter;
    s.report({i % 8, g.range.begin, g.range.end, clock, clock + dur});
    clock += dur;
  }
}

TEST(Adapt, ChunkTrajectoryIsGoldenOnGauss) {
  // The full decision sequence of ADAPT on a fixed cell, golden-pinned:
  // any engine change that perturbs feedback timing or ordering shows up
  // here as a changed trajectory, not as a silent perf drift.
  const auto run_history = [](bool batch) {
    MachineConfig m = iris();
    m.epoch_jitter = 0.0;
    SimOptions opts;
    opts.batch_iterations = batch;
    AdaptScheduler s;
    MachineSim sim(m, opts);
    const LoopProgram prog = GaussKernel::program(24);
    (void)sim.run(prog, s, 4);
    return s.chunk_history();
  };
  const std::vector<std::int64_t> history = run_history(true);
  // Gauss(24) runs 23 epochs of a shrinking loop on P=4; this is the
  // complete grant sequence (regenerate with this test's run_history if
  // the *cost model* legitimately changes — never to paper over an
  // engine-determinism regression).
  const std::vector<std::int64_t> golden = {
      3, 3, 3, 2, 3, 3, 2, 1, 1, 1, 1, 5, 4, 3, 3, 2, 2, 1, 1, 1, 5, 4, 3,
      2, 2, 2, 1, 1, 1, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 5, 3, 3, 2, 2, 1, 1,
      1, 1, 5, 4, 3, 2, 1, 1, 1, 1, 4, 3, 2, 2, 2, 1, 1, 1, 1, 4, 3, 2, 2,
      2, 1, 1, 1, 3, 3, 2, 2, 1, 1, 1, 1, 1, 3, 2, 2, 2, 2, 1, 1, 1, 3, 2,
      2, 2, 1, 1, 1, 1, 3, 2, 2, 1, 1, 1, 1, 1, 3, 2, 2, 1, 1, 1, 1, 3, 2,
      2, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 2,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_EQ(history, golden);
  // And the trajectory is an engine invariant, not a mode artifact.
  EXPECT_EQ(run_history(false), history);
}

TEST(Workshare, OverloadedProcessorPushesToIdlest) {
  WorkshareScheduler s;
  s.start_loop(100, 2);
  // Proc 1 establishes a cheap cost profile.
  const Grab g1 = s.next(1);
  ASSERT_EQ(g1.kind, GrabKind::kLocal);
  ASSERT_EQ(g1.range.size(), 25);
  s.report({1, g1.range.begin, g1.range.end, 0.0, 0.25});  // 0.01 / iter
  EXPECT_EQ(s.push_count(), 0);

  // Proc 0 reports a 1000x costlier profile: its remaining-work estimate
  // dwarfs the mean and it must push part of its queue to proc 1.
  const Grab g0 = s.next(0);
  ASSERT_EQ(g0.kind, GrabKind::kLocal);
  ASSERT_EQ(g0.range.size(), 25);
  s.report({0, g0.range.begin, g0.range.end, 0.0, 250.0});  // 10.0 / iter
  EXPECT_GT(s.push_count(), 0);

  // The pushed range keeps its origin tag: when proc 1 reaches it, the
  // grab is charged as a remote access against proc 0's queue.
  bool saw_migrated = false;
  for (int i = 0; i < 64; ++i) {
    const Grab g = s.next(1);
    if (g.done()) break;
    if (g.kind == GrabKind::kRemote) {
      saw_migrated = true;
      EXPECT_EQ(g.queue, 0);
      EXPECT_GE(g.range.begin, 25);  // from proc 0's home half
      EXPECT_LT(g.range.end, 50);
      break;
    }
    EXPECT_EQ(g.kind, GrabKind::kLocal);
  }
  EXPECT_TRUE(saw_migrated);
}

TEST(Workshare, NeverGrabsFromOthers) {
  // Sender-initiated means receiver-passive: a worker whose queue is empty
  // is done even while other queues still hold work, and it never probes.
  WorkshareScheduler s;
  EXPECT_EQ(s.victim_probe_count(16), 0);
  s.start_loop(64, 4);
  for (int i = 0; i < 16; ++i) {
    const Grab g = s.next(2);
    if (g.done()) break;
    EXPECT_EQ(g.kind, GrabKind::kLocal);  // no reports => no pushes
    EXPECT_EQ(g.queue, 2);
  }
  EXPECT_TRUE(s.next(2).done());
  EXPECT_FALSE(s.next(0).done());  // others still have their homes
}

TEST(Tailor, RehomesWhenAffinityEstimateDropsBelowThreshold) {
  TailorOptions o;
  o.threshold = 1.0;  // any imperfection triggers a re-home
  TailorScheduler s(o);
  s.start_loop(100, 4);
  // Worker 0 single-handedly drains the whole loop (grabbing locally,
  // then stealing): only its own home quarter executes "at home".
  double clock = 0.0;
  while (true) {
    const Grab g = s.next(0);
    if (g.done()) break;
    const double dur = static_cast<double>(g.range.size());
    s.report({0, g.range.begin, g.range.end, clock, clock + dur});
    clock += dur;
  }
  s.end_loop();
  EXPECT_DOUBLE_EQ(s.last_affinity_estimate(), 0.25);
  EXPECT_EQ(s.rehome_count(), 1);

  // Next epoch the homes follow the execution: worker 0 owns everything,
  // so its first local grab draws from a 100-iteration home queue.
  s.start_loop(100, 4);
  const Grab g = s.next(0);
  EXPECT_EQ(g.kind, GrabKind::kLocal);
  EXPECT_EQ(g.range.size(), 25);  // ceil(100 / k), k = P = 4
  EXPECT_TRUE(s.next(1).done() || s.next(1).kind == GrabKind::kRemote);
}

TEST(Tailor, KeepsHomesWhileAffinityHoldsAboveThreshold) {
  TailorScheduler s;  // threshold 0.5
  for (int epoch = 0; epoch < 3; ++epoch) {
    s.start_loop(80, 4);
    double clock = 0.0;
    // Round-robin drain: the symmetric queues empty in lockstep, so every
    // grab stays local — perfect affinity, and the homes must not move.
    int consecutive_done = 0;
    for (int w = 0; consecutive_done < 4; w = (w + 1) % 4) {
      const Grab g = s.next(w);
      if (g.done()) {
        ++consecutive_done;
        continue;
      }
      consecutive_done = 0;
      EXPECT_EQ(g.kind, GrabKind::kLocal) << "epoch " << epoch;
      const double dur = static_cast<double>(g.range.size());
      s.report({w, g.range.begin, g.range.end, clock, clock + dur});
      clock += dur;
    }
    s.end_loop();
    EXPECT_DOUBLE_EQ(s.last_affinity_estimate(), 1.0);
  }
  EXPECT_EQ(s.rehome_count(), 0);
}

TEST(AfsNn, StealsFromNearestNonEmptyQueueNotMostLoaded) {
  auto s = make_afs_nn();
  s->start_loop(40, 4);  // homes: 10 iterations per processor
  // Shrink queue 2 to make it strictly lighter than queue 0.
  ASSERT_FALSE(s->next(2).done());
  ASSERT_FALSE(s->next(2).done());
  // Drain worker 1's own queue.
  while (true) {
    const Grab g = s->next(1);
    ASSERT_FALSE(g.done());
    if (g.kind == GrabKind::kRemote) {
      // Nearest first: distance-1 right neighbor (queue 2) wins even
      // though queue 0 holds more work. Plain AFS would pick queue 0.
      EXPECT_EQ(g.queue, 2);
      break;
    }
    EXPECT_EQ(g.queue, 1);
  }
}

TEST(AfsNn, FallsBackToLeftNeighborWhenRightIsEmpty) {
  auto s = make_afs_nn();
  s->start_loop(40, 4);  // homes of 10; a 10-queue drains in 6 local grabs
  for (int i = 0; i < 6; ++i) {
    const Grab g = s->next(2);  // empty the right neighbor's queue
    ASSERT_EQ(g.kind, GrabKind::kLocal) << "grab " << i;
  }
  for (int i = 0; i < 6; ++i) {
    const Grab g = s->next(1);
    ASSERT_EQ(g.kind, GrabKind::kLocal) << "grab " << i;
  }
  // Queue 2 (right, distance 1) is empty, so the scan falls back to queue
  // 0 (left, distance 1) before ever reaching queue 3 at distance 2.
  const Grab g = s->next(1);
  EXPECT_EQ(g.kind, GrabKind::kRemote);
  EXPECT_EQ(g.queue, 0);
}

}  // namespace
}  // namespace afs
