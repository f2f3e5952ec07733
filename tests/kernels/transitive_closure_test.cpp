#include "kernels/transitive_closure.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sched/registry.hpp"
#include "workload/graphs.hpp"

namespace afs {
namespace {

// The byte-at-a-time Warshall loop the kernel used before its row-OR
// helper, kept as the oracle the kernel must match element for element:
// `closed` is the final matrix, `trace[k][j]` the byte A(J,K) held when
// epoch K started.
struct OracleRun {
  BoolMatrix closed;
  std::vector<std::vector<std::uint8_t>> trace;
};

OracleRun byte_loop_oracle(BoolMatrix a) {
  const std::int64_t n = a.rows();
  std::vector<std::vector<std::uint8_t>> trace(
      static_cast<std::size_t>(n),
      std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0));
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t j = 0; j < n; ++j)
      trace[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] =
          a(j, k);
    for (std::int64_t j = 0; j < n; ++j) {
      if (!a(j, k) || j == k) continue;
      for (std::int64_t i = 0; i < n; ++i)
        if (a(k, i)) a(j, i) = 1;
    }
  }
  return {std::move(a), std::move(trace)};
}

// active_trace, run_serial and run_parallel (SS and AFS on four threads)
// all reproduce the oracle's bytes.
void expect_matches_oracle(const BoolMatrix& g, const std::string& what) {
  SCOPED_TRACE(what);
  const OracleRun want = byte_loop_oracle(g);
  EXPECT_EQ(TransitiveClosureKernel::active_trace(g), want.trace);

  TransitiveClosureKernel serial(g);
  serial.run_serial();
  EXPECT_EQ(serial.matrix(), want.closed);

  ThreadPool pool(4);
  for (const char* spec : {"SS", "AFS"}) {
    TransitiveClosureKernel par(g);
    auto sched = make_scheduler(spec);
    par.run_parallel(pool, *sched);
    EXPECT_EQ(par.matrix(), want.closed) << spec;
  }
}

// Simple O(n^3) reference: repeated boolean matrix "squaring" by k-loop is
// already Warshall; use an independent reachability BFS instead.
BoolMatrix bfs_closure(const BoolMatrix& g) {
  const std::int64_t n = g.rows();
  BoolMatrix out(n, n, 0);
  for (std::int64_t s = 0; s < n; ++s) {
    std::vector<std::int64_t> stack{s};
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    while (!stack.empty()) {
      const std::int64_t u = stack.back();
      stack.pop_back();
      for (std::int64_t v = 0; v < n; ++v) {
        if (g(u, v) && !seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          out(s, v) = 1;
          stack.push_back(v);
        }
      }
    }
  }
  return out;
}

TEST(TransitiveClosure, SerialMatchesBfsOnRandomGraph) {
  const auto g = random_graph(48, 0.08, 5);
  TransitiveClosureKernel k(g);
  k.run_serial();
  const auto ref = bfs_closure(g);
  // Warshall keeps original edges plus discovered paths; BFS reachability
  // marks reachable-by-nonempty-path. Compare on that footing.
  for (std::int64_t i = 0; i < 48; ++i)
    for (std::int64_t j = 0; j < 48; ++j) {
      const bool warshall = k.matrix()(i, j) != 0;
      const bool reach = ref(i, j) != 0 || g(i, j) != 0;
      EXPECT_EQ(warshall, reach) << i << "->" << j;
    }
}

TEST(TransitiveClosure, ParallelMatchesSerial) {
  const auto g = random_graph(64, 0.06, 17);
  TransitiveClosureKernel serial(g), par(g);
  serial.run_serial();
  ThreadPool pool(4);
  auto sched = make_scheduler("AFS");
  par.run_parallel(pool, *sched);
  EXPECT_EQ(serial.matrix(), par.matrix());
}

TEST(TransitiveClosure, CliqueClosesToItself) {
  TransitiveClosureKernel k(clique_graph(20, 8));
  k.run_serial();
  EXPECT_EQ(k.reachable_pairs(), 8 * 8);  // clique closure incl. self-loops
}

TEST(TransitiveClosure, ChainBecomesFullOrder) {
  BoolMatrix g(10, 10, 0);
  for (std::int64_t i = 0; i + 1 < 10; ++i) g(i, i + 1) = 1;
  TransitiveClosureKernel k(g);
  k.run_serial();
  for (std::int64_t i = 0; i < 10; ++i)
    for (std::int64_t j = 0; j < 10; ++j)
      EXPECT_EQ(k.matrix()(i, j) != 0, j > i) << i << "," << j;
}

TEST(TransitiveClosure, TraceMarksActiveIterations) {
  const auto g = clique_graph(10, 4);
  const auto trace = TransitiveClosureKernel::active_trace(g);
  ASSERT_EQ(trace.size(), 10u);
  // Epoch 0: iterations 1..3 have edge (j,0) (clique rows), others not.
  EXPECT_EQ(trace[0][1], 1);
  EXPECT_EQ(trace[0][5], 0);
}

TEST(TransitiveClosure, ProgramCostsFollowTrace) {
  const auto g = clique_graph(16, 8);
  const auto prog = TransitiveClosureKernel::program(g, 1.0);
  EXPECT_EQ(prog.epochs, 16);
  const auto spec = prog.epoch_loops(0)[0];
  EXPECT_DOUBLE_EQ(spec.work(1), 16.0);  // clique row: O(n)
  EXPECT_DOUBLE_EQ(spec.work(12), 1.0);  // outside clique: O(1)
}

TEST(TransitiveClosure, ProgramFootprintOnlyForActive) {
  const auto g = clique_graph(16, 8);
  const auto prog = TransitiveClosureKernel::program(g);
  const auto spec = prog.epoch_loops(0)[0];
  std::vector<BlockAccess> acc;
  spec.footprint(12, acc);
  EXPECT_TRUE(acc.empty());
  spec.footprint(1, acc);
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].block, 0);  // shared row k
  EXPECT_EQ(acc[1].block, 1);  // own row
  EXPECT_TRUE(acc[1].write);
}

TEST(TransitiveClosureOracle, RandomGraphsMatchByteLoop) {
  // Sizes straddle the 16-byte vector width and its tail handling.
  for (const std::int64_t n : {1, 2, 15, 16, 17, 63, 64, 65, 200})
    for (const double density : {0.0, 0.02, 0.08, 0.5, 1.0})
      for (const std::uint64_t seed : {1u, 7u, 1992u})
        expect_matches_oracle(random_graph(n, density, seed),
                              "random n=" + std::to_string(n) + " p=" +
                                  std::to_string(density) +
                                  " seed=" + std::to_string(seed));
}

TEST(TransitiveClosureOracle, CliqueGraphsMatchByteLoop) {
  for (const auto& [n, clique] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1, 1}, {16, 1}, {17, 8}, {64, 64}, {65, 26}, {200, 80}})
    expect_matches_oracle(clique_graph(n, clique),
                          "clique n=" + std::to_string(n) +
                              " c=" + std::to_string(clique));
}

TEST(TransitiveClosureOracle, ArbitraryBytesMatchByteLoop) {
  // Nonzero bytes other than 1 must survive exactly where the byte loop
  // leaves them (row K itself, and rows the closure never reaches).
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (const std::int64_t n : {1, 17, 65, 130}) {
    for (const int zero_pct : {0, 50, 95}) {
      BoolMatrix g(n, n, 0);
      for (std::int64_t r = 0; r < n; ++r)
        for (std::int64_t c = 0; c < n; ++c)
          if (static_cast<int>(next() % 100) >= zero_pct)
            g(r, c) = static_cast<std::uint8_t>(next() % 256);
      expect_matches_oracle(g, "bytes n=" + std::to_string(n) +
                                   " zero%=" + std::to_string(zero_pct));
    }
  }
}

TEST(TransitiveClosureOracle, ProgramKeysArePinned) {
  // The key hashes the input graph, so it names the store entries of every
  // cell these experiments simulate; a change here orphans existing stores.
  EXPECT_EQ(TransitiveClosureKernel::program(random_graph(512, 0.08, 1992))
                .key,  // fig05
            "tc(n=512,w=0x1p+1,graph=5678bd93fc996207)");
  EXPECT_EQ(TransitiveClosureKernel::program(clique_graph(640, 320))
                .key,  // fig06, tab4, ablation_afs
            "tc(n=640,w=0x1p+1,graph=153ef79a65d579e5)");
  EXPECT_EQ(TransitiveClosureKernel::program(clique_graph(1024, 409))
                .key,  // fig16
            "tc(n=1024,w=0x1p+1,graph=970593b6e7d9b985)");
}

TEST(TransitiveClosure, EmptyGraphIsFixedPoint) {
  TransitiveClosureKernel k(BoolMatrix(12, 12, 0));
  k.run_serial();
  EXPECT_EQ(k.reachable_pairs(), 0);
}

}  // namespace
}  // namespace afs
