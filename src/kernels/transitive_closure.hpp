// Warshall transitive closure (paper §4.2, third kernel).
//
//   DO SEQUENTIAL K = 1, N
//     DO PARALLEL J = 1, N
//       IF (A(J,K)) THEN
//         DO SEQUENTIAL I = 1, N
//           IF (A(K,I)) A(J,I) = TRUE
//
// Iteration J costs O(N) when edge (J,K) exists and O(1) otherwise — load
// is input-dependent (random graph: averaged out; clique graph: all the
// work in the clique rows). Iteration J always touches row J: affinity.
// The parallel epoch is race-free: within epoch K only iteration J writes
// row J, and the only writer of the shared row K (iteration J = K) is a
// no-op, so results are schedule-independent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "workload/graphs.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

class TransitiveClosureKernel {
 public:
  /// active[k][j] != 0 when edge (J,K) is present as epoch K starts.
  using ActiveTrace = std::vector<std::vector<std::uint8_t>>;

  explicit TransitiveClosureKernel(BoolMatrix graph);

  void run_serial();
  void run_parallel(ThreadPool& pool, Scheduler& sched);

  const BoolMatrix& matrix() const { return a_; }
  std::int64_t reachable_pairs() const;

  /// Simulator descriptor. The per-epoch active set (is edge (J,K) present
  /// when epoch K starts?) depends on the algorithm's own progress, so it
  /// is captured by running the serial algorithm once and recording a
  /// trace — the simulated costs then follow the real data-dependent
  /// execution exactly.
  static LoopProgram program(const BoolMatrix& graph,
                             double work_per_element = 2.0);

  /// The same program over a trace the caller already holds (it must be
  /// active_trace(graph)), so a spec that also feeds the trace to the
  /// BEST-STATIC oracle runs Warshall once instead of twice. The program
  /// key still hashes `graph`, so it equals the one-argument overload's.
  static LoopProgram program(const BoolMatrix& graph,
                             std::shared_ptr<const ActiveTrace> trace,
                             double work_per_element = 2.0);

  /// Oracle per-iteration costs for BEST-STATIC at epoch k, from the same
  /// trace machinery.
  static ActiveTrace active_trace(BoolMatrix graph);

 private:
  std::int64_t n_;
  BoolMatrix a_;
};

}  // namespace afs
