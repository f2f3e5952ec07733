// Trace analytics: per-processor time breakdowns, the steal matrix, and
// the affinity score, all derived from a decoded TraceRecord sequence.
//
// The affinity score quantifies the paper's central mechanism: across
// epochs of the same loop, what fraction of iterations execute on the
// processor that owned them in the previous epoch? Affinity schedulers
// (AFS and friends) keep this high so per-processor caches stay warm;
// central-queue self-scheduling scatters iterations and scores near 1/P.
//
// The conservation law narrated + abandoned == sum of loop sizes is the
// same invariant MetricsAccumulator enforces; checking it here through
// the reader exercises both encodings end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_record.hpp"

namespace afs {

/// Where one processor's simulated time went, summed over a run.
struct ProcBreakdown {
  double exec = 0;     ///< inside chunks (includes memory time)
  double memory = 0;   ///< miss + invalidation latency within chunks
  double sync = 0;     ///< grabbing work (lock/queue overhead)
  double stall = 0;    ///< injected stalls
  double idle = 0;     ///< makespan minus everything above
  std::int64_t iterations = 0;
  std::int64_t chunks = 0;

  /// Chunk time that is pure compute, net of memory latency.
  double busy() const { return exec - memory; }
};

/// Everything analyze_trace() derives from one run's records.
struct TraceAnalysis {
  std::string machine;
  std::string program;
  std::string scheduler;
  int p = 0;
  double makespan = 0;
  std::int64_t records = 0;
  std::int64_t epochs = 0;

  std::vector<ProcBreakdown> procs;

  /// steal_iters[thief][victim]: iterations taken from another
  /// processor's queue by remote (work-stealing) grabs.
  std::vector<std::vector<std::int64_t>> steal_iters;
  /// fault_steal_iters[thief][victim]: iterations reassigned from a
  /// failed processor's queue during fault recovery.
  std::vector<std::vector<std::int64_t>> fault_steal_iters;

  std::int64_t total_iterations = 0;      ///< sum of loop_begin n
  std::int64_t executed_iterations = 0;   ///< sum of chunk spans
  std::int64_t abandoned_iterations = 0;  ///< sum of abandoned records

  /// Affinity: of the iterations in epochs after the first, how many ran
  /// on the processor that executed them in the previous epoch.
  std::int64_t affine_iterations = 0;
  std::int64_t scored_iterations = 0;

  /// Fraction in [0,1]; 0 when no epoch had a predecessor to compare to.
  double affinity_score() const {
    return scored_iterations > 0
               ? static_cast<double>(affine_iterations) /
                     static_cast<double>(scored_iterations)
               : 0.0;
  }

  std::int64_t remote_steals() const;      ///< total remote-grab iterations
  std::int64_t fault_steals() const;       ///< total fault-recovery iterations

  /// Load imbalance over in-chunk time: max_p(exec) / mean_p(exec) - 1.
  /// 0 for a perfectly balanced run (or an empty one); the y-axis of the
  /// frontier_tradeoff curves, paired with affinity_score() as the x.
  double exec_imbalance() const;

  /// The trace conservation law: every iteration announced by a
  /// loop_begin is either narrated in a chunk or abandoned.
  bool conserved() const {
    return executed_iterations + abandoned_iterations == total_iterations;
  }
};

/// Analyzes a record sequence, returning one TraceAnalysis per run
/// (a file normally holds a single run_begin..run_end span, but the
/// sinks allow several back to back). Throws std::runtime_error on
/// sequences that violate the schema (events outside a run, chunk
/// before loop_begin, missing run_end, a negative loop size or an
/// implausible processor count).
std::vector<TraceAnalysis> analyze_trace(
    const std::vector<TraceRecord>& records);

/// analyze_trace over the records of a trace file, streamed through
/// TraceReader::next rather than decoded into a vector first; the result
/// equals analyze_trace(read_trace(path)). Malformed files throw
/// std::runtime_error.
std::vector<TraceAnalysis> analyze_trace_file(const std::string& path);

}  // namespace afs
