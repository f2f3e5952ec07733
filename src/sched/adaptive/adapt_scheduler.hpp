// ADAPT — adaptive self-scheduling over a central queue.
//
// The paper's central-queue algorithms (SS, GSS, FACTORING, TAPER) fix
// their chunk-size rule before the loop starts, from assumptions about the
// iteration-cost distribution. ADAPT instead learns the distribution
// on-line through the feedback channel: every completed chunk reports its
// simulated runtime, and the scheduler maintains an EWMA of the
// per-iteration cost (mean_) together with an EWMA of the absolute
// deviation of per-chunk means (dev_).
//
// Grab rule: a grab takes
//
//     ceil( (remaining / P) * mean / (mean + dev) )
//
// iterations. With a uniform workload dev -> 0 and ADAPT converges to
// GSS's remaining/P rule (few grabs, low sync overhead). With a highly
// variable workload dev grows, the factor mean/(mean+dev) shrinks, and
// chunks approach self-scheduling's single iterations (fine-grained
// balancing). Before the first report the factor is 1/initial_divisor —
// a deliberately conservative probe while nothing is known.
//
// Everything is driven by simulated times delivered at deterministic
// points, so the chunk-size trajectory is a pure function of the workload
// and options: bit-identical across --jobs and batching.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace afs {

struct AdaptOptions {
  /// EWMA smoothing factor for both the per-iteration cost mean and the
  /// absolute-deviation estimate.
  double alpha = 0.25;

  /// Before any feedback arrives, a grab takes remaining/(P*initial_divisor)
  /// iterations: a GSS-sized chunk shrunk by this factor so one bad first
  /// chunk cannot dominate the loop.
  int initial_divisor = 2;

  /// Lower clamp on every chunk.
  std::int64_t min_chunk = 1;
};

class AdaptScheduler final : public Scheduler {
 public:
  explicit AdaptScheduler(AdaptOptions options = {});

  const std::string& name() const override;
  void start_loop(std::int64_t n, int p) override;
  Grab next(int worker) override;
  SyncStats stats() const override;
  void reset_stats() override;
  std::unique_ptr<Scheduler> clone() const override;
  bool wants_feedback() const override { return true; }
  void report(const ChunkFeedback& fb) override;

  /// Every chunk size granted since construction (or reset_stats()), in
  /// grant order. This is the scheduler's entire observable decision
  /// sequence, golden-pinned by tests to guard determinism.
  std::vector<std::int64_t> chunk_history() const;

  const AdaptOptions& options() const { return options_; }

 private:
  std::int64_t next_chunk_locked(std::int64_t remaining) const;

  AdaptOptions options_;
  std::string name_ = "ADAPT";
  mutable std::mutex mutex_;
  std::int64_t next_ = 0;
  std::int64_t end_ = 0;
  int p_ = 1;
  bool have_mean_ = false;
  double mean_ = 0.0;  // EWMA per-iteration simulated time
  double dev_ = 0.0;   // EWMA absolute deviation of per-chunk means
  QueueStats queue_stats_;
  std::int64_t loops_ = 0;
  std::vector<std::int64_t> history_;
};

}  // namespace afs
