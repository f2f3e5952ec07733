// Span and counter recording for the traced benchmark run.
//
// hooks.cpp defines the linker --wrap shims (see ../CMakeLists.txt) that
// bracket the public entry points of each layer: run_experiment
// (experiments), run_sweep and each sweep cell (runtime), MachineSim::run
// (sim, with every Scheduler call forwarded through ForwardingScheduler
// for sched), and ResultStore::load/save (store). Spans are kept in memory
// and written out once, when the process exits (see kTraceDirEnv).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of one back-to-back pair of now_ns() calls, subtracted from
/// per-call timings so they report the callee and not the clock.
std::int64_t clock_pair_ns();

/// One timed call at a layer boundary. `parent` is the span that caused
/// it (0 = none); every span under one top-level run_experiment call
/// shares `req`, which in the daemon equals the protocol's request number
/// because its dispatcher runs one request at a time, in arrival order.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t req = 0;
  const char* name = "";   ///< e.g. "sim.run"
  const char* layer = "";  ///< sim | sched | runtime | store | experiments
  std::string label;       ///< experiment or sweep id, cell label, ...
  std::int64_t t0 = 0;     ///< steady_clock ns (CLOCK_MONOTONIC: shared
  std::int64_t t1 = 0;     ///< by every process on the host)
  std::int64_t child_ns = 0;  ///< sched time inside a sim.run span
  std::int64_t queued = 0;    ///< cells: when run_sweep was called
  int jobs = 0;               ///< sweeps: worker threads
  int tid = 0;
};

/// Exact counts and summed times gathered alongside the spans.
struct Counters {
  std::int64_t sim_cells = 0, sim_iterations = 0, sim_accesses = 0,
               sim_misses = 0, sim_invalidations = 0, sim_ns = 0;
  std::int64_t sched_grabs = 0, sched_steals = 0, sched_chunks = 0,
               sched_ns = 0;
  std::int64_t store_hits = 0, store_misses = 0, store_writes = 0;
  std::int64_t resumed_cells = 0;
  std::vector<double> store_get_us;  ///< one per load that hit
  std::vector<double> store_put_us;  ///< one per save
};

/// A process started with this variable naming a directory records from
/// its first call and, when it exits, writes <dir>/<pid>.spans.jsonl and
/// <dir>/<pid>.counters.json. The traced afs_sweep's sandbox workers
/// re-exec the same binary and inherit it, so each writes its own pair.
inline constexpr const char* kTraceDirEnv = "PERFBENCH_TRACE_DIR";

class Recorder {
 public:
  static Recorder& get();

  /// Off unless kTraceDirEnv is set. While disabled every hook forwards
  /// straight to the wrapped function, so a self-test can compare
  /// decorated and undecorated runs.
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Opens a span on this thread; it becomes the parent of spans opened
  /// on this thread until end().
  std::int64_t begin(const char* name, const char* layer, std::string label);
  void end(std::int64_t id);
  /// Mutates an open span (for attributes known only at its end).
  template <class F>
  void annotate(std::int64_t id, F&& f) {
    std::scoped_lock lock(mu_);
    f(spans_[static_cast<std::size_t>(id - 1)]);
  }

  /// Thread-local context, re-established on pool threads by run_sweep's
  /// cell shim.
  struct Context {
    std::int64_t parent = 0;
    std::int64_t req = 0;
  };
  static Context context();
  static void set_context(Context c);
  std::int64_t next_request() { return ++requests_; }

  template <class F>
  void with_counters(F&& f) {
    std::scoped_lock lock(mu_);
    f(counters_);
  }

  Counters counters() const;
  void reset();

  /// One JSON object per line.
  void write_spans(std::ostream& out, long pid) const;
  /// The counters as one JSON object (store samples as arrays).
  void write_counters(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< index = id - 1
  Counters counters_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> requests_{0};
};

/// Forwards every virtual of Scheduler to an inner scheduler, timing
/// next() and counting grabs by kind. Leaves results bit-identical.
class ForwardingScheduler final : public afs::Scheduler {
 public:
  explicit ForwardingScheduler(afs::Scheduler& inner) : inner_(&inner) {}
  explicit ForwardingScheduler(std::unique_ptr<afs::Scheduler> owned)
      : owned_(std::move(owned)), inner_(owned_.get()) {}

  const std::string& name() const override { return inner_->name(); }
  void start_loop(std::int64_t n, int p) override { inner_->start_loop(n, p); }
  afs::Grab next(int worker) override {
    const std::int64_t t0 = now_ns();
    afs::Grab g = inner_->next(worker);
    ns_ += now_ns() - t0;
    ++grabs_;
    if (g.kind == afs::GrabKind::kRemote) ++steals_;
    if (!g.done()) ++chunks_;
    return g;
  }
  void end_loop() override { inner_->end_loop(); }
  afs::SyncStats stats() const override { return inner_->stats(); }
  void reset_stats() override { inner_->reset_stats(); }
  std::unique_ptr<afs::Scheduler> clone() const override {
    return std::make_unique<ForwardingScheduler>(inner_->clone());
  }
  bool central_queue_is_indexed() const override {
    return inner_->central_queue_is_indexed();
  }
  int victim_probe_count(int p) const override {
    return inner_->victim_probe_count(p);
  }
  bool wants_feedback() const override { return inner_->wants_feedback(); }
  void report(const afs::ChunkFeedback& fb) override { inner_->report(fb); }

  std::int64_t grabs() const { return grabs_; }
  std::int64_t steals() const { return steals_; }
  std::int64_t chunks() const { return chunks_; }
  std::int64_t next_ns() const { return ns_; }

 private:
  std::unique_ptr<afs::Scheduler> owned_;
  afs::Scheduler* inner_;
  std::int64_t grabs_ = 0, steals_ = 0, chunks_ = 0, ns_ = 0;
};

}  // namespace perfbench
