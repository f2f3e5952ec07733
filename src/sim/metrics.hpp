// Metrics layer of the simulation engine: a sink interface the engine
// narrates every simulated event into, plus the two standard sinks.
//
//  * SimResultSink is the always-on accumulator that produces the SimResult
//    every caller sees. It is `final` and held by value inside the engine's
//    MetricsFanout, so its per-event methods compile to plain inlined
//    floating-point adds — routing the accounting through the sink layer
//    costs nothing over the pre-layered engine, and (crucially) performs
//    the *same additions in the same order*, preserving bit-identical
//    results.
//  * Trace sinks (see trace/binary_sink.hpp) are opt-in observers attached
//    via SimOptions::trace. When none is attached the fan-out is a single
//    predicted-not-taken null check per event: tracing is zero-cost when
//    disabled.
//
// Accounting invariants the accumulator maintains (tested in
// tests/sim/conservation_test.cpp via check_time_identity):
//   busy + sync + comm + idle + barrier ~= P * makespan.
#pragma once

#include <cstdint>
#include <string>

#include "machines/machine_config.hpp"
#include "sched/grab.hpp"
#include "sim/sim_result.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

/// Observer interface for one simulator run. All hooks default to no-ops
/// so a sink overrides only the events it cares about. Times are simulated
/// time units; (t0, t1) spans are [event start, event end].
///
/// Granularity: on_work and on_hit fire once per iteration / per resident
/// access and exist for the accumulator; timeline-oriented sinks normally
/// ignore them and reconstruct activity from the chunk-level events
/// (on_grab, on_chunk, on_miss, on_invalidate), which is what keeps trace
/// files proportional to scheduling decisions rather than iterations.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;

  /// A run begins: `p` processors of machine `m` executing `program` under
  /// scheduler `scheduler`.
  virtual void on_run_begin(const MachineConfig& m, const std::string& program,
                            const std::string& scheduler, int p) {
    (void)m, (void)program, (void)scheduler, (void)p;
  }

  /// A parallel loop of `n` iterations starts within epoch `epoch`.
  virtual void on_loop_begin(int epoch, std::int64_t n, int p) {
    (void)epoch, (void)n, (void)p;
  }

  /// `proc` obtained chunk `g` from the scheduler; the queue operation
  /// (victim probing + lock) occupied [t0, t1].
  virtual void on_grab(int proc, const Grab& g, double t0, double t1) {
    (void)proc, (void)g, (void)t0, (void)t1;
  }

  /// `proc` spent `w` time units computing iteration work. Fired per
  /// iteration (or once for an analytically-summed chunk).
  virtual void on_work(int proc, double w) { (void)proc, (void)w; }

  /// `proc` finished executing chunk [begin, end) over [t0, t1] (compute
  /// plus any memory-system stalls).
  virtual void on_chunk(int proc, std::int64_t begin, std::int64_t end,
                        double t0, double t1) {
    (void)proc, (void)begin, (void)end, (void)t0, (void)t1;
  }

  /// A cache-resident access (no time cost).
  virtual void on_hit(int proc, const BlockAccess& a, double t) {
    (void)proc, (void)a, (void)t;
  }

  /// A miss: block `a.block` moved over the interconnect during [t0, t1]
  /// (includes any wait for a serialized bus/ring).
  virtual void on_miss(int proc, const BlockAccess& a, double t0, double t1) {
    (void)proc, (void)a, (void)t0, (void)t1;
  }

  /// A write upgrade by `proc` invalidated `copies` remote copies of
  /// `block` during [t0, t1].
  virtual void on_invalidate(int proc, std::int64_t block, int copies,
                             double t0, double t1) {
    (void)proc, (void)block, (void)copies, (void)t0, (void)t1;
  }

  /// `proc` drained the scheduler and left the current loop at time t.
  virtual void on_proc_done(int proc, double t) { (void)proc, (void)t; }

  /// `proc` was stalled by an injected fault (start delay or transient
  /// preemption) over [t0, t1].
  virtual void on_stall(int proc, double t0, double t1) {
    (void)proc, (void)t0, (void)t1;
  }

  /// `proc` died permanently at time `t` (processor-loss fault).
  virtual void on_proc_lost(int proc, double t) { (void)proc, (void)t; }

  /// `thief` grabbed `iters` iterations from dead processor queue
  /// `victim_queue` (graceful degradation under processor loss).
  virtual void on_fault_steal(int thief, int victim_queue,
                              std::int64_t iters) {
    (void)thief, (void)victim_queue, (void)iters;
  }

  /// `iters` statically-assigned iterations were abandoned because their
  /// owner died before grabbing them.
  virtual void on_abandoned(std::int64_t iters) { (void)iters; }

  /// The current loop joined at `end`; each processor waited `end - done`.
  virtual void on_loop_end(int epoch, double end) { (void)epoch, (void)end; }

  /// The fork/join barrier after a loop: per-processor cost `cost`,
  /// summed cost `total` (= cost * P).
  virtual void on_barrier(int epoch, double cost, double total) {
    (void)epoch, (void)cost, (void)total;
  }

  /// The run completed with the given makespan.
  virtual void on_run_end(double makespan) { (void)makespan; }
};

/// The accumulator sink: folds the event stream into a SimResult exactly
/// the way the pre-layered engine did (same additions, same order).
class SimResultSink final : public MetricsSink {
 public:
  explicit SimResultSink(SimResult& result) : r_(&result) {}

  void on_grab(int, const Grab& g, double t0, double t1) override {
    r_->sync += t1 - t0;
    r_->iterations += g.range.size();
    switch (g.kind) {
      case GrabKind::kLocal: ++r_->local_grabs; break;
      case GrabKind::kRemote: ++r_->remote_grabs; break;
      case GrabKind::kCentral: ++r_->central_grabs; break;
      case GrabKind::kStatic: break;
      case GrabKind::kNone: break;
    }
  }

  void on_work(int, double w) override { r_->busy += w; }

  void on_hit(int, const BlockAccess&, double) override { ++r_->hits; }

  void on_miss(int, const BlockAccess& a, double t0, double t1) override {
    ++r_->misses;
    r_->units_transferred += a.size;
    r_->comm += t1 - t0;
  }

  void on_invalidate(int, std::int64_t, int copies, double t0,
                     double t1) override {
    r_->invalidations += copies;
    r_->comm += t1 - t0;
  }

  void on_idle(double span) { r_->idle += span; }

  void on_stall(int, double t0, double t1) override {
    r_->stall_time += t1 - t0;
  }

  void on_proc_lost(int, double) override { ++r_->lost_processor_count; }

  void on_fault_steal(int, int, std::int64_t iters) override {
    r_->stolen_under_fault += iters;
  }

  void on_abandoned(std::int64_t iters) override {
    r_->abandoned_iterations += iters;
  }

  /// Accumulator-only (like on_idle): a dead processor's span from death to
  /// the loop join, charged to stall_time so conservation still closes.
  void on_dead_time(double span) { r_->stall_time += span; }

  void on_barrier(int, double, double total) override { r_->barrier += total; }

  void on_run_end(double makespan) override { r_->makespan = makespan; }

 private:
  SimResult* r_;
};

/// The engine's event dispatcher: always feeds the (statically-dispatched,
/// inlined) accumulator, and forwards to the optional trace sink behind a
/// single null check.
class MetricsFanout {
 public:
  MetricsFanout(SimResult& result, MetricsSink* trace)
      : acc_(result), trace_(trace) {}

  void on_run_begin(const MachineConfig& m, const std::string& program,
                    const std::string& scheduler, int p) {
    if (trace_) trace_->on_run_begin(m, program, scheduler, p);
  }
  void on_loop_begin(int epoch, std::int64_t n, int p) {
    if (trace_) trace_->on_loop_begin(epoch, n, p);
  }
  void on_grab(int proc, const Grab& g, double t0, double t1) {
    acc_.on_grab(proc, g, t0, t1);
    if (trace_) trace_->on_grab(proc, g, t0, t1);
  }
  void on_work(int proc, double w) {
    acc_.on_work(proc, w);
    if (trace_) trace_->on_work(proc, w);
  }
  void on_chunk(int proc, std::int64_t begin, std::int64_t end, double t0,
                double t1) {
    if (trace_) trace_->on_chunk(proc, begin, end, t0, t1);
  }
  void on_hit(int proc, const BlockAccess& a, double t) {
    acc_.on_hit(proc, a, t);
    if (trace_) trace_->on_hit(proc, a, t);
  }
  void on_miss(int proc, const BlockAccess& a, double t0, double t1) {
    acc_.on_miss(proc, a, t0, t1);
    if (trace_) trace_->on_miss(proc, a, t0, t1);
  }
  void on_invalidate(int proc, std::int64_t block, int copies, double t0,
                     double t1) {
    acc_.on_invalidate(proc, block, copies, t0, t1);
    if (trace_) trace_->on_invalidate(proc, block, copies, t0, t1);
  }
  void on_proc_done(int proc, double t) {
    if (trace_) trace_->on_proc_done(proc, t);
  }
  void on_stall(int proc, double t0, double t1) {
    acc_.on_stall(proc, t0, t1);
    if (trace_) trace_->on_stall(proc, t0, t1);
  }
  void on_proc_lost(int proc, double t) {
    acc_.on_proc_lost(proc, t);
    if (trace_) trace_->on_proc_lost(proc, t);
  }
  void on_fault_steal(int thief, int victim_queue, std::int64_t iters) {
    acc_.on_fault_steal(thief, victim_queue, iters);
    if (trace_) trace_->on_fault_steal(thief, victim_queue, iters);
  }
  void on_abandoned(std::int64_t iters) {
    acc_.on_abandoned(iters);
    if (trace_) trace_->on_abandoned(iters);
  }
  void on_idle(double span) { acc_.on_idle(span); }
  void on_dead_time(double span) { acc_.on_dead_time(span); }
  void on_loop_end(int epoch, double end) {
    if (trace_) trace_->on_loop_end(epoch, end);
  }
  void on_barrier(int epoch, double cost, double total) {
    acc_.on_barrier(epoch, cost, total);
    if (trace_) trace_->on_barrier(epoch, cost, total);
  }
  void on_run_end(double makespan) {
    acc_.on_run_end(makespan);
    if (trace_) trace_->on_run_end(makespan);
  }

 private:
  SimResultSink acc_;
  MetricsSink* trace_;
};

}  // namespace afs
