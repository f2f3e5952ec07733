// The discrete-event multiprocessor simulator.
//
// MachineSim executes a LoopProgram under any Scheduler on a simulated
// machine with P processors, producing the completion times that the
// paper's figures plot. Since the engine refactor it is a thin
// orchestrator over four layered, independently-testable components:
//
//   EventCore    (event_core.hpp)    deterministic (time, proc) queue and
//                                    per-processor completion clocks;
//   MemorySystem (memory_system.hpp) caches + coherence directory +
//                                    interconnect behind one access();
//   SyncModel    (sync_model.hpp)    queue-lock and victim-probe costing
//                                    per GrabKind;
//   MetricsSink  (metrics.hpp)       the accumulator producing SimResult,
//                                    plus opt-in trace sinks
//                                    (trace/binary_sink.hpp) — zero-cost
//                                    when
//                                    disabled.
//
// One run is one fork/join execution: per epoch, every processor
// repeatedly asks the scheduler for a chunk, pays the modeled
// synchronization cost for the queue it touched, executes the chunk's
// iterations (compute time + cache misses + interconnect serialization),
// and loops until the scheduler reports the loop drained; epochs are
// separated by a barrier.
//
// Determinism: processors are advanced in global simulated-time order with
// processor-id tie-breaking, and all jitter comes from a seeded RNG, so a
// given (machine, program, scheduler, P, seed) always yields bit-identical
// results — with iteration batching on or off (SimOptions::batch_iterations;
// see docs/SIMULATOR.md for the batching invariant). Tests rely on this.
// The same holds under fault injection (SimOptions::perturb): every fault
// stream is seeded and consulted only at points both batching modes visit,
// and with no perturbation configured the engine never touches the model,
// keeping unperturbed results bit-identical to pre-subsystem output.
#pragma once

#include <cstdint>
#include <vector>

#include "machines/machine_config.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_core.hpp"
#include "sim/memory_system.hpp"
#include "sim/metrics.hpp"
#include "sim/perturbation.hpp"
#include "sim/sim_result.hpp"
#include "sim/sync_model.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

struct SimOptions {
  /// Seed for per-epoch processor start jitter (amplitude comes from
  /// MachineConfig::epoch_jitter).
  std::uint64_t jitter_seed = 42;

  /// Deterministic fault injection (start delays, transient stalls,
  /// processor loss, memory spikes, contention bursts). Default: all off,
  /// with results bit-identical to an engine without the subsystem. See
  /// sim/perturbation.hpp.
  PerturbationConfig perturb;

  /// Iteration-batching fast path (on by default): consecutive iterations
  /// of a grabbed chunk execute without event-queue round-trips whenever
  /// that provably cannot change the serialization order — the processor
  /// still leads every queued event, or the loop has no data footprint at
  /// all. Footprint loops run in a horizon-batched inner loop (scratch
  /// access plan hoisted out of the iteration; on switch interconnects the
  /// queue-top horizon is hoisted too). Results are identical either way;
  /// off exists for tab7's batching-invariance check and A/B tests.
  bool batch_iterations = true;

  /// Collect the host wall-clock phase breakdown into SimResult::timers
  /// (scheduler / work / footprint / memory / event-core shares). Off by
  /// default: the instrumented engine is noticeably slower (a timer read
  /// brackets every phase), though simulated results stay bit-identical.
  bool time_phases = false;

  /// Optional trace observer (not owned; must outlive the simulator).
  /// Every simulated event is narrated into it — see trace/binary_sink.hpp
  /// for the .cctrace writer. Null: tracing disabled, no cost.
  MetricsSink* trace = nullptr;

  /// Optional cooperative cancellation token (not owned; must outlive the
  /// simulator). Polled at every event boundary; when it fires, run()
  /// throws CancelledError and leaves no partial result behind. This is
  /// how the sweep runner (runtime/sweep_runner.hpp) enforces per-cell
  /// wall-clock deadlines. Null: never cancelled, no cost.
  const CancelToken* cancel = nullptr;

  /// Throws CheckFailure (naming the offending field and value) when any
  /// option is inconsistent with itself or with `config`. Called by the
  /// MachineSim constructor.
  void validate(const MachineConfig& config) const;
};

class MachineSim {
 public:
  explicit MachineSim(MachineConfig config, SimOptions options = {});

  /// Runs the program to completion on `p` processors. The scheduler's
  /// stats are reset at the start and captured into the result. Caches
  /// start cold and persist across epochs (this is where affinity pays).
  SimResult run(const LoopProgram& program, Scheduler& sched, int p);

  /// Serial-baseline time: the program's total work executed on one
  /// processor with no scheduling or communication overhead. Used to
  /// report speedups.
  double ideal_serial_time(const LoopProgram& program) const;

  const MachineConfig& config() const { return config_; }

  /// Attaches / detaches the trace observer for subsequent run() calls
  /// (overrides SimOptions::trace). Not owned.
  void set_trace_sink(MetricsSink* sink) { options_.trace = sink; }

  /// Attaches / detaches the cancellation token for subsequent run()
  /// calls (overrides SimOptions::cancel). Not owned. Lets a warm
  /// simulator be reused across sweep cells that each carry their own
  /// token (see warm_machine_sim in experiments/figure.hpp).
  void set_cancel(const CancelToken* token) { options_.cancel = token; }

 private:
  /// Executes one parallel loop starting at per-processor times `start`;
  /// leaves per-processor completion times in events_.completion_times().
  /// Dispatches on SimOptions::time_phases to the kTimed instantiation.
  void run_loop(const ParallelLoopSpec& spec, Scheduler& sched, int p,
                const std::vector<double>& start, MetricsFanout& m);

  /// The actual engine loop. kTimed brackets every phase with a
  /// steady_clock read into timers_; the untimed instantiation compiles
  /// the instrumentation away entirely (if constexpr), so the default
  /// path pays nothing.
  template <bool kTimed>
  void run_loop_impl(const ParallelLoopSpec& spec, Scheduler& sched, int p,
                     const std::vector<double>& start, MetricsFanout& m);

  /// The chunk a processor is executing: remaining iterations plus the
  /// data the chunk-level trace event needs (original begin, exec start).
  struct ChunkState {
    IterRange range{};
    std::int64_t first = 0;
    double exec_start = 0.0;
  };

  MachineConfig config_;
  SimOptions options_;
  EventCore events_;
  MemorySystem memory_;
  SyncModel sync_;
  PerturbationModel pert_;
  /// Reusable access-plan scratch, hoisted out of the per-iteration loop
  /// so footprint() fills pre-sized storage instead of a fresh vector.
  std::vector<BlockAccess> plan_;
  /// Reusable per-loop scratch (in-flight chunks, per-processor start
  /// times), hoisted out of the per-epoch loop so repeated loops and
  /// repeated runs reuse the same storage.
  std::vector<ChunkState> pending_;
  std::vector<double> start_;
  EnginePhaseTimers timers_;  ///< accumulates while time_phases is set
};

}  // namespace afs
