// Figure/table harness: runs a LoopProgram under a set of schedulers over
// a processor sweep on a simulated machine, collects completion times and
// metric breakdowns, prints the paper's series and writes CSV.
//
// Every bench/ reproduction binary is a thin declaration of one
// FigureSpec (plus any custom rows the original table had).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "machines/machine_config.hpp"
#include "runtime/cell_executor.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine_sim.hpp"
#include "util/table.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

class ResultStore;  // store/result_store.hpp — optional, see FigureSpec

/// A named scheduler factory. A fresh scheduler is built per (P, run) so
/// state (caches of the sim persist per run; scheduler stats do not leak).
struct SchedulerEntry {
  std::string label;
  /// Store identity of the scheduler this factory builds (normally the
  /// make_scheduler spec string). Empty = opaque factory: the cell is
  /// always simulated, never served from or written to the result store.
  std::string key;
  std::function<std::unique_ptr<Scheduler>()> make;
};

/// Factory from a registry spec string (label and store key default to
/// the spec).
SchedulerEntry entry(const std::string& spec);
/// Opaque factory: no store key, so its cells bypass the result store.
SchedulerEntry entry(std::string label,
                     std::function<std::unique_ptr<Scheduler>()> make);
/// Factory with an explicit store key. Use only when `key`, together with
/// the program key, fully determines the scheduler's behavior (e.g. a
/// BEST-STATIC oracle derived from a cost model of that same program).
SchedulerEntry entry(std::string label, std::string key,
                     std::function<std::unique_ptr<Scheduler>()> make);

struct FigureSpec {
  std::string id;     ///< e.g. "fig04"
  std::string title;  ///< e.g. "Gaussian elimination on the Iris (N=768)"
  MachineConfig machine;
  LoopProgram program;
  std::vector<int> procs;
  std::vector<SchedulerEntry> schedulers;
  SimOptions sim_options;
  std::string out_dir = "bench_results";  ///< where <id>.csv lands
  /// False (default): no event tracing. Otherwise every (scheduler, P)
  /// sweep cell streams its own .cctrace to
  /// trace_cell_path(out_dir, id, label, P), finalized
  /// atomically when the cell completes and discarded when it fails —
  /// so tracing composes with parallel (--jobs=N) and resumed sweeps:
  /// cells never share a writer, and a resumed cell's already-published
  /// trace is left untouched.
  bool trace = false;
  /// Optional content-addressed result store (not owned). When set, each
  /// cacheable (scheduler, P) cell — program and scheduler both carry
  /// store keys, and the run is neither traced nor host-timed — is first
  /// looked up by its CellKey and only simulated on a miss, after which
  /// the result is published for every future sweep. Served results are
  /// bit-identical to simulated ones (the store authenticates the full
  /// key text and the serializer round-trips exactly).
  ResultStore* store = nullptr;
  /// Optional out-of-process executor (not owned) plus the declarative
  /// recipe a worker needs to rebuild this spec (runtime/
  /// cell_executor.hpp). When both are set, each store-missed cell is
  /// dispatched to the executor instead of simulating in-process — except
  /// traced and host-timed cells, whose side outputs (trace files, phase
  /// timers) do not travel over the wire; those always run in-process.
  /// Store hits are still served locally, which is what makes the
  /// executor's degraded mode genuinely cache-only.
  CellExecutor* executor = nullptr;
  CellExecSpec exec;
};

struct FigureResult {
  FigureSpec spec() = delete;  // (avoid accidental copies of the program)
  std::string id;
  /// results[scheduler_label][P] = simulation result (completed cells).
  std::map<std::string, std::map<int, SimResult>> results;
  double serial_time = 0.0;
  /// Cells that produced no result (timeout, retries exhausted, invariant
  /// break, sweep abort); empty on a fully successful sweep. The CSV and
  /// completion table cover the completed cells regardless.
  std::vector<CellFailure> failures;
  int cells_total = 0;
  int cells_resumed = 0;  ///< cells loaded from a sweep checkpoint

  double time(const std::string& label, int p) const;
  /// Completion-time table: rows = P, one column per scheduler.
  Table completion_table() const;
  /// Speedup of `a` over `b` at processor count p: time(b)/time(a).
  double advantage(const std::string& a, const std::string& b, int p) const;
};

/// Runs the sweep; prints progress and the final table to `out`, writes
/// CSV to bench_results/<id>.csv. The default overload runs serially with
/// no checkpointing (the legacy behavior); the SweepOptions overload runs
/// every (scheduler, P) cell through the crash-safe sweep runner —
/// parallel across `jobs` threads, per-cell deadline/retry, checkpointed
/// under `checkpoint_dir` — with a bit-identical merged result. Failed
/// cells land in FigureResult::failures and (machine-readably) in
/// <out_dir>/<id>.failures.json; completed cells are written regardless.
FigureResult run_figure(const FigureSpec& spec, std::ostream& out);
FigureResult run_figure(const FigureSpec& spec, std::ostream& out,
                        const SweepOptions& sweep);

/// Simulates exactly one (scheduler, P) cell of `spec` — the shared body
/// of the in-process sweep path and the sandbox worker's cell op, so both
/// produce bit-identical results by construction. Honors the test-only
/// AFS_CRASH_CELL hook ("<id>:<label>:<P>" in the environment makes that
/// one cell abort(), which is how CI proves a crash kills only a worker).
SimResult run_figure_cell(const FigureSpec& spec, const SchedulerEntry& se,
                          int procs, const SimOptions& options);

/// Epoch batching: this thread's warm simulator for (machine, options) —
/// constructed on first use, then reused for every subsequent cell whose
/// machine and options match, so repeated runs keep the warmed ProcCache/
/// Directory/event-ring allocations instead of rebuilding them per run.
/// The per-cell observer pointers (trace sink, cancellation token) are
/// re-attached on every call; a run() resets all simulated state, so a
/// warm simulator is behaviorally identical to a fresh one. Callers with
/// options.epoch_batch unset should construct their own simulator.
MachineSim& warm_machine_sim(const MachineConfig& machine,
                             const SimOptions& options);

/// Writes one long-format CSV (figure, scheduler, procs, time, speedup,
/// busy, sync, comm, idle, misses, steals) for downstream plotting.
void write_figure_csv(const FigureResult& result, const std::string& path);

/// Writes the engine's host wall-clock phase breakdown (one aggregate per
/// scheduler plus a sweep-wide total) as JSON. Only meaningful for runs
/// with SimOptions::time_phases set; cells without collected timers (e.g.
/// resumed from a checkpoint, which never stores host timings) are
/// skipped and counted in "cells_untimed". Render with
/// tools/phase_report.py.
void write_phases_json(const FigureResult& result, const std::string& path);

}  // namespace afs
