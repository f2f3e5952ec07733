// The experiment registry: every figure/table reproduction the repo knows
// how to run, keyed by id ("fig03".."fig17", "tab2".."tab7",
// "ablation_afs", "micro_queues", "trend_comm_ratio").
//
// Each entry owns its FigureSpec (or bespoke table body) and the paper
// shape checks, so the afs_sweep front end can run any subset of
// experiments in one process (`afs_sweep run fig04 tab2`), sharing one
// worker pool and one content-addressed result store, and the daemon can
// serve the same ids (docs/SWEEP_SERVICE.md).
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "experiments/bench_cli.hpp"
#include "experiments/figure.hpp"
#include "sim/machine_sim.hpp"

namespace afs {

class ResultStore;
class ThreadPool;

enum class ExperimentKind {
  kFigure,  ///< a FigureSpec sweep through the crash-safe sweep runner
  kTable,   ///< a bespoke table (cells on the shared pool; no checkpoints)
  kMicro,   ///< a google-benchmark binary; listed, not runnable in-process
};

/// Everything an experiment needs from its caller. The store and pool are
/// borrowed (not owned) and optional: without a store every cell is
/// simulated; without a pool each figure sweep builds its own workers and
/// the bespoke tables run their cells serially in the caller's thread
/// (with one and --jobs > 1 they share it: for_each_cell).
struct ExperimentContext {
  bench::BenchCli cli;
  ResultStore* store = nullptr;
  ThreadPool* pool = nullptr;
  /// Optional caller-side cancellation (not owned): a service request
  /// deadline or the batch driver's SIGINT/SIGTERM token. Figure sweeps
  /// chain it under SweepOptions::cancel; bespoke tables observe it via
  /// run_cell_cached, whose simulations raise CancelledError at the next
  /// event boundary once it fires.
  const CancelToken* cancel = nullptr;
  /// Optional out-of-process cell executor (not owned): the supervised
  /// worker sandbox under --isolation=process. Figure sweeps dispatch
  /// store-missed, untraced, untimed cells through it; bespoke tables
  /// (whose programs exist only as closures) always run in-process.
  CellExecutor* executor = nullptr;
  /// Optional observer of per-cell failures, invoked once per failed cell
  /// after each figure sweep completes (experiment id + the structured
  /// failure). The daemon uses it to stream "cell_error" responses for
  /// poisoned/degraded cells without re-parsing the failure report file.
  std::function<void(const std::string&, const CellFailure&)> on_cell_failure;
};

struct Experiment {
  std::string id;
  std::string title;
  ExperimentKind kind = ExperimentKind::kFigure;
  /// CSV basenames this experiment writes under out_dir (without ".csv"):
  /// usually just {id}; ablation_afs writes five.
  std::vector<std::string> csv_ids;
  /// Runs the experiment under `ctx`, streaming human-readable progress to
  /// the ostream. Returns a process exit code (nonzero only for invariant
  /// breaks, never for shape mismatches — those are data).
  std::function<int(const ExperimentContext&, std::ostream&)> run;
  /// Rebuilds the experiment's FigureSpec (figure experiments only; null
  /// for tables and micros). This is what lets a sandbox worker rerun one
  /// cell of a registered figure from nothing but the experiment id.
  std::function<FigureSpec()> make_spec;
};

/// All registered experiments in canonical order (figures, tables,
/// extras). Stable across calls.
const std::vector<Experiment>& all_experiments();

/// Lookup by id; nullptr when unknown.
const Experiment* find_experiment(const std::string& id);

/// Runs one experiment (including the kind-appropriate handling of
/// runner flags) and returns its exit code.
int run_experiment(const Experiment& e, const ExperimentContext& ctx,
                   std::ostream& out);

// ---------------- helpers for registering experiments ---------------------

/// Packages a lazily-built FigureSpec + shape checks as an Experiment.
/// The run function applies the shared CLI to the spec (procs override,
/// out-dir, sim-option toggles, per-cell tracing), wires in the context's
/// store and pool, checkpoints under <out-dir>/.sweep/<id>, and reports
/// shapes only on a complete grid — exactly the contract the standalone
/// binaries have always had.
Experiment figure_experiment(
    std::string id, std::string title, std::function<FigureSpec()> make_spec,
    std::function<bool(const FigureResult&, std::ostream&)> shapes);

/// Packages a bespoke table body as an Experiment. Tables honour --jobs
/// (their independent cells go through for_each_cell) but accept
/// --resume and the --*-timeout flags only for CLI uniformity: they keep
/// no checkpoints (run_experiment prints the note when those are set).
Experiment table_experiment(
    std::string id, std::string title, std::vector<std::string> csv_ids,
    std::function<int(const ExperimentContext&, std::ostream&)> run);

/// One simulated cell, served from the context's store when possible: the
/// bespoke tables' replacement for a shared MachineSim + sim.run() call.
/// A fresh MachineSim per cell produces bit-identical numbers to the
/// legacy shared instance (a run resets all per-run state), which is what
/// makes the cell a pure function of its key. `sched_spec` must be a
/// make_scheduler() spec string — it doubles as the scheduler's store key.
SimResult run_cell_cached(const ExperimentContext& ctx,
                          const MachineConfig& machine,
                          const LoopProgram& program,
                          const std::string& sched_spec, int procs,
                          const SimOptions& options = {});

/// Runs fn(i) for every i in [0, n): a bespoke table's independent cells.
/// With the context's pool and --jobs > 1 the pool's workers take the
/// cells one at a time under self-scheduling (SS), the paper's own answer
/// to cells of unequal cost; otherwise they run in the caller's thread in
/// declaration order, the reference order (as run_sweep at --jobs=1).
/// fn must touch only its own cell's slot of caller-owned state. The
/// first exception a cell throws is rethrown unchanged after the cells in
/// flight finish; cells not yet started are then skipped.
void for_each_cell(const ExperimentContext& ctx, std::size_t n,
                   const std::function<void(std::size_t)>& fn);

/// Display name of the scheduler a spec string builds (e.g. "AFS" ->
/// "AFS(k=P)") without running anything — the bespoke tables label rows
/// with scheduler names, not spec strings.
std::string scheduler_display_name(const std::string& sched_spec);

// Family registration hooks (one translation unit per family); each
// appends its experiments in canonical order.
void register_iris_experiments(std::vector<Experiment>& experiments);       // fig03-09
void register_butterfly_experiments(std::vector<Experiment>& experiments);  // fig10-13
void register_scale_experiments(std::vector<Experiment>& experiments);      // fig14-17
void register_table_experiments(std::vector<Experiment>& experiments);      // tab2-7
void register_extra_experiments(std::vector<Experiment>& experiments);  // ablation etc.
void register_frontier_experiments(std::vector<Experiment>& experiments);  // adaptive frontier

}  // namespace afs
