#include "experiments/registry.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>

#include "runtime/parallel_for.hpp"
#include "sched/registry.hpp"
#include "store/cell_key.hpp"
#include "store/result_store.hpp"

namespace afs {

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> experiments = [] {
    std::vector<Experiment> out;
    register_iris_experiments(out);
    register_butterfly_experiments(out);
    register_scale_experiments(out);
    register_table_experiments(out);
    register_extra_experiments(out);
    register_frontier_experiments(out);
    return out;
  }();
  return experiments;
}

const Experiment* find_experiment(const std::string& id) {
  for (const Experiment& e : all_experiments())
    if (e.id == id) return &e;
  return nullptr;
}

int run_experiment(const Experiment& e, const ExperimentContext& ctx,
                   std::ostream& out) {
  if (e.kind == ExperimentKind::kMicro) {
    out << e.id << ": " << e.title << "\n"
        << "(google-benchmark binary — run build/bench/bench_micro_queues "
           "directly; not an in-process sweep)\n";
    return EXIT_SUCCESS;
  }
  const bench::BenchCli& cli = ctx.cli;
  if (e.kind == ExperimentKind::kTable &&
      (cli.resume || cli.cell_timeout > 0.0 || cli.sweep_timeout > 0.0 ||
       cli.cell_retries >= 0)) {
    std::cerr << e.id
              << ": note: tables honour --jobs but keep no checkpoints; "
                 "--resume/--*-timeout/--cell-retries are accepted and "
                 "ignored\n";
  }
  return e.run(ctx, out);
}

Experiment figure_experiment(
    std::string id, std::string title, std::function<FigureSpec()> make_spec,
    std::function<bool(const FigureResult&, std::ostream&)> shapes) {
  Experiment e;
  e.id = id;
  e.title = std::move(title);
  e.kind = ExperimentKind::kFigure;
  e.csv_ids = {id};
  e.make_spec = make_spec;
  e.run = [id, make_spec = std::move(make_spec), shapes = std::move(shapes)](
              const ExperimentContext& ctx, std::ostream& out) -> int {
    FigureSpec spec = make_spec();
    const bench::BenchCli& cli = ctx.cli;
    if (!cli.procs.empty()) spec.procs = cli.procs;
    spec.out_dir = cli.out_dir;
    if (cli.time_phases) spec.sim_options.time_phases = true;
    if (cli.no_batch) spec.sim_options.batch_iterations = false;
    if (cli.no_memory_fast_path) spec.sim_options.memory_fast_path = false;
    if (cli.no_calendar_queue) spec.sim_options.calendar_queue = false;
    if (cli.no_epoch_batch) spec.sim_options.epoch_batch = false;
    // Tracing is per sweep cell (each cell constructs, finalizes, or
    // abandons its own sink inside run_figure), which is what lets
    // --trace compose with --jobs=N and --resume.
    spec.trace = cli.trace;
    spec.store = ctx.store;
    // Out-of-process isolation: registered figures are rebuildable from
    // their id (grids arrive with the recipe pre-filled by
    // make_grid_experiment); a --procs override does not change the
    // recipe, because the worker is told the exact (label, P) to run.
    spec.executor = ctx.executor;
    if (!spec.exec.valid()) spec.exec.experiment = id;

    // Every run checkpoints under <out-dir>/.sweep/<id> so a killed sweep
    // is resumable with --resume even when the first invocation never
    // asked for it; a clean finish costs one small file per cell.
    SweepOptions sweep;
    sweep.jobs = cli.jobs;
    sweep.cell_timeout = cli.cell_timeout;
    sweep.sweep_timeout = cli.sweep_timeout;
    if (cli.cell_retries >= 0) sweep.max_retries = cli.cell_retries;
    sweep.resume = cli.resume;
    sweep.checkpoint_dir = cli.out_dir + "/.sweep/" + spec.id;
    sweep.pool = ctx.pool;
    sweep.cancel = ctx.cancel;

    // Shape mismatches are reported but do not fail the run: they are
    // data, recorded in EXPERIMENTS.md. Failed cells degrade gracefully —
    // the CSV still covers every completed cell — and only an *invariant*
    // break (a simulator bug, not a deadline) is fatal: shape checks are
    // skipped (they assume a full grid) and the exit code stays 0 for
    // timeouts/cancellations so batch drivers can --resume later.
    try {
      const FigureResult result = run_figure(spec, out, sweep);
      if (ctx.on_cell_failure)
        for (const CellFailure& f : result.failures) ctx.on_cell_failure(id, f);
      if (result.failures.empty()) {
        if (shapes) shapes(result, out);
      } else {
        out << "(skipping shape checks: " << result.failures.size() << " of "
            << result.cells_total << " cells have no result)\n";
      }
      out << std::endl;
      for (const CellFailure& f : result.failures)
        if (f.kind == "invariant") return EXIT_FAILURE;
      return EXIT_SUCCESS;
    } catch (const std::exception& ex) {
      std::cerr << id << " failed: " << ex.what() << "\n";
      return EXIT_FAILURE;
    }
  };
  return e;
}

Experiment table_experiment(
    std::string id, std::string title, std::vector<std::string> csv_ids,
    std::function<int(const ExperimentContext&, std::ostream&)> run) {
  Experiment e;
  e.id = std::move(id);
  e.title = std::move(title);
  e.kind = ExperimentKind::kTable;
  e.csv_ids = std::move(csv_ids);
  e.run = std::move(run);
  return e;
}

SimResult run_cell_cached(const ExperimentContext& ctx,
                          const MachineConfig& machine,
                          const LoopProgram& program,
                          const std::string& sched_spec, int procs,
                          const SimOptions& options) {
  // Thread the context's cancellation into the simulation (the token is
  // not part of the cell key, so cacheability is unchanged): a fired
  // token is CancelledError at the next event boundary — the bespoke
  // tables' path to the cancelled taxonomy.
  SimOptions opts = options;
  if (opts.cancel == nullptr) opts.cancel = ctx.cancel;
  CellKey key;
  if (ctx.store) {
    key = make_cell_key(machine, program.key, sched_spec, procs, opts);
    SimResult cached;
    if (ctx.store->load(key, cached)) return cached;
  }
  if (opts.cancel != nullptr && opts.cancel->cancelled())
    throw CancelledError("cell cancelled before simulation started");
  auto sched = make_scheduler(sched_spec);
  SimResult r;
  if (opts.epoch_batch) {
    // Epoch batching: the bespoke tables re-run the same machine many
    // times (tab6 alone runs six schedulers over one program), so ride
    // this thread's warmed simulator instead of rebuilding per row.
    r = warm_machine_sim(machine, opts).run(program, *sched, procs);
  } else {
    MachineSim sim(machine, opts);
    r = sim.run(program, *sched, procs);
  }
  if (ctx.store && key.cacheable) ctx.store->save(key, r);
  return r;
}

void for_each_cell(const ExperimentContext& ctx, std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  if (ctx.pool == nullptr || ctx.cli.jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One failed cell fails the table, so the workers stop taking new
  // cells; the pool rethrows the first failure once every worker is out.
  std::atomic<bool> failed{false};
  const auto ss = make_scheduler("SS");
  parallel_for_each(*ctx.pool, *ss, static_cast<std::int64_t>(n),
                    [&](std::int64_t i, int) {
                      if (failed.load(std::memory_order_relaxed)) return;
                      try {
                        fn(static_cast<std::size_t>(i));
                      } catch (...) {
                        failed.store(true, std::memory_order_relaxed);
                        throw;
                      }
                    });
}

std::string scheduler_display_name(const std::string& sched_spec) {
  return make_scheduler(sched_spec)->name();
}

}  // namespace afs
