// The bespoke tables (Tables 2-7): experiments whose rows are not a plain
// (scheduler, P) grid — delayed-start perturbations, sync-operation
// counts, a single-point scaling check, and the fault-injection extension.
// Bodies moved from the former standalone bench binaries: each declares
// its independent cells, runs them through for_each_cell() (every
// simulator invocation via run_cell_cached(), so the content-addressed
// store serves repeated cells), then assembles rows, shape checks and
// CSVs in the original order.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/expectations.hpp"
#include "experiments/registry.hpp"
#include "kernels/adjoint_convolution.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "kernels/synthetic.hpp"
#include "kernels/transitive_closure.hpp"
#include "machines/machines.hpp"
#include "sched/bounds.hpp"
#include "sched/registry.hpp"
#include "util/table.hpp"
#include "workload/graphs.hpp"

namespace afs {

namespace {

// Table 2: execution time of a simple balanced loop (200M iterations, no
// memory accesses) on the Iris, with one of 8 processors delayed by
// 0.0625N .. 0.25N iterations' worth of time. Paper shape: GSS, TRAPEZOID,
// FACTORING and AFS(k=P) are all equivalent (finish within one iteration);
// AFS(k=2) is the worst but within ~10%.
int run_tab2(const ExperimentContext& ctx, std::ostream& out) {
  const bench::BenchCli& cli = ctx.cli;
  const std::int64_t n = 200'000'000;
  const int p = 8;
  const std::vector<double> delays{0.0625, 0.125, 0.1875,
                                   0.2031, 0.2187, 0.25};
  const std::vector<std::string> specs{"GSS", "TRAPEZOID", "FACTORING",
                                       "AFS(k=2)", "AFS"};

  out << "== tab2: balanced loop (N=2e8) with one delayed processor, "
         "Iris model ==\n";
  MachineConfig machine = iris();
  machine.epoch_jitter = 0.0;  // the delay is the experiment's only skew
  const LoopProgram program = balanced_program(n);

  // Cells: every (delay, scheduler) pair, independent of each other.
  std::vector<double> times(delays.size() * specs.size());
  for_each_cell(ctx, times.size(), [&](std::size_t i) {
    // The delayed start is expressed through the fault-injection model:
    // one initial stall on processor 0 (accounted as stall_time).
    SimOptions opts;
    opts.perturb.start_delays.assign(p, 0.0);
    opts.perturb.start_delays[0] =
        delays[i / specs.size()] * static_cast<double>(n);
    times[i] = run_cell_cached(ctx, machine, program, specs[i % specs.size()],
                               p, opts)
                   .makespan;
  });

  Table table({"delay", "GSS", "TRAPEZOID", "FACTORING", "AFS(k=2)",
               "AFS(k=P)"});
  bool all_close = true;
  double worst_k2_ratio = 0.0;
  double worst_k2_excess = 0.0;  // absolute time excess over the row's best
  for (std::size_t d = 0; d < delays.size(); ++d) {
    std::vector<std::string> row{Table::num(delays[d], 4) + "N"};
    const double* row_times = &times[d * specs.size()];
    const double best =
        *std::min_element(row_times, row_times + specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double t = row_times[i];
      row.push_back(Table::num(t, 0));
      const double ratio = t / best;
      if (specs[i] == "AFS(k=2)") {
        worst_k2_ratio = std::max(worst_k2_ratio, ratio);
        worst_k2_excess = std::max(worst_k2_excess, t - best);
      } else if (ratio > 1.02) {
        all_close = false;
      }
    }
    table.add_row(std::move(row));
  }
  out << table.to_ascii();
  table.write_csv(bench::csv_path(cli, "tab2"));
  out << "(csv: " << bench::csv_path(cli, "tab2") << ")\n";

  report_shape(out, all_close,
               "GSS/TRAPEZOID/FACTORING/AFS(k=P) within ~2% of each other");
  // AFS(k=2)'s excess must respect the Theorem 3.2 imbalance bound
  // N(P-k)/(P(P-1)k)+1 iterations. (The paper measured ~10% on the real
  // Iris; our worst case is larger because the simulator's zero-jitter
  // schedule hits the theorem's adversarial alignment exactly —
  // see EXPERIMENTS.md.)
  const double bound = afs_imbalance_bound(n, p, 2);
  report_shape(out, worst_k2_ratio >= 1.0,
               "AFS(k=2) is the worst variant (measured +" +
                   Table::num((worst_k2_ratio - 1.0) * 100.0, 1) + "%)");
  report_shape(out, worst_k2_excess <= bound + 4.0,
               "AFS(k=2)'s excess respects the Theorem 3.2 bound");
  return 0;
}

// Shared driver for the Tables 3-5 synchronization-operation counts: run a
// program under each scheduler for P in {1,2,4,6,8} on the Iris model and
// report removals per loop (central algorithms) and per-queue local /
// remote removals per loop (AFS), exactly the columns of the paper.
int run_sync_ops_table(const std::string& id, const std::string& title,
                       const LoopProgram& program,
                       const ExperimentContext& ctx, std::ostream& out) {
  out << "== " << id << ": " << title << " ==\n";
  const MachineConfig machine = iris();
  const std::vector<int> procs{1, 2, 4, 6, 8};
  const std::vector<std::string> specs{"SS", "GSS", "FACTORING", "TRAPEZOID",
                                       "AFS"};

  // Cells: every (P, scheduler) pair; AFS is last in each row.
  std::vector<SimResult> results(procs.size() * specs.size());
  for_each_cell(ctx, results.size(), [&](std::size_t i) {
    results[i] = run_cell_cached(ctx, machine, program, specs[i % specs.size()],
                                 procs[i / specs.size()]);
  });

  Table table({"P", "SS", "GSS", "FACTORING", "TRAPEZOID", "AFS remote/queue",
               "AFS local/queue"});
  for (std::size_t row_i = 0; row_i < procs.size(); ++row_i) {
    std::vector<std::string> row{std::to_string(procs[row_i])};
    const SimResult* r = &results[row_i * specs.size()];
    for (std::size_t i = 0; i + 1 < specs.size(); ++i)
      row.push_back(Table::num(r[i].sched_stats.grabs_per_loop(), 1));
    const SimResult& afs = r[specs.size() - 1];
    row.push_back(Table::num(afs.sched_stats.remote_per_queue_per_loop(), 2));
    row.push_back(Table::num(afs.sched_stats.local_per_queue_per_loop(), 2));
    table.add_row(std::move(row));
  }
  out << table.to_ascii();
  const std::string csv = bench::csv_path(ctx.cli, id);
  table.write_csv(csv);
  out << "(csv: " << csv << ")\n\n";
  return 0;
}

// §5.3's table: Gaussian elimination on a 4096 x 4096 matrix with 16
// processors on the KSR-1 — the problem-size scaling check. Paper values
// (minutes): AFS 20.6, STATIC 20.9, MOD-FACTORING 22.7, FACTORING 47.3,
// TRAPEZOID 50.7, GSS 73.7. The shape to reproduce: AFS ~ STATIC <
// MOD-FACTORING << FACTORING < TRAPEZOID < GSS, with AFS >2x over the
// non-affinity schedulers even at this size.
int run_tab6(const ExperimentContext& ctx, std::ostream& out) {
  out << "== tab6: Gaussian elimination N=4096, P=16, KSR-1 model ==\n";
  const auto program = GaussKernel::program(4096);
  const MachineConfig machine = ksr1();
  const double serial = MachineSim(machine).ideal_serial_time(program);

  const std::vector<std::string> specs{"AFS",       "STATIC",
                                       "MOD-FACTORING", "FACTORING",
                                       "TRAPEZOID", "GSS"};
  std::vector<double> times(specs.size());
  for_each_cell(ctx, specs.size(), [&](std::size_t i) {
    times[i] = run_cell_cached(ctx, machine, program, specs[i], 16).makespan;
  });

  Table table({"scheduler", "completion time", "vs AFS", "speedup"});
  std::vector<std::pair<std::string, double>> results;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    results.emplace_back(specs[i], times[i]);
    out << "  " << specs[i] << ": done\n";
  }
  const double afs_time = results.front().second;
  for (const auto& [spec, t] : results) {
    table.add_row({spec, Table::num(t, 0), Table::num(t / afs_time, 2),
                   Table::num(serial / t, 2)});
  }
  out << table.to_ascii();
  table.write_csv(bench::csv_path(ctx.cli, "tab6"));
  out << "(csv: " << bench::csv_path(ctx.cli, "tab6") << ")\n";

  auto t = [&](const char* name) {
    for (const auto& [spec, v] : results)
      if (spec == name) return v;
    return 0.0;
  };
  report_shape(out, t("AFS") <= t("STATIC") * 1.05,
               "AFS ~ STATIC (paper: 20.6 vs 20.9 min)");
  report_shape(out, t("MOD-FACTORING") < t("FACTORING"),
               "MOD-FACTORING well ahead of FACTORING");
  // The paper measured 2.3x (FACTORING) to 3.6x (GSS) over AFS at P=16 on
  // the real KSR-1; our ring model saturates a little later, so the gap at
  // P=16 is smaller (it reaches ~4x by P=57 — see fig15). The robust
  // shape: every non-affinity scheduler pays a clear ring penalty while
  // AFS/STATIC/MOD-FACTORING do not.
  report_shape(out, t("FACTORING") > 1.2 * t("AFS"),
               "FACTORING pays a clear ring penalty over AFS (paper: 2.3x)");
  report_shape(out,
               t("GSS") > 1.2 * t("AFS") && t("TRAPEZOID") > 1.2 * t("AFS"),
               "GSS and TRAPEZOID pay it too (paper: 3.6x / 2.5x)");
  return 0;
}

/// Bitwise equality of every accumulator the engine produces: the
/// batching-invariance check under fault injection.
bool identical(const SimResult& a, const SimResult& b) {
  return a.makespan == b.makespan && a.busy == b.busy && a.sync == b.sync &&
         a.comm == b.comm && a.idle == b.idle && a.barrier == b.barrier &&
         a.stall_time == b.stall_time && a.hits == b.hits &&
         a.misses == b.misses && a.iterations == b.iterations &&
         a.remote_grabs == b.remote_grabs &&
         a.lost_processor_count == b.lost_processor_count &&
         a.stolen_under_fault == b.stolen_under_fault &&
         a.abandoned_iterations == b.abandoned_iterations;
}

// Table 7 (extension, not in the paper): graceful degradation under
// deterministic fault injection. For each machine (Iris, Butterfly,
// KSR-1) and scheduler (AFS, the full central-queue line-up, STATIC) we
// run Gaussian elimination unperturbed to get a baseline, then re-run
// under increasing fault intensity and report the slowdown plus the fault
// counters. Unlike the paper-reproduction experiments, this one *fails*
// (nonzero exit) when a resilience invariant breaks. The cells run in two
// waves through for_each_cell: first every unperturbed baseline, then
// every perturbed cell (whose fault intervals scale with its baseline)
// together with its unbatched twin.
int run_tab7(const ExperimentContext& ctx, std::ostream& out) {
  out << "== tab7: scheduler resilience vs. fault intensity "
         "(Gauss, deterministic fault injection) ==\n";

  struct MachineCase {
    MachineConfig config;
    int procs;
    std::int64_t n;  // Gauss matrix order
  };
  std::vector<MachineCase> machines;
  {
    MachineCase iris_case{iris(), 8, 256};
    iris_case.config.epoch_jitter = 0.0;  // faults are the only skew
    machines.push_back(iris_case);
    MachineCase butterfly_case{butterfly1(), 16, 256};
    butterfly_case.config.epoch_jitter = 0.0;
    machines.push_back(butterfly_case);
    MachineCase ksr_case{ksr1(), 16, 256};
    ksr_case.config.epoch_jitter = 0.0;
    machines.push_back(ksr_case);
  }
  // AFS, every central-queue discipline the registry offers, and STATIC:
  // the fault model must hold for each queue topology, not just the four
  // schedulers the original extension sampled.
  const std::vector<std::string> specs{"AFS",       "SS",
                                       "CHUNK(8)",  "GSS",
                                       "FACTORING", "TRAPEZOID",
                                       "TAPER(1.3)", "STATIC"};
  const std::vector<std::string> levels{"none", "stall-low", "stall-high",
                                        "mem-faults", "proc-loss"};

  // Fault settings of one rung of the ladder. The stall and burst
  // intervals scale with the scheduler's unperturbed makespan on that
  // machine, which is why the ladder runs in two waves below.
  const auto ladder_options = [](const std::string& level, double baseline,
                                 const MachineCase& mc) {
    SimOptions opts;
    PerturbationConfig& pc = opts.perturb;
    if (level == "stall-low") {
      pc.stall_mean_interval = baseline * 0.05;
      pc.stall_duration = baseline * 0.0025;  // ~5% of time stalled
    } else if (level == "stall-high") {
      pc.stall_mean_interval = baseline * 0.02;
      pc.stall_duration = baseline * 0.004;  // ~20% of time stalled
    } else if (level == "mem-faults") {
      pc.mem_spike_prob = 0.1;
      pc.mem_spike_latency = 5.0 * mc.config.miss_latency;
      pc.burst_mean_interval = baseline * 0.1;
      pc.burst_duration = baseline * 0.02;
      pc.burst_multiplier = 4.0;
    } else if (level == "proc-loss") {
      pc.losses.push_back({0, baseline * 0.3});
    }
    return opts;
  };

  // One series per (lineup, machine, scheduler). The paper lineup fills
  // the golden tab7.csv; the adaptive frontier rides the same ladder (and
  // the same invariants) into its own CSV so tab7.csv stays byte-stable.
  const std::vector<std::vector<std::string>> lineups{
      specs, adaptive_scheduler_specs()};
  struct Series {
    std::size_t lineup;
    const MachineCase* mc;
    const LoopProgram* program;
    std::string spec;
  };
  std::vector<LoopProgram> programs;
  for (const MachineCase& mc : machines)
    programs.push_back(GaussKernel::program(mc.n));
  std::vector<Series> series;
  for (std::size_t l = 0; l < lineups.size(); ++l)
    for (std::size_t m = 0; m < machines.size(); ++m)
      for (const std::string& spec : lineups[l])
        series.push_back({l, &machines[m], &programs[m], spec});

  // Wave 1: every series' unperturbed ("none") baseline.
  std::vector<SimResult> baselines(series.size());
  for_each_cell(ctx, series.size(), [&](std::size_t i) {
    const Series& s = series[i];
    baselines[i] =
        run_cell_cached(ctx, s.mc->config, *s.program, s.spec, s.mc->procs);
  });

  // Wave 2: every perturbed rung of every series, scaled by its baseline,
  // each followed by its unbatched twin for the batching-invariance
  // check: cell 2k is rung k batched, cell 2k+1 the same rung unbatched.
  const std::size_t rungs = levels.size() - 1;  // levels[0] is "none"
  std::vector<SimResult> perturbed(series.size() * rungs * 2);
  for_each_cell(ctx, perturbed.size(), [&](std::size_t i) {
    const std::size_t k = i / 2;
    const Series& s = series[k / rungs];
    SimOptions opts = ladder_options(levels[1 + k % rungs],
                                     baselines[k / rungs].makespan, *s.mc);
    if (i % 2 == 1) opts.batch_iterations = false;
    perturbed[i] = run_cell_cached(ctx, s.mc->config, *s.program, s.spec,
                                   s.mc->procs, opts);
  });

  bool conservation_ok = true;
  bool batching_ok = true;
  bool afs_loss_ok = false;
  bool static_loss_ok = false;
  std::vector<Table> tables(
      lineups.size(), Table({"machine", "sched", "fault", "makespan",
                             "slowdown", "stall%", "stolen", "abandoned"}));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const Series& s = series[si];
    const MachineCase& mc = *s.mc;
    const double baseline = baselines[si].makespan;
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const std::string& level = levels[li];
      const SimResult* batched =
          li == 0 ? nullptr : &perturbed[2 * (si * rungs + li - 1)];
      const SimResult& r = batched ? *batched : baselines[si];

      if (!check_time_identity(r, mc.procs)) {
        conservation_ok = false;
        std::cerr << "conservation violated: " << mc.config.name << " "
                  << s.spec << " " << level << " accounted="
                  << accounted_time(r) << " expected=" << mc.procs * r.makespan
                  << "\n";
      }
      if (batched && !identical(r, batched[1])) {
        batching_ok = false;
        std::cerr << "batching divergence: " << mc.config.name << " "
                  << s.spec << " " << level << "\n";
      }
      if (level == "proc-loss" && s.spec == "AFS" &&
          r.lost_processor_count == 1 && r.stolen_under_fault > 0)
        afs_loss_ok = true;
      if (level == "proc-loss" && s.spec == "STATIC" &&
          r.abandoned_iterations > 0)
        static_loss_ok = true;

      tables[s.lineup].add_row(
          {mc.config.name, s.spec, level, Table::num(r.makespan, 0),
           Table::num(baseline > 0.0 ? r.makespan / baseline : 1.0, 3),
           Table::num(r.makespan > 0.0
                          ? 100.0 * r.stall_time / (mc.procs * r.makespan)
                          : 0.0,
                      1),
           Table::num(r.stolen_under_fault),
           Table::num(r.abandoned_iterations)});
    }
  }

  // The adaptive rows land in tab7_adaptive.csv, but every run still fed
  // the conservation and batching-invariance checks above: a feedback
  // scheduler must degrade as gracefully as the paper's nine.
  const std::vector<std::string> csv_ids{"tab7", "tab7_adaptive"};
  for (std::size_t l = 0; l < lineups.size(); ++l) {
    out << tables[l].to_ascii();
    tables[l].write_csv(bench::csv_path(ctx.cli, csv_ids[l]));
    out << "(csv: " << bench::csv_path(ctx.cli, csv_ids[l]) << ")\n";
  }

  report_shape(out, conservation_ok,
               "extended conservation (incl. stall_time) holds in every run");
  report_shape(out, batching_ok,
               "perturbed runs bit-identical with batching on/off");
  report_shape(out, afs_loss_ok,
               "AFS completes processor loss and steals the dead queue "
               "(stolen_under_fault > 0)");
  report_shape(out, static_loss_ok,
               "STATIC reports the dead processor's share as abandoned");

  const bool ok =
      conservation_ok && batching_ok && afs_loss_ok && static_loss_ok;
  return ok ? 0 : 1;
}

}  // namespace

void register_table_experiments(std::vector<Experiment>& experiments) {
  experiments.push_back(table_experiment(
      "tab2", "Balanced loop (N=2e8) with one delayed processor, Iris model",
      {"tab2"}, run_tab2));
  experiments.push_back(table_experiment(
      "tab3", "Sync operations per loop, SOR N=512", {"tab3"},
      [](const ExperimentContext& ctx, std::ostream& out) {
        return run_sync_ops_table("tab3",
                                  "sync operations per loop, SOR N=512",
                                  SorKernel::program(512, 4), ctx, out);
      }));
  experiments.push_back(table_experiment(
      "tab4", "Sync operations per loop, transitive closure (640, skewed)",
      {"tab4"}, [](const ExperimentContext& ctx, std::ostream& out) {
        return run_sync_ops_table(
            "tab4",
            "sync operations per loop, transitive closure (640, skewed)",
            TransitiveClosureKernel::program(clique_graph(640, 320)), ctx,
            out);
      }));
  experiments.push_back(table_experiment(
      "tab5", "Sync operations, adjoint convolution N=75", {"tab5"},
      [](const ExperimentContext& ctx, std::ostream& out) {
        return run_sync_ops_table(
            "tab5", "sync operations, adjoint convolution N=75",
            AdjointConvolutionKernel::program(75), ctx, out);
      }));
  experiments.push_back(table_experiment(
      "tab6", "Gaussian elimination N=4096, P=16, KSR-1 model", {"tab6"},
      run_tab6));
  experiments.push_back(table_experiment(
      "tab7", "Scheduler resilience vs. fault intensity (fault injection)",
      {"tab7", "tab7_adaptive"}, run_tab7));
}

}  // namespace afs
