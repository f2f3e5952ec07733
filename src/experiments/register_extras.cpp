// The beyond-the-paper experiments: the AFS design-choice ablations, the
// §5.1 architecture-trend argument made quantitative, and the
// google-benchmark microbenchmark entry. Bodies moved from the former
// standalone bench binaries: each declares its cells, runs them through
// for_each_cell() (every simulator invocation via run_cell_cached()), and
// then assembles its tables in the original order.
#include <iostream>
#include <string>
#include <vector>

#include "experiments/expectations.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "kernels/synthetic.hpp"
#include "kernels/transitive_closure.hpp"
#include "machines/machines.hpp"
#include "util/table.hpp"
#include "workload/graphs.hpp"

namespace afs {

namespace {

// Ablations for the design choices DESIGN.md calls out (beyond the
// paper's evaluated configurations):
//   (a) k sweep           — §3's sync-vs-balance trade-off, measured;
//   (b) steal fraction    — 1/P (paper) vs 1/2 (greedy stealing);
//   (c) cache capacity    — §2.1's eviction discussion: affinity's benefit
//                           disappears when the working set stops fitting;
//   (d) AFS vs AFS-LE     — the §4.3 last-executed variant under a
//                           persistently imbalanced workload;
//   (e) victim selection  — full scan vs randomized probing at KSR scale.
int run_ablation(const ExperimentContext& ctx, std::ostream& out) {
  const bench::BenchCli& cli = ctx.cli;
  out << "== ablation: AFS design choices (Iris model) ==\n\n";

  const auto tc = TransitiveClosureKernel::program(clique_graph(640, 320));
  const auto sor = SorKernel::program(512, 8);
  const auto drift = drifting_hotspot_program(
      /*n=*/2048, /*epochs=*/64, /*width=*/256, /*speed=*/4.0,
      /*heavy=*/50.0, /*light=*/1.0, /*row_units=*/64.0);
  const auto tc_ksr = TransitiveClosureKernel::program(clique_graph(1024, 409));

  // Every section's cells, declared up front so they can run together.
  // AFS on the skewed TC at P=8 is one cell shared by (a), (b) and (d).
  struct Cell {
    MachineConfig machine;
    const LoopProgram* program;
    std::string spec;
    int procs;
  };
  std::vector<Cell> cells;
  const auto add = [&](MachineConfig m, const LoopProgram& prog,
                       const std::string& spec, int procs) {
    cells.push_back({std::move(m), &prog, spec, procs});
    return cells.size() - 1;
  };
  const auto add_all = [&](const MachineConfig& m, const LoopProgram& prog,
                           const std::vector<std::string>& specs, int procs) {
    std::vector<std::size_t> ids;
    for (const std::string& spec : specs)
      ids.push_back(add(m, prog, spec, procs));
    return ids;
  };
  const std::vector<std::size_t> k_cells =
      add_all(iris(), tc, {"AFS(k=1)", "AFS(k=2)", "AFS(k=4)", "AFS"}, 8);
  const std::size_t tc_afs = k_cells.back();
  const std::vector<std::size_t> steal_cells{
      tc_afs, add(iris(), tc, "AFS(steal=2)", 8),
      add(iris(), tc, "AFS(steal=4)", 8)};
  const std::vector<double> capacities{128.0, 64.0, 32.0, 8.0, 2.0};
  std::vector<std::size_t> cache_cells;  // AFS then GSS per capacity
  for (double rows_per_proc : capacities) {
    MachineConfig m = iris();
    m.cache_capacity = rows_per_proc * 512.0;
    for (std::size_t id : add_all(m, sor, {"AFS", "GSS"}, 8))
      cache_cells.push_back(id);
  }
  const std::vector<std::size_t> le_cells{
      tc_afs, add(iris(), tc, "AFS-LE", 8), add(iris(), drift, "AFS", 8),
      add(iris(), drift, "AFS-LE", 8)};
  const std::vector<std::size_t> victim_cells =
      add_all(ksr1(), tc_ksr, {"AFS", "AFS-RAND(2)", "AFS-RAND(4)", "WS"}, 57);

  std::vector<SimResult> results(cells.size());
  for_each_cell(ctx, cells.size(), [&](std::size_t i) {
    const Cell& c = cells[i];
    results[i] =
        run_cell_cached(ctx, c.machine, *c.program, c.spec, c.procs);
  });

  // (a) k sweep on a head-heavy imbalanced loop: larger k = finer local
  // chunks = better balance at the cost of more local queue operations.
  {
    out << "-- (a) AFS k sweep, transitive closure skewed 320/640 --\n";
    Table t({"k", "time", "local grabs", "steals"});
    for (std::size_t id : k_cells) {
      const SimResult& r = results[id];
      t.add_row({scheduler_display_name(cells[id].spec),
                 Table::num(r.makespan, 0), Table::num(r.local_grabs),
                 Table::num(r.remote_grabs)});
    }
    out << t.to_ascii();
    t.write_csv(bench::csv_path(cli, "ablation_k"));
  }

  // (b) steal fraction.
  {
    out << "\n-- (b) AFS steal fraction, same workload --\n";
    Table t({"steal", "time", "steals", "iters stolen"});
    for (std::size_t id : steal_cells) {
      const SimResult& r = results[id];
      std::int64_t stolen = 0;
      for (const auto& q : r.sched_stats.queues) stolen += q.iters_remote;
      t.add_row({scheduler_display_name(cells[id].spec),
                 Table::num(r.makespan, 0), Table::num(r.remote_grabs),
                 Table::num(stolen)});
    }
    out << t.to_ascii();
    t.write_csv(bench::csv_path(cli, "ablation_steal"));
  }

  // (c) cache capacity sweep: shrink the Iris caches until the SOR working
  // set stops fitting; AFS's advantage over GSS should collapse.
  {
    out << "\n-- (c) cache capacity sweep, SOR N=512, P=8 --\n";
    Table t({"capacity (rows/proc)", "AFS", "GSS", "GSS/AFS"});
    for (std::size_t c = 0; c < capacities.size(); ++c) {
      const double ta = results[cache_cells[2 * c]].makespan;
      const double tg = results[cache_cells[2 * c + 1]].makespan;
      t.add_row({Table::num(capacities[c], 0), Table::num(ta, 0),
                 Table::num(tg, 0), Table::num(tg / ta, 2)});
    }
    out << t.to_ascii();
    t.write_csv(bench::csv_path(cli, "ablation_cache"));
    out << "(SOR needs 64 rows/processor at P=8: below that, "
           "affinity has nothing to preserve)\n";
  }

  // (d) AFS vs AFS-LE: persistent imbalance means AFS re-steals the same
  // iterations every epoch; AFS-LE seeds queues with last epoch's actual
  // execution and steals less after the first epoch. Shown on both the
  // skewed transitive closure and §4.3's motivating case — a slowly
  // drifting hotspot.
  {
    out << "\n-- (d) deterministic vs last-executed seeding, P=8 --\n";
    Table t({"workload", "variant", "time", "steals", "local grabs"});
    for (std::size_t id : le_cells) {
      const SimResult& r = results[id];
      t.add_row({cells[id].program->name,
                 scheduler_display_name(cells[id].spec),
                 Table::num(r.makespan, 0), Table::num(r.remote_grabs),
                 Table::num(r.local_grabs)});
    }
    out << t.to_ascii();
    t.write_csv(bench::csv_path(cli, "ablation_le"));
    out << "(AFS-LE should steal far less on the drifting hotspot, at\n"
           " the price of fragmented queues — §4.3's predicted trade)\n";
  }

  // (e) victim selection: the paper's full scan vs the randomized probing
  // it recommends for large machines, at KSR scale.
  {
    out << "\n-- (e) victim selection at scale, TC 1024 on KSR-1, "
           "P=57 --\n";
    Table t({"variant", "time", "steals"});
    for (std::size_t id : victim_cells) {
      const SimResult& r = results[id];
      t.add_row({scheduler_display_name(cells[id].spec),
                 Table::num(r.makespan, 0), Table::num(r.remote_grabs)});
    }
    out << t.to_ascii();
    t.write_csv(bench::csv_path(cli, "ablation_victim"));
  }

  out << "\n(csv: " << cli.out_dir << "/ablation_*.csv)\n";
  return 0;
}

// §5.1's architecture-trend argument, made quantitative: as processor
// speed grows faster than interconnect speed, the payoff of affinity
// scheduling grows. We run the same Gaussian elimination on (i) the
// Symmetry model (slow CPUs — the "previous generation"), (ii) the Iris
// model (the paper's "modern" machine), and (iii) a projected future
// machine (Iris with 4x faster CPUs, same bus), and report AFS's
// advantage over GSS on each.
int run_trend(const ExperimentContext& ctx, std::ostream& out) {
  const bench::BenchCli& cli = ctx.cli;
  out << "== trend: AFS advantage vs compute/communication ratio ==\n";

  MachineConfig future = iris();
  future.name = "future(4x cpu)";
  future.work_unit_time = iris().work_unit_time / 4.0;

  const auto prog = GaussKernel::program(256);
  const std::vector<MachineConfig> machines{symmetry(), iris(), future};
  // Cells: AFS then GSS on each machine.
  std::vector<double> times(2 * machines.size());
  for_each_cell(ctx, times.size(), [&](std::size_t i) {
    times[i] = run_cell_cached(ctx, machines[i / 2], prog,
                               i % 2 == 0 ? "AFS" : "GSS", 8)
                   .makespan;
  });

  Table t({"machine", "comm/compute", "AFS", "GSS", "GSS/AFS"});
  double prev_adv = 0.0;
  bool monotone = true;
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    const MachineConfig& m = machines[mi];
    const double ta = times[2 * mi];
    const double tg = times[2 * mi + 1];
    const double ratio = m.transfer_unit_time / m.work_unit_time;
    const double adv = tg / ta;
    t.add_row({m.name, Table::num(ratio, 3), Table::num(ta, 0),
               Table::num(tg, 0), Table::num(adv, 2)});
    monotone &= adv >= prev_adv * 0.98;
    prev_adv = adv;
  }
  out << t.to_ascii();
  t.write_csv(bench::csv_path(cli, "trend"));
  out << "(csv: " << bench::csv_path(cli, "trend") << ")\n";
  report_shape(out, monotone,
               "AFS advantage grows with the comm/compute ratio (§5.1)");

  // The TC2000 vs Butterfly I data point quoted in §5.1.
  const auto b = butterfly1();
  const auto tc = tc2000();
  out << "BBN trend check: compute sped up "
      << Table::num(b.work_unit_time / tc.work_unit_time, 0)
      << "x, remote access only "
      << Table::num(b.miss_latency / tc.miss_latency, 1)
      << "x (paper: 60x vs 3.6x)\n";
  return 0;
}

}  // namespace

void register_extra_experiments(std::vector<Experiment>& experiments) {
  experiments.push_back(table_experiment(
      "ablation_afs", "AFS design-choice ablations (Iris model)",
      {"ablation_k", "ablation_steal", "ablation_cache", "ablation_le",
       "ablation_victim"},
      run_ablation));
  experiments.push_back(table_experiment(
      "trend_comm_ratio", "AFS advantage vs compute/communication ratio",
      {"trend"}, run_trend));
  Experiment micro;
  micro.id = "micro_queues";
  micro.title = "Queue/scheduler microbenchmarks (google-benchmark)";
  micro.kind = ExperimentKind::kMicro;
  micro.run = [](const ExperimentContext&, std::ostream&) { return 0; };
  experiments.push_back(micro);
}

}  // namespace afs
