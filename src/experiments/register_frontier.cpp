// The adaptive-frontier experiment: every scheduler the registry knows —
// the paper's eight head-to-head algorithms, TAPER, and the four
// adaptive/topology-aware frontier schedulers (src/sched/adaptive/) —
// raced across the paper's kernels, with each cell's binary trace
// analyzed into an affinity-score-vs-imbalance tradeoff point.
//
// Every cell simulates with a BinaryTraceSink and runs analyze_trace over
// the result, so the scores come from the same evidence chain the trace
// tooling uses. The enriched SimResult (trace_affinity_score /
// trace_imbalance) is saved to the content-addressed store under a
// marker-suffixed scheduler key, which is what lets a warm daemon or
// rerun serve the whole table without re-simulating or re-tracing.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "experiments/expectations.hpp"
#include "experiments/registry.hpp"
#include "kernels/gauss.hpp"
#include "kernels/sor.hpp"
#include "kernels/transitive_closure.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "store/cell_key.hpp"
#include "store/result_store.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_sink.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "workload/graphs.hpp"

namespace afs {

namespace {

// One traced cell, served from the store when a previous run already
// enriched it. The "+tracemetrics" marker keeps these cells from
// colliding with plain run_cell_cached cells for the same
// (machine, program, scheduler, P) — the stored result here carries
// trace-derived fields a plain cell never fills.
SimResult run_traced_cell(const ExperimentContext& ctx,
                          const MachineConfig& machine,
                          const LoopProgram& program, const std::string& spec,
                          int procs, const std::string& out_dir) {
  SimOptions opts;
  opts.cancel = ctx.cancel;
  CellKey key;
  if (ctx.store) {
    // Key built from the UNtraced options: the trace file is scaffolding
    // for the analysis, not an output the store needs to reproduce.
    key = make_cell_key(machine, program.key, spec + "+tracemetrics", procs,
                        opts);
    SimResult cached;
    if (ctx.store->load(key, cached) && cached.trace_affinity_score >= 0.0)
      return cached;
  }
  if (ctx.cancel != nullptr && ctx.cancel->cancelled())
    throw CancelledError("cell cancelled before simulation started");

  const std::string path =
      trace_cell_path(out_dir, "frontier_tradeoff", program.key + "." + spec,
                      procs);
  SimResult r;
  {
    BinaryTraceSink sink(path);
    opts.trace = &sink;
    auto sched = make_scheduler(spec);
    try {
      MachineSim sim(machine, opts);
      r = sim.run(program, *sched, procs);
      sink.finalize();
    } catch (...) {
      sink.abandon();
      throw;
    }
  }

  const std::vector<TraceAnalysis> analyses = analyze_trace_file(path);
  AFS_CHECK_MSG(analyses.size() == 1,
                "expected one run in " << path << ", got " << analyses.size());
  const TraceAnalysis& a = analyses.front();
  AFS_CHECK_MSG(a.conserved(), "trace conservation violated: " << spec
                                                               << " P=" << procs
                                                               << " on "
                                                               << program.key);
  r.trace_affinity_score = a.affinity_score();
  r.trace_imbalance = a.exec_imbalance();

  if (ctx.store && key.cacheable) ctx.store->save(key, r);
  return r;
}

int run_frontier(const ExperimentContext& ctx, std::ostream& out) {
  const bench::BenchCli& cli = ctx.cli;
  out << "== frontier_tradeoff: affinity-vs-imbalance, the paper's "
         "schedulers plus the adaptive frontier ==\n";

  std::vector<std::string> specs = paper_scheduler_specs();
  specs.push_back("TAPER(1.3)");
  for (const std::string& s : adaptive_scheduler_specs()) specs.push_back(s);

  const MachineConfig machine = iris();
  std::vector<int> procs = cli.procs.empty() ? std::vector<int>{2, 4, 8}
                                             : cli.procs;
  procs.erase(std::remove_if(procs.begin(), procs.end(),
                             [&](int p) {
                               return p < 1 || p > machine.max_processors;
                             }),
              procs.end());
  AFS_CHECK_MSG(!procs.empty(), "no usable processor counts for "
                                    << machine.name);

  struct Kernel {
    const char* label;
    LoopProgram prog;
  };
  // Multi-epoch kernels only: the affinity score compares each epoch's
  // placement against the previous one, so single-epoch loops score 0
  // for every scheduler and say nothing.
  const std::vector<Kernel> kernels = {
      {"sor", SorKernel::program(256, 8)},
      {"gauss", GaussKernel::program(192)},
      {"tc", TransitiveClosureKernel::program(clique_graph(320, 160))},
  };

  std::filesystem::create_directories(cli.out_dir);
  out << "(traces per cell under " << cli.out_dir
      << "/frontier_tradeoff.p<P>.<kernel>.<scheduler>.cctrace)\n";

  // Cells: every (kernel, scheduler, P), each traced into its own file.
  const std::size_t per_kernel = specs.size() * procs.size();
  std::vector<SimResult> results(kernels.size() * per_kernel);
  for_each_cell(ctx, results.size(), [&](std::size_t i) {
    results[i] = run_traced_cell(
        ctx, machine, kernels[i / per_kernel].prog,
        specs[i % per_kernel / procs.size()], procs[i % procs.size()],
        cli.out_dir);
  });

  Table t({"kernel", "scheduler", "procs", "affinity", "imbalance", "time",
           "sync ops", "steals"});
  const int p_top = *std::max_element(procs.begin(), procs.end());
  double sor_aff_afs = -1.0;
  double sor_aff_ss = -1.0;
  double sor_aff_tailor = -1.0;
  std::size_t cell = 0;
  for (const Kernel& k : kernels) {
    for (const std::string& spec : specs) {
      for (int p : procs) {
        const SimResult& r = results[cell++];
        const std::int64_t sync_ops =
            r.local_grabs + r.remote_grabs + r.central_grabs;
        t.add_row({k.label, scheduler_display_name(spec), std::to_string(p),
                   Table::num(r.trace_affinity_score, 4),
                   Table::num(r.trace_imbalance, 4),
                   Table::num(r.makespan, 0), Table::num(sync_ops),
                   Table::num(r.remote_grabs)});
        if (std::string(k.label) == "sor" && p == p_top) {
          if (spec == "AFS") sor_aff_afs = r.trace_affinity_score;
          if (spec == "SS") sor_aff_ss = r.trace_affinity_score;
          if (spec.rfind("TAILOR", 0) == 0)
            sor_aff_tailor = r.trace_affinity_score;
        }
      }
    }
    out << "  " << k.label << ": " << per_kernel << " cells done\n";
  }
  out << t.to_ascii();
  t.write_csv(bench::csv_path(cli, "frontier_tradeoff"));
  out << "(csv: " << bench::csv_path(cli, "frontier_tradeoff") << ")\n";

  // Soft shape checks (data, not invariants — the hard pins live in
  // tests/experiments/frontier_test.cpp).
  if (sor_aff_afs >= 0.0 && sor_aff_ss >= 0.0)
    report_shape(out, sor_aff_afs > sor_aff_ss,
                 "AFS holds more affinity than SS on SOR at P=" +
                     std::to_string(p_top));
  if (sor_aff_tailor >= 0.0 && sor_aff_afs >= 0.0)
    report_shape(out, sor_aff_tailor >= sor_aff_afs - 1e-12,
                 "TAILOR's affinity is at least AFS's on SOR at P=" +
                     std::to_string(p_top));
  return 0;
}

}  // namespace

void register_frontier_experiments(std::vector<Experiment>& experiments) {
  experiments.push_back(table_experiment(
      "frontier_tradeoff",
      "Affinity-vs-imbalance tradeoff across the scheduler frontier",
      {"frontier_tradeoff"}, run_frontier));
}

}  // namespace afs
