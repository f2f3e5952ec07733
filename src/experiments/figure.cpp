#include "experiments/figure.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>

#include "sched/registry.hpp"
#include "store/cell_key.hpp"
#include "store/result_store.hpp"
#include "trace/binary_sink.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace afs {
namespace {

/// Test-only chaos hook: AFS_CRASH_CELL="<id>:<label>:<P>" in the
/// environment makes exactly that cell abort() the process running it.
/// Sits inside run_figure_cell so that under --isolation=process the
/// abort fires in the sandbox worker (which inherits the environment) —
/// the daemon-smoke CI stage's way of proving a crash kills one worker,
/// not the daemon. The id prefix keeps a poisoned grid cell from also
/// killing same-labelled cells of registered figures.
void maybe_crash_cell_for_test(const std::string& id, const std::string& label,
                               int procs) {
  const char* spec = std::getenv("AFS_CRASH_CELL");
  if (spec == nullptr || *spec == '\0') return;
  const std::string s(spec);
  const std::size_t first = s.find(':');
  const std::size_t last = s.rfind(':');
  if (first == std::string::npos || last == first) return;  // malformed: off
  if (s.compare(0, first, id) != 0) return;
  if (s.substr(first + 1, last - first - 1) != label) return;
  char* end = nullptr;
  const long p = std::strtol(s.c_str() + last + 1, &end, 10);
  if (end == s.c_str() + last + 1 || *end != '\0') return;
  if (static_cast<int>(p) == procs) std::abort();
}

}  // namespace

SchedulerEntry entry(const std::string& spec) {
  return {spec, spec, [spec] { return make_scheduler(spec); }};
}

SchedulerEntry entry(std::string label,
                     std::function<std::unique_ptr<Scheduler>()> make) {
  return {std::move(label), std::string(), std::move(make)};
}

SchedulerEntry entry(std::string label, std::string key,
                     std::function<std::unique_ptr<Scheduler>()> make) {
  return {std::move(label), std::move(key), std::move(make)};
}

double FigureResult::time(const std::string& label, int p) const {
  const auto s = results.find(label);
  AFS_CHECK_MSG(s != results.end(), "no scheduler " << label);
  const auto r = s->second.find(p);
  AFS_CHECK_MSG(r != s->second.end(), "no P=" << p << " for " << label);
  return r->second.makespan;
}

double FigureResult::advantage(const std::string& a, const std::string& b,
                               int p) const {
  return time(b, p) / time(a, p);
}

Table FigureResult::completion_table() const {
  std::vector<std::string> headers{"P"};
  for (const auto& [label, _] : results) headers.push_back(label);
  Table t(std::move(headers));

  // Row set: union of P values (identical across schedulers in practice).
  std::vector<int> procs;
  for (const auto& [_, by_p] : results)
    for (const auto& [p, __] : by_p)
      if (std::find(procs.begin(), procs.end(), p) == procs.end())
        procs.push_back(p);
  std::sort(procs.begin(), procs.end());

  for (int p : procs) {
    std::vector<std::string> row{std::to_string(p)};
    for (const auto& [label, by_p] : results) {
      const auto it = by_p.find(p);
      row.push_back(it == by_p.end() ? "-" : Table::num(it->second.makespan, 0));
    }
    t.add_row(std::move(row));
  }
  return t;
}

FigureResult run_figure(const FigureSpec& spec, std::ostream& out) {
  return run_figure(spec, out, SweepOptions{});
}

MachineSim& warm_machine_sim(const MachineConfig& machine,
                             const SimOptions& options) {
  // One warm simulator per sweep thread, keyed by everything MachineSim
  // captures at construction except the per-cell observer pointers (trace
  // sink, cancellation token), which have setters. A key match means the
  // cached simulator is behaviorally identical to a fresh one — run()
  // resets all simulated state — so the reuse only carries the warmed
  // host-side allocations across cells.
  thread_local std::string warm_key;
  thread_local std::unique_ptr<MachineSim> warm;

  std::ostringstream os;
  os << machine_key(machine) << '\n'
     << perturb_key(options.perturb) << '\n'
     << "jitter_seed " << options.jitter_seed << " batch "
     << options.batch_iterations << " phases " << options.time_phases;
  std::string key = os.str();

  if (warm == nullptr || key != warm_key) {
    warm = std::make_unique<MachineSim>(machine, options);
    warm_key = std::move(key);
  }
  warm->set_trace_sink(options.trace);
  warm->set_cancel(options.cancel);
  return *warm;
}

SimResult run_figure_cell(const FigureSpec& spec, const SchedulerEntry& se,
                          int procs, const SimOptions& options) {
  maybe_crash_cell_for_test(spec.id, se.label, procs);
  auto sched = se.make();
  return warm_machine_sim(spec.machine, options)
      .run(spec.program, *sched, procs);
}

FigureResult run_figure(const FigureSpec& spec, std::ostream& out,
                        const SweepOptions& sweep) {
  AFS_CHECK(!spec.procs.empty() && !spec.schedulers.empty());
  out << "== " << spec.id << ": " << spec.title << " ==\n";
  out << "machine: " << spec.machine.name << ", program: " << spec.program.name
      << "\n";

  FigureResult result;
  result.id = spec.id;
  {
    MachineSim sim(spec.machine, spec.sim_options);
    result.serial_time = sim.ideal_serial_time(spec.program);
  }

  if (spec.trace) {
    std::filesystem::create_directories(spec.out_dir);
    out << "(tracing per cell to " << spec.out_dir << "/" << spec.id
        << ".p<P>.<scheduler>.cctrace)\n";
  }

  // One sweep cell per (scheduler, P): a fresh simulator and scheduler per
  // cell, so results depend only on the cell's own inputs and the merged
  // sweep is bit-identical whether cells run serially, in parallel, or are
  // reloaded from a checkpoint. (A simulator run resets all per-run state
  // anyway — the legacy shared-instance loop produced the same numbers.)
  std::vector<SweepCellSpec> cells;
  cells.reserve(spec.schedulers.size() * spec.procs.size());
  for (const SchedulerEntry& se : spec.schedulers) {
    for (int p : spec.procs) {
      AFS_CHECK_MSG(p <= spec.machine.max_processors,
                    "P=" << p << " exceeds " << spec.machine.name);
      cells.push_back(
          {se.label, p, [&spec, &se, p](const CancelToken& token) {
             SimOptions options = spec.sim_options;
             options.cancel = &token;
             // Each cell owns its trace writer, so tracing composes with
             // parallel sweeps; the trace is published atomically only
             // when the cell completes (a failed or cancelled attempt
             // leaves no partial file, and a retry starts clean).
             std::unique_ptr<BinaryTraceSink> trace;
             if (spec.trace) {
               trace = std::make_unique<BinaryTraceSink>(
                   trace_cell_path(spec.out_dir, spec.id, se.label, p));
               options.trace = trace.get();
             }
             // Consult the store first (traced/timed cells key as
             // uncacheable, so those always simulate). The key is built
             // after the trace sink is wired in so cacheability sees the
             // real options.
             CellKey key;
             if (spec.store) {
               key = make_cell_key(spec.machine, spec.program.key, se.key, p,
                                   options);
               SimResult cached;
               if (spec.store->load(key, cached)) return cached;
             }
             // Store miss: dispatch to the sandbox executor when one is
             // wired in and the cell's outputs survive the wire (traces
             // and phase timers do not — those cells stay in-process).
             // Store hits above are served either way, which is what the
             // executor's degraded cache-only mode relies on.
             if (spec.executor != nullptr && spec.exec.valid() &&
                 trace == nullptr && !options.time_phases) {
               SimResult r = spec.executor->execute(
                   spec.exec, se.label, p,
                   EngineToggles{options.batch_iterations}, token);
               if (spec.store && key.cacheable) spec.store->save(key, r);
               return r;
             }
             try {
               SimResult r = run_figure_cell(spec, se, p, options);
               if (trace) trace->finalize();
               if (spec.store && key.cacheable) spec.store->save(key, r);
               return r;
             } catch (...) {
               if (trace) trace->abandon();
               throw;
             }
           }});
    }
  }

  SweepOutcome outcome = run_sweep(spec.id, cells, sweep, &out);

  // Graceful degradation: completed cells are published either way; failed
  // cells get a machine-readable report next to the CSV (and any stale
  // report from an earlier degraded run is removed on full success).
  const std::string report = spec.out_dir + "/" + spec.id + ".failures.json";
  if (!outcome.failures.empty()) {
    write_file_atomic(report, failure_report_json(spec.id, outcome));
  } else {
    std::error_code ec;
    std::filesystem::remove(report, ec);
  }

  result.results = std::move(outcome.results);
  result.failures = std::move(outcome.failures);
  result.cells_total = outcome.cells_total;
  result.cells_resumed = outcome.cells_resumed;

  const std::string csv = spec.out_dir + "/" + spec.id + ".csv";
  out << result.completion_table().to_ascii();
  write_figure_csv(result, csv);
  out << "(csv: " << csv << ")\n";
  if (spec.sim_options.time_phases) {
    const std::string phases = spec.out_dir + "/" + spec.id + ".phases.json";
    write_phases_json(result, phases);
    out << "(phase timers: " << phases << ")\n";
  }
  if (!result.failures.empty())
    out << "(" << result.failures.size() << " of " << result.cells_total
        << " cells failed — report: " << report << ")\n";
  out << "\n";
  return result;
}

void write_phases_json(const FigureResult& result, const std::string& path) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  const auto emit = [&os](const EnginePhaseTimers& t, int cells,
                          int untimed) {
    os << "{\"cells_timed\": " << cells << ", \"cells_untimed\": " << untimed
       << ", \"total_s\": " << t.total << ", \"scheduler_s\": " << t.scheduler
       << ", \"work_s\": " << t.work << ", \"footprint_s\": " << t.footprint
       << ", \"memory_s\": " << t.memory
       << ", \"event_core_other_s\": " << t.event_core_other()
       << ", \"memory_accesses\": " << t.memory_accesses << "}";
  };

  EnginePhaseTimers sweep_total;
  int sweep_cells = 0, sweep_untimed = 0;
  os << "{\n  \"id\": \"" << result.id << "\",\n  \"schedulers\": {\n";
  bool first = true;
  for (const auto& [label, by_p] : result.results) {
    EnginePhaseTimers agg;
    int cells = 0, untimed = 0;
    for (const auto& [p, r] : by_p) {
      if (r.timers.collected()) {
        agg += r.timers;
        ++cells;
      } else {
        ++untimed;
      }
    }
    sweep_total += agg;
    sweep_cells += cells;
    sweep_untimed += untimed;
    if (!first) os << ",\n";
    first = false;
    os << "    \"" << label << "\": ";
    emit(agg, cells, untimed);
  }
  os << "\n  },\n  \"sweep\": ";
  emit(sweep_total, sweep_cells, sweep_untimed);
  os << "\n}\n";
  write_file_atomic(path, os.str());
}

void write_figure_csv(const FigureResult& result, const std::string& path) {
  Table csv({"figure", "scheduler", "procs", "time", "speedup", "busy", "sync",
             "comm", "idle", "misses", "remote_grabs", "central_grabs"});
  for (const auto& [label, by_p] : result.results) {
    for (const auto& [p, r] : by_p) {
      csv.add_row({result.id, label, std::to_string(p), Table::num(r.makespan, 1),
                   Table::num(r.speedup_vs(result.serial_time), 3),
                   Table::num(r.busy, 1), Table::num(r.sync, 1),
                   Table::num(r.comm, 1), Table::num(r.idle, 1),
                   Table::num(r.misses), Table::num(r.remote_grabs),
                   Table::num(r.central_grabs)});
    }
  }
  csv.write_csv(path);
}

}  // namespace afs
