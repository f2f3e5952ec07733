#include "experiments/bench_cli.hpp"

#include "runtime/sweep_runner.hpp"

namespace afs::bench {

void print_usage(const char* argv0, std::ostream& out) {
  out << "usage: " << argv0
      << " [--procs=1,2,4] [--out-dir=DIR] [--trace]\n"
      << "       [--time-phases] [--no-batch]\n"
      << "       [--jobs=N] [--resume] [--cell-timeout=S] [--sweep-timeout=S]\n"
      << "       [--cell-retries=N] [--store=DIR] [--no-store]\n"
      << "  --procs=LIST   comma-separated processor counts overriding the\n"
      << "                 figure's standard sweep\n"
      << "  --out-dir=DIR  directory for CSV output (default bench_results)\n"
      << "  --trace        also stream an event trace per (scheduler, P)\n"
      << "                 cell to <out-dir>/<id>.p<P>.<scheduler>.cctrace\n"
      << "                 (see docs/SIMULATOR.md, \"Traces\");\n"
      << "                 composes with --jobs/--resume; analyze with\n"
      << "                 tools/trace_report, export JSON with its\n"
      << "                 --dump-jsonl\n"
      << "  --time-phases  collect the engine's host wall-clock phase\n"
      << "                 breakdown and write <out-dir>/<id>.phases.json\n"
      << "                 (simulated results stay bit-identical; see\n"
      << "                 tools/phase_report.py)\n"
      << "  --no-batch     disable iteration batching (A/B check; results\n"
      << "                 are bit-identical, only slower)\n"
      << "  --jobs=N       run independent (scheduler, P) sweep cells on N\n"
      << "                 threads (default 1 = serial; results identical)\n"
      << "  --resume       reload finished cells from the sweep checkpoint\n"
      << "                 under <out-dir>/.sweep/<id> instead of rerunning\n"
      << "  --cell-timeout=S  per-cell wall-clock deadline in seconds\n"
      << "  --sweep-timeout=S sweep-wide wall-clock deadline in seconds\n"
      << "                 (timed-out cells are reported, not fatal —\n"
      << "                  see docs/SWEEP_RUNNER.md; both deadlines are\n"
      << "                  off unless given, and take 0.001..86400)\n"
      << "  --cell-retries=N  re-attempts after a cell's first failed try\n"
      << "                 (default " << SweepOptions{}.max_retries
      << "; 0 disables retries)\n"
      << "  --store=DIR    serve cells from (and fill) the content-\n"
      << "                 addressed result store rooted at DIR (default\n"
      << "                 <out-dir>/.store); a cell simulated once is\n"
      << "                 never simulated again (docs/SWEEP_SERVICE.md)\n"
      << "  --no-store     run without the store: every cell simulates\n";
}

bool parse_cli_args(const std::vector<std::string>& args, BenchCli& cli,
                    std::string& error, bool& want_help) {
  error.clear();
  want_help = false;
  for (const std::string& arg : args) {
    const auto has = [&arg](std::string_view prefix) {
      return arg.rfind(prefix, 0) == 0;
    };
    if (arg == "--help" || arg == "-h") {
      want_help = true;
      return true;
    } else if (arg == "--trace") {
      cli.trace = true;
    } else if (arg == "--time-phases") {
      cli.time_phases = true;
    } else if (arg == "--no-batch") {
      cli.no_batch = true;
    } else if (arg == "--resume") {
      cli.resume = true;
    } else if (has("--cell-retries=")) {
      if (!parse_flag_value(arg, "--cell-retries", 0, 100, cli.cell_retries,
                            error))
        return false;
    } else if (has("--jobs=")) {
      if (!parse_flag_value(arg, "--jobs", 1, 256, cli.jobs, error))
        return false;
    } else if (has("--cell-timeout=")) {
      if (!parse_flag_value(arg, "--cell-timeout", 0.001, 86400.0,
                            cli.cell_timeout, error))
        return false;
    } else if (has("--sweep-timeout=")) {
      if (!parse_flag_value(arg, "--sweep-timeout", 0.001, 86400.0,
                            cli.sweep_timeout, error))
        return false;
    } else if (has("--out-dir=")) {
      cli.out_dir = arg.substr(10);
      if (cli.out_dir.empty()) {
        error = "--out-dir needs a non-empty directory";
        return false;
      }
    } else if (has("--store=")) {
      cli.store_dir = arg.substr(8);
      if (cli.store_dir.empty()) {
        error = "--store needs a non-empty directory";
        return false;
      }
      cli.no_store = false;
    } else if (arg == "--no-store") {
      cli.no_store = true;
      cli.store_dir.clear();
    } else if (has("--procs=")) {
      cli.procs.clear();
      const std::string_view list = std::string_view(arg).substr(8);
      if (list.empty()) {
        error = "--procs needs at least one value";
        return false;
      }
      std::size_t pos = 0;
      while (true) {
        const std::size_t comma = list.find(',', pos);
        // A doubled or trailing comma leaves an empty (bad) token.
        const std::string_view tok = list.substr(pos, comma - pos);
        int v = 0;
        if (!parse_number<int>(tok, 1, 64, v)) {
          error = "bad --procs entry '" + std::string(tok) +
                  "' (need integers in 1..64)";
          return false;
        }
        cli.procs.push_back(v);
        if (comma == std::string_view::npos) break;
        pos = comma + 1;
      }
    } else {
      error = "unknown argument '" + arg + "'";
      return false;
    }
  }
  return true;
}

}  // namespace afs::bench
