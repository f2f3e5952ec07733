// The shared command-line interface of every reproduction entry point —
// the per-figure bench binaries (now thin shims) and the afs_sweep batch
// driver both parse exactly these flags, so `bench_fig04_gauss_iris
// --jobs=4 --trace` and `afs_sweep run fig04 --jobs=4 --trace` mean the
// same thing.
//
//   --procs=1,2,4     override the processor sweep (figures only)
//   --out-dir=DIR     write CSVs (and traces) under DIR [bench_results]
//   --trace           also write a .cctrace per (scheduler, P) cell
//   --jobs=N          run (scheduler, P) cells on N threads [1]
//   --resume          reload finished cells from the sweep checkpoint
//   --cell-timeout=S  wall-clock deadline (seconds) per cell attempt
//   --cell-retries=N  re-attempts per cell after the first failed try
//   --sweep-timeout=S wall-clock deadline for the whole sweep
//   --store=DIR       serve/fill the content-addressed result store at DIR
//   --no-store        disable the store (afs_sweep enables it by default)
//   --help            usage
//
// Lives in src/experiments (not bench/) because the experiment registry
// and the driver are the real consumers; the bench binaries just forward
// argv to shim_main(). See docs/SWEEP_SERVICE.md.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "runtime/sweep_runner.hpp"

namespace afs::bench {

/// Options common to every bench binary and the driver. Defaults reproduce
/// the paper configuration exactly; anything else is an explicit
/// deviation.
struct BenchCli {
  std::vector<int> procs;                 ///< empty = the figure's own sweep
  std::string out_dir = "bench_results";  ///< CSV / trace destination
  bool trace = false;  ///< write one .cctrace per (scheduler, P) cell
                       ///< under <out_dir> (see trace_cell_path)
  bool time_phases = false;  ///< collect engine phase timers; write
                             ///< <out_dir>/<id>.phases.json
  bool no_batch = false;     ///< A/B: disable iteration batching
  bool no_memory_fast_path = false;  ///< A/B: disable the exclusive-
                                     ///< residency memory fast path
  bool no_calendar_queue = false;    ///< A/B: reference binary-heap
                                     ///< EventCore instead of the ring
  bool no_epoch_batch = false;       ///< A/B: rebuild engine state per run
                                     ///< instead of warm-state reuse
  int jobs = 1;                ///< sweep-runner worker threads
  bool resume = false;         ///< reload checkpointed cells
  double cell_timeout = 0.0;   ///< seconds per cell attempt; 0 = unlimited
  double sweep_timeout = 0.0;  ///< seconds for the whole sweep; 0 = unlimited
  int cell_retries = -1;       ///< re-attempts per cell; -1 = runner default
  std::string store_dir;       ///< content-addressed store root; empty = off
  bool no_store = false;       ///< force the store off (driver default is on)

  /// True when any sweep-runner flag deviates from its default.
  bool runner_flags_set() const {
    return jobs != 1 || resume || cell_timeout > 0.0 || sweep_timeout > 0.0 ||
           cell_retries >= 0;
  }
};

inline void print_usage(const char* argv0, std::ostream& out) {
  out << "usage: " << argv0
      << " [--procs=1,2,4] [--out-dir=DIR] [--trace]\n"
      << "       [--time-phases] [--no-batch] [--no-memory-fast-path]\n"
      << "       [--no-calendar-queue] [--no-epoch-batch]\n"
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
      << "  --no-memory-fast-path  disable the memory system's exclusive-\n"
      << "                 residency fast path (A/B check; bit-identical)\n"
      << "  --no-calendar-queue  use the reference binary-heap event queue\n"
      << "                 instead of the calendar ring (A/B check;\n"
      << "                 bit-identical, only slower)\n"
      << "  --no-epoch-batch  rebuild engine state per run instead of\n"
      << "                 reusing a warmed simulator across cells (A/B\n"
      << "                 check; bit-identical, only slower)\n"
      << "  --jobs=N       run independent (scheduler, P) sweep cells on N\n"
      << "                 threads (default 1 = serial; results identical)\n"
      << "  --resume       reload finished cells from the sweep checkpoint\n"
      << "                 under <out-dir>/.sweep/<id> instead of rerunning\n"
      << "  --cell-timeout=S  per-cell wall-clock deadline in seconds\n"
      << "  --sweep-timeout=S sweep-wide wall-clock deadline in seconds\n"
      << "                 (timed-out cells are reported, not fatal —\n"
      << "                  see docs/SWEEP_RUNNER.md)\n"
      << "  --cell-retries=N  re-attempts after a cell's first failed try\n"
      << "                 (default " << SweepOptions{}.max_retries
      << "; 0 disables retries)\n"
      << "  --store=DIR    serve cells from (and fill) the content-\n"
      << "                 addressed result store rooted at DIR; a cell\n"
      << "                 simulated once is never simulated again\n"
      << "                 (docs/SWEEP_SERVICE.md)\n"
      << "  --no-store     disable the store (afs_sweep defaults it to\n"
      << "                 <out-dir>/.store; the per-figure binaries\n"
      << "                 default it off)\n";
}

/// Pure parser behind parse_cli, exposed so tests can drive it without a
/// process exit. Parses `args` (argv[1..]) into `cli`. Returns false with
/// `error` describing the offending flag/value on malformed input; sets
/// `want_help` (and returns true) when --help / -h is present.
inline bool parse_cli_args(const std::vector<std::string>& args, BenchCli& cli,
                           std::string& error, bool& want_help) {
  error.clear();
  want_help = false;
  const auto parse_seconds = [&error](const std::string& arg,
                                      std::size_t prefix_len, const char* flag,
                                      double& out_v) {
    const std::string tok = arg.substr(prefix_len);
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == tok.c_str() || *end != '\0' || errno == ERANGE ||
        !(v > 0.0) || v > 86400.0) {
      error = std::string("bad ") + flag + " value '" + tok +
              "' (need seconds in (0, 86400])";
      return false;
    }
    out_v = v;
    return true;
  };
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      want_help = true;
      return true;
    } else if (arg == "--trace") {
      cli.trace = true;
    } else if (arg == "--time-phases") {
      cli.time_phases = true;
    } else if (arg == "--no-batch") {
      cli.no_batch = true;
    } else if (arg == "--no-memory-fast-path") {
      cli.no_memory_fast_path = true;
    } else if (arg == "--no-calendar-queue") {
      cli.no_calendar_queue = true;
    } else if (arg == "--no-epoch-batch") {
      cli.no_epoch_batch = true;
    } else if (arg.rfind("--cell-retries=", 0) == 0) {
      const std::string tok = arg.substr(15);
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (tok.empty() || end == tok.c_str() || *end != '\0' ||
          errno == ERANGE || v < 0 || v > 100) {
        error = "bad --cell-retries value '" + tok +
                "' (need an integer in 0..100)";
        return false;
      }
      cli.cell_retries = static_cast<int>(v);
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      cli.out_dir = arg.substr(10);
      if (cli.out_dir.empty()) {
        error = "--out-dir needs a non-empty directory";
        return false;
      }
    } else if (arg.rfind("--store=", 0) == 0) {
      cli.store_dir = arg.substr(8);
      if (cli.store_dir.empty()) {
        error = "--store needs a non-empty directory";
        return false;
      }
      cli.no_store = false;
    } else if (arg == "--no-store") {
      cli.no_store = true;
      cli.store_dir.clear();
    } else if (arg.rfind("--procs=", 0) == 0) {
      cli.procs.clear();
      const std::string list = arg.substr(8);
      if (list.empty()) {
        error = "--procs needs at least one value";
        return false;
      }
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma - pos);
        char* end = nullptr;
        errno = 0;
        const long v = std::strtol(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || errno == ERANGE || v < 1 ||
            v > 64) {
          error = "bad --procs entry '" + tok + "' (need integers in 1..64)";
          return false;
        }
        cli.procs.push_back(static_cast<int>(v));
        if (comma == std::string::npos) break;
        pos = comma + 1;  // a trailing comma leaves an empty (bad) token
      }
    } else if (arg == "--resume") {
      cli.resume = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string tok = arg.substr(7);
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (tok.empty() || end == tok.c_str() || *end != '\0' ||
          errno == ERANGE || v < 1 || v > 256) {
        error = "bad --jobs value '" + tok + "' (need an integer in 1..256)";
        return false;
      }
      cli.jobs = static_cast<int>(v);
    } else if (arg.rfind("--cell-timeout=", 0) == 0) {
      if (!parse_seconds(arg, 15, "--cell-timeout", cli.cell_timeout))
        return false;
    } else if (arg.rfind("--sweep-timeout=", 0) == 0) {
      if (!parse_seconds(arg, 16, "--sweep-timeout", cli.sweep_timeout))
        return false;
    } else {
      error = "unknown argument '" + arg + "'";
      return false;
    }
  }
  return true;
}

/// Parses the shared flags; prints usage and exits on --help or on
/// anything unrecognized (these are batch reproduction binaries — a typo
/// should fail loudly, not silently run the default 20-minute sweep).
inline BenchCli parse_cli(int argc, char** argv) {
  BenchCli cli;
  std::string error;
  bool want_help = false;
  if (!parse_cli_args(std::vector<std::string>(argv + 1, argv + argc), cli,
                      error, want_help)) {
    std::cerr << argv[0] << ": " << error << "\n";
    print_usage(argv[0], std::cerr);
    std::exit(2);
  }
  if (want_help) {
    print_usage(argv[0], std::cout);
    std::exit(EXIT_SUCCESS);
  }
  return cli;
}

/// CSV path for a non-figure table under the chosen output directory.
inline std::string csv_path(const BenchCli& cli, const std::string& id) {
  return cli.out_dir + "/" + id + ".csv";
}

}  // namespace afs::bench
