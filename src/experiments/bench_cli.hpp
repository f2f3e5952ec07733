// The experiment options of the afs_sweep front end and its one flag
// parser. `afs_sweep run` takes every flag below; `afs_sweep serve` takes
// the ones a daemon applies to all of its requests (--out-dir, --store,
// --no-store, --jobs, --cell-timeout, --cell-retries; see
// service::parse_serve_args), and `afs_sweep cache` the two that locate
// the store.
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
//   --no-store        disable the store (on by default, <out-dir>/.store)
//   --help            usage
//
// Every numeric flag of every afs_sweep command (these, the daemon's, the
// store maintenance bounds and the client's) goes through parse_number:
// the whole token must be a number inside the flag's bounds, so a typo
// such as `--max-bytes=10MB` is an error, never 10 bytes.
//
// Lives in src/experiments because the experiment registry is its real
// consumer. See docs/SWEEP_SERVICE.md.
#pragma once

#include <charconv>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace afs::bench {

/// The options of one experiment run. Defaults reproduce the paper
/// configuration exactly; anything else is an explicit deviation.
struct BenchCli {
  std::vector<int> procs;                 ///< empty = the figure's own sweep
  std::string out_dir = "bench_results";  ///< CSV / trace destination
  bool trace = false;  ///< write one .cctrace per (scheduler, P) cell
                       ///< under <out_dir> (see trace_cell_path)
  bool time_phases = false;  ///< collect engine phase timers; write
                             ///< <out_dir>/<id>.phases.json
  bool no_batch = false;     ///< A/B: disable iteration batching
  int jobs = 1;                ///< sweep-runner worker threads
  bool resume = false;         ///< reload checkpointed cells
  double cell_timeout = 0.0;   ///< seconds per cell attempt; 0 = unlimited
  double sweep_timeout = 0.0;  ///< seconds for the whole sweep; 0 = unlimited
  int cell_retries = -1;       ///< re-attempts per cell; -1 = runner default
  std::string store_dir;       ///< store root; empty = <out_dir>/.store
  bool no_store = false;       ///< run without the store
};

/// The store root `run`, `serve` and `cache` agree on: --store=DIR, else
/// <out-dir>/.store.
inline std::string store_root(const BenchCli& cli) {
  return cli.store_dir.empty() ? cli.out_dir + "/.store" : cli.store_dir;
}

/// CSV path for a non-figure table under the chosen output directory.
inline std::string csv_path(const BenchCli& cli, const std::string& id) {
  return cli.out_dir + "/" + id + ".csv";
}

/// The one number parser of the command line. `tok` must be the whole
/// number (no sign other than '-', no blanks, no suffix), must not
/// overflow T, and must lie in [lo, hi]. Leaves `out` untouched on
/// failure.
template <typename T>
bool parse_number(std::string_view tok, std::type_identity_t<T> lo,
                  std::type_identity_t<T> hi, T& out) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  // `!(v >= lo)` rather than `v < lo`: NaN must fail too.
  if (tok.empty() || ec != std::errc{} || ptr != end || !(v >= lo) || v > hi)
    return false;
  out = v;
  return true;
}

/// parse_number on the value of `arg` = "<flag>=<value>". On failure sets
/// `error` to "bad <flag> value '<value>' (need ... in <bounds>)".
template <typename T>
bool parse_flag_value(std::string_view arg, std::string_view flag,
                      std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                      T& out, std::string& error) {
  const std::string_view tok = arg.substr(flag.size() + 1);  // past '='
  if (parse_number<T>(tok, lo, hi, out)) return true;
  std::ostringstream msg;
  msg << "bad " << flag << " value '" << tok << "' (need ";
  if constexpr (std::is_integral_v<T>)
    msg << "an integer in " << lo << ".." << hi << ")";
  else
    msg << "a number in [" << lo << ", " << hi << "])";
  error = msg.str();
  return false;
}

void print_usage(const char* argv0, std::ostream& out);

/// Parses `args` (the flags after `afs_sweep run`) into `cli`. Returns
/// false with `error` naming the offending flag and value on malformed
/// input; sets `want_help` (and returns true) when --help / -h is present.
/// Later flags override earlier ones.
bool parse_cli_args(const std::vector<std::string>& args, BenchCli& cli,
                    std::string& error, bool& want_help);

}  // namespace afs::bench
