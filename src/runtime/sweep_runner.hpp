// Crash-safe parallel sweep runner.
//
// A figure/table sweep is a grid of independent *cells* — one simulation
// per (scheduler, P) — that the legacy harness ran serially in one
// process, where any crash or Ctrl-C lost everything and could leave a
// truncated CSV behind. run_sweep() executes the same cells on the
// in-repo ThreadPool with production-harness semantics:
//
//   * per-cell fault isolation — an exception inside one cell becomes a
//     structured CellFailure record; the rest of the sweep completes;
//   * deadline + retry — each cell gets a wall-clock timeout (enforced
//     cooperatively via CancelToken at simulation event boundaries) and
//     transient errors are retried with bounded exponential backoff whose
//     schedule is derived from a seed, so reruns behave identically;
//   * checkpoint/resume — each finished cell's SimResult is serialized to
//     a per-cell file under a manifest directory with the atomic
//     tmp+fsync+rename protocol; a killed sweep restarted with
//     SweepOptions::resume recomputes only the missing cells and merges
//     to a byte-identical result;
//   * graceful degradation — the caller still gets every completed cell
//     plus the failure list; only invariant breaks (CheckFailure) are
//     meant to fail a binary.
//
// Determinism: each cell builds a fresh simulator and scheduler, so its
// SimResult depends only on (machine, program, scheduler, P, seed) — not
// on which thread ran it or in what order. results are keyed maps, so the
// merged output of a serial run, a parallel run, and a resumed run are
// bit-identical. See docs/SWEEP_RUNNER.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/sim_result.hpp"
#include "util/cancel.hpp"

namespace afs {

class ThreadPool;

/// One independent unit of a sweep. `run` must be thread-safe against the
/// other cells' closures (each should build its own simulator/scheduler)
/// and should poll the token (SimOptions::cancel does this) so deadlines
/// can interrupt it.
struct SweepCellSpec {
  std::string label;  ///< scheduler label (first results key)
  int procs = 0;      ///< processor count (second results key)
  std::function<SimResult(const CancelToken&)> run;
};

/// Structured record of a cell that did not produce a result.
struct CellFailure {
  std::string label;
  int procs = 0;
  /// "timeout"   — the cell's own deadline fired;
  /// "cancelled" — the sweep-level token fired (deadline/abort) before or
  ///               during the cell, including queued cells never started;
  /// "invariant" — CheckFailure: a broken engine/scheduler contract;
  /// "poison"    — PoisonedCellError: the cell crashed its executor's
  ///               workers repeatedly and is blacklisted (never retried);
  /// "degraded"  — DegradedError: the executor is in cache-only mode
  ///               (worker restart budget exhausted; never retried);
  /// "error"     — any other exception, after retries were exhausted.
  std::string kind;
  std::string message;  ///< what() of the final attempt
  int attempts = 0;     ///< attempts actually made (0 = never started)
};

struct SweepOptions {
  int jobs = 1;              ///< worker threads; 1 = serial in-caller-thread
  double cell_timeout = 0.0;   ///< seconds of wall clock per attempt; 0 = off
  double sweep_timeout = 0.0;  ///< seconds for the whole sweep; 0 = off
  int max_retries = 2;         ///< re-attempts after the first try
  double backoff_base = 0.05;  ///< seconds; first retry delay scale
  double backoff_max = 2.0;    ///< seconds; backoff growth cap
  std::uint64_t retry_seed = 0xaf55eedULL;  ///< jitters the retry schedule
  std::string checkpoint_dir;  ///< empty = checkpointing off
  bool resume = false;         ///< load completed cells from checkpoint_dir
  /// Borrowed worker pool (not owned). When set, the sweep submits its
  /// cells here instead of constructing a private ThreadPool, so many
  /// sweeps in one process (the afs_sweep driver) share one set of worker
  /// threads. The pool must be idle when run_sweep is called; run_sweep
  /// drains it before returning and resets its cancel token. `jobs` still
  /// selects serial mode: with jobs == 1 the pool is ignored and cells run
  /// in the caller's thread in declaration order (the bit-identity
  /// reference ordering).
  ThreadPool* pool = nullptr;
  /// Optional parent cancellation token (not owned; must outlive the
  /// sweep). The sweep-level token is created as a child of it, so a
  /// caller-side abort — a service request deadline, a SIGINT in the
  /// batch driver — cancels queued cells exactly like a sweep timeout:
  /// running cells stop at the next event boundary, queued cells are
  /// discarded by the pool, completed cells keep their checkpoints.
  const CancelToken* cancel = nullptr;
  /// Test hook: replaces the real backoff sleep (argument in seconds).
  std::function<void(double)> sleep_fn;

  /// Throws CheckFailure naming the offending field on invalid values.
  void validate() const;
};

struct SweepOutcome {
  /// results[label][procs] — completed cells only.
  std::map<std::string, std::map<int, SimResult>> results;
  /// Failed cells, sorted by (label, procs) for deterministic reporting.
  std::vector<CellFailure> failures;
  int cells_total = 0;
  int cells_resumed = 0;  ///< loaded from checkpoints instead of computed

  bool complete() const { return failures.empty(); }
  /// True when any failure is an invariant break — the only class that
  /// should make a reproduction binary exit nonzero.
  bool invariant_break() const;
};

/// Runs the cells under `opts`. `sweep_id` names the sweep in logs, the
/// checkpoint manifest and the failure report. Per-cell progress/retry
/// lines go to `log` when non-null. Duplicate (label, procs) cells are a
/// CheckFailure.
SweepOutcome run_sweep(const std::string& sweep_id,
                       const std::vector<SweepCellSpec>& cells,
                       const SweepOptions& opts, std::ostream* log = nullptr);

/// The deterministic retry schedule: the delay (seconds) before retry
/// `attempt` (1-based: the delay after the attempt-th failed try) of cell
/// (label, procs). Exponential in `attempt` with seeded jitter in
/// [0.5, 1.5), clamped to opts.backoff_max. Pure — two calls with the same
/// arguments always agree, which is what makes reruns reproducible.
double retry_backoff(const SweepOptions& opts, const std::string& label,
                     int procs, int attempt);

/// Exact text serialization of a SimResult (hexfloat doubles, decimal
/// integers, trailing end marker). parse_sim_result round-trips it
/// bit-identically and accepts nothing else: it returns false on any
/// truncation, unknown schema, malformed field or text that differs from
/// what serialize_sim_result writes, which resume treats as "recompute
/// this cell".
std::string serialize_sim_result(const SimResult& r);
bool parse_sim_result(const std::string& text, SimResult& out);

/// Checkpoint path of cell (label, procs) under `dir`: a sanitized label
/// plus a label hash (labels may collide after sanitization) and the
/// processor count, ending in ".cell".
std::string cell_checkpoint_path(const std::string& dir,
                                 const std::string& label, int procs);

/// Machine-readable failure report (schema "afs-sweep-failures-v1"; see
/// docs/SWEEP_RUNNER.md). One JSON object with the sweep id, cell counts
/// and an array of failures sorted like SweepOutcome::failures.
std::string failure_report_json(const std::string& sweep_id,
                                const SweepOutcome& outcome);

}  // namespace afs
