// Abstract out-of-process execution of sweep cells.
//
// The sweep runner's default mode executes a cell's closure in-process:
// fast, but a segfault or abort() inside the engine takes down the whole
// daemon and every in-flight request with it. A CellExecutor is the seam
// that lets the service layer substitute a supervised worker subprocess
// (service/worker.hpp) without the runtime layer depending on the service
// layer: the experiment harness calls `execute()` for any cell it can
// describe declaratively, and the implementation decides where the
// simulation actually runs.
//
// Cells are closures and closures do not serialize, so an executor does
// not ship code — it ships a *recipe* (CellExecSpec): either the id of a
// registered experiment or the grid spec strings the `afs_sweep run
// --kernel=...` grammar already parses. The worker rebuilds the same
// FigureSpec from the recipe, finds the scheduler by label, and runs the
// one (scheduler, P) cell. Determinism makes this sound: a cell's result
// is a pure function of (machine, program, scheduler, P, options), so the
// subprocess result is bit-identical to the in-process one.
//
// Failure taxonomy (what the sweep runner maps each exception to):
//   std::runtime_error  — worker crashed or misbehaved; transient,
//                         retried under the runner's backoff schedule;
//   PoisonedCellError   — the cell crashed workers `poison_strikes` times
//                         and is blacklisted for the executor's lifetime;
//                         CellFailure kind "poison", never retried;
//   DegradedError       — the executor's restart budget is exhausted and
//                         no worker is available; CellFailure kind
//                         "degraded", never retried (store hits are still
//                         served upstream — degraded mode is cache-only);
//   CancelledError      — the cell's deadline or the request's token
//                         fired; the worker was killed; classified as
//                         timeout/cancelled exactly like in-process runs;
//   CheckFailure        — the worker reported a broken engine invariant
//                         (deterministic; not retried).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sim_result.hpp"
#include "util/cancel.hpp"

namespace afs {

/// Declarative recipe a worker subprocess rebuilds a cell from. Exactly
/// one of the two shapes is populated:
///   * `experiment` — id of a registered experiment whose FigureSpec the
///     registry can rebuild (figures; never bespoke tables);
///   * the grid fields — the same spec strings `afs_sweep run --kernel=`
///     parses, for ad-hoc grids that exist in no registry.
struct CellExecSpec {
  std::string experiment;  ///< registered experiment id; empty for grids
  std::string kernel;      ///< parse_kernel_spec grammar
  std::string machine;     ///< parse_machine_spec grammar
  std::string schedulers;  ///< comma-separated make_scheduler specs
  std::string perturb;     ///< parse_perturb_spec grammar; empty = none
  std::vector<int> procs;  ///< the grid's processor sweep

  bool valid() const { return !experiment.empty() || !kernel.empty(); }
};

/// The engine toggle a cell run carries besides its recipe — the only
/// SimOptions field a CLI can change that the recipe does not already
/// encode. Proven bit-identical on/off; it exists so tab7's batching
/// check and `--no-batch` A/B sweeps (and the store keys derived from
/// them) actually exercise both engines.
struct EngineToggles {
  bool batch_iterations = true;  ///< iteration-batching fast path
};

/// The cell is blacklisted: it crashed workers `poison_strikes` times.
/// Deterministic for the executor's lifetime — never retried.
class PoisonedCellError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The executor is in degraded (cache-only) mode: its worker restart
/// budget is exhausted. Misses are rejected until the budget refills.
class DegradedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CellExecutor {
 public:
  virtual ~CellExecutor() = default;

  /// Executes one (label, procs) cell of the sweep `spec` describes.
  /// `toggles` carries the caller's engine A/B switch. Blocks until the
  /// result is available; polls `token` and kills the worker when it
  /// fires. Throws per the taxonomy in the header comment.
  virtual SimResult execute(const CellExecSpec& spec, const std::string& label,
                            int procs, const EngineToggles& toggles,
                            const CancelToken& token) = 0;
};

}  // namespace afs
