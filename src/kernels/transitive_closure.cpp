#include "kernels/transitive_closure.hpp"

#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace afs {
namespace {

// Warshall's inner loop over one row: IF (A(K,I)) A(J,I) = TRUE. Written
// as a branch-free select over contiguous rows so GCC vectorizes it; it
// stores exactly the bytes the conditional store did, for any byte values
// (a nonzero source byte writes 1, a zero one keeps the destination).
// Callers skip J == K, so the rows never alias.
void or_row_into(std::span<std::uint8_t> dst,
                 std::span<const std::uint8_t> src) {
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i] = src[i] != 0 ? 1 : dst[i];
}

// Epoch K of Warshall over rows [begin, end).
void close_rows(BoolMatrix& a, std::int64_t k, std::int64_t begin,
                std::int64_t end) {
  for (std::int64_t j = begin; j < end; ++j) {
    if (!a(j, k) || j == k) continue;
    or_row_into(a.row(j), std::as_const(a).row(k));
  }
}

}  // namespace

TransitiveClosureKernel::TransitiveClosureKernel(BoolMatrix graph)
    : n_(graph.rows()), a_(std::move(graph)) {
  AFS_CHECK(a_.rows() == a_.cols());
}

void TransitiveClosureKernel::run_serial() {
  for (std::int64_t k = 0; k < n_; ++k) close_rows(a_, k, 0, n_);
}

void TransitiveClosureKernel::run_parallel(ThreadPool& pool, Scheduler& sched) {
  for (std::int64_t k = 0; k < n_; ++k) {
    parallel_for(pool, sched, n_, [this, k](IterRange r, int) {
      close_rows(a_, k, r.begin, r.end);
    });
  }
}

std::int64_t TransitiveClosureKernel::reachable_pairs() const {
  std::int64_t c = 0;
  for (std::int64_t j = 0; j < n_; ++j)
    for (std::int64_t i = 0; i < n_; ++i)
      if (a_(j, i)) ++c;
  return c;
}

// Runs once per sandboxed cell: a worker rebuilds the FigureSpec per cell.
TransitiveClosureKernel::ActiveTrace TransitiveClosureKernel::active_trace(
    BoolMatrix graph) {
  const std::int64_t n = graph.rows();
  ActiveTrace active(static_cast<std::size_t>(n),
                     std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0));
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t j = 0; j < n; ++j)
      active[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] =
          graph(j, k);
    close_rows(graph, k, 0, n);
  }
  return active;
}

LoopProgram TransitiveClosureKernel::program(const BoolMatrix& graph,
                                             double work_per_element) {
  return program(graph,
                 std::make_shared<const ActiveTrace>(active_trace(graph)),
                 work_per_element);
}

LoopProgram TransitiveClosureKernel::program(
    const BoolMatrix& graph, std::shared_ptr<const ActiveTrace> trace,
    double work_per_element) {
  const std::int64_t n = graph.rows();
  AFS_CHECK(trace != nullptr && static_cast<std::int64_t>(trace->size()) == n);
  // A boolean row moves far fewer bytes than a double row: with 2-byte
  // logicals, n entries = n/4 transfer units (one unit = 8 bytes).
  const double row_units = static_cast<double>(n) / 4.0;

  LoopProgram p;
  p.name = "tc-" + std::to_string(n);
  // Identical dimensions with different edges are different programs, so
  // the key embeds a content hash of the adjacency matrix.
  p.key = "tc(n=" + std::to_string(n) + ",w=" + key_double(work_per_element) +
          ",graph=" +
          hex64(fnv1a64_bytes(
              graph.data(),
              static_cast<std::size_t>(graph.rows()) *
                  static_cast<std::size_t>(graph.cols()))) +
          ")";
  p.epochs = static_cast<int>(n);
  p.epoch_loops = [n, work_per_element, row_units, trace](int k) {
    ParallelLoopSpec spec;
    spec.n = n;
    spec.work = [n, work_per_element, trace, k](std::int64_t j) {
      return (*trace)[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]
                 ? static_cast<double>(n) * work_per_element
                 : 1.0;
    };
    spec.footprint = [row_units, trace, k](std::int64_t j,
                                           std::vector<BlockAccess>& out) {
      if (!(*trace)[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)])
        return;  // inactive iteration: the O(1) edge test touches nothing big
      out.push_back({static_cast<std::int64_t>(k), row_units, false});
      out.push_back({j, row_units, true});
    };
    return std::vector<ParallelLoopSpec>{spec};
  };
  return p;
}

}  // namespace afs
