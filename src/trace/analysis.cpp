#include "trace/analysis.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/trace_reader.hpp"

namespace afs {
namespace {

// Affinity accounting materializes one int per iteration; cap it so a
// pathological trace with a multi-billion-iteration loop degrades to
// "no score" instead of exhausting memory.
constexpr std::int64_t kMaxAffinityN = std::int64_t{1} << 26;

// Far above any simulated machine (the largest model has 64 processors),
// and small enough that the P x P steal matrices stay a few megabytes.
constexpr int kMaxProcs = 1024;

std::int64_t matrix_sum(const std::vector<std::vector<std::int64_t>>& m) {
  std::int64_t total = 0;
  for (const auto& row : m)
    for (std::int64_t v : row) total += v;
  return total;
}

}  // namespace

std::int64_t TraceAnalysis::remote_steals() const {
  return matrix_sum(steal_iters);
}

std::int64_t TraceAnalysis::fault_steals() const {
  return matrix_sum(fault_steal_iters);
}

double TraceAnalysis::exec_imbalance() const {
  double sum = 0.0;
  double max = 0.0;
  for (const ProcBreakdown& pb : procs) {
    sum += pb.exec;
    max = std::max(max, pb.exec);
  }
  const double mean =
      procs.empty() ? 0.0 : sum / static_cast<double>(procs.size());
  return mean > 0.0 ? max / mean - 1.0 : 0.0;
}

namespace {

/// The one loop body behind both analyze_trace overloads: records are fed
/// one at a time, so a file streams through in constant memory (bar the
/// affinity owner maps) instead of being decoded into a vector first.
class TraceAnalyzer {
 public:
  void add(const TraceRecord& r) {
    if (r.ev == TraceEv::kRunBegin) {
      begin_run(r);
      return;
    }
    if (!in_run_)
      throw std::runtime_error("trace event " + std::string(to_string(r.ev)) +
                               " outside run_begin..run_end");
    ++run_.records;

    switch (r.ev) {
      case TraceEv::kLoopBegin: {
        if (r.n < 0)
          throw std::runtime_error("loop_begin with negative n " +
                                   std::to_string(r.n));
        ++run_.epochs;
        run_.total_iterations += r.n;
        prev_owner_.swap(cur_owner_);
        if (r.n > kMaxAffinityN) affinity_enabled_ = false;
        if (affinity_enabled_)
          cur_owner_.assign(static_cast<std::size_t>(r.n), -1);
        else
          cur_owner_.clear();
        break;
      }
      case TraceEv::kGrab: {
        ProcBreakdown& pb = proc_of(r.proc);
        pb.sync += r.t1 - r.t0;
        if (r.kind == GrabKind::kRemote && r.queue >= 0 &&
            r.queue < static_cast<int>(run_.procs.size()))
          run_.steal_iters[static_cast<std::size_t>(r.proc)]
                          [static_cast<std::size_t>(r.queue)] +=
              r.end - r.begin;
        break;
      }
      case TraceEv::kChunk: {
        ProcBreakdown& pb = proc_of(r.proc);
        pb.exec += r.t1 - r.t0;
        pb.iterations += r.end - r.begin;
        ++pb.chunks;
        run_.executed_iterations += r.end - r.begin;
        if (affinity_enabled_) {
          // Clamped in signed arithmetic: a corrupt chunk may have
          // end < 0 or end < begin, and must then score nothing.
          const std::int64_t lo = std::max<std::int64_t>(r.begin, 0);
          const std::int64_t hi = std::min<std::int64_t>(
              r.end, static_cast<std::int64_t>(cur_owner_.size()));
          for (auto i = static_cast<std::size_t>(lo);
               static_cast<std::int64_t>(i) < hi; ++i) {
            cur_owner_[i] = r.proc;
            if (i < prev_owner_.size() && prev_owner_[i] >= 0) {
              ++run_.scored_iterations;
              if (prev_owner_[i] == r.proc) ++run_.affine_iterations;
            }
          }
        }
        break;
      }
      case TraceEv::kMiss:
      case TraceEv::kInval:
        proc_of(r.proc).memory += r.t1 - r.t0;
        break;
      case TraceEv::kStall:
        proc_of(r.proc).stall += r.t1 - r.t0;
        break;
      case TraceEv::kFaultSteal:
        if (r.proc >= 0 && r.proc < static_cast<int>(run_.procs.size()) &&
            r.queue >= 0 && r.queue < static_cast<int>(run_.procs.size()))
          run_.fault_steal_iters[static_cast<std::size_t>(r.proc)]
                                [static_cast<std::size_t>(r.queue)] += r.n;
        break;
      case TraceEv::kAbandoned:
        run_.abandoned_iterations += r.n;
        break;
      case TraceEv::kRunEnd: {
        run_.makespan = r.t0;
        for (ProcBreakdown& pb : run_.procs)
          pb.idle =
              std::max(0.0, run_.makespan - pb.exec - pb.sync - pb.stall);
        in_run_ = false;
        out_.push_back(std::move(run_));
        run_ = TraceAnalysis{};
        break;
      }
      case TraceEv::kDone:
      case TraceEv::kLost:
      case TraceEv::kLoopEnd:
      case TraceEv::kBarrier:
        break;  // no aggregate beyond what the events above capture
      case TraceEv::kRunBegin:
        break;  // handled before the switch
    }
  }

  std::vector<TraceAnalysis> finish() {
    if (in_run_) throw std::runtime_error("trace ends without run_end");
    return std::move(out_);
  }

 private:
  void begin_run(const TraceRecord& r) {
    if (in_run_) throw std::runtime_error("run_begin inside an unfinished run");
    // The steal matrices are P x P: a corrupt processor count must not
    // turn into a multi-gigabyte allocation.
    if (r.p < 0 || r.p > kMaxProcs)
      throw std::runtime_error("run_begin with processor count " +
                               std::to_string(r.p));
    in_run_ = true;
    run_ = TraceAnalysis{};
    run_.machine = r.machine;
    run_.program = r.program;
    run_.scheduler = r.scheduler;
    run_.p = r.p;
    run_.procs.assign(static_cast<std::size_t>(r.p), ProcBreakdown{});
    run_.steal_iters.assign(run_.procs.size(),
                            std::vector<std::int64_t>(run_.procs.size(), 0));
    run_.fault_steal_iters = run_.steal_iters;
    prev_owner_.clear();
    cur_owner_.clear();
    affinity_enabled_ = true;
    ++run_.records;
  }

  ProcBreakdown& proc_of(int proc) {
    if (proc < 0 || proc >= static_cast<int>(run_.procs.size()))
      throw std::runtime_error("trace references processor " +
                               std::to_string(proc) + " of " +
                               std::to_string(run_.procs.size()));
    return run_.procs[static_cast<std::size_t>(proc)];
  }

  std::vector<TraceAnalysis> out_;
  bool in_run_ = false;
  TraceAnalysis run_;
  // Iteration -> executing processor, for the previous and current epoch.
  // -1 marks "not executed" (or affinity accounting disabled by the cap).
  std::vector<int> prev_owner_;
  std::vector<int> cur_owner_;
  bool affinity_enabled_ = true;
};

}  // namespace

std::vector<TraceAnalysis> analyze_trace(
    const std::vector<TraceRecord>& records) {
  TraceAnalyzer analyzer;
  for (const TraceRecord& r : records) analyzer.add(r);
  return analyzer.finish();
}

std::vector<TraceAnalysis> analyze_trace_file(const std::string& path) {
  TraceReader reader(path);
  TraceAnalyzer analyzer;
  TraceRecord r;
  while (reader.next(r)) analyzer.add(r);
  return analyzer.finish();
}

}  // namespace afs
