// Per-layer measurements that need a controlled input rather than a whole
// workload: the memory-system replay, the trace sink's cost per event,
// SimResult serialize/parse, protocol framing, experiment spec
// construction and the sandbox worker's IPC round trip.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/figure.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// One MemorySystem::access as the engine made it.
struct AccessRecord {
  afs::BlockAccess access;
  double t = 0.0;
  int proc = 0;
};

/// Observer sink recording every access in the engine's order. Each access
/// reports exactly one on_hit or on_miss, so the records replay the run's
/// access stream.
class AccessRecorder final : public afs::MetricsSink {
 public:
  void on_hit(int proc, const afs::BlockAccess& a, double t) override {
    records.push_back({a, t, proc});
  }
  void on_miss(int proc, const afs::BlockAccess& a, double t0,
               double) override {
    records.push_back({a, t0, proc});
  }
  std::vector<AccessRecord> records;
};

struct ReplayResult {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  double hit_ns = 0.0;   ///< summed over hits, clock cost subtracted
  double miss_ns = 0.0;  ///< summed over misses, clock cost subtracted
};

/// Feeds `records` through a cold MemorySystem sized for `p` processors of
/// `machine`, timing each access and classifying it by its replayed
/// outcome.
ReplayResult replay_accesses(const afs::MachineConfig& machine, int p,
                             const std::vector<AccessRecord>& records);

/// A registered figure's cell, built from the experiment's make_spec().
struct SampleCell {
  afs::FigureSpec spec;
  std::size_t entry = 0;  ///< index into spec.schedulers
  int procs = 0;
};
SampleCell sample_cell(const std::string& experiment, const std::string& label,
                       int procs);

/// Runs a cell on a fresh simulator with an optional observer attached.
afs::SimResult run_cell(const SampleCell& cell, afs::MetricsSink* sink);

/// Everything `perfbench_trace micro` reports, as one JSON object.
/// worker_exe is the binary the IPC probe's sandbox worker runs.
std::string micro_metrics_json(const std::string& script_path,
                               const std::string& worker_exe);

}  // namespace perfbench
