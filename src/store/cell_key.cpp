#include "store/cell_key.hpp"

#include <sstream>

#include "sim/engine_version.hpp"
#include "util/hash.hpp"

namespace afs {
namespace {

constexpr const char* kKeySchema = "afs-store-key-v1";

const char* interconnect_name(Interconnect ic) {
  switch (ic) {
    case Interconnect::kBus: return "bus";
    case Interconnect::kSwitch: return "switch";
    case Interconnect::kRing: return "ring";
  }
  return "?";
}

}  // namespace

std::string machine_key(const MachineConfig& m) {
  std::ostringstream os;
  os << "machine name=" << m.name << " procs=" << m.max_processors
     << " ic=" << interconnect_name(m.interconnect)
     << " work=" << key_double(m.work_unit_time)
     << " cache=" << key_double(m.cache_capacity)
     << " miss=" << key_double(m.miss_latency)
     << " xfer=" << key_double(m.transfer_unit_time)
     << " lsync=" << key_double(m.local_sync_time)
     << " rsync=" << key_double(m.remote_sync_time)
     << " modfact=" << key_double(m.modfact_sync_multiplier)
     << " probe=" << key_double(m.probe_time)
     << " inval=" << key_double(m.invalidate_time)
     << " bar=" << key_double(m.barrier_base) << '+'
     << key_double(m.barrier_per_proc)
     << " jitter=" << key_double(m.epoch_jitter);
  return os.str();
}

std::string perturb_key(const PerturbationConfig& p) {
  std::ostringstream os;
  os << "perturb seed=" << p.seed << " delays=[";
  for (std::size_t k = 0; k < p.start_delays.size(); ++k)
    os << (k ? "," : "") << key_double(p.start_delays[k]);
  os << "] stall=" << key_double(p.stall_mean_interval) << '/'
     << key_double(p.stall_duration) << " losses=[";
  for (std::size_t k = 0; k < p.losses.size(); ++k)
    os << (k ? "," : "") << p.losses[k].proc << '@'
       << key_double(p.losses[k].time);
  os << "] spike=" << key_double(p.mem_spike_prob) << '/'
     << key_double(p.mem_spike_latency)
     << " burst=" << key_double(p.burst_mean_interval) << '/'
     << key_double(p.burst_duration) << '/'
     << key_double(p.burst_multiplier);
  return os.str();
}

CellKey make_cell_key(const MachineConfig& machine,
                      const std::string& program_key,
                      const std::string& scheduler_key, int procs,
                      const SimOptions& options) {
  CellKey key;
  key.cacheable = !program_key.empty() && !scheduler_key.empty() &&
                  options.trace == nullptr && !options.time_phases;

  // The batching toggle is part of the key even though it is proven
  // bit-identical: tab7's batching A/B invariant check must actually run
  // both engines, not be served the first one's result twice.
  std::ostringstream os;
  os << kKeySchema << '\n'
     << "engine " << kEngineVersion << '\n'
     << machine_key(machine) << '\n'
     << "program " << program_key << '\n'
     << "scheduler " << scheduler_key << '\n'
     << "procs " << procs << '\n'
     << "jitter_seed " << options.jitter_seed << '\n'
     << "batch " << (options.batch_iterations ? 1 : 0) << '\n'
     << perturb_key(options.perturb) << '\n';
  key.text = os.str();
  key.hash = fnv1a64(key.text);
  return key;
}

}  // namespace afs
