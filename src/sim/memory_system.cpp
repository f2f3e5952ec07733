#include "sim/memory_system.hpp"

namespace afs {

void MemorySystem::reset(const MachineConfig& config, int p,
                         PerturbationModel* pert) {
  cache_capacity_ = config.cache_capacity;
  miss_latency_ = config.miss_latency;
  transfer_unit_time_ = config.transfer_unit_time;
  invalidate_time_ = config.invalidate_time;
  serialized_link_ = config.interconnect != Interconnect::kSwitch;
  pert_ = (pert && pert->affects_memory()) ? pert : nullptr;

  directory_.clear();
  const std::size_t n = static_cast<std::size_t>(p);
  if (!caches_.empty() && caches_[0].capacity() == cache_capacity_) {
    // A repeated run: keep the warmed line pools and hash tables (every
    // cache shares one capacity, so checking the first suffices). Shrink
    // or grow the per-processor vector to this run's P — surviving caches
    // clear in place, new ones start from scratch like a cold reset.
    if (caches_.size() > n) caches_.resize(n);
    for (ProcCache& c : caches_) c.clear();
    while (caches_.size() < n) caches_.emplace_back(cache_capacity_);
  } else {
    caches_.assign(n, ProcCache(cache_capacity_));
  }
  shared_link_.reset();
}

}  // namespace afs
