// MemorySystem: the engine's memory-hierarchy model — per-processor caches,
// the global coherence directory, and the shared interconnect — behind one
// `access()` call.
//
// The component owns no notion of scheduling or events: it is handed a
// processor, a block access and the processor's current time, charges the
// modeled cost (miss latency, serialized bus/ring occupancy, write
// invalidations), narrates what happened into the metrics layer, and
// returns the new time. See docs/SIMULATOR.md ("Memory system") for the
// cost model.
//
// Exclusive-residency fast path: the steady state of an affinity-scheduled
// loop is an access that hits a block the processor already owns — the
// paper's whole argument is that re-executed chunks find their data
// resident. On that path the full MSI sequence degenerates to a no-op: a
// read hit touches no directory state at all, and a write hit on an
// exclusively-owned block rewrites its own sharer mask with the value it
// already holds. `access()` therefore answers both cases from the single
// residency probe (ProcCache::access_hit_state) and skips every further
// lookup; any miss, and any write to a block not known-exclusive, takes
// the full path. tests/sim/memory_oracle_test.cpp replays random access
// streams against a test-local copy of the pre-shortcut MSI sequence.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "machines/machine_config.hpp"
#include "sim/cache.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/perturbation.hpp"
#include "workload/loop_spec.hpp"

namespace afs {

class MemorySystem {
 public:
  /// Prepares for a fresh run on `p` processors of machine `config`: cold
  /// caches, empty directory, idle interconnect. The relevant config
  /// fields are captured so `access()` needs no config thereafter.
  /// `pert` (optional) injects per-miss latency spikes and contention-burst
  /// occupancy multipliers; it is consulted only when it actually affects
  /// memory, so the unperturbed miss path is untouched. A repeated reset
  /// clears the existing per-processor caches in place — line pools and
  /// hash tables keep their capacity — instead of reallocating them; the
  /// simulated state is cold either way (hash-table capacity carries no
  /// semantics — see cache.hpp's determinism note).
  void reset(const MachineConfig& config, int p,
             PerturbationModel* pert = nullptr);

  /// Charges one data access by `proc` at time `t`; returns the new time.
  /// Inline so the engine's per-iteration access loop pays no cross-TU
  /// call on the hit path.
  double access(int proc, const BlockAccess& a, double t, MetricsFanout& m) {
    ProcCache& cache = caches_[static_cast<std::size_t>(proc)];
    if (!cache.enabled()) return t;  // cache-less machine: cost in work
    const ProcCache::Hit h = cache.access_hit_state(a.block);
    if (h == ProcCache::Hit::kMiss) return miss_path(proc, a, t, m);
    m.on_hit(proc, a, t);
    if (!a.write || h == ProcCache::Hit::kExclusive) return t;
    return write_upgrade(proc, a, t, m, /*resident=*/true);
  }

  /// True when the machine models caches at all (capacity > 0). When
  /// false, `access()` is the identity: the cache-less machines fold
  /// memory cost into iteration work.
  bool modeled() const { return cache_capacity_ > 0.0; }

  /// True when misses serialize on a shared bus/ring timeline (false for
  /// a point-to-point switch). The engine's horizon-batched execution
  /// keys off this.
  bool serialized_link() const { return serialized_link_; }

  const ProcCache& cache(int proc) const {
    return caches_[static_cast<std::size_t>(proc)];
  }
  const Directory& directory() const { return directory_; }

 private:
  /// The miss path: moves the block over the interconnect, inserts it
  /// (evictions update the directory), and performs the write upgrade for
  /// write misses. Defined inline below — half of a big sweep's accesses
  /// miss, so the engine TU inlines the whole MSI sequence into its access
  /// loop rather than paying a cross-TU call per miss.
  double miss_path(int proc, const BlockAccess& a, double t, MetricsFanout& m);

  /// The write upgrade: makes `proc` the exclusive owner, invalidating
  /// and charging for remote copies. `resident` says whether the writing
  /// processor actually keeps a copy (false only for streamed blocks).
  /// Inline for the same reason as miss_path.
  double write_upgrade(int proc, const BlockAccess& a, double t,
                       MetricsFanout& m, bool resident);

  double cache_capacity_ = 0.0;
  double miss_latency_ = 0.0;
  double transfer_unit_time_ = 0.0;
  double invalidate_time_ = 0.0;
  bool serialized_link_ = true;  // bus/ring serialize; a switch does not

  Directory directory_;
  std::vector<ProcCache> caches_;
  ResourceTimeline shared_link_;
  PerturbationModel* pert_ = nullptr;  // non-null only when faults hit memory
};

inline double MemorySystem::miss_path(int proc, const BlockAccess& a, double t,
                                      MetricsFanout& m) {
  ProcCache& cache = caches_[static_cast<std::size_t>(proc)];
  // Miss: move the block over the interconnect.
  const double t0 = t;
  double occupancy = a.size * transfer_unit_time_;
  double latency = miss_latency_;
  if (pert_) {
    occupancy *= pert_->link_factor(t);
    latency += pert_->miss_spike(proc);
  }
  if (serialized_link_) {
    t = shared_link_.acquire(t, occupancy) + latency;
  } else {
    t += latency + occupancy;
  }
  m.on_miss(proc, a, t0, t);
  // A block larger than the cache streams through without becoming
  // resident; only register a sharer for copies that actually exist.
  const bool resident =
      cache.insert(a.block, a.size, [&](std::int64_t evicted) {
        directory_.remove_sharer(evicted, proc);
      });

  // Writes go straight to the upgrade: make_exclusive installs this
  // processor as the owner whether or not a directory entry existed, so
  // a preceding add_sharer would only be a redundant probe of the same
  // key.
  if (a.write) return write_upgrade(proc, a, t, m, resident);

  if (resident) {
    // Exclusivity hint maintenance (read miss): a lone sharer owns its
    // copy; if exactly one *other* processor shares the block, it may hold
    // the hint from when it was alone and just lost it (we are a second
    // sharer now). With two-plus other sharers nobody can hold the hint —
    // excl implies sole-sharer — so there is nothing to clear. No
    // simulated cost either way.
    const std::uint64_t sharers = directory_.add_sharer(a.block, proc);
    const std::uint64_t others = sharers & ~Directory::bit(proc);
    if (others == 0) {
      cache.set_exclusive_front(a.block);  // insert() just made it MRU
    } else if ((others & (others - 1)) == 0) {
      caches_[static_cast<std::size_t>(std::countr_zero(others))]
          .clear_exclusive(a.block);
    }
  }
  return t;
}

inline double MemorySystem::write_upgrade(int proc, const BlockAccess& a,
                                          double t, MetricsFanout& m,
                                          bool resident) {
  const std::uint64_t others = directory_.make_exclusive(a.block, proc);
  if (others != 0) {
    // Walk only the set sharer bits (ascending processor id, same order
    // the old full scan visited them in).
    int copies = 0;
    std::uint64_t rest = others;
    while (rest != 0) {
      const int q = std::countr_zero(rest);
      rest &= rest - 1;
      caches_[static_cast<std::size_t>(q)].invalidate(a.block);
      ++copies;
    }
    const double t0 = t;
    t += invalidate_time_;
    m.on_invalidate(proc, a.block, copies, t0, t);
  }
  if (resident) {
    // The block sits at the LRU head: every route here just touched it
    // (hit-path relink or miss-path insert), and the invalidation loop
    // above only visited *other* processors' caches.
    caches_[static_cast<std::size_t>(proc)].set_exclusive_front(a.block);
  } else {
    // A streamed (cache-bypassing) write leaves no copy; drop the
    // directory entry we just created if the cache did not keep it.
    directory_.remove_sharer(a.block, proc);
  }
  return t;
}

}  // namespace afs
