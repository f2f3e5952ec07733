// MemorySystem's access path against a test-local oracle. The production
// access() answers a resident hit — and a write hit on an exclusively
// owned block — from one residency probe plus a per-line exclusivity
// hint (src/sim/memory_system.hpp). The oracle below is the plain MSI
// sequence that shortcut replaced: probe, then on a hit a full directory
// write upgrade for every write; on a miss the interconnect charge, the
// insert with directory eviction bookkeeping, the sharer registration and
// the write upgrade. It keeps no exclusivity hints at all.
//
// Seeded random access streams run through both, access by access, on a
// KSR-1-like ring and on a bus, at P in {1, 2, 8, 57}, across read/write
// mixes, with blocks larger than the cache and with memory spikes and
// contention bursts on and off. Every access must return the same time
// and leave the same hit, miss and invalidation counts; periodically the
// residency of every block in every cache and the directory's sharer
// masks must agree too, and every exclusivity hint must name a sole
// sharer.
#include "sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "machines/machines.hpp"
#include "sim/cache.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/perturbation.hpp"
#include "sim/sim_result.hpp"

namespace afs {
namespace {

/// The pre-shortcut MSI memory model: same state and costs as
/// MemorySystem, no residency fast path and no exclusivity hints.
class MsiOracle {
 public:
  void reset(const MachineConfig& config, int p, PerturbationModel* pert) {
    miss_latency_ = config.miss_latency;
    transfer_unit_time_ = config.transfer_unit_time;
    invalidate_time_ = config.invalidate_time;
    serialized_link_ = config.interconnect != Interconnect::kSwitch;
    pert_ = (pert && pert->affects_memory()) ? pert : nullptr;
    directory_.clear();
    caches_.assign(static_cast<std::size_t>(p),
                   ProcCache(config.cache_capacity));
    shared_link_.reset();
  }

  double access(int proc, const BlockAccess& a, double t, MetricsFanout& m) {
    ProcCache& cache = caches_[static_cast<std::size_t>(proc)];
    if (!cache.enabled()) return t;
    if (cache.access_hit(a.block)) {
      m.on_hit(proc, a, t);
      return a.write ? write_upgrade(proc, a, t, m, /*resident=*/true) : t;
    }
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
    const bool resident =
        cache.insert(a.block, a.size, [&](std::int64_t evicted) {
          directory_.remove_sharer(evicted, proc);
        });
    if (resident) directory_.add_sharer(a.block, proc);
    return a.write ? write_upgrade(proc, a, t, m, resident) : t;
  }

  const ProcCache& cache(int proc) const {
    return caches_[static_cast<std::size_t>(proc)];
  }
  const Directory& directory() const { return directory_; }

 private:
  double write_upgrade(int proc, const BlockAccess& a, double t,
                       MetricsFanout& m, bool resident) {
    const std::uint64_t others = directory_.make_exclusive(a.block, proc);
    int copies = 0;
    for (std::size_t q = 0; q < caches_.size(); ++q) {
      if ((others & Directory::bit(static_cast<int>(q))) == 0) continue;
      caches_[q].invalidate(a.block);
      ++copies;
    }
    if (copies > 0) {
      const double t0 = t;
      t += invalidate_time_;
      m.on_invalidate(proc, a.block, copies, t0, t);
    }
    if (!resident) directory_.remove_sharer(a.block, proc);
    return t;
  }

  double miss_latency_ = 0.0;
  double transfer_unit_time_ = 0.0;
  double invalidate_time_ = 0.0;
  bool serialized_link_ = true;
  Directory directory_;
  std::vector<ProcCache> caches_;
  ResourceTimeline shared_link_;
  PerturbationModel* pert_ = nullptr;
};

constexpr double kCacheUnits = 64.0;

/// KSR-1 costs on its ring, with a cache small enough that the streams
/// below evict constantly.
MachineConfig small_ksr1() {
  MachineConfig m = ksr1();
  m.cache_capacity = kCacheUnits;
  return m;
}

/// Symmetry costs on its bus, widened to the KSR-1's processor count.
MachineConfig wide_bus() {
  MachineConfig m = symmetry();
  m.max_processors = 64;
  m.cache_capacity = kCacheUnits;
  return m;
}

PerturbationConfig memory_faults() {
  PerturbationConfig pc;
  pc.seed = 0x5eed;
  pc.mem_spike_prob = 0.2;
  pc.mem_spike_latency = 75.0;
  pc.burst_mean_interval = 2000.0;
  pc.burst_duration = 600.0;
  pc.burst_multiplier = 3.0;
  return pc;
}

struct Stream {
  std::uint32_t seed;
  int accesses;
  double write_share;
};

/// Blocks 0..kShared-1 are contended by every processor; each processor
/// also owns kPrivate blocks of its own, so exclusive hits are common.
constexpr std::int64_t kShared = 24;
constexpr std::int64_t kPrivate = 8;

std::int64_t private_block(int proc, std::int64_t i) {
  return kShared + static_cast<std::int64_t>(proc) * kPrivate + i;
}

/// One block's size, stable across the stream (a block's size is a
/// property of the data it names). Every 13th block is larger than the
/// whole cache, so it streams through without becoming resident.
double block_size(std::int64_t block) {
  if (block % 13 == 5) return kCacheUnits + 8.0;
  return 1.0 + static_cast<double>(block % 4) * 3.0;
}

void expect_same_state(const MemorySystem& mem, const MsiOracle& oracle,
                       int p, const std::string& label) {
  const std::int64_t blocks = private_block(p, 0);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::uint64_t sharers = mem.directory().sharers(b);
    ASSERT_EQ(sharers, oracle.directory().sharers(b))
        << label << " block " << b;
    for (int q = 0; q < p; ++q) {
      ASSERT_EQ(mem.cache(q).contains(b), oracle.cache(q).contains(b))
          << label << " block " << b << " proc " << q;
      if (mem.cache(q).exclusive(b)) {
        ASSERT_EQ(sharers, Directory::bit(q))
            << label << ": exclusivity hint on a shared block " << b
            << " in proc " << q;
      }
    }
  }
}

/// Replays `s` through MemorySystem and the oracle in lockstep.
void replay(const MachineConfig& machine, int p, const Stream& s,
            const PerturbationConfig* faults) {
  const std::string label = machine.name + "/P=" + std::to_string(p) +
                            "/w=" + std::to_string(s.write_share) +
                            (faults ? "/faults" : "");
  PerturbationModel pert_mem;
  PerturbationModel pert_oracle;
  const PerturbationConfig none;
  pert_mem.reset(faults ? *faults : none, p);
  pert_oracle.reset(faults ? *faults : none, p);

  MemorySystem mem;
  mem.reset(machine, p, &pert_mem);
  MsiOracle oracle;
  oracle.reset(machine, p, &pert_oracle);
  SimResult got;
  SimResult want;
  MetricsFanout m_got(got, nullptr);
  MetricsFanout m_want(want, nullptr);

  std::mt19937 rng(s.seed);
  std::uniform_int_distribution<int> pick_proc(0, p - 1);
  std::uniform_int_distribution<std::int64_t> pick_shared(0, kShared - 1);
  std::uniform_int_distribution<std::int64_t> pick_private(0, kPrivate - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> clock(static_cast<std::size_t>(p), 0.0);
  // The last two blocks each processor touched: loop kernels re-touch
  // them constantly, which is the MRU-2 probe's steady state.
  std::vector<std::int64_t> recent(static_cast<std::size_t>(2 * p), 0);

  for (int i = 0; i < s.accesses; ++i) {
    const int proc = pick_proc(rng);
    const std::size_t pi = static_cast<std::size_t>(proc);
    const double r = unit(rng);
    std::int64_t block;
    if (r < 0.4) {
      block = recent[2 * pi + (i % 2)];
    } else if (r < 0.7) {
      block = private_block(proc, pick_private(rng));
    } else {
      block = pick_shared(rng);
    }
    recent[2 * pi + 1] = recent[2 * pi];
    recent[2 * pi] = block;
    const BlockAccess a{block, block_size(block), unit(rng) < s.write_share};

    const double t = clock[pi];
    const double t_got = mem.access(proc, a, t, m_got);
    const double t_want = oracle.access(proc, a, t, m_want);
    ASSERT_EQ(t_got, t_want) << label << " access " << i;
    ASSERT_EQ(got.hits, want.hits) << label << " access " << i;
    ASSERT_EQ(got.misses, want.misses) << label << " access " << i;
    ASSERT_EQ(got.invalidations, want.invalidations)
        << label << " access " << i;
    clock[pi] = t_got + 20.0 * unit(rng);

    if (i % 997 == 0) expect_same_state(mem, oracle, p, label);
  }
  expect_same_state(mem, oracle, p, label);
  EXPECT_EQ(got.units_transferred, want.units_transferred) << label;
  // The stream must exercise every path it claims to compare.
  EXPECT_GT(got.hits, 0) << label;
  EXPECT_GT(got.misses, 0) << label;
  if (s.write_share > 0.0 && p > 1) {
    EXPECT_GT(got.invalidations, 0) << label;
  }
}

class MemoryOracleByProcs : public ::testing::TestWithParam<int> {};

TEST_P(MemoryOracleByProcs, KsrRingMatchesMsiSequence) {
  const int p = GetParam();
  for (const Stream& s : {Stream{0xA11u, 6000, 0.0}, Stream{0xA12u, 6000, 0.3},
                          Stream{0xA13u, 6000, 0.7}}) {
    replay(small_ksr1(), p, s, nullptr);
    const PerturbationConfig faults = memory_faults();
    replay(small_ksr1(), p, s, &faults);
  }
}

TEST_P(MemoryOracleByProcs, BusMatchesMsiSequence) {
  const int p = GetParam();
  for (const Stream& s : {Stream{0xB11u, 6000, 0.0}, Stream{0xB12u, 6000, 0.3},
                          Stream{0xB13u, 6000, 0.7}}) {
    replay(wide_bus(), p, s, nullptr);
    const PerturbationConfig faults = memory_faults();
    replay(wide_bus(), p, s, &faults);
  }
}

std::string procs_name(const ::testing::TestParamInfo<int>& param) {
  return "P" + std::to_string(param.param);
}

INSTANTIATE_TEST_SUITE_P(Procs, MemoryOracleByProcs,
                         ::testing::Values(1, 2, 8, 57), procs_name);

TEST(MemoryOracle, FullSizeKsr1CacheNeverEvicts) {
  // The real KSR-1 cache (4M units) holds every block: the steady state
  // of fig15, where nearly every access is a hit the fast path answers.
  const PerturbationConfig faults = memory_faults();
  for (int p : {2, 57}) {
    replay(ksr1(), p, Stream{0xC0u, 8000, 0.3}, nullptr);
    replay(ksr1(), p, Stream{0xC1u, 8000, 0.3}, &faults);
  }
}

}  // namespace
}  // namespace afs
