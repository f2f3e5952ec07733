// ResultStore: the on-disk content-addressed cache of simulation cells.
// The properties pinned here are the ones the sweep service leans on — a
// hit is bit-identical to recomputing, anything malformed degrades to a
// miss (never a wrong result), an engine-version bump orphans exactly the
// old entries, and concurrent writers of the same key are safe.
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/gauss.hpp"
#include "machines/machines.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "store/cell_key.hpp"
#include "util/hash.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// A real (small) simulation so round-trip checks cover every SimResult
/// field a table might read, with genuinely non-round doubles.
SimResult simulate(int procs = 4) {
  MachineSim sim(iris());
  const auto program = GaussKernel::program(96);
  auto sched = make_scheduler("AFS");
  return sim.run(program, *sched, procs);
}

CellKey key_for(int procs = 4) {
  return make_cell_key(iris(), GaussKernel::program(96).key, "AFS", procs, {});
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.sync, b.sync);
  EXPECT_EQ(a.comm, b.comm);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.barrier, b.barrier);
  EXPECT_EQ(a.stall_time, b.stall_time);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.units_transferred, b.units_transferred);
  EXPECT_EQ(a.local_grabs, b.local_grabs);
  EXPECT_EQ(a.remote_grabs, b.remote_grabs);
  EXPECT_EQ(a.central_grabs, b.central_grabs);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.lost_processor_count, b.lost_processor_count);
  EXPECT_EQ(a.stolen_under_fault, b.stolen_under_fault);
  EXPECT_EQ(a.abandoned_iterations, b.abandoned_iterations);
  EXPECT_EQ(a.sched_stats.loops, b.sched_stats.loops);
  ASSERT_EQ(a.sched_stats.queues.size(), b.sched_stats.queues.size());
  for (std::size_t i = 0; i < a.sched_stats.queues.size(); ++i) {
    EXPECT_EQ(a.sched_stats.queues[i].local_grabs,
              b.sched_stats.queues[i].local_grabs);
    EXPECT_EQ(a.sched_stats.queues[i].remote_grabs,
              b.sched_stats.queues[i].remote_grabs);
    EXPECT_EQ(a.sched_stats.queues[i].iters_local,
              b.sched_stats.queues[i].iters_local);
    EXPECT_EQ(a.sched_stats.queues[i].iters_remote,
              b.sched_stats.queues[i].iters_remote);
  }
}

TEST(ResultStore, MissOnEmptyStoreThenHitAfterSave) {
  ResultStore store(fresh_dir("rs_basic"));
  const CellKey key = key_for();
  SimResult out;
  EXPECT_FALSE(store.load(key, out));
  EXPECT_EQ(store.misses(), 1);

  const SimResult r = simulate();
  store.save(key, r);
  EXPECT_EQ(store.writes(), 1);

  SimResult served;
  ASSERT_TRUE(store.load(key, served));
  EXPECT_EQ(store.hits(), 1);
  expect_identical(r, served);
}

TEST(ResultStore, HitIsBitIdenticalToRecomputing) {
  ResultStore store(fresh_dir("rs_identity"));
  const CellKey key = key_for();
  store.save(key, simulate());
  SimResult served;
  ASSERT_TRUE(store.load(key, served));
  // The simulator is deterministic, so recomputing is the ground truth.
  expect_identical(simulate(), served);
}

TEST(ResultStore, EngineVersionBumpOrphansOldEntries) {
  ResultStore store(fresh_dir("rs_engine"));
  const CellKey key = key_for();
  store.save(key, simulate());

  // Model a kEngineVersion bump: same inputs, different engine line ->
  // different text, different hash, different address. The old entry is
  // simply never consulted again.
  CellKey bumped = key;
  const std::size_t pos = bumped.text.find("engine ");
  ASSERT_NE(pos, std::string::npos);
  bumped.text.insert(bumped.text.find('\n', pos), "-next");
  bumped.hash = fnv1a64(bumped.text);
  EXPECT_NE(bumped.hash, key.hash);
  EXPECT_NE(store.entry_path(bumped), store.entry_path(key));

  SimResult out;
  EXPECT_FALSE(store.load(bumped, out));
  EXPECT_TRUE(store.load(key, out));  // the old engine's entry is intact
}

TEST(ResultStore, TruncatedEntryDegradesToMissAndIsRecomputable) {
  ResultStore store(fresh_dir("rs_trunc"));
  const CellKey key = key_for();
  const SimResult r = simulate();
  store.save(key, r);

  const std::string path = store.entry_path(key);
  fs::resize_file(path, fs::file_size(path) / 2);

  SimResult out;
  EXPECT_FALSE(store.load(key, out));  // short entry authenticates as a miss
  store.save(key, r);                  // the recompute overwrites in place
  ASSERT_TRUE(store.load(key, out));
  expect_identical(r, out);
}

TEST(ResultStore, CorruptedPayloadDegradesToMiss) {
  ResultStore store(fresh_dir("rs_corrupt"));
  const CellKey key = key_for();
  store.save(key, simulate());

  const std::string path = store.entry_path(key);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-8, std::ios::end);  // stomp inside the serialized payload
  f.write("garbage!", 8);
  f.close();

  SimResult out;
  EXPECT_FALSE(store.load(key, out));
}

TEST(ResultStore, KeyMismatchInEntryIsAMiss) {
  // A hash collision would file a different key's text at our address;
  // authentication must reject it rather than serve the wrong cell.
  ResultStore store(fresh_dir("rs_collide"));
  const CellKey key = key_for();
  store.save(key, simulate());

  CellKey other = key_for(5);  // a different cell...
  other.hash = key.hash;       // ...forced onto the same address
  SimResult out;
  EXPECT_FALSE(store.load(other, out));
}

TEST(ResultStore, UncacheableKeysBypassTheDisk) {
  const std::string root = fresh_dir("rs_uncache");
  ResultStore store(root);
  CellKey key = key_for();
  key.cacheable = false;
  store.save(key, simulate());
  SimResult out;
  EXPECT_FALSE(store.load(key, out));
  EXPECT_EQ(store.writes(), 0);
  EXPECT_EQ(store.scan().entries, 0);
}

TEST(ResultStore, ConcurrentWritersOfTheSameKeyAreSafe) {
  ResultStore store(fresh_dir("rs_race"));
  const CellKey key = key_for();
  const SimResult r = simulate();

  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i)
    writers.emplace_back([&store, &key, &r] {
      for (int j = 0; j < 25; ++j) store.save(key, r);
    });
  for (auto& t : writers) t.join();

  // Whichever write landed last, the entry is whole and authentic.
  SimResult served;
  ASSERT_TRUE(store.load(key, served));
  expect_identical(r, served);
  EXPECT_EQ(store.scan().entries, 1);

  // The atomic protocol leaves no temp litter behind.
  int stray = 0;
  for (const auto& e : fs::recursive_directory_iterator(store.root()))
    if (e.is_regular_file() && e.path().extension() != ".cell") ++stray;
  EXPECT_EQ(stray, 0);
}

TEST(ResultStore, HitRateCountsLookupsOnly) {
  ResultStore store(fresh_dir("rs_rate"));
  const CellKey key = key_for();
  SimResult out;
  EXPECT_EQ(store.hit_rate(), 0.0);
  store.load(key, out);  // miss
  store.save(key, simulate());
  store.load(key, out);  // hit
  store.load(key, out);  // hit
  EXPECT_EQ(store.hits(), 2);
  EXPECT_EQ(store.misses(), 1);
  EXPECT_NEAR(store.hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(ResultStore, ScanAndGcBySizeEvictLeastRecentlyUsed) {
  ResultStore store(fresh_dir("rs_gc"));
  const SimResult r = simulate();
  std::vector<CellKey> keys;
  for (int p = 1; p <= 4; ++p) {
    keys.push_back(key_for(p));
    store.save(keys.back(), r);
  }
  const StoreStats before = store.scan();
  EXPECT_EQ(before.entries, 4);
  EXPECT_GT(before.bytes, 0);

  // Make p=1's entry clearly the oldest, then touch it via a hit so the
  // LRU pass prefers the never-served entries.
  const auto old_time =
      fs::file_time_type::clock::now() - std::chrono::hours(48);
  for (const CellKey& k : keys) fs::last_write_time(store.entry_path(k), old_time);
  SimResult out;
  ASSERT_TRUE(store.load(keys[0], out));

  GcOptions opts;
  opts.max_bytes = before.bytes / 3;  // room for at most one entry
  const GcOutcome gc = store.gc(opts);
  EXPECT_EQ(gc.scanned, 4);
  EXPECT_GT(gc.evicted, 0);
  EXPECT_LE(gc.bytes_after, opts.max_bytes);
  ASSERT_TRUE(store.load(keys[0], out));  // the recently-used entry survived
}

TEST(ResultStore, CorruptEntryIsQuarantinedNotReparsedForever) {
  ResultStore store(fresh_dir("rs_quar"));
  const CellKey key = key_for();
  const SimResult r = simulate();
  store.save(key, r);

  std::fstream f(store.entry_path(key),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(0);
  f.write("not-the-schema", 14);
  f.close();

  SimResult out;
  EXPECT_FALSE(store.load(key, out));

  // The corrupt file was moved aside, not deleted and not left in place:
  // the address is free, the evidence is under quarantine/ with a .bad
  // suffix, and the store's counters agree with the disk.
  EXPECT_FALSE(fs::exists(store.entry_path(key)));
  EXPECT_EQ(store.quarantined(), 1);
  const StoreStats stats = store.scan();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.quarantined, 1);
  int bad_files = 0;
  for (const auto& e :
       fs::directory_iterator(fs::path(store.root()) / "quarantine")) {
    EXPECT_EQ(e.path().extension(), ".bad");
    ++bad_files;
  }
  EXPECT_EQ(bad_files, 1);

  // A second miss on the same key is a plain miss — no re-quarantine.
  EXPECT_FALSE(store.load(key, out));
  EXPECT_EQ(store.quarantined(), 1);

  // The address is immediately reusable and serves clean hits again.
  store.save(key, r);
  ASSERT_TRUE(store.load(key, out));
  expect_identical(r, out);
  EXPECT_EQ(store.scan().entries, 1);
}

TEST(ResultStore, RepeatedCorruptionYieldsDistinctQuarantineFiles) {
  ResultStore store(fresh_dir("rs_quar_multi"));
  const CellKey key = key_for();
  const SimResult r = simulate();
  for (int round = 0; round < 3; ++round) {
    store.save(key, r);
    fs::resize_file(store.entry_path(key), 10);
    SimResult out;
    EXPECT_FALSE(store.load(key, out));
  }
  EXPECT_EQ(store.quarantined(), 3);
  EXPECT_EQ(store.scan().quarantined, 3);  // unique names: nothing clobbered
}

TEST(ResultStore, QuarantineIsInvisibleToScanAndGc) {
  ResultStore store(fresh_dir("rs_quar_gc"));
  const CellKey key = key_for();
  store.save(key, simulate());
  fs::resize_file(store.entry_path(key), 3);
  SimResult out;
  EXPECT_FALSE(store.load(key, out));
  ASSERT_EQ(store.quarantined(), 1);

  // gc must neither count nor evict the quarantined evidence, even with
  // bounds that would evict any live entry.
  GcOptions opts;
  opts.max_age_days = 1e-9;
  opts.max_bytes = 0;
  const GcOutcome gc = store.gc(opts);
  EXPECT_EQ(gc.scanned, 0);
  EXPECT_EQ(gc.evicted, 0);
  EXPECT_EQ(store.scan().quarantined, 1);
}

TEST(ResultStore, CleanMissesNeverQuarantine) {
  ResultStore store(fresh_dir("rs_quar_none"));
  SimResult out;
  EXPECT_FALSE(store.load(key_for(), out));
  EXPECT_EQ(store.quarantined(), 0);
  EXPECT_FALSE(fs::exists(fs::path(store.root()) / "quarantine"));
  EXPECT_EQ(store.scan().quarantined, 0);
}

TEST(ResultStore, VerifyOnCleanStoreTouchesNothing) {
  ResultStore store(fresh_dir("rs_scrub_clean"));
  const SimResult r = simulate();
  for (int p = 1; p <= 3; ++p) store.save(key_for(p), r);

  const ScrubOutcome o = store.verify();
  EXPECT_EQ(o.scanned, 3);
  EXPECT_EQ(o.ok, 3);
  EXPECT_EQ(o.corrupt, 0);
  EXPECT_EQ(o.upgraded, 0);
  EXPECT_EQ(o.tmp_removed, 0);
  EXPECT_TRUE(o.clean());

  SimResult out;
  for (int p = 1; p <= 3; ++p) ASSERT_TRUE(store.load(key_for(p), out));
}

TEST(ResultStore, VerifyQuarantinesBitFlippedEntryOnly) {
  ResultStore store(fresh_dir("rs_scrub_flip"));
  const SimResult r = simulate();
  const CellKey victim = key_for(2);
  const CellKey bystander = key_for(3);
  store.save(victim, r);
  store.save(bystander, r);

  // Flip one bit inside the payload. The damaged digit still parses as a
  // number, so only the checksum can catch this.
  {
    std::fstream f(store.entry_path(victim),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-5, std::ios::end);
    char c = 0;
    f.get(c);
    f.seekp(-5, std::ios::end);
    f.put(static_cast<char>(c ^ 0x01));
  }

  const ScrubOutcome o = store.verify();
  EXPECT_EQ(o.scanned, 2);
  EXPECT_EQ(o.ok, 1);
  EXPECT_EQ(o.corrupt, 1);
  EXPECT_FALSE(o.clean());

  // The corrupt entry is under quarantine, its address free; the valid
  // neighbour is untouched and still serves a bit-identical hit.
  EXPECT_FALSE(fs::exists(store.entry_path(victim)));
  EXPECT_EQ(store.scan().quarantined, 1);
  SimResult out;
  EXPECT_FALSE(store.load(victim, out));
  ASSERT_TRUE(store.load(bystander, out));
  expect_identical(r, out);

  // A second scrub over the repaired store is clean.
  const ScrubOutcome again = store.verify();
  EXPECT_EQ(again.scanned, 1);
  EXPECT_EQ(again.corrupt, 0);
  EXPECT_TRUE(again.clean());
}

TEST(ResultStore, VerifyUpgradesV1EntriesInPlace) {
  ResultStore store(fresh_dir("rs_scrub_v1"));
  const CellKey key = key_for();
  const SimResult r = simulate();
  store.save(key, r);  // creates the shard directory for us

  // Rewrite the entry in the pre-checksum v1 layout: same body, no
  // crc32c line.
  const std::string payload = serialize_sim_result(r);
  {
    std::ofstream f(store.entry_path(key),
                    std::ios::binary | std::ios::trunc);
    f << "afs-store-v1\n"
      << "keybytes " << key.text.size() << "\n"
      << key.text << payload;
  }

  // v1 is still a hit even before the scrub (no flag day)...
  SimResult out;
  ASSERT_TRUE(store.load(key, out));
  expect_identical(r, out);

  // ...and verify() migrates it to a checksummed v2 entry in place.
  const ScrubOutcome o = store.verify();
  EXPECT_EQ(o.scanned, 1);
  EXPECT_EQ(o.ok, 1);
  EXPECT_EQ(o.upgraded, 1);
  EXPECT_TRUE(o.clean());

  std::ifstream f(store.entry_path(key), std::ios::binary);
  std::string schema;
  std::getline(f, schema);
  EXPECT_EQ(schema, "afs-store-v2");
  ASSERT_TRUE(store.load(key, out));
  expect_identical(r, out);
  EXPECT_EQ(store.verify().upgraded, 0);  // the migration is one-shot
}

TEST(ResultStore, VerifyQuarantinesCorruptV1Entry) {
  // The upgrade path must not launder damage: a v1 entry whose payload is
  // garbage gets quarantined, not rewritten as "valid" v2.
  ResultStore store(fresh_dir("rs_scrub_v1_bad"));
  const CellKey key = key_for();
  store.save(key, simulate());
  {
    std::ofstream f(store.entry_path(key),
                    std::ios::binary | std::ios::trunc);
    f << "afs-store-v1\n"
      << "keybytes " << key.text.size() << "\n"
      << key.text << "this is not a serialized SimResult";
  }
  const ScrubOutcome o = store.verify();
  EXPECT_EQ(o.corrupt, 1);
  EXPECT_EQ(o.upgraded, 0);
  EXPECT_FALSE(fs::exists(store.entry_path(key)));
}

TEST(ResultStore, VerifyRemovesStaleTempFilesKeepsFreshOnes) {
  ResultStore store(fresh_dir("rs_scrub_tmp"));
  const CellKey key = key_for();
  store.save(key, simulate());

  const fs::path dir = fs::path(store.entry_path(key)).parent_path();
  const fs::path stale = dir / "deadbeef.cell.tmp.1234.abcd";
  const fs::path fresh = dir / "deadbeef.cell.tmp.5678.ef01";
  std::ofstream(stale) << "orphaned write";
  std::ofstream(fresh) << "in-flight write";
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  const ScrubOutcome o = store.verify();
  EXPECT_EQ(o.tmp_removed, 1);
  EXPECT_FALSE(fs::exists(stale));  // orphan reclaimed
  EXPECT_TRUE(fs::exists(fresh));   // possible in-flight write left alone
  EXPECT_EQ(o.corrupt, 0);          // temp files are not "entries"
  EXPECT_EQ(o.scanned, 1);
}

TEST(ResultStore, VerifyClampsFutureMtimes) {
  // A restored backup or clock skew can date entries in the future, which
  // would make them immortal under LRU ("most recently used forever").
  ResultStore store(fresh_dir("rs_scrub_mtime"));
  const CellKey key = key_for();
  store.save(key, simulate());
  fs::last_write_time(store.entry_path(key),
                      fs::file_time_type::clock::now() +
                          std::chrono::hours(24 * 365));

  const ScrubOutcome o = store.verify();
  EXPECT_EQ(o.mtime_repaired, 1);
  EXPECT_TRUE(o.clean());
  EXPECT_LE(fs::last_write_time(store.entry_path(key)),
            fs::file_time_type::clock::now() + std::chrono::minutes(10));
  EXPECT_EQ(store.verify().mtime_repaired, 0);

  SimResult out;
  ASSERT_TRUE(store.load(key, out));
}

TEST(ResultStore, GcByAgeEvictsStaleEntries) {
  ResultStore store(fresh_dir("rs_age"));
  const SimResult r = simulate();
  const CellKey stale = key_for(2);
  const CellKey live = key_for(3);
  store.save(stale, r);
  store.save(live, r);
  fs::last_write_time(store.entry_path(stale),
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(24 * 10));

  GcOptions opts;
  opts.max_age_days = 7.0;
  const GcOutcome gc = store.gc(opts);
  EXPECT_EQ(gc.evicted, 1);
  SimResult out;
  EXPECT_FALSE(store.load(stale, out));
  EXPECT_TRUE(store.load(live, out));
}


/// Deterministic hostile-input loop over one saved entry (fixed-seed
/// xorshift, like the SweepRunner hostile-input test of parse_sim_result):
/// every truncation, then 3000 rounds of 1-3 byte flips or insertions.
/// Every load must return (no crash, no throw); `check_hit` judges each
/// mutant the store served. After each miss, a recompute-and-save must
/// serve the original result again. Returns {hits on mutants, misses}.
template <typename CheckHit>
std::pair<int, int> hostile_loads(ResultStore& store, const CellKey& key,
                                  const SimResult& r, const std::string& good,
                                  CheckHit check_hit) {
  const std::string path = store.entry_path(key);
  const std::string want = serialize_sim_result(r);
  int mutant_hits = 0;
  int misses = 0;
  const auto try_load = [&](const std::string& bytes) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << bytes;
    }
    SimResult out;
    if (store.load(key, out)) {
      if (bytes != good) ++mutant_hits;
      check_hit(bytes, out);
      return;
    }
    ++misses;
    store.save(key, r);  // the recompute after a miss
    SimResult again;
    ASSERT_TRUE(store.load(key, again));
    EXPECT_EQ(serialize_sim_result(again), want);
  };

  for (std::size_t cut = 0; cut < good.size(); ++cut)
    try_load(good.substr(0, cut));

  std::uint64_t state = 0x243f6a8885a308d3ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Half the inserted bytes come from the entry's own alphabet, so many
  // mutants stay well formed enough to reach the payload parser.
  const std::string alphabet = "0123456789abcdefxp+-. \nqn";
  for (int round = 0; round < 3000; ++round) {
    std::string input = good;
    const int edits = 1 + static_cast<int>(next() % 3);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = next() % (input.size() + 1);
      if (round % 2 == 0 && at < input.size())
        input[at] = static_cast<char>(next() % 256);  // byte flip
      else
        input.insert(at, 1,
                     next() % 2 ? alphabet[next() % alphabet.size()]
                                : static_cast<char>(next() % 256));
    }
    try_load(input);
  }
  return {mutant_hits, misses};
}

TEST(ResultStore, HostileV2EntriesMissOrHitOnUnchangedBytes) {
  ResultStore store(fresh_dir("rs_hostile_v2"));
  const CellKey key = key_for();
  const SimResult r = simulate();
  store.save(key, r);
  std::ifstream in(store.entry_path(key), std::ios::binary);
  const std::string good{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  in.close();
  ASSERT_EQ(good.rfind("afs-store-v2\n", 0), 0u);

  // The crc32c line covers every byte after it, so the only hits are
  // entries whose bytes are the saved ones (a flip that rewrote a byte
  // with its own value).
  const auto [mutant_hits, misses] = hostile_loads(
      store, key, r, good, [&](const std::string& bytes, const SimResult& out) {
        EXPECT_EQ(bytes, good) << "served a mutated v2 entry";
        expect_identical(r, out);
      });
  EXPECT_EQ(mutant_hits, 0);
  EXPECT_GT(misses, 3000);
}

TEST(ResultStore, HostileV1EntriesMissOrHitOnAuthenticatedKey) {
  // v1 entries (no checksum) are still served so that an old store keeps
  // working until `cache verify` upgrades it. Without a checksum, a flip
  // that turns one valid value into another cannot be told from a real
  // value; what must hold is that the key text authenticates (no foreign
  // or damaged key is ever served), the payload is exactly the
  // serializer's text for the served value, and nothing crashes.
  ResultStore store(fresh_dir("rs_hostile_v1"));
  const CellKey key = key_for();
  const SimResult r = simulate();
  const std::string head = "afs-store-v1\nkeybytes " +
                           std::to_string(key.text.size()) + "\n" + key.text;
  const std::string good = head + serialize_sim_result(r);

  const auto [mutant_hits, misses] = hostile_loads(
      store, key, r, good, [&](const std::string& bytes, const SimResult& out) {
        if (bytes.rfind("afs-store-v2\n", 0) == 0) {  // the recompute's save
          expect_identical(r, out);
          return;
        }
        ASSERT_EQ(bytes.rfind(head, 0), 0u) << "served with a damaged key";
        EXPECT_EQ(serialize_sim_result(out), bytes.substr(head.size()));
      });
  EXPECT_GT(misses, 3000);
  EXPECT_LT(mutant_hits, misses / 10);  // value-for-value flips only
}

}  // namespace
}  // namespace afs
