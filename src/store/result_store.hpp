// Content-addressed, on-disk store of simulation results.
//
// The experiment grid — (kernel, machine, scheduler, P, perturbation,
// seed) — is enormous but each cell is a pure function of its CellKey, so
// a cell simulated once never needs to be simulated again: the store maps
// key hash -> serialized SimResult, shared by every driver run against the
// same root directory.
//
// Layout:   <root>/<hh>/<16-hex-hash>.cell   (hh = first hash byte, so a
// million entries spread over 256 directories instead of one).
//
// Entry format (text, schema afs-store-v2):
//     afs-store-v2
//     crc32c <8 hex digits>          (checksum of everything below it)
//     keybytes <N>
//     <N bytes: the full CellKey::text>
//     <serialize_sim_result() output, schema afs-cell-v1>
//
// Any other first line — including the pre-checksum afs-store-v1 schema,
// whose entries carried no crc32c line — is unreadable: load() misses and
// quarantines the file, as it does any corrupt entry.
//
// Trust model: the hash only locates the entry; the embedded key text is
// what authenticates it, and the CRC32C line detects payload corruption
// (a flipped bit in a stored number still parses — only the checksum
// catches it). load() re-reads the full key and re-checks the crc, so a
// hash collision, a truncated write the atomic protocol somehow missed,
// bit rot, or hand-edited garbage all degrade to a miss — the cell is
// recomputed and the entry overwritten. The store can make a run slower,
// never wrong.
//
// Concurrency: load and save are safe from many threads and many
// processes. Writes go through a per-writer unique temp file plus the
// atomic rename protocol (util/atomic_file), so concurrent writers of the
// same key publish whole entries in some order; since the content is a
// deterministic function of the key, whichever write lands last is
// byte-identical to the others.
//
// Invalidation is implicit: any change to an input changes the key text
// and therefore the address — bumping kEngineVersion orphans exactly the
// entries computed by the old engine. Orphans are reclaimed by gc()
// (age- or size-bounded LRU on entry mtime; load() touches mtime on hit),
// which bounds the quarantine too.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/sim_result.hpp"
#include "store/cell_key.hpp"

namespace afs {

struct StoreStats {
  std::int64_t entries = 0;
  std::int64_t bytes = 0;
  /// Files under <root>/quarantine/ — corrupt entries moved aside by
  /// load() for post-mortems instead of being re-parsed (and re-failed)
  /// on every lookup.
  std::int64_t quarantined = 0;
  std::int64_t quarantine_bytes = 0;
};

/// gc() bounds the whole store: its entries and the quarantined files,
/// which serve no lookup but still hold disk.
struct GcOptions {
  /// Evict entries and quarantined files whose mtime is older than this
  /// many days. 0 = no age bound.
  double max_age_days = 0.0;
  /// After the age pass, evict quarantined files (oldest first), then
  /// least-recently-used entries, until the store holds at most this many
  /// bytes. Negative = no size bound.
  std::int64_t max_bytes = -1;
};

struct GcOutcome {
  std::int64_t scanned = 0;  ///< entries and quarantined files examined
  std::int64_t evicted = 0;  ///< of those, removed
  std::int64_t quarantine_evicted = 0;  ///< of `evicted`, quarantined files
  std::int64_t bytes_before = 0;        ///< entries plus quarantine
  std::int64_t bytes_after = 0;
};

/// What a verify() scrub found and did. `corrupt` entries were moved to
/// <root>/quarantine/; everything else was left valid on disk.
struct ScrubOutcome {
  std::int64_t scanned = 0;         ///< entries examined
  std::int64_t ok = 0;              ///< entries that verified clean
  std::int64_t corrupt = 0;         ///< quarantined (bad crc/key/payload)
  std::int64_t tmp_removed = 0;     ///< orphaned temp files deleted
  std::int64_t mtime_repaired = 0;  ///< future-dated mtimes clamped to now

  bool clean() const { return corrupt == 0; }
};

class ResultStore {
 public:
  /// Opens (and lazily creates) the store rooted at `root`.
  explicit ResultStore(std::string root);

  const std::string& root() const { return root_; }

  /// True and fills `out` when a valid entry for `key` exists. Counts a
  /// hit or a miss; refreshes the entry's mtime on a hit (LRU signal).
  /// Uncacheable keys count as misses without touching the disk.
  ///
  /// An entry that exists but fails to authenticate or parse (torn bytes,
  /// hand-edited garbage, a hash collision's foreign key) is *quarantined*:
  /// moved to <root>/quarantine/ under a unique name (tmp-style suffix +
  /// rename, so concurrent quarantines of the same entry never collide)
  /// and counted. The lookup degrades to a miss either way — quarantine
  /// just preserves the evidence and stops the corrupt file from being
  /// re-parsed on every lookup.
  bool load(const CellKey& key, SimResult& out);

  /// Publishes `r` under `key` (atomic rename; overwrites any previous
  /// entry). No-op for uncacheable keys.
  void save(const CellKey& key, const SimResult& r);

  /// Absolute path the entry for `key` lives at.
  std::string entry_path(const CellKey& key) const;

  // Process-lifetime lookup counters (thread-safe).
  std::int64_t hits() const { return hits_.load(); }
  std::int64_t misses() const { return misses_.load(); }
  std::int64_t writes() const { return writes_.load(); }
  /// Corrupt entries moved to <root>/quarantine/ by this process.
  std::int64_t quarantined() const { return quarantined_.load(); }
  /// hits / (hits + misses); 0 when no lookups were made.
  double hit_rate() const;

  /// Walks the store: entries and quarantined files, counts and bytes.
  StoreStats scan() const;

  /// Evicts by age, then by LRU size bound. See GcOptions.
  GcOutcome gc(const GcOptions& opts) const;

  /// Scrubs the whole store (`afs_sweep cache verify`): every entry is
  /// read and checked — schema, crc, filename-vs-embedded-key address, and
  /// payload parse — with corrupt entries quarantined exactly as load()
  /// would have done on first touch. LRU metadata is
  /// repaired on the way: orphaned `.tmp.` files older than a minute are
  /// removed, and entries whose mtime lies in the future (clock skew,
  /// restored backups) are clamped to now so gc()'s age/LRU ordering
  /// stays meaningful. Safe to run concurrently with readers; run it
  /// while writers are quiescent (an in-flight write's temp file younger
  /// than the grace period is left alone).
  ScrubOutcome verify();

 private:
  /// Moves the corrupt entry at `path` into <root>/quarantine/ (or, if the
  /// quarantine directory cannot be created, removes it) and counts it.
  void quarantine_entry(const std::string& path);

  std::string root_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> writes_{0};
  std::atomic<std::int64_t> quarantined_{0};
};

}  // namespace afs
