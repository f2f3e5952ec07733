// Simulated per-processor caches with a global coherence directory.
//
// Residency is tracked at block granularity (a matrix row, a vector
// slice). The protocol is a simplified write-invalidate MSI: a read miss
// fetches a copy; a write invalidates all other copies. This is exactly
// enough mechanism to produce the paper's affinity phenomena: rows stay
// resident where they were last used, neighbor reads miss only at chunk
// boundaries, and migrated iterations drag their rows across the
// interconnect.
//
// Representation (hot-path engineering, no semantic content): blocks are
// indexed with FlatMap64 (util/flat_map.hpp) and the LRU chain is an
// intrusive doubly-linked list over a slot pool with a free list —
// several residency/sharer probes happen per simulated access, and the
// straightforward unordered_map + std::list version spent ~25% of a big
// sweep's wall clock on hashing and node allocation. The slot pool is
// SoA-packed: the fields the steady-state residency probe reads (block
// tag, exclusivity hint, MRU successor) live in a 16-byte hot record so
// the MRU-2 probe in access_hit_state touches one cache line, while the
// relink/evict-only fields (LRU predecessor, block size) sit in a cold
// array the hit path never loads. Each line's exclusivity hint (excl ==
// true implies the directory lists this processor as the block's sole
// sharer) lets MemorySystem's exclusive-residency fast path answer "is
// this write a coherence no-op?" from the residency probe alone, without
// a directory lookup.
// Determinism note: no behavior may depend on hash-table or allocator
// order — eviction order comes from the LRU chain, and invalidation order
// from the processor-id loop in MemorySystem.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/flat_map.hpp"

namespace afs {

/// Global sharer directory: which processors hold a valid copy of each
/// block, as a 64-bit mask (the paper's largest machine has 64 processors).
class Directory {
 public:
  std::uint64_t sharers(std::int64_t block) const {
    const std::uint64_t* m = map_.find(block);
    return m == nullptr ? 0 : *m;
  }
  /// Registers `proc` as a sharer. Returns the resulting sharer mask so
  /// callers that need it (read-miss exclusivity maintenance) pay one map
  /// probe instead of a separate sharers() lookup.
  std::uint64_t add_sharer(std::int64_t block, int proc) {
    std::uint64_t& m = map_[block];
    m |= bit(proc);
    return m;
  }
  void remove_sharer(std::int64_t block, int proc) {
    std::uint64_t* m = map_.find(block);
    if (m == nullptr) return;
    *m &= ~bit(proc);
    if (*m == 0) map_.erase(block);
  }
  /// Makes `proc` the sole owner; returns the mask of *other* processors
  /// whose copies were invalidated.
  std::uint64_t make_exclusive(std::int64_t block, int proc) {
    std::uint64_t& m = map_[block];
    const std::uint64_t others = m & ~bit(proc);
    m = bit(proc);
    return others;
  }
  void clear() { map_.clear(); }

  static std::uint64_t bit(int proc) {
    AFS_DCHECK(proc >= 0 && proc < 64);
    return 1ULL << proc;
  }

 private:
  FlatMap64<std::uint64_t> map_;
};

/// One processor's cache: LRU over variable-size blocks, capacity in
/// transfer units. capacity <= 0 disables caching (every access misses) —
/// used for the cache-less Butterfly.
class ProcCache {
 public:
  ProcCache() = default;
  explicit ProcCache(double capacity) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0.0; }

  bool contains(std::int64_t block) const { return index_.contains(block); }

  /// Residency-probe outcome, with the coherence state the fast path needs.
  enum class Hit : std::uint8_t {
    kMiss,       ///< not resident
    kShared,     ///< resident; other processors may hold copies
    kExclusive,  ///< resident and this processor is the sole sharer
  };

  /// The engine's hit path: one probe — if resident, marks the block
  /// most-recently used and returns true.
  bool access_hit(std::int64_t block) {
    const std::int32_t* slot = index_.find(block);
    if (slot == nullptr) return false;
    move_to_front(*slot);
    return true;
  }

  /// Like access_hit (same single probe, same LRU relink) but also reports
  /// whether the resident line is exclusively owned, so a write hit on an
  /// exclusive line can skip the directory entirely. Before the index
  /// lookup it probes the two most-recently-used lines directly: loop
  /// kernels touch the same couple of blocks every iteration (pivot row +
  /// own row alternate at the front of the chain), and catching them there
  /// skips the hash probe while leaving the LRU state bit-identical. The
  /// SoA layout puts everything this probe reads — tag, hint, successor —
  /// in one 16-byte hot record per line.
  Hit access_hit_state(std::int64_t block) {
    if (head_ != kNil) {
      if (line_block(head_) == block)  // already MRU: move_to_front no-ops
        return line_excl(head_) ? Hit::kExclusive : Hit::kShared;
      const std::int32_t s2 = line_next(head_);
      if (s2 != kNil && line_block(s2) == block) {
        const bool excl = line_excl(s2);
        move_to_front(s2);
        return excl ? Hit::kExclusive : Hit::kShared;
      }
    }
    const std::int32_t* slot = index_.find(block);
    if (slot == nullptr) return Hit::kMiss;
    move_to_front(*slot);
    return line_excl(*slot) ? Hit::kExclusive : Hit::kShared;
  }

  /// Marks a resident block as exclusively owned. Caller's invariant: the
  /// directory lists this processor as the block's only sharer.
  /// Precondition: contains(block).
  void set_exclusive(std::int64_t block) {
    const std::int32_t* slot = index_.find(block);
    AFS_DCHECK(slot != nullptr);
    line_excl(*slot) = true;
  }

  /// Marks the most-recently-used line exclusive without an index lookup.
  /// Caller's invariant: the last probe or insert on this cache touched
  /// `block` (so it sits at the LRU head) and the directory lists this
  /// processor as the block's only sharer.
  void set_exclusive_front(std::int64_t block) {
    AFS_DCHECK(head_ != kNil && line_block(head_) == block);
    (void)block;
    line_excl(head_) = true;
  }

  /// Downgrades a resident block to shared (another processor gained a
  /// copy). No-op when the block is not resident here.
  void clear_exclusive(std::int64_t block) {
    const std::int32_t* slot = index_.find(block);
    if (slot != nullptr) line_excl(*slot) = false;
  }

  /// Test/debug view of the exclusivity hint; false when not resident.
  bool exclusive(std::int64_t block) const {
    const std::int32_t* slot = index_.find(block);
    return slot != nullptr && line_excl(*slot);
  }

  /// Marks the block most-recently used. Precondition: contains(block).
  void touch(std::int64_t block) {
    const bool hit = access_hit(block);
    AFS_DCHECK(hit);
    (void)hit;
  }

  /// Inserts a block, evicting LRU blocks as needed; each eviction is
  /// reported so the caller can update the directory. A block larger than
  /// the whole cache is "streamed": it can never fit, so it bypasses the
  /// cache entirely — resident blocks stay put — and is not kept.
  /// Returns whether the block became resident.
  template <typename OnEvict>
  bool insert(std::int64_t block, double size, OnEvict&& on_evict) {
    if (!enabled()) return false;
    AFS_DCHECK(!contains(block));
    if (size > capacity_) return false;  // streamed, never resident
    while (used_ + size > capacity_ && tail_ != kNil) {
      const std::int64_t victim = line_block(tail_);
      used_ -= line_size(tail_);
      on_evict(victim);
      index_.erase(victim);
      unlink_tail();
    }
    const std::int32_t slot = alloc_slot();
    line_block(slot) = block;
    line_size(slot) = size;
    line_excl(slot) = false;  // a fresh copy is shared until a write upgrades
    link_front(slot);
    index_[block] = slot;
    used_ += size;
    return true;
  }

  /// Drops the block if present (coherence invalidation).
  void invalidate(std::int64_t block) {
    const std::int32_t* slot = index_.find(block);
    if (slot == nullptr) return;
    const std::int32_t s = *slot;
    used_ -= line_size(s);
    unlink(s);
    free_.push_back(s);
    index_.erase(block);
  }

  /// Empties the cache in place: slot pool, free list and hash table keep
  /// their capacity (what MemorySystem's warm reset relies on), but no
  /// resident state survives — a cleared cache is indistinguishable from a
  /// freshly constructed one of the same capacity.
  void clear() {
    clear_slots();
    free_.clear();
    head_ = tail_ = kNil;
    index_.clear();
    used_ = 0.0;
  }

  double used() const { return used_; }
  double capacity() const { return capacity_; }
  std::size_t resident_blocks() const { return index_.size(); }

 private:
  static constexpr std::int32_t kNil = -1;

  /// SoA slot pool: the residency probe's working set (tag, MRU
  /// successor, exclusivity hint) packs into 16 bytes per line; the
  /// relink/evict-only fields live apart so the hit path never loads them.
  struct LineHot {
    std::int64_t block = 0;
    std::int32_t next = kNil;
    bool excl = false;  ///< directory lists this proc as the sole sharer
  };
  struct LineCold {
    double size = 0.0;
    std::int32_t prev = kNil;
  };
  static_assert(sizeof(LineHot) == 16, "hot line metadata must stay packed");

  std::int64_t& line_block(std::int32_t s) { return hot_[idx(s)].block; }
  std::int64_t line_block(std::int32_t s) const { return hot_[idx(s)].block; }
  double& line_size(std::int32_t s) { return cold_[idx(s)].size; }
  double line_size(std::int32_t s) const { return cold_[idx(s)].size; }
  std::int32_t& line_prev(std::int32_t s) { return cold_[idx(s)].prev; }
  std::int32_t line_prev(std::int32_t s) const { return cold_[idx(s)].prev; }
  std::int32_t& line_next(std::int32_t s) { return hot_[idx(s)].next; }
  std::int32_t line_next(std::int32_t s) const { return hot_[idx(s)].next; }
  bool& line_excl(std::int32_t s) { return hot_[idx(s)].excl; }
  bool line_excl(std::int32_t s) const { return hot_[idx(s)].excl; }

  std::size_t pool_size() const { return hot_.size(); }
  void grow_pool() {
    hot_.emplace_back();
    cold_.emplace_back();
  }
  void clear_slots() {
    hot_.clear();
    cold_.clear();
  }

  std::vector<LineHot> hot_;    // slot pool, probe-path fields
  std::vector<LineCold> cold_;  // slot pool, relink/evict-only fields

  static std::size_t idx(std::int32_t s) { return static_cast<std::size_t>(s); }

  std::int32_t alloc_slot() {
    if (!free_.empty()) {
      const std::int32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    grow_pool();
    return static_cast<std::int32_t>(pool_size() - 1);
  }

  void link_front(std::int32_t s) {
    line_prev(s) = kNil;
    line_next(s) = head_;
    if (head_ != kNil) line_prev(head_) = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
  }

  void unlink(std::int32_t s) {
    const std::int32_t prev = line_prev(s);
    const std::int32_t next = line_next(s);
    if (prev != kNil)
      line_next(prev) = next;
    else
      head_ = next;
    if (next != kNil)
      line_prev(next) = prev;
    else
      tail_ = prev;
  }

  void unlink_tail() {
    const std::int32_t s = tail_;
    unlink(s);
    free_.push_back(s);
  }

  void move_to_front(std::int32_t s) {
    if (s == head_) return;
    unlink(s);
    link_front(s);
  }

  double capacity_ = 0.0;
  double used_ = 0.0;
  std::int32_t head_ = kNil;  // most recently used
  std::int32_t tail_ = kNil;  // least recently used
  std::vector<std::int32_t> free_;
  FlatMap64<std::int32_t> index_;
};

}  // namespace afs
