// EventCore: the deterministic heart of the simulation engine — the
// pending (time, processor) events plus the per-processor completion
// clocks of the loop in flight.
//
// Determinism contract: events are totally ordered by (time, processor-id),
// so a given event population always drains in the same order regardless
// of insertion order. Every layered component above this one (memory
// system, sync model, metrics) relies on that total order.
//
// Representation: a calendar ring. The events live fully sorted in a
// circular buffer — the head slot is the rolling "now" bucket, later slots
// hold later times. The engine's steady state is a processor finishing a
// constant-cost iteration: its new event time is >= every queued event, so
// it lands in the tail bucket in O(1) and pops from the head bucket in
// O(1) — no sift at all. Irregular costs and perturbed runs take the
// sorted path: a backward insertion scan from the tail that shifts at most
// the events the new one overtakes (the queue holds at most one event per
// processor, so the scan is bounded by P and in practice touches a slot or
// two). Because the ring is *fully sorted* at all times, the drain order is
// the (time, processor-id) total order by construction. The randomized
// equivalence test (tests/sim/event_queue_property_test.cpp) drains it in
// lockstep with a test-local binary-heap oracle — the pre-calendar
// std::*_heap queue — through millions of mixed ops.
//
// Batching fast path: `leads(t, proc)` answers "if (t, proc) were pushed
// now, would it be popped next?". When true, the engine may keep executing
// that processor inline — the next queue round-trip would hand control
// straight back to it — which coalesces consecutive iterations of a chunk
// into one event without perturbing the serialization order. See
// docs/SIMULATOR.md ("Iteration batching" and "Event queue") for the
// exactness arguments.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/cancel.hpp"
#include "util/check.hpp"

namespace afs {

class EventCore {
 public:
  /// (time, processor); min order with processor id breaking ties.
  using Event = std::pair<double, int>;

  /// Attaches a cooperative cancellation token (not owned; null detaches).
  /// Every pop() polls it and throws CancelledError once it fires — the
  /// deadline/abort hook the sweep runner uses to bound a cell's wall
  /// clock without touching simulated state.
  void set_cancel(const CancelToken* token) { cancel_ = token; }

  /// Starts a new loop: one event per processor at its start time, and all
  /// completion clocks cleared.
  void reset(const std::vector<double>& start) {
    done_.assign(start.size(), 0.0);
    ring_reset(start.size());
    for (std::size_t i = 0; i < start.size(); ++i)
      ring_[i] = Event(start[i], static_cast<int>(i));
    count_ = start.size();
    std::sort(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(count_));
  }

  /// Fault-aware reset: processor `i` joins the loop only when `alive[i]`;
  /// a dead processor never gets an event and its completion clock is
  /// pinned at its start time (it contributes nothing past its death).
  void reset(const std::vector<double>& start, const std::vector<char>& alive) {
    AFS_DCHECK(alive.size() == start.size());
    done_.assign(start.size(), 0.0);
    ring_reset(start.size());
    for (std::size_t i = 0; i < start.size(); ++i) {
      if (alive[i])
        ring_[count_++] = Event(start[i], static_cast<int>(i));
      else
        done_[i] = start[i];
    }
    std::sort(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(count_));
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Removes and returns the globally earliest event. Throws
  /// CancelledError when an attached cancellation token has fired.
  Event pop() {
    AFS_DCHECK(!empty());
    poll_cancel();
    const Event e = ring_[head_];
    head_ = (head_ + 1) & mask_;
    --count_;
    return e;
  }

  void push(double t, int proc) { ring_insert(Event(t, proc)); }

  /// Fused push-then-pop: inserts (t, proc) and removes the globally
  /// earliest event in one motion. Exactly equivalent to push() followed
  /// by pop() — the queue holds the same event multiset afterwards, and
  /// (time, processor-id) is a strict total order, so every later pop
  /// drains identically. This is the engine's steady-state queue
  /// operation: a processor that no longer leads swaps itself for the
  /// current leader. Polls the cancellation token exactly like pop().
  ///
  /// Tie-break parity: the keep-running decision here must be *exactly*
  /// the leads() predicate the inline-batching loop uses, or a same-time
  /// different-processor tie could drain in a different order depending on
  /// which path asked. The two predicates differ only on e == front —
  /// two queued events with identical (time, processor) — which the
  /// engine never creates (each processor has at most one event in
  /// flight); the DCHECKs pin the t == top().first boundary.
  Event push_pop(double t, int proc) {
    poll_cancel();
    const Event e(t, proc);
    if (count_ == 0 || !(ring_[head_] < e)) {
      // Keeping e is correct iff e still leads — or ties the front
      // *exactly*, in which case swapping e for the identical front event
      // is unobservable. The engine itself never queues an exact
      // (time, processor) duplicate.
      AFS_DCHECK(count_ == 0 || leads(t, proc) || e == ring_[head_]);
      return e;
    }
    AFS_DCHECK(!leads(t, proc));
    const Event out = ring_[head_];
    head_ = (head_ + 1) & mask_;
    --count_;
    ring_insert(e);
    return out;
  }

  /// True when a processor at time `t` would still be popped before every
  /// queued event — i.e. it may continue executing without a queue
  /// round-trip. (`proc` is not in the queue when this is asked.)
  bool leads(double t, int proc) const {
    if (empty()) return true;
    const Event& front = top();
    return t < front.first || (t == front.first && proc < front.second);
  }

  /// The earliest queued event — the other-processor horizon an inline
  /// execution run must not cross. Valid while the queue is untouched (an
  /// inline run neither pushes nor pops, so the engine may hoist this out
  /// of its iteration loop). Precondition: !empty().
  const Event& top() const {
    AFS_DCHECK(!empty());
    return ring_[head_];
  }

  /// Records that `proc` drained the scheduler at time `t`.
  void finish(int proc, double t) {
    done_[static_cast<std::size_t>(proc)] = t;
  }

  /// Per-processor completion times of the finished loop.
  const std::vector<double>& completion_times() const { return done_; }

  /// The loop's join time: the latest completion clock.
  double join_time() const {
    AFS_DCHECK(!done_.empty());
    return *std::max_element(done_.begin(), done_.end());
  }

 private:
  void poll_cancel() const {
    if (cancel_ != nullptr && cancel_->cancelled())
      throw CancelledError(
          "simulation cancelled at event boundary (deadline or sweep abort)");
  }

  /// Sizes the ring for `n` starting events (power-of-two capacity so the
  /// head/tail indices wrap with a mask) and rewinds it. Capacity is kept
  /// across resets — a warmed core re-runs allocation-free.
  void ring_reset(std::size_t n) {
    const std::size_t cap = std::bit_ceil(n < 2 ? std::size_t{2} : n);
    if (ring_.size() < cap) ring_.resize(cap);
    mask_ = ring_.size() - 1;
    head_ = 0;
    count_ = 0;
  }

  /// Sorted insert. The same-cost steady state — `e` at or past every
  /// queued event — appends to the tail bucket without entering the loop;
  /// anything earlier takes the sorted path, shifting exactly the events
  /// it overtakes one slot right. Equal events stay in insertion order,
  /// which for equal (time, proc) keys is indistinguishable anyway.
  void ring_insert(const Event& e) {
    if (count_ == ring_.size()) ring_grow();
    std::size_t idx = (head_ + count_) & mask_;
    std::size_t remaining = count_;
    while (remaining > 0) {
      const std::size_t prev = (idx + mask_) & mask_;
      if (!(e < ring_[prev])) break;
      ring_[idx] = ring_[prev];
      idx = prev;
      --remaining;
    }
    ring_[idx] = e;
    ++count_;
  }

  /// Doubles the ring, linearizing the live events to the front. Only
  /// reachable through push() beyond the reset population (the engine
  /// never does; tests may).
  void ring_grow() {
    const std::size_t cap = ring_.empty() ? 16 : ring_.size() * 2;
    std::vector<Event> bigger(cap);
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = ring_[(head_ + i) & mask_];
    ring_ = std::move(bigger);
    mask_ = cap - 1;
    head_ = 0;
  }

  std::vector<Event> ring_;   // sorted circular buffer (power-of-two size)
  std::size_t mask_ = 0;      // ring_.size() - 1
  std::size_t head_ = 0;      // index of the earliest event
  std::size_t count_ = 0;     // live events in the ring
  std::vector<double> done_;  // completion clock per processor
  const CancelToken* cancel_ = nullptr;  // not owned; see set_cancel()
};

}  // namespace afs
