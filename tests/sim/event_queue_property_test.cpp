// Randomized equivalence test for EventCore's calendar ring against a
// binary-heap oracle: both must drain bit-identical (time, processor)
// sequences through millions of mixed operations — push, fused push_pop,
// pop — including duplicate timestamps, exact (time, proc) duplicates and
// fault-aware resets. This is the test the calendar queue's correctness
// leans on (src/sim/event_core.hpp). The oracle is the pre-calendar
// std::*_heap event queue, kept here verbatim so it can serve as the
// reference.
#include "sim/event_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "util/cancel.hpp"

namespace afs {
namespace {

/// The reference event queue: a binary min-heap under (time, processor-id)
/// order, with the same interface and tie-break contract as EventCore.
class HeapEventQueue {
 public:
  using Event = EventCore::Event;

  void reset(const std::vector<double>& start) {
    heap_.clear();
    heap_.reserve(start.size());
    for (std::size_t i = 0; i < start.size(); ++i)
      heap_.emplace_back(start[i], static_cast<int>(i));
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  void reset(const std::vector<double>& start, const std::vector<char>& alive) {
    heap_.clear();
    heap_.reserve(start.size());
    for (std::size_t i = 0; i < start.size(); ++i)
      if (alive[i]) heap_.emplace_back(start[i], static_cast<int>(i));
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  void push(double t, int proc) {
    heap_.emplace_back(t, proc);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  Event push_pop(double t, int proc) {
    const Event e(t, proc);
    if (heap_.empty() || !(heap_.front() < e)) return e;
    const Event out = heap_.front();
    sift_down_from_root(e);
    return out;
  }

  bool leads(double t, int proc) const {
    if (empty()) return true;
    const Event& front = top();
    return t < front.first || (t == front.first && proc < front.second);
  }

  const Event& top() const { return heap_.front(); }

 private:
  /// Places `e` at the root and restores min-heap order top-down,
  /// maintaining the same parent<=child invariant the std::*_heap calls
  /// keep (min-heap under operator<).
  void sift_down_from_root(const Event& e) {
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && heap_[c + 1] < heap_[c]) ++c;
      if (!(heap_[c] < e)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = e;
  }

  std::vector<Event> heap_;
};

/// Drives the same operation stream through the calendar ring and the
/// heap oracle and asserts every observable — pop results, push_pop
/// results, size, top, leads — stays identical. Returns the number of
/// operations executed so callers can assert coverage.
class LockstepDriver {
 public:
  void reset(const std::vector<double>& start) {
    cal_.reset(start);
    heap_.reset(start);
    check_tops();
  }

  void reset(const std::vector<double>& start, const std::vector<char>& alive) {
    cal_.reset(start, alive);
    heap_.reset(start, alive);
    check_tops();
  }

  void push(double t, int proc) {
    cal_.push(t, proc);
    heap_.push(t, proc);
    ++ops_;
    check_tops();
  }

  void push_pop(double t, int proc) {
    const EventCore::Event a = cal_.push_pop(t, proc);
    const EventCore::Event b = heap_.push_pop(t, proc);
    ASSERT_EQ(a, b) << "push_pop(" << t << ", " << proc << ") diverged";
    ++ops_;
    check_tops();
  }

  void pop() {
    const EventCore::Event a = cal_.pop();
    const EventCore::Event b = heap_.pop();
    ASSERT_EQ(a, b) << "pop diverged";
    ++ops_;
    check_tops();
  }

  void check_leads(double t, int proc) {
    ASSERT_EQ(cal_.leads(t, proc), heap_.leads(t, proc))
        << "leads(" << t << ", " << proc << ") diverged";
  }

  /// Drains both queues to empty, asserting the full remaining sequence.
  void drain() {
    ASSERT_EQ(cal_.size(), heap_.size());
    while (!cal_.empty()) pop();
    ASSERT_TRUE(heap_.empty());
  }

  std::size_t size() const { return cal_.size(); }
  bool empty() const { return cal_.empty(); }
  std::int64_t ops() const { return ops_; }

 private:
  void check_tops() {
    ASSERT_EQ(cal_.size(), heap_.size());
    if (!cal_.empty()) {
      ASSERT_EQ(cal_.top(), heap_.top());
    }
  }

  EventCore cal_;
  HeapEventQueue heap_;
  std::int64_t ops_ = 0;
};

/// Times drawn from a coarse lattice so duplicate timestamps (and exact
/// (time, proc) duplicates) occur constantly — the tie-handling paths are
/// where a sorted structure and a heap could plausibly disagree.
double lattice_time(std::mt19937_64& rng, double base) {
  return base + 0.25 * std::uniform_int_distribution<int>(0, 40)(rng);
}

TEST(EventQueueProperty, CalendarMatchesHeapOverMillionMixedOps) {
  std::mt19937_64 rng(0xCA1E0DA5ULL);  // fixed seed: failures replay exactly
  LockstepDriver d;

  // Many short epochs: each epoch resets both queues (alternating between
  // the plain and the fault-aware reset), then runs a randomized mix of
  // operations whose time base creeps forward like a real simulation's
  // clock but frequently ties and occasionally regresses.
  const int kEpochs = 64;
  const int kOpsPerEpoch = 16000;  // 64 * 16000 > 1M ops through each queue
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const int p = std::uniform_int_distribution<int>(1, 48)(rng);
    std::vector<double> start(static_cast<std::size_t>(p));
    for (double& s : start) s = lattice_time(rng, 0.0);
    if (epoch % 2 == 0) {
      d.reset(start);
    } else {
      std::vector<char> alive(static_cast<std::size_t>(p));
      bool any = false;
      for (char& a : alive) any |= (a = std::bernoulli_distribution(0.8)(rng));
      if (!any) alive[0] = 1;  // keep the epoch non-degenerate
      d.reset(start, alive);
    }

    double base = 0.0;
    for (int op = 0; op < kOpsPerEpoch; ++op) {
      base += 0.25 * std::uniform_int_distribution<int>(0, 2)(rng);
      const double t = lattice_time(rng, base);
      const int proc = std::uniform_int_distribution<int>(0, p - 1)(rng);
      switch (std::uniform_int_distribution<int>(0, 9)(rng)) {
        case 0:
        case 1:
        case 2:  // 30%: plain push (grows the queue; exercises ring_grow)
          d.push(t, proc);
          break;
        case 3:
        case 4:
        case 5:
        case 6:  // 40%: fused push_pop — the engine's steady-state op
          if (d.empty()) {
            d.push(t, proc);
          } else {
            d.push_pop(t, proc);
          }
          break;
        case 7:
        case 8:  // 20%: pop
          if (!d.empty()) d.pop();
          break;
        default:  // 10%: probe leads() on a fresh (t, proc)
          d.check_leads(t, proc);
          break;
      }
    }
    d.drain();
  }
  EXPECT_GT(d.ops(), 1000000) << "op budget under-delivered; raise kOpsPerEpoch";
}

/// The push_pop / leads() tie-break parity at the t == top().first
/// boundary (see EventCore::push_pop's doc comment), on any queue with
/// EventCore's interface.
template <typename Queue>
void check_tie_boundary() {
  Queue q;
  q.reset({10.0, 10.0, 20.0});  // front is (10, 0)

  // Lower id at the front's exact time: still leads, keeps its event.
  EXPECT_TRUE(q.leads(10.0, -1));
  // Same time, higher id than the front: must yield.
  EXPECT_FALSE(q.leads(10.0, 1));
  EXPECT_FALSE(q.leads(10.0, 5));
  // Strictly earlier always leads; strictly later never does.
  EXPECT_TRUE(q.leads(9.75, 99));
  EXPECT_FALSE(q.leads(10.25, -1));

  // push_pop at the exact front time with a higher id swaps: the front
  // (10, 0) comes out, (10, 2) queues behind (10, 1).
  EXPECT_EQ(q.push_pop(10.0, 2), EventCore::Event(10.0, 0));
  EXPECT_EQ(q.top(), EventCore::Event(10.0, 1));
  // ...and with an id below the new front, the caller keeps its event.
  EXPECT_EQ(q.push_pop(10.0, 0), EventCore::Event(10.0, 0));
  EXPECT_EQ(q.top(), EventCore::Event(10.0, 1));

  // Exact (time, proc) duplicate of the front: keep-or-swap is
  // unobservable; push_pop must return the identical event either way.
  EXPECT_EQ(q.push_pop(10.0, 1), EventCore::Event(10.0, 1));

  // Remaining population drains in (time, id) order.
  EXPECT_EQ(q.pop(), EventCore::Event(10.0, 1));
  EXPECT_EQ(q.pop(), EventCore::Event(10.0, 2));
  EXPECT_EQ(q.pop(), EventCore::Event(20.0, 2));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, TieBoundaryAtTopTime) {
  // A processor tying the front's time must keep running iff its id is
  // lower — in the calendar ring and in the oracle alike.
  check_tie_boundary<EventCore>();
  check_tie_boundary<HeapEventQueue>();
}

TEST(EventQueueProperty, CancellationPollsFireOnPopAndPushPop) {
  EventCore q;
  CancelToken token;
  q.set_cancel(&token);
  q.reset({1.0, 2.0});
  EXPECT_EQ(q.pop(), EventCore::Event(1.0, 0));  // token idle: pops work
  token.cancel();
  EXPECT_THROW(q.pop(), CancelledError);
  EXPECT_THROW(q.push_pop(3.0, 0), CancelledError);
  // The queue itself is untouched by the refused operations...
  EXPECT_EQ(q.size(), 1u);
  q.set_cancel(nullptr);  // ...and detaching the token unblocks it.
  EXPECT_EQ(q.pop(), EventCore::Event(2.0, 1));
}

TEST(EventQueueProperty, RingGrowsPastResetPopulation) {
  // The engine never pushes beyond one event per processor, but push() is
  // public API: growing the ring mid-stream must preserve order.
  EventCore q;
  q.reset({5.0});
  for (int i = 0; i < 100; ++i)
    q.push(4.0 + 0.01 * i, i + 1);  // all earlier than the reset event
  double prev_t = -1.0;
  int prev_p = -1;
  std::size_t drained = 0;
  while (!q.empty()) {
    const EventCore::Event e = q.pop();
    EXPECT_TRUE(prev_t < e.first || (prev_t == e.first && prev_p < e.second))
        << "drain order violated at event " << drained;
    prev_t = e.first;
    prev_p = e.second;
    ++drained;
  }
  EXPECT_EQ(drained, 101u);
}

}  // namespace
}  // namespace afs
