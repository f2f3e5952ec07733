// The simulation-engine version string that keys every content-addressed
// result-store entry (src/store/).
//
// Bump this constant whenever a change alters ANY simulated number — a
// cost-model fix, a scheduler tie-break change, an RNG reordering, a new
// accounting field that feeds the CSVs. Bumping invalidates exactly the
// store entries computed by the old engine (their keys embed the old
// version) while leaving unrelated entries untouched; forgetting to bump
// serves stale results forever. Pure host-side optimizations that are
// proven bit-identical (iteration batching, the calendar event queue, the
// memory fast path, warm simulator reuse, phase timers) do NOT require a
// bump — the golden determinism tests, the test-local oracles
// (tests/sim/event_queue_property_test.cpp,
// tests/sim/memory_oracle_test.cpp) and the byte-identical figure CSVs
// are the proof obligation. Removing a line from the cell key text needs
// no bump either: the shorter text already re-addresses every entry.
//
// History:
//   afs-sim-1  — engine as of the trace-analysis milestone (PR 5): all 27
//                fig/tab CSVs pinned bit-identical to the seed.
#pragma once

namespace afs {

inline constexpr const char* kEngineVersion = "afs-sim-1";

}  // namespace afs
