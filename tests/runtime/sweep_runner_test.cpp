// Tests for the crash-safe sweep runner: bit-identical merges across
// serial/parallel/resumed execution, the checkpoint protocol, the
// deterministic retry schedule, cooperative timeouts, and the failure
// report. Cheap cells are synthetic (a pure function of the cell key);
// the simulator only appears where the contract under test is "a real
// simulation run obeys the token".
#include "runtime/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "runtime/cell_executor.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace afs {
namespace {

namespace fs = std::filesystem;

/// Bitwise equality of every field the checkpoint serializes.
bool identical(const SimResult& a, const SimResult& b) {
  if (!(a.makespan == b.makespan && a.busy == b.busy && a.sync == b.sync &&
        a.comm == b.comm && a.idle == b.idle && a.barrier == b.barrier &&
        a.stall_time == b.stall_time && a.hits == b.hits &&
        a.misses == b.misses && a.invalidations == b.invalidations &&
        a.units_transferred == b.units_transferred &&
        a.local_grabs == b.local_grabs && a.remote_grabs == b.remote_grabs &&
        a.central_grabs == b.central_grabs && a.iterations == b.iterations &&
        a.lost_processor_count == b.lost_processor_count &&
        a.stolen_under_fault == b.stolen_under_fault &&
        a.abandoned_iterations == b.abandoned_iterations &&
        a.sched_stats.loops == b.sched_stats.loops &&
        a.sched_stats.queues.size() == b.sched_stats.queues.size()))
    return false;
  for (std::size_t q = 0; q < a.sched_stats.queues.size(); ++q) {
    const QueueStats& qa = a.sched_stats.queues[q];
    const QueueStats& qb = b.sched_stats.queues[q];
    if (!(qa.local_grabs == qb.local_grabs &&
          qa.remote_grabs == qb.remote_grabs &&
          qa.iters_local == qb.iters_local &&
          qa.iters_remote == qb.iters_remote))
      return false;
  }
  return true;
}

/// A synthetic but awkward SimResult: a pure function of (label, procs)
/// with values that punish any serialization that rounds (thirds, huge
/// magnitudes, a denormal) plus per-queue stats.
SimResult synthetic_result(const std::string& label, int procs) {
  SimResult r;
  const double base = static_cast<double>(label.size() * 1000 + procs);
  r.makespan = base / 3.0;
  r.busy = base * 1e12 + 1.0 / 7.0;
  r.sync = 5e-324;  // smallest denormal
  r.comm = -0.0;
  r.idle = base * 0.1;
  r.barrier = 1e-300;
  r.stall_time = 0.0;
  r.hits = static_cast<std::int64_t>(base) * 1'000'000'007LL;
  r.misses = procs;
  r.invalidations = -procs;  // counters are signed; keep the parser honest
  r.units_transferred = base + 0.5;
  r.local_grabs = 1;
  r.remote_grabs = 2;
  r.central_grabs = 3;
  r.iterations = 4;
  r.lost_processor_count = 0;
  r.stolen_under_fault = 5;
  r.abandoned_iterations = 6;
  r.sched_stats.loops = procs;
  r.sched_stats.queues.resize(static_cast<std::size_t>(procs));
  for (int q = 0; q < procs; ++q) {
    r.sched_stats.queues[static_cast<std::size_t>(q)] = {q + 1, q + 2,
                                                         q * 10LL, q * 20LL};
  }
  return r;
}

std::vector<SweepCellSpec> synthetic_cells(
    const std::vector<std::string>& labels, const std::vector<int>& procs,
    std::atomic<int>* computed = nullptr) {
  std::vector<SweepCellSpec> cells;
  for (const std::string& label : labels)
    for (int p : procs)
      cells.push_back({label, p, [label, p, computed](const CancelToken&) {
                         if (computed) computed->fetch_add(1);
                         return synthetic_result(label, p);
                       }});
  return cells;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(SweepRunner, SerialAndParallelMergeBitIdentical) {
  // Real simulations: the merged map must not depend on which thread ran
  // a cell or in what order cells finished.
  const auto program = GaussKernel::program(96);
  const std::vector<std::string> labels{"AFS", "GSS", "SS"};
  const std::vector<int> procs{1, 2, 4};
  auto make_cells = [&] {
    std::vector<SweepCellSpec> cells;
    for (const std::string& label : labels)
      for (int p : procs)
        cells.push_back({label, p, [&program, label, p](const CancelToken& t) {
                           SimOptions opts;
                           opts.cancel = &t;
                           MachineSim sim(iris(), opts);
                           auto sched = make_scheduler(label);
                           return sim.run(program, *sched, p);
                         }});
    return cells;
  };

  SweepOptions serial;
  SweepOptions parallel;
  parallel.jobs = 4;
  const SweepOutcome a = run_sweep("t", make_cells(), serial);
  const SweepOutcome b = run_sweep("t", make_cells(), parallel);

  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  ASSERT_EQ(a.results.size(), labels.size());
  for (const std::string& label : labels)
    for (int p : procs) {
      ASSERT_TRUE(identical(a.results.at(label).at(p),
                            b.results.at(label).at(p)))
          << label << " P=" << p;
    }
}

TEST(SweepRunner, SerializationRoundTripsBitExactly) {
  const SimResult r = synthetic_result("AFS(k=2)", 7);
  SimResult back;
  ASSERT_TRUE(parse_sim_result(serialize_sim_result(r), back));
  EXPECT_TRUE(identical(r, back));

  // And for a real simulation result, queues included.
  MachineSim sim(ksr1());
  auto sched = make_scheduler("AFS");
  const SimResult real = sim.run(GaussKernel::program(64), *sched, 8);
  ASSERT_TRUE(parse_sim_result(serialize_sim_result(real), back));
  EXPECT_TRUE(identical(real, back));
}

TEST(SweepRunner, ParseRejectsCorruption) {
  const std::string good = serialize_sim_result(synthetic_result("GSS", 3));
  SimResult out;
  ASSERT_TRUE(parse_sim_result(good, out));

  EXPECT_FALSE(parse_sim_result("", out));
  EXPECT_FALSE(parse_sim_result("wrong-schema\n", out));
  // Truncation anywhere — including losing only the end marker — fails.
  for (std::size_t cut : {good.size() / 4, good.size() / 2, good.size() - 2})
    EXPECT_FALSE(parse_sim_result(good.substr(0, cut), out)) << cut;
  // A non-numeric field fails.
  std::string bad = good;
  bad.replace(bad.find("busy "), 5, "busy x");
  EXPECT_FALSE(parse_sim_result(bad, out));
}

TEST(SweepRunner, ParseRejectsTraceFieldsTheSerializerNeverWrites) {
  // xaff/ximb are written only when >= 0, so a negative or NaN value could
  // not round-trip: the reparsed result would carry the -1 default.
  const std::string good = serialize_sim_result(synthetic_result("GSS", 3));
  const std::size_t end = good.rfind("end\n");
  SimResult out;
  for (const char* line : {"xaff -0x1p-1\n", "ximb -0x1p+3\n", "xaff nan\n",
                           "ximb -nan\n"})
    EXPECT_FALSE(parse_sim_result(
        std::string(good).insert(end, line), out))
        << line;
  ASSERT_TRUE(parse_sim_result(
      std::string(good).insert(end, "xaff 0x0p+0\nximb 0x1p-2\n"), out));
  EXPECT_EQ(out.trace_affinity_score, 0.0);
  EXPECT_EQ(out.trace_imbalance, 0.25);
}

// A parse succeeded: the value must survive serialize -> parse unchanged.
// The text compares every field exactly (hexfloats, integers); the two
// optional trace fields, which the text may omit, compare by bits.
::testing::AssertionResult round_trips(const SimResult& r) {
  const std::string text = serialize_sim_result(r);
  SimResult back;
  if (!parse_sim_result(text, back))
    return ::testing::AssertionFailure() << "reserialized text rejected";
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  if (serialize_sim_result(back) != text ||
      !same_bits(r.trace_affinity_score, back.trace_affinity_score) ||
      !same_bits(r.trace_imbalance, back.trace_imbalance))
    return ::testing::AssertionFailure() << "value changed on round trip";
  return ::testing::AssertionSuccess();
}

TEST(SweepRunner, HostileInputNeverCrashesAndAcceptsOnlyRoundTrips) {
  // Deterministic (fixed-seed xorshift), like protocol_test: a failure
  // reproduces byte for byte. The seed document has every line kind:
  // scalars, q-lines and both optional trace fields.
  MachineSim sim(ksr1());
  auto sched = make_scheduler("AFS");
  SimResult seed = sim.run(GaussKernel::program(32), *sched, 4);
  seed.trace_affinity_score = 0.75;
  seed.trace_imbalance = 0.125;
  const std::string good = serialize_sim_result(seed);
  ASSERT_TRUE(round_trips(seed));

  // Every truncation: only the whole text, or the text short of its final
  // newline, may parse, and then to the original value.
  for (std::size_t cut = 0; cut <= good.size(); ++cut) {
    SimResult out;
    if (parse_sim_result(good.substr(0, cut), out)) {
      EXPECT_GE(cut + 1, good.size()) << "accepted prefix of " << cut;
      EXPECT_EQ(serialize_sim_result(out), good) << cut;
    }
  }

  std::uint64_t state = 0x452821e638d01377ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Insertions draw half their bytes from the format's own alphabet, so
  // many mutants stay well formed enough to reach the value parsers.
  const std::string alphabet = "0123456789abcdefxp+-. \nqn";
  auto random_byte = [&] {
    return next() % 2 ? alphabet[next() % alphabet.size()]
                      : static_cast<char>(next() % 256);
  };
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string input = good;
    const int edits = 1 + static_cast<int>(next() % 3);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = next() % (input.size() + 1);
      if (round % 2 == 0 && at < input.size())
        input[at] = static_cast<char>(next() % 256);  // byte flip
      else
        input.insert(at, 1, random_byte());  // insertion
    }
    SimResult out;
    if (parse_sim_result(input, out)) {
      ++accepted;
      EXPECT_TRUE(round_trips(out)) << "input:\n" << input;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1500);  // the mutations really are hostile
  EXPECT_GT(accepted, 0);     // and some reach the accept path
}

TEST(SweepRunner, ResumeRecomputesOnlyMissingOrCorruptCells) {
  const std::vector<std::string> labels{"AFS", "GSS"};
  const std::vector<int> procs{1, 2, 4};
  const std::string dir = fresh_dir("sweep_resume");

  SweepOptions opts;
  opts.checkpoint_dir = dir;
  std::atomic<int> computed{0};
  const SweepOutcome first =
      run_sweep("resume-test", synthetic_cells(labels, procs, &computed), opts);
  ASSERT_TRUE(first.complete());
  EXPECT_EQ(computed.load(), 6);
  EXPECT_EQ(first.cells_resumed, 0);

  // Simulate a crash that lost one cell and half-wrote another.
  ASSERT_TRUE(fs::remove(cell_checkpoint_path(dir, "AFS", 2)));
  {
    std::ofstream trunc(cell_checkpoint_path(dir, "GSS", 4),
                        std::ios::trunc);
    trunc << "afs-cell-v1\nmakespan 0x1p+0\n";  // truncated checkpoint
  }

  computed.store(0);
  opts.resume = true;
  const SweepOutcome second =
      run_sweep("resume-test", synthetic_cells(labels, procs, &computed), opts);
  ASSERT_TRUE(second.complete());
  EXPECT_EQ(computed.load(), 2);  // exactly the lost and the corrupt cell
  EXPECT_EQ(second.cells_resumed, 4);
  for (const std::string& label : labels)
    for (int p : procs)
      EXPECT_TRUE(identical(first.results.at(label).at(p),
                            second.results.at(label).at(p)))
          << label << " P=" << p;
}

TEST(SweepRunner, ResumeRejectsForeignManifest) {
  const std::vector<std::string> labels{"AFS"};
  const std::vector<int> procs{1, 2};
  const std::string dir = fresh_dir("sweep_foreign");

  SweepOptions opts;
  opts.checkpoint_dir = dir;
  ASSERT_TRUE(run_sweep("sweep-one", synthetic_cells(labels, procs), opts)
                  .complete());

  // Same directory, different sweep id: checkpoints must not be merged.
  std::atomic<int> computed{0};
  opts.resume = true;
  const SweepOutcome other = run_sweep(
      "sweep-two", synthetic_cells(labels, procs, &computed), opts);
  ASSERT_TRUE(other.complete());
  EXPECT_EQ(other.cells_resumed, 0);
  EXPECT_EQ(computed.load(), 2);
}

TEST(SweepRunner, StaleCheckpointClearRemovesStagingFiles) {
  // A writer killed between staging and rename leaves
  // <cell>.cell.tmp.<pid>.<tid>.<n>; clearing stale checkpoints for a new
  // sweep must sweep those too, not just <cell>.cell.
  const std::vector<std::string> labels{"AFS"};
  const std::vector<int> procs{1, 2};
  const std::string dir = fresh_dir("sweep_staging");
  SweepOptions opts;
  opts.checkpoint_dir = dir;
  ASSERT_TRUE(run_sweep("sweep-one", synthetic_cells(labels, procs), opts)
                  .complete());
  const std::string staged =
      unique_tmp_path(cell_checkpoint_path(dir, "AFS", 1));
  std::ofstream(staged) << "half-written";
  ASSERT_TRUE(fs::exists(staged));

  ASSERT_TRUE(run_sweep("sweep-two", synthetic_cells(labels, procs), opts)
                  .complete());
  EXPECT_FALSE(fs::exists(staged));
}

TEST(SweepRunner, RetryScheduleIsDeterministic) {
  SweepOptions opts;
  opts.max_retries = 3;
  opts.backoff_base = 0.05;
  opts.backoff_max = 10.0;
  // Pure: same cell and attempt, same delay. Different cells decorrelate.
  for (int attempt = 1; attempt <= 3; ++attempt)
    EXPECT_EQ(retry_backoff(opts, "AFS", 4, attempt),
              retry_backoff(opts, "AFS", 4, attempt));
  EXPECT_NE(retry_backoff(opts, "AFS", 4, 1), retry_backoff(opts, "GSS", 4, 1));
  // Jitter is in [0.5, 1.5) x base*2^(attempt-1), clamped.
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double d = retry_backoff(opts, "SS", 2, attempt);
    const double scale = opts.backoff_base * std::ldexp(1.0, attempt - 1);
    EXPECT_GE(d, std::min(0.5 * scale, opts.backoff_max));
    EXPECT_LE(d, std::min(1.5 * scale, opts.backoff_max));
  }
  SweepOptions clamped = opts;
  clamped.backoff_max = 0.01;
  EXPECT_EQ(retry_backoff(clamped, "SS", 2, 10), 0.01);

  // End to end: a cell that fails twice then succeeds sleeps exactly the
  // schedule, on every rerun.
  auto flaky_sweep = [&] {
    std::vector<double> delays;
    SweepOptions o;
    o.max_retries = 3;
    o.sleep_fn = [&delays](double s) { delays.push_back(s); };
    std::atomic<int> calls{0};
    std::vector<SweepCellSpec> cells{
        {"FLAKY", 2, [&calls](const CancelToken&) {
           if (calls.fetch_add(1) < 2) throw std::runtime_error("transient");
           return synthetic_result("FLAKY", 2);
         }}};
    const SweepOutcome outcome = run_sweep("flaky", cells, o);
    EXPECT_TRUE(outcome.complete());
    return delays;
  };
  const std::vector<double> run1 = flaky_sweep();
  const std::vector<double> run2 = flaky_sweep();
  SweepOptions o;
  o.max_retries = 3;
  ASSERT_EQ(run1.size(), 2u);
  EXPECT_EQ(run1, run2);
  EXPECT_EQ(run1[0], retry_backoff(o, "FLAKY", 2, 1));
  EXPECT_EQ(run1[1], retry_backoff(o, "FLAKY", 2, 2));
}

TEST(SweepRunner, RetryBackoffSurvivesDegenerateInputs) {
  SweepOptions opts;
  opts.backoff_max = 10.0;

  // A zero (or negative) base means "retry immediately", not NaN/garbage.
  opts.backoff_base = 0.0;
  EXPECT_EQ(retry_backoff(opts, "AFS", 4, 1), 0.0);
  EXPECT_EQ(retry_backoff(opts, "AFS", 4, 7), 0.0);
  opts.backoff_base = -1.0;
  EXPECT_EQ(retry_backoff(opts, "AFS", 4, 1), 0.0);

  // Absurd attempt numbers must not overflow ldexp into inf before the
  // clamp: the delay saturates at backoff_max and stays finite.
  opts.backoff_base = 0.05;
  for (int attempt : {64, 1100, 10'000, 1'000'000'000}) {
    const double d = retry_backoff(opts, "AFS", 4, attempt);
    EXPECT_TRUE(std::isfinite(d)) << attempt;
    EXPECT_EQ(d, opts.backoff_max) << attempt;
  }
}

TEST(SweepRunner, RetryBackoffGoldenSchedule) {
  // The exact schedule is part of the service contract: clients and the
  // daemon both derive sleeps from it, and operators read these numbers
  // out of logs. Pin it so a "harmless" tweak to the hash or jitter shape
  // shows up as a test diff, not as a silently different fleet cadence.
  SweepOptions opts;  // defaults: base 0.05, max 2.0, seed 0xaf55eed
  const struct {
    const char* label;
    int procs;
    int attempt;
    double delay;
  } golden[] = {
      {"request", 0, 1, 0x1.d9038c80df98cp-5},
      {"request", 0, 2, 0x1.5284c4d65428p-4},
      {"request", 0, 3, 0x1.1e50cfaf2431bp-3},
      {"AFS", 4, 1, 0x1.c700aeeb2b13dp-5},
      {"GSS", 8, 2, 0x1.28bfa07f520e5p-3},
  };
  for (const auto& g : golden)
    EXPECT_EQ(retry_backoff(opts, g.label, g.procs, g.attempt), g.delay)
        << g.label << " P=" << g.procs << " attempt " << g.attempt;
}

TEST(SweepRunner, PoisonedCellIsNeverRetried) {
  // A PoisonedCellError is the sandbox saying "this cell has already
  // crashed its budget of workers" — retrying would just burn more
  // workers, so the runner records it and moves on.
  SweepOptions opts;
  opts.max_retries = 5;
  opts.sleep_fn = [](double) { FAIL() << "poison must not sleep/retry"; };
  int calls = 0;
  std::vector<SweepCellSpec> cells = synthetic_cells({"OK"}, {1});
  cells.push_back({"BAD", 2, [&calls](const CancelToken&) -> SimResult {
                     ++calls;
                     throw PoisonedCellError("quarantined after 3 crashes");
                   }});
  const SweepOutcome outcome = run_sweep("poison", cells, opts);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(outcome.invariant_break());
  EXPECT_EQ(outcome.results.at("OK").size(), 1u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "poison");
  EXPECT_EQ(outcome.failures[0].attempts, 1);
  EXPECT_NE(outcome.failures[0].message.find("quarantined"),
            std::string::npos);
}

TEST(SweepRunner, DegradedModeIsNeverRetried) {
  // DegradedError means the worker pool is refusing new work entirely;
  // retrying the same cell against a dead pool is pointless.
  SweepOptions opts;
  opts.max_retries = 5;
  opts.sleep_fn = [](double) { FAIL() << "degraded must not sleep/retry"; };
  int calls = 0;
  std::vector<SweepCellSpec> cells{
      {"ANY", 1, [&calls](const CancelToken&) -> SimResult {
         ++calls;
         throw DegradedError("restart budget exhausted; cache-only");
       }}};
  const SweepOutcome outcome = run_sweep("degraded", cells, opts);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "degraded");
  EXPECT_EQ(outcome.failures[0].attempts, 1);
}

TEST(SweepRunner, ExhaustedRetriesIsolateTheFailingCell) {
  SweepOptions opts;
  opts.max_retries = 1;
  opts.sleep_fn = [](double) {};
  std::vector<SweepCellSpec> cells = synthetic_cells({"OK"}, {1, 2});
  cells.push_back({"BAD", 1, [](const CancelToken&) -> SimResult {
                     throw std::runtime_error("always \"broken\"");
                   }});
  const SweepOutcome outcome = run_sweep("isolate", cells, opts);

  EXPECT_FALSE(outcome.complete());
  EXPECT_FALSE(outcome.invariant_break());
  EXPECT_EQ(outcome.results.at("OK").size(), 2u);  // neighbours unaffected
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "error");
  EXPECT_EQ(outcome.failures[0].attempts, 2);  // first try + one retry

  const std::string report = failure_report_json("isolate", outcome);
  EXPECT_NE(report.find("\"schema\":\"afs-sweep-failures-v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"sweep\":\"isolate\""), std::string::npos);
  EXPECT_NE(report.find("\"cells_total\":3"), std::string::npos);
  EXPECT_NE(report.find("\"cells_completed\":2"), std::string::npos);
  EXPECT_NE(report.find("\"cells_failed\":1"), std::string::npos);
  EXPECT_NE(report.find("\"scheduler\":\"BAD\",\"procs\":1,"
                        "\"kind\":\"error\",\"attempts\":2"),
            std::string::npos);
  EXPECT_NE(report.find("always \\\"broken\\\""), std::string::npos)
      << "message must be JSON-escaped: " << report;
}

TEST(SweepRunner, InvariantBreakIsNeverRetried) {
  SweepOptions opts;
  opts.max_retries = 5;
  int calls = 0;
  std::vector<SweepCellSpec> cells{
      {"BROKEN", 1, [&calls](const CancelToken&) -> SimResult {
         ++calls;
         AFS_CHECK_MSG(calls == 0, "engine contract violated");  // throws
         return synthetic_result("BROKEN", 1);
       }}};
  const SweepOutcome outcome = run_sweep("invariant", cells, opts);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "invariant");
  EXPECT_TRUE(outcome.invariant_break());
}

TEST(SweepRunner, CellTimeoutInterruptsARealSimulation) {
  // SS over 50M iterations takes ~1s+ of wall clock (one event per grab);
  // a 50 ms deadline must cut it off at an event boundary long before the
  // end, and a timeout is not retried.
  const auto program = balanced_program(50'000'000);
  SweepOptions opts;
  opts.cell_timeout = 0.05;
  std::vector<SweepCellSpec> cells{
      {"SS", 2, [&program](const CancelToken& t) {
         SimOptions o;
         o.cancel = &t;
         MachineSim sim(iris(), o);
         auto sched = make_scheduler("SS");
         return sim.run(program, *sched, 2);
       }}};
  const SweepOutcome outcome = run_sweep("timeout", cells, opts);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].kind, "timeout");
  EXPECT_EQ(outcome.failures[0].attempts, 1);
  EXPECT_TRUE(outcome.results.empty());  // no partial result escapes
}

TEST(SweepRunner, SweepTimeoutCancelsRunningAndQueuedCells) {
  // Two workers get stuck in cooperative cells; six more cells sit in the
  // queue. When the sweep deadline fires the stuck cells observe it and
  // the queued cells are discarded without ever starting.
  SweepOptions opts;
  opts.jobs = 2;
  opts.sweep_timeout = 0.05;
  std::atomic<int> started{0};
  std::vector<SweepCellSpec> cells;
  for (int p = 1; p <= 2; ++p)
    cells.push_back({"STUCK", p, [&started](const CancelToken& t) -> SimResult {
                       started.fetch_add(1);
                       for (;;)
                         if (t.cancelled())
                           throw CancelledError("observed deadline");
                     }});
  for (int p = 1; p <= 6; ++p)
    cells.push_back({"QUEUED", p, [&started, p](const CancelToken&) {
                       started.fetch_add(1);
                       return synthetic_result("QUEUED", p);
                     }});
  const SweepOutcome outcome = run_sweep("deadline", cells, opts);

  EXPECT_EQ(started.load(), 2);  // the queued six never began
  EXPECT_EQ(outcome.failures.size(), 8u);
  EXPECT_FALSE(outcome.invariant_break());
  for (const CellFailure& f : outcome.failures) {
    EXPECT_EQ(f.kind, "cancelled") << f.label;
    if (f.label == "QUEUED") {
      EXPECT_EQ(f.attempts, 0);
    }
  }
}

TEST(SweepRunner, RejectsDuplicateCellsAndBadOptions) {
  std::vector<SweepCellSpec> dup = synthetic_cells({"AFS"}, {2});
  dup.push_back(dup.front());
  EXPECT_THROW(run_sweep("dup", dup, SweepOptions{}), CheckFailure);

  SweepOptions bad;
  bad.jobs = 0;
  EXPECT_THROW(bad.validate(), CheckFailure);
  bad = SweepOptions{};
  bad.backoff_max = bad.backoff_base / 2.0;
  EXPECT_THROW(bad.validate(), CheckFailure);
}

TEST(SweepRunner, CheckpointPathsAreSanitizedAndCollisionFree) {
  // Labels that sanitize to the same stem must still map to distinct
  // files (the hash suffix), and path separators never escape the dir.
  const std::string a = cell_checkpoint_path("d", "AFS(k=2)", 4);
  const std::string b = cell_checkpoint_path("d", "AFS{k:2}", 4);
  EXPECT_NE(a, b);
  const std::string traversal = cell_checkpoint_path("d", "x/../../evil", 1);
  EXPECT_EQ(traversal.find("d/"), 0u);
  EXPECT_EQ(traversal.find('/', 2), std::string::npos)
      << "separators must not survive sanitization: " << traversal;
}

}  // namespace
}  // namespace afs
