// Tests for the command-line parser of the afs_sweep front end
// (experiments/bench_cli.hpp, and service::parse_serve_args for `serve`).
// A typo must fail loudly rather than silently fall back to a
// multi-minute default sweep (or, for a store bound, evict everything),
// so every flag rejects unknown spellings and malformed values with a
// message naming the culprit, and `run` and `serve` read their shared
// flags through the same parser with the same bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/bench_cli.hpp"
#include "service/daemon.hpp"
#include "trace/trace_record.hpp"

namespace afs::bench {
namespace {

struct Parse {
  BenchCli cli;
  std::string error;
  bool want_help = false;
  bool ok = false;
};

Parse parse(const std::vector<std::string>& args) {
  Parse p;
  p.ok = parse_cli_args(args, p.cli, p.error, p.want_help);
  return p;
}

TEST(BenchCli, DefaultsWithNoArgs) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_FALSE(p.want_help);
  EXPECT_TRUE(p.cli.procs.empty());
  EXPECT_EQ(p.cli.out_dir, "bench_results");
  EXPECT_FALSE(p.cli.trace);
}

TEST(BenchCli, ParsesAllFlags) {
  const Parse p = parse({"--procs=1,2,4,64", "--out-dir=/tmp/x", "--trace"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.procs, (std::vector<int>{1, 2, 4, 64}));
  EXPECT_EQ(p.cli.out_dir, "/tmp/x");
  EXPECT_TRUE(p.cli.trace);
}

TEST(BenchCli, SingleProcValue) {
  const Parse p = parse({"--procs=57"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.procs, (std::vector<int>{57}));
}

TEST(BenchCli, LaterProcsFlagReplacesEarlier) {
  const Parse p = parse({"--procs=1,2", "--procs=8"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.procs, (std::vector<int>{8}));
}

TEST(BenchCli, HelpShortCircuits) {
  for (const char* flag : {"--help", "-h"}) {
    const Parse p = parse({flag});
    EXPECT_TRUE(p.ok) << flag;
    EXPECT_TRUE(p.want_help) << flag;
  }
  // --help wins even when followed by garbage: the user asked for usage.
  const Parse p = parse({"--help", "--bogus"});
  EXPECT_TRUE(p.ok);
  EXPECT_TRUE(p.want_help);
}

TEST(BenchCli, RejectsUnknownArgument) {
  const Parse p = parse({"--prcos=4"});  // typo'd flag
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--prcos=4"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsBareWord) {
  const Parse p = parse({"8"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("'8'"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsEmptyOutDir) {
  const Parse p = parse({"--out-dir="});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--out-dir"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsEmptyProcsList) {
  const Parse p = parse({"--procs="});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--procs"), std::string::npos) << p.error;
}

TEST(BenchCli, RejectsMalformedProcsEntries) {
  for (const char* bad :
       {"--procs=abc", "--procs=4x", "--procs=1,,2", "--procs=1,2,",
        "--procs=,1", "--procs=0", "--procs=65", "--procs=-3",
        "--procs=99999999999999999999"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("--procs"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, ErrorNamesTheBadToken) {
  const Parse p = parse({"--procs=1,zap,3"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("'zap'"), std::string::npos) << p.error;
}

TEST(BenchCli, DefaultsLeaveSweepRunnerOff) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.jobs, 1);
  EXPECT_FALSE(p.cli.resume);
  EXPECT_EQ(p.cli.cell_timeout, 0.0);
  EXPECT_EQ(p.cli.sweep_timeout, 0.0);
}

TEST(BenchCli, ParsesSweepRunnerFlags) {
  const Parse p = parse(
      {"--jobs=4", "--resume", "--cell-timeout=2.5", "--sweep-timeout=600"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.jobs, 4);
  EXPECT_TRUE(p.cli.resume);
  EXPECT_EQ(p.cli.cell_timeout, 2.5);
  EXPECT_EQ(p.cli.sweep_timeout, 600.0);
}

TEST(BenchCli, RejectsMalformedJobs) {
  for (const char* bad :
       {"--jobs=", "--jobs=0", "--jobs=-2", "--jobs=257", "--jobs=two",
        "--jobs=4x"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("--jobs"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, RejectsMalformedTimeouts) {
  for (const char* bad :
       {"--cell-timeout=", "--cell-timeout=0", "--cell-timeout=-1",
        "--cell-timeout=abc", "--cell-timeout=1s", "--sweep-timeout=0",
        "--sweep-timeout=1e9"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("timeout"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, DefaultsLeaveEngineTogglesAlone) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_FALSE(p.cli.time_phases);
  EXPECT_FALSE(p.cli.no_batch);
  EXPECT_EQ(p.cli.cell_retries, -1);  // -1 = keep SweepOptions default
}

TEST(BenchCli, ParsesEngineToggles) {
  const Parse p = parse({"--time-phases", "--no-batch"});
  ASSERT_TRUE(p.ok);
  EXPECT_TRUE(p.cli.time_phases);
  EXPECT_TRUE(p.cli.no_batch);
  // The engine has one event queue, one memory hit path and always reuses
  // a warm simulator: the flags that once switched those off are unknown.
  for (const char* gone :
       {"--no-memory-fast-path", "--no-calendar-queue", "--no-epoch-batch"})
    EXPECT_FALSE(parse({gone}).ok) << gone;
}

TEST(BenchCli, ParsesCellRetries) {
  const Parse p = parse({"--cell-retries=0"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.cell_retries, 0);
  EXPECT_EQ(parse({"--cell-retries=5"}).cli.cell_retries, 5);
}

TEST(BenchCli, RejectsMalformedCellRetries) {
  for (const char* bad : {"--cell-retries=", "--cell-retries=-1",
                          "--cell-retries=101", "--cell-retries=two"}) {
    const Parse p = parse({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("--cell-retries"), std::string::npos)
        << bad << " -> " << p.error;
  }
}

TEST(BenchCli, TraceComposesWithParallelJobs) {
  // Traces are per (scheduler, P) cell — each cell owns its writer — so
  // the old "--trace requires --jobs=1" restriction is gone.
  const Parse p = parse({"--trace", "--jobs=4"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.cli.trace);
  EXPECT_EQ(p.cli.jobs, 4);
}

TEST(BenchCli, RejectsTheRemovedTraceFormatFlag) {
  // .cctrace is the only trace encoding (JSON is a trace_report export),
  // so the former encoding switch is an unknown flag, not a silent no-op.
  for (const char* gone : {"--trace-format=binary", "--trace-format=jsonl"}) {
    const Parse p = parse({gone});
    EXPECT_FALSE(p.ok) << gone;
    EXPECT_NE(p.error.find("unknown argument"), std::string::npos)
        << gone << " -> " << p.error;
  }
}

TEST(BenchCli, TraceCellPathSanitizesLabel) {
  EXPECT_EQ(trace_cell_path("/tmp/out", "fig15", "CHUNK(8)", 4),
            "/tmp/out/fig15.p4.CHUNK_8_.cctrace");
  EXPECT_EQ(trace_cell_path("out", "fig04", "AFS", 57),
            "out/fig04.p57.AFS.cctrace");
}

TEST(BenchCli, DefaultsLeaveStoreOff) {
  const Parse p = parse({});
  ASSERT_TRUE(p.ok);
  EXPECT_TRUE(p.cli.store_dir.empty());
  EXPECT_FALSE(p.cli.no_store);
}

TEST(BenchCli, ParsesStoreDir) {
  const Parse p = parse({"--store=/tmp/cells"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.cli.store_dir, "/tmp/cells");
  EXPECT_FALSE(p.cli.no_store);
}

TEST(BenchCli, RejectsEmptyStoreDir) {
  const Parse p = parse({"--store="});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--store"), std::string::npos) << p.error;
}

TEST(BenchCli, NoStoreWinsWhenLast) {
  // Later flags override earlier ones, in both directions.
  const Parse off = parse({"--store=/tmp/cells", "--no-store"});
  ASSERT_TRUE(off.ok);
  EXPECT_TRUE(off.cli.no_store);
  EXPECT_TRUE(off.cli.store_dir.empty());
  const Parse on = parse({"--no-store", "--store=/tmp/cells"});
  ASSERT_TRUE(on.ok);
  EXPECT_FALSE(on.cli.no_store);
  EXPECT_EQ(on.cli.store_dir, "/tmp/cells");
}

TEST(BenchCli, ParseNumberTakesOnlyWholeBoundedTokens) {
  std::int64_t bytes = 7;
  for (const char* bad :
       {"", "10MB", "10 ", " 10", "+10", "1e3", "0x10", "-1",
        "99999999999999999999"})
    EXPECT_FALSE(parse_number<std::int64_t>(bad, 0, INT64_MAX, bytes)) << bad;
  EXPECT_EQ(bytes, 7);  // untouched by every failure
  EXPECT_TRUE(parse_number<std::int64_t>("10485760", 0, INT64_MAX, bytes));
  EXPECT_EQ(bytes, 10485760);

  double days = 1.0;
  for (const char* bad : {"", "7x", "7 days", "nan", "inf", "1e999", "0"})
    EXPECT_FALSE(parse_number<double>(bad, 0.001, 36500.0, days)) << bad;
  EXPECT_EQ(days, 1.0);
  EXPECT_TRUE(parse_number<double>("0.5", 0.001, 36500.0, days));
  EXPECT_EQ(days, 0.5);
}

/// What `afs_sweep run` and `afs_sweep serve` make of one flag.
struct RunAndServe {
  Parse run;
  service::DaemonOptions serve;
  bool serve_ok = false;
  std::string serve_error;
};

RunAndServe parse_run_and_serve(const std::string& arg) {
  RunAndServe r;
  r.run = parse({arg});
  r.serve_ok = service::parse_serve_args({"--socket=/tmp/afs.sock", arg},
                                         r.serve, r.serve_error);
  return r;
}

void expect_same_run_options(const BenchCli& a, const BenchCli& b,
                             const std::string& arg) {
  EXPECT_EQ(a.out_dir, b.out_dir) << arg;
  EXPECT_EQ(a.store_dir, b.store_dir) << arg;
  EXPECT_EQ(a.no_store, b.no_store) << arg;
  EXPECT_EQ(a.jobs, b.jobs) << arg;
  EXPECT_EQ(a.cell_timeout, b.cell_timeout) << arg;
  EXPECT_EQ(a.cell_retries, b.cell_retries) << arg;
  EXPECT_EQ(bench::store_root(a), bench::store_root(b)) << arg;
}

TEST(BenchCli, EveryFlagOfRunAndServeRejectsMalformedValues) {
  // One row per valued flag of the two subcommands: which of them take
  // it, values both must accept, and malformed values (empty, trailing
  // junk, out of range, overflow) that must fail naming the flag. A flag
  // that both take must come out of both parsers as the same option. The
  // deadlines share one rule: a value in [0.001, 86400] seconds; 0 is
  // rejected by both, leaving the flag out is how to ask for no deadline.
  struct Row {
    const char* flag;
    bool run;
    bool serve;
    std::vector<const char*> good;
    std::vector<const char*> bad;
  };
  const std::vector<Row> rows = {
      {"--jobs", true, true, {"1", "4", "256"},
       {"", "4x", "0", "-2", "257", "99999999999999999999", "two", "4.0"}},
      {"--cell-timeout", true, true, {"0.001", "2.5", "1e3", "86400"},
       {"", "1s", "0", "-1", "86400.5", "1e999", "nan", "abc"}},
      {"--cell-retries", true, true, {"0", "5", "100"},
       {"", "2x", "-1", "101", "99999999999999999999", "two"}},
      {"--out-dir", true, true, {"/tmp/x"}, {""}},
      {"--store", true, true, {"/tmp/cells"}, {""}},
      {"--sweep-timeout", true, false, {"0.5", "600"},
       {"", "10m", "0", "1e9", "1e999"}},
      {"--procs", true, false, {"1", "1,2,64"},
       {"", "4x", "0", "65", "1,,2", "99999999999999999999"}},
      {"--max-queue", false, true, {"1", "4096"},
       {"", "8k", "0", "4097", "99999999999999999999"}},
      {"--max-connections", false, true, {"1", "1024"},
       {"", "8x", "0", "1025", "99999999999999999999"}},
      {"--default-deadline", false, true, {"0", "30"},
       {"", "30s", "-1", "86401", "1e999"}},
      {"--drain-timeout", false, true, {"0.001", "30"},
       {"", "30s", "0", "86401"}},
      {"--write-timeout", false, true, {"0.001", "3600"},
       {"", "5s", "0", "3601"}},
      {"--poison-strikes", false, true, {"1", "100"},
       {"", "3x", "0", "101", "99999999999999999999"}},
      {"--restart-burst", false, true, {"0", "10000"},
       {"", "8x", "-1", "10001", "1e999"}},
      {"--restart-refill", false, true, {"0", "0.5"},
       {"", "1/s", "-1", "10001", "1e999"}},
  };
  for (const Row& row : rows) {
    const std::string flag = row.flag;
    for (const char* v : row.good) {
      const std::string arg = flag + "=" + v;
      const RunAndServe r = parse_run_and_serve(arg);
      EXPECT_EQ(r.run.ok, row.run) << arg << " -> " << r.run.error;
      EXPECT_EQ(r.serve_ok, row.serve) << arg << " -> " << r.serve_error;
      if (row.run && row.serve)
        expect_same_run_options(r.run.cli, r.serve.cli, arg);
    }
    for (const char* v : row.bad) {
      const std::string arg = flag + "=" + v;
      const RunAndServe r = parse_run_and_serve(arg);
      EXPECT_FALSE(r.run.ok) << arg;
      EXPECT_FALSE(r.serve_ok) << arg;
      // A subcommand that takes the flag names it; the other calls the
      // whole argument unknown.
      EXPECT_NE(r.run.error.find(row.run ? flag : "unknown argument"),
                std::string::npos)
          << arg << " -> " << r.run.error;
      EXPECT_NE(r.serve_error.find(row.serve ? flag : "unknown argument"),
                std::string::npos)
          << arg << " -> " << r.serve_error;
    }
  }
  // The one valueless shared flag, and the store default both agree on.
  const RunAndServe off = parse_run_and_serve("--no-store");
  ASSERT_TRUE(off.run.ok && off.serve_ok) << off.serve_error;
  expect_same_run_options(off.run.cli, off.serve.cli, "--no-store");
  EXPECT_TRUE(off.serve.cli.no_store);
  EXPECT_FALSE(parse_run_and_serve("--no-store=1").serve_ok);
  const RunAndServe dflt = parse_run_and_serve("--out-dir=/tmp/o");
  EXPECT_EQ(bench::store_root(dflt.serve.cli), "/tmp/o/.store");
}

TEST(BenchCli, ServeNeedsASocketAndKeepsItsLogSwitch) {
  service::DaemonOptions opts;
  std::string error;
  EXPECT_FALSE(service::parse_serve_args({"--jobs=2"}, opts, error));
  EXPECT_NE(error.find("--socket"), std::string::npos) << error;
  opts.log = &std::cerr;
  ASSERT_TRUE(service::parse_serve_args(
      {"--socket=s", "--quiet", "--isolation=process", "--jobs=3"}, opts,
      error))
      << error;
  EXPECT_EQ(opts.log, nullptr);
  EXPECT_EQ(opts.isolation, "process");
  EXPECT_EQ(opts.cli.jobs, 3);
  EXPECT_FALSE(service::parse_serve_args(
      {"--socket=s", "--isolation=fork"}, opts, error));
  // Per-invocation run flags are not daemon options.
  for (const char* run_only : {"--trace", "--resume", "--procs=4"}) {
    EXPECT_FALSE(service::parse_serve_args({"--socket=s", run_only}, opts,
                                           error))
        << run_only;
    EXPECT_NE(error.find("unknown argument"), std::string::npos) << error;
  }
}

TEST(BenchCli, CsvPathJoinsOutDir) {
  BenchCli cli;
  cli.out_dir = "/tmp/results";
  EXPECT_EQ(csv_path(cli, "tab7"), "/tmp/results/tab7.csv");
}

}  // namespace
}  // namespace afs::bench
