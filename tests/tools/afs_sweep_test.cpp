// afs_sweep end to end: the real binary on a real (small) store. A bad
// value of a store maintenance flag must exit 2 before the store is
// touched; `--max-bytes=10MB` once read as 10 bytes and emptied it.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "support/test_dir.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

/// Runs afs_sweep with `args`, stdout and stderr to `out_path`; returns its
/// exit status.
int afs_sweep(const std::string& args, const std::string& out_path) {
  const std::string cmd = std::string(AFS_SWEEP_EXE) + " " + args + " > '" +
                          out_path + "' 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The integer after `key` on its own line of `text` ("entries: 30",
/// "quarantined=1"); -1 when absent.
std::int64_t field(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);)
    if (line.rfind(key, 0) == 0) return std::stoll(line.substr(key.size()));
  return -1;
}

class AfsSweepCache : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(afs_sweep("run fig13 --out-dir='" + dir_.str() + "'",
                        dir_ / "run.log"),
              0)
        << read_file(dir_ / "run.log");
  }

  /// `cache stats` output.
  std::string stats() {
    EXPECT_EQ(afs_sweep("cache stats --out-dir='" + dir_.str() + "'",
                        dir_ / "stats.log"),
              0);
    return read_file(dir_ / "stats.log");
  }

  /// Exit status of `cache <args>` on this store; output in `log`.
  int cache(const std::string& args, std::string* log = nullptr) {
    const int rc = afs_sweep("cache " + args + " --out-dir='" + dir_.str() +
                                 "'",
                             dir_ / "cache.log");
    if (log) *log = read_file(dir_ / "cache.log");
    return rc;
  }

  TestDir dir_;
};

TEST_F(AfsSweepCache, MalformedGcBoundsExitTwoAndTouchNothing) {
  const std::int64_t entries = field(stats(), "entries: ");
  ASSERT_GT(entries, 0);
  for (const char* bad :
       {"--max-bytes=10MB", "--max-bytes=", "--max-bytes=-1",
        "--max-bytes=99999999999999999999", "--max-age-days=7x",
        "--max-age-days=0", "--max-age-days=nan"}) {
    std::string log;
    EXPECT_EQ(cache(std::string("gc ") + bad, &log), 2) << bad;
    const std::string flag(bad, std::string(bad).find('='));
    EXPECT_NE(log.find("bad " + flag + " value"), std::string::npos)
        << bad << " -> " << log;
    EXPECT_EQ(field(stats(), "entries: "), entries) << bad;
  }
  // The well-formed spelling of the same bound keeps every entry: the
  // whole store is far below 10 MiB.
  std::string log;
  EXPECT_EQ(cache("gc --max-bytes=10485760", &log), 0) << log;
  EXPECT_EQ(field(log, "evicted: "), 0);
  EXPECT_EQ(field(stats(), "entries: "), entries);
}

TEST_F(AfsSweepCache, StatsAndGcCoverTheQuarantine) {
  const std::string before = stats();
  const std::int64_t bytes = field(before, "bytes: ");
  ASSERT_EQ(field(before, "quarantine_bytes="), 0);

  // Corrupt one entry; the scrub moves it to the quarantine.
  fs::path victim;
  for (const auto& e : fs::recursive_directory_iterator(dir_ / ".store"))
    if (e.path().extension() == ".cell") victim = e.path();
  ASSERT_FALSE(victim.empty());
  const std::int64_t victim_bytes =
      static_cast<std::int64_t>(fs::file_size(victim));
  std::ofstream(victim, std::ios::binary | std::ios::app) << "junk";
  EXPECT_EQ(cache("verify"), 1);

  const std::string after = stats();
  EXPECT_EQ(field(after, "quarantined="), 1);
  EXPECT_EQ(field(after, "quarantine_bytes="), victim_bytes + 4);
  EXPECT_EQ(field(after, "bytes: "), bytes - victim_bytes);

  // A bound that fits every entry but not the quarantine evicts only the
  // quarantined file.
  std::string log;
  EXPECT_EQ(cache("gc --max-bytes=" + std::to_string(bytes - victim_bytes),
                  &log),
            0)
      << log;
  EXPECT_EQ(field(log, "evicted: "), 1) << log;
  EXPECT_EQ(field(log, "quarantine_evicted: "), 1) << log;
  const std::string end = stats();
  EXPECT_EQ(field(end, "quarantined="), 0);
  EXPECT_EQ(field(end, "bytes: "), bytes - victim_bytes);
}

TEST(AfsSweepCli, ZeroDeadlinesAndMalformedValuesExitTwo) {
  // run and serve share one rule for --cell-timeout: 0 is not "no
  // deadline" (leaving the flag out is), so both refuse it before doing
  // any work — serve never binds its socket.
  TestDir dir;
  const std::string out = "--out-dir='" + dir.str() + "'";
  const std::string sock = "--socket='" + (dir / "s") + "'";
  for (const std::string& args :
       {"run fig13 --cell-timeout=0 " + out,
        "serve --cell-timeout=0 " + sock + " " + out,
        "serve --jobs=4x " + sock + " " + out,
        "request " + sock + " run fig13 --deadline=5x",
        "request " + sock + " run fig13 --deadline=0"}) {
    EXPECT_EQ(afs_sweep(args, dir / "log"), 2) << args;
    const std::string log = read_file(dir / "log");
    EXPECT_NE(log.find("bad --"), std::string::npos) << args << " -> " << log;
  }
  EXPECT_FALSE(fs::exists(dir / "s"));
  EXPECT_FALSE(fs::exists(dir / "fig13.csv"));
}

}  // namespace
}  // namespace afs
