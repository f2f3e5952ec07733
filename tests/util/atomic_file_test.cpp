// write_file_atomic under concurrency: every writer stages at its own
// unique name, so concurrent writers of one target never share (and
// truncate) a staging file, and every reader sees one whole version.
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/test_dir.hpp"

namespace afs {
namespace {

/// Version v of the target: a size and a fill byte that both identify v,
/// so a torn or interleaved file cannot pass for any version.
std::string version(int v) {
  return std::string(16384 + static_cast<std::size_t>(v) * 1024,
                     static_cast<char>('a' + v));
}

bool is_whole_version(const std::string& s) {
  if (s.empty()) return false;
  const int v = s.front() - 'a';
  return v >= 0 && v < 26 && s == version(v);
}

TEST(AtomicFile, UniqueTmpPathsNeverRepeat) {
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    const std::string tmp = unique_tmp_path("dir/out.csv");
    EXPECT_EQ(tmp.rfind("dir/out.csv.tmp.", 0), 0u) << tmp;
    EXPECT_TRUE(seen.insert(tmp).second) << tmp;
  }
  std::string other;
  std::thread([&] { other = unique_tmp_path("dir/out.csv"); }).join();
  EXPECT_TRUE(seen.insert(other).second) << other;
}

TEST(AtomicFile, ConcurrentWritersOfOneTargetNeverTearIt) {
  const TestDir dir;
  const std::string target = dir / "shared.csv";
  write_file_atomic(target, version(0));

  constexpr int kWriters = 8;
  constexpr int kWritesEach = 20;
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failures{0};
  std::atomic<int> torn{0};
  std::atomic<int> reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kWritesEach; ++i) {
        try {
          write_file_atomic(target, version(w + 1));
        } catch (const std::exception&) {
          ++failures;
        }
      }
      --writers_left;
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        if (!is_whole_version(read_file(target))) ++torn;
        ++reads;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0) << "of " << reads.load() << " reads";
  EXPECT_TRUE(is_whole_version(read_file(target)));
  // Every staging file was renamed into place: nothing is left beside it.
  for (const auto& e : std::filesystem::directory_iterator(dir.str()))
    EXPECT_EQ(e.path().filename(), "shared.csv") << e.path();
}

}  // namespace
}  // namespace afs
