// Test support: a private temporary directory per test, and whole-file
// reads for comparing outputs byte for byte.
//
// A private temporary directory for one test. gtest discovery makes every
// TEST its own ctest entry, so under `ctest -j` tests of one binary run
// as concurrent processes: any fixed relative output path (bench_results/
// and friends) is shared between them and races. TestDir gives each test
// <TempDir>/<suite>.<test>.<pid>, emptied on construction and removed on
// destruction.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>

namespace afs {

class TestDir {
 public:
  TestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::path(::testing::TempDir()) /
            (std::string(info->test_suite_name()) + "." + info->name() + "." +
             std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  /// The directory itself, or `name` inside it.
  std::string str() const { return path_.string(); }
  std::string operator/(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// The whole content of `path` as bytes; empty when it cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace afs
