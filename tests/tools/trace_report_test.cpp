// trace_report end to end: the real binary on real .cctrace files. The
// format has no end marker, so a file cut right after its 8-byte header
// decodes cleanly as zero records; the tool's only defence is to refuse a
// file that holds no run, in both the analytics and the export mode.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "machines/machines.hpp"
#include "support/test_dir.hpp"
#include "trace/binary_sink.hpp"
#include "trace/json_export.hpp"
#include "trace/trace_reader.hpp"

namespace afs {
namespace {

/// Runs trace_report with `args`, stdout to `out_path`; returns its exit
/// status.
int trace_report(const std::string& args, const std::string& out_path) {
  const std::string cmd = std::string(TRACE_REPORT_EXE) + " " + args + " > '" +
                          out_path + "' 2>/dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void write_small_trace(const std::string& path) {
  BinaryTraceSink sink(path);
  sink.on_run_begin(iris(), "prog", "AFS", 1);
  sink.on_loop_begin(0, 4, 1);
  sink.on_chunk(0, 0, 4, 0.5, 10.25);
  sink.on_proc_done(0, 10.25);
  sink.on_loop_end(0, 10.25);
  sink.on_run_end(10.25);
  sink.finalize();
}

TEST(TraceReport, HeaderOnlyTraceHoldsNoRunAndFails) {
  TestDir dir;
  const std::string path = dir / "cut.cctrace";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(BinaryTraceSink::kMagic),
            sizeof BinaryTraceSink::kMagic);
  }
  // The reader accepts it: there is nothing malformed to point at.
  EXPECT_TRUE(read_trace(path).empty());
  EXPECT_NE(trace_report("'" + path + "'", dir / "report.txt"), 0);
  EXPECT_NE(trace_report("--dump-jsonl '" + path + "'", dir / "dump.txt"), 0);

  // One good file does not excuse a runless one beside it.
  const std::string good = dir / "good.cctrace";
  write_small_trace(good);
  EXPECT_EQ(trace_report("'" + good + "'", dir / "report.txt"), 0);
  EXPECT_NE(trace_report("'" + good + "' '" + path + "'", dir / "report.txt"),
            0);
}

TEST(TraceReport, DumpJsonlPrintsEveryRecordAsOneLine) {
  TestDir dir;
  const std::string path = dir / "run.cctrace";
  write_small_trace(path);
  std::string want;
  for (const TraceRecord& rec : read_trace(path)) want += to_jsonl(rec) + "\n";

  ASSERT_EQ(trace_report("--dump-jsonl '" + path + "'", dir / "dump.txt"), 0);
  const std::string got = read_file(dir / "dump.txt");
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.substr(0, got.find('\n')),
            R"({"ev":"run_begin","machine":"iris","program":"prog",)"
            R"("scheduler":"AFS","p":1})");
}

}  // namespace
}  // namespace afs
