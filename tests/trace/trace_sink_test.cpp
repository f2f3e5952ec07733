// The simulator's trace narration through BinaryTraceSink: the decoded
// stream must narrate the run completely (begin/end framing, every grab
// and miss), every record must export as a well-formed JSON object, and
// — critically — attaching the sink must not perturb the simulation.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/gauss.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "trace/binary_sink.hpp"
#include "trace/json_export.hpp"
#include "trace/trace_reader.hpp"

namespace afs {
namespace {

std::vector<TraceRecord> decode(const std::string& bytes) {
  std::istringstream in(bytes);
  TraceReader reader(in);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

// Minimal structural JSON validator: balanced {} and [] outside strings,
// no trailing garbage. Enough to catch broken escaping or truncation
// without a JSON library in the test image.
bool looks_like_json_object(const std::string& s) {
  if (s.empty() || s.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\')
        ++i;  // skip escaped char
      else if (c == '"')
        in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0 && i + 1 != s.size()) return false;  // trailing junk
    }
  }
  return depth == 0 && !in_string;
}

std::int64_t count_ev(const std::vector<TraceRecord>& records, TraceEv ev) {
  std::int64_t n = 0;
  for (const TraceRecord& r : records)
    if (r.ev == ev) ++n;
  return n;
}

TEST(TraceSink, StreamIsWellFormedAndComplete) {
  std::ostringstream out;
  BinaryTraceSink sink(out);

  SimOptions opts;
  opts.trace = &sink;
  MachineSim sim(iris(), opts);
  auto sched = make_scheduler("AFS");
  const SimResult r = sim.run(GaussKernel::program(32), *sched, 4);
  sink.finalize();

  const std::vector<TraceRecord> records = decode(out.str());
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(static_cast<std::int64_t>(records.size()),
            sink.records_written());
  for (const TraceRecord& rec : records)
    EXPECT_TRUE(looks_like_json_object(to_jsonl(rec))) << to_jsonl(rec);

  // Framing: exactly one run_begin / run_end, first and last.
  EXPECT_EQ(count_ev(records, TraceEv::kRunBegin), 1);
  EXPECT_EQ(count_ev(records, TraceEv::kRunEnd), 1);
  EXPECT_EQ(records.front().ev, TraceEv::kRunBegin);
  EXPECT_EQ(records.back().ev, TraceEv::kRunEnd);

  // Gauss on 32 rows has 31 epochs, each one loop.
  EXPECT_EQ(count_ev(records, TraceEv::kLoopBegin), 31);
  EXPECT_EQ(count_ev(records, TraceEv::kLoopEnd), 31);
  EXPECT_EQ(count_ev(records, TraceEv::kBarrier), 31);

  // Narration completeness: one grab record per scheduler grab, one miss
  // record per cache miss, one done record per processor per loop.
  const std::int64_t grabs = r.local_grabs + r.remote_grabs + r.central_grabs;
  EXPECT_EQ(count_ev(records, TraceEv::kGrab), grabs);
  EXPECT_EQ(count_ev(records, TraceEv::kMiss), r.misses);
  EXPECT_EQ(count_ev(records, TraceEv::kDone), 31 * 4);
}

TEST(TraceSink, TracingDoesNotPerturbTheRun) {
  auto run_once = [](MetricsSink* trace) {
    SimOptions opts;
    opts.trace = trace;
    MachineSim sim(ksr1(), opts);
    auto sched = make_scheduler("AFS");
    return sim.run(GaussKernel::program(64), *sched, 8);
  };
  std::ostringstream out;
  BinaryTraceSink sink(out);
  const SimResult traced = run_once(&sink);
  const SimResult plain = run_once(nullptr);

  EXPECT_EQ(traced.makespan, plain.makespan);
  EXPECT_EQ(traced.busy, plain.busy);
  EXPECT_EQ(traced.sync, plain.sync);
  EXPECT_EQ(traced.comm, plain.comm);
  EXPECT_EQ(traced.idle, plain.idle);
  EXPECT_EQ(traced.misses, plain.misses);
  EXPECT_EQ(traced.units_transferred, plain.units_transferred);
  EXPECT_EQ(traced.local_grabs, plain.local_grabs);
  EXPECT_EQ(traced.remote_grabs, plain.remote_grabs);
  EXPECT_GT(sink.records_written(), 0);
}

TEST(TraceSink, SetTraceSinkAttachesAndDetaches) {
  std::ostringstream out;
  BinaryTraceSink sink(out);
  MachineSim sim(iris());
  auto sched = make_scheduler("GSS");

  sim.set_trace_sink(&sink);
  sim.run(GaussKernel::program(16), *sched, 2);
  const std::int64_t traced_records = sink.records_written();
  EXPECT_GT(traced_records, 0);

  sim.set_trace_sink(nullptr);
  auto sched2 = make_scheduler("GSS");
  sim.run(GaussKernel::program(16), *sched2, 2);
  EXPECT_EQ(sink.records_written(), traced_records);  // nothing new
  sink.finalize();
  EXPECT_EQ(static_cast<std::int64_t>(decode(out.str()).size()),
            traced_records);
}

TEST(TraceSink, PathConstructorRejectsUnwritableFile) {
  EXPECT_THROW(BinaryTraceSink("/nonexistent_dir_xyz/trace.cctrace"),
               std::runtime_error);
}

TEST(TraceSink, EscapesControlAndQuoteCharacters) {
  // Machine and program names are caller-supplied: they must survive the
  // .cctrace round trip byte for byte and export as valid JSON strings.
  std::ostringstream out;
  BinaryTraceSink sink(out);
  MachineConfig m = iris();
  m.name = "we\"ird\\na\tme";
  sink.on_run_begin(m, "prog\nname\x01", "sched", 2);
  sink.finalize();
  const std::vector<TraceRecord> records = decode(out.str());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].machine, m.name);
  const std::string line = to_jsonl(records[0]);
  EXPECT_TRUE(looks_like_json_object(line)) << line;
  EXPECT_EQ(line.find('\t'), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line,
            R"({"ev":"run_begin","machine":"we\"ird\\na\tme",)"
            R"("program":"prog\nname\u0001","scheduler":"sched","p":2})");
}

}  // namespace
}  // namespace afs
