// The JSON export of decoded .cctrace records (trace/json_export.hpp).
// JSON is an export, not a second trace format, so its text is pinned:
// field order, precision-17 doubles and escaping are exactly what the
// former JSON-lines trace sink streamed, and scripts that parsed those
// files read `trace_report --dump-jsonl` output unchanged.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "kernels/gauss.hpp"
#include "machines/machines.hpp"
#include "sched/registry.hpp"
#include "sim/machine_sim.hpp"
#include "sim/perturbation.hpp"
#include "trace/binary_sink.hpp"
#include "trace/json_export.hpp"
#include "trace/trace_reader.hpp"

namespace afs {
namespace {

// Streamed by the JSON-lines sink this export replaces, for the run in
// ExportMatchesTheFormerSinkByteForByte: AFS at P=3 on the KSR-1 (its
// ring latencies make non-round times that need all 17 digits), Gauss
// N=5, with stalls, memory spikes and a processor loss.
constexpr const char* kFormerSinkText = R"golden({"ev":"run_begin","machine":"ksr1","program":"gauss-5","scheduler":"AFS","p":3}
{"ev":"loop_begin","epoch":0,"n":4,"p":3}
{"ev":"grab","proc":0,"kind":"local","queue":0,"begin":0,"end":1,"t0":0,"t1":30}
{"ev":"grab","proc":1,"kind":"local","queue":1,"begin":2,"end":3,"t0":0,"t1":30}
{"ev":"grab","proc":2,"kind":"local","queue":2,"begin":3,"end":4,"t0":0,"t1":30}
{"ev":"miss","proc":0,"block":0,"size":5,"t0":40,"t1":140.83333333333334}
{"ev":"miss","proc":0,"block":1,"size":5,"t0":140.83333333333334,"t1":241.66666666666669}
{"ev":"chunk","proc":0,"begin":0,"end":1,"t0":30,"t1":241.66666666666669}
{"ev":"miss","proc":1,"block":0,"size":5,"t0":40,"t1":242.50000000000003}
{"ev":"miss","proc":1,"block":3,"size":5,"t0":242.50000000000003,"t1":343.33333333333337}
{"ev":"chunk","proc":1,"begin":2,"end":3,"t0":30,"t1":343.33333333333337}
{"ev":"miss","proc":2,"block":0,"size":5,"t0":40,"t1":344.16666666666674}
{"ev":"miss","proc":2,"block":4,"size":5,"t0":344.16666666666674,"t1":445.00000000000006}
{"ev":"chunk","proc":2,"begin":3,"end":4,"t0":30,"t1":445.00000000000006}
{"ev":"stall","proc":0,"t0":241.66666666666669,"t1":266.66666666666669}
{"ev":"grab","proc":0,"kind":"local","queue":0,"begin":1,"end":2,"t0":266.66666666666669,"t1":296.66666666666669}
{"ev":"miss","proc":0,"block":2,"size":5,"t0":306.66666666666669,"t1":445.83333333333337}
{"ev":"chunk","proc":0,"begin":1,"end":2,"t0":296.66666666666669,"t1":445.83333333333337}
{"ev":"lost","proc":1,"t":343.33333333333337}
{"ev":"stall","proc":2,"t0":445.00000000000006,"t1":470.00000000000006}
{"ev":"done","proc":2,"t":470.00000000000006}
{"ev":"done","proc":0,"t":445.83333333333337}
{"ev":"loop_end","epoch":0,"end":470.00000000000006}
{"ev":"barrier","epoch":0,"cost":260,"total":520}
{"ev":"loop_begin","epoch":1,"n":3,"p":3}
{"ev":"stall","proc":0,"t0":730,"t1":755}
{"ev":"grab","proc":0,"kind":"local","queue":0,"begin":0,"end":1,"t0":755,"t1":785}
{"ev":"grab","proc":2,"kind":"local","queue":2,"begin":2,"end":3,"t0":730,"t1":760}
{"ev":"miss","proc":2,"block":1,"size":4,"t0":768,"t1":868.66666666666663}
{"ev":"chunk","proc":2,"begin":2,"end":3,"t0":760,"t1":868.66666666666663}
{"ev":"chunk","proc":0,"begin":0,"end":1,"t0":785,"t1":793}
{"ev":"grab","proc":0,"kind":"remote","queue":1,"begin":1,"end":2,"t0":793,"t1":1108}
{"ev":"fault_steal","proc":0,"queue":1,"iters":1}
{"ev":"stall","proc":2,"t0":868.66666666666663,"t1":893.66666666666663}
{"ev":"done","proc":2,"t":893.66666666666663}
{"ev":"miss","proc":0,"block":3,"size":4,"t0":1116,"t1":1216.6666666666667}
{"ev":"inval","proc":0,"block":3,"copies":1,"t0":1216.6666666666667,"t1":1246.6666666666667}
{"ev":"chunk","proc":0,"begin":1,"end":2,"t0":1108,"t1":1246.6666666666667}
{"ev":"stall","proc":0,"t0":1246.6666666666667,"t1":1271.6666666666667}
{"ev":"done","proc":0,"t":1271.6666666666667}
{"ev":"loop_end","epoch":1,"end":1271.6666666666667}
{"ev":"barrier","epoch":1,"cost":260,"total":520}
{"ev":"loop_begin","epoch":2,"n":2,"p":3}
{"ev":"stall","proc":0,"t0":1531.6666666666667,"t1":1556.6666666666667}
{"ev":"grab","proc":0,"kind":"local","queue":0,"begin":0,"end":1,"t0":1556.6666666666667,"t1":1586.6666666666667}
{"ev":"stall","proc":2,"t0":1531.6666666666667,"t1":1556.6666666666667}
{"ev":"grab","proc":2,"kind":"remote","queue":1,"begin":1,"end":2,"t0":1556.6666666666667,"t1":1871.6666666666667}
{"ev":"fault_steal","proc":2,"queue":1,"iters":1}
{"ev":"chunk","proc":0,"begin":0,"end":1,"t0":1586.6666666666667,"t1":1592.6666666666667}
{"ev":"done","proc":0,"t":1592.6666666666667}
{"ev":"miss","proc":2,"block":2,"size":3,"t0":1877.6666666666667,"t1":1985.4666666666667}
{"ev":"chunk","proc":2,"begin":1,"end":2,"t0":1871.6666666666667,"t1":1985.4666666666667}
{"ev":"done","proc":2,"t":1985.4666666666667}
{"ev":"loop_end","epoch":2,"end":1985.4666666666667}
{"ev":"barrier","epoch":2,"cost":260,"total":520}
{"ev":"loop_begin","epoch":3,"n":1,"p":3}
{"ev":"stall","proc":0,"t0":2245.4666666666667,"t1":2270.4666666666667}
{"ev":"grab","proc":0,"kind":"local","queue":0,"begin":0,"end":1,"t0":2270.4666666666667,"t1":2300.4666666666667}
{"ev":"stall","proc":2,"t0":2245.4666666666667,"t1":2270.4666666666667}
{"ev":"done","proc":2,"t":2270.4666666666667}
{"ev":"miss","proc":0,"block":4,"size":2,"t0":2304.4666666666667,"t1":2404.8000000000002}
{"ev":"inval","proc":0,"block":4,"copies":1,"t0":2404.8000000000002,"t1":2434.8000000000002}
{"ev":"chunk","proc":0,"begin":0,"end":1,"t0":2300.4666666666667,"t1":2434.8000000000002}
{"ev":"done","proc":0,"t":2434.8000000000002}
{"ev":"loop_end","epoch":3,"end":2434.8000000000002}
{"ev":"barrier","epoch":3,"cost":260,"total":520}
{"ev":"run_end","makespan":2694.8000000000002}
)golden";

std::string export_of(const std::string& bytes) {
  std::istringstream in(bytes);
  TraceReader reader(in);
  std::string text;
  TraceRecord rec;
  while (reader.next(rec)) text += to_jsonl(rec) + "\n";
  return text;
}

TEST(TraceJsonExport, ExportMatchesTheFormerSinkByteForByte) {
  std::ostringstream out;
  {
    BinaryTraceSink sink(out);
    SimOptions opts;
    opts.trace = &sink;
    opts.perturb.seed = 2026;
    opts.perturb.stall_mean_interval = 300.0;
    opts.perturb.stall_duration = 25.0;
    opts.perturb.mem_spike_prob = 0.3;
    opts.perturb.mem_spike_latency = 7.3;
    opts.perturb.losses.push_back({1, 200.0});
    MachineConfig m = ksr1();
    m.epoch_jitter = 0.0;
    MachineSim sim(m, opts);
    auto sched = make_scheduler("AFS");
    sim.run(GaussKernel::program(5), *sched, 3);
  }
  EXPECT_EQ(export_of(out.str()), kFormerSinkText);
}

TEST(TraceJsonExport, EveryEventUsesItsSchemaFieldNames) {
  // Events the pinned run does not produce, with the export's renamed
  // fields: fault_steal/abandoned carry `iters`, loop_end `end`, barrier
  // `cost` and `total`.
  TraceRecord r;
  r.ev = TraceEv::kAbandoned;
  r.n = 43;
  EXPECT_EQ(to_jsonl(r), R"({"ev":"abandoned","iters":43})");

  r = TraceRecord{};
  r.ev = TraceEv::kFaultSteal;
  r.proc = 1;
  r.queue = 2;
  r.n = 17;
  EXPECT_EQ(to_jsonl(r), R"({"ev":"fault_steal","proc":1,"queue":2,"iters":17})");

  r = TraceRecord{};
  r.ev = TraceEv::kGrab;
  r.proc = 0;
  r.kind = GrabKind::kStatic;
  r.queue = -1;
  r.begin = 0;
  r.end = 40;
  r.t0 = 0.1 + 1e-13;
  r.t1 = 1e300;
  EXPECT_EQ(to_jsonl(r),
            R"({"ev":"grab","proc":0,"kind":"static","queue":-1,"begin":0,)"
            R"("end":40,"t0":0.10000000000010001,"t1":1.0000000000000001e+300})");
}

}  // namespace
}  // namespace afs
