// JSON export of decoded trace records: one flat JSON object per record,
// the human- and script-readable view of a .cctrace file (`trace_report
// --dump-jsonl TRACE`). Schema in docs/SIMULATOR.md, "Trace export
// schema":
//
//   {"ev":"run_begin","machine":..,"program":..,"scheduler":..,"p":N}
//   {"ev":"loop_begin","epoch":E,"n":N,"p":P}
//   {"ev":"grab","proc":Q,"kind":"local|remote|central|static|none",
//    "queue":I,"begin":B,"end":E,"t0":..,"t1":..}
//   {"ev":"chunk","proc":Q,"begin":B,"end":E,"t0":..,"t1":..}
//   {"ev":"miss","proc":Q,"block":B,"size":S,"t0":..,"t1":..}
//   {"ev":"inval","proc":Q,"block":B,"copies":C,"t0":..,"t1":..}
//   {"ev":"done","proc":Q,"t":..}
//   {"ev":"stall","proc":Q,"t0":..,"t1":..}
//   {"ev":"lost","proc":Q,"t":..}
//   {"ev":"fault_steal","proc":Q,"queue":V,"iters":N}
//   {"ev":"abandoned","iters":N}
//   {"ev":"loop_end","epoch":E,"end":..}
//   {"ev":"barrier","epoch":E,"cost":..,"total":..}
//   {"ev":"run_end","makespan":..}
//
// Doubles print at precision 17, so every value round-trips exactly, and
// strings are escaped (quote, backslash, control bytes) as JSON requires.
#pragma once

#include <string>

#include "trace/trace_record.hpp"

namespace afs {

/// One record as a JSON object, without the trailing newline.
std::string to_jsonl(const TraceRecord& rec);

}  // namespace afs
