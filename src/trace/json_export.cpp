#include "trace/json_export.hpp"

#include <cstdio>
#include <sstream>

namespace afs {
namespace {

// Machine and program names are caller-supplied, so escape what JSON
// cannot carry raw; every other byte passes through.
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string str(const std::string& s) { return '"' + escaped(s) + '"'; }

std::string integer(std::int64_t v) { return std::to_string(v); }

}  // namespace

std::string to_jsonl(const TraceRecord& r) {
  std::string body = "{\"ev\":\"" + std::string(to_string(r.ev)) + '"';
  const auto field = [&body](const char* key, const std::string& value) {
    body += ",\"";
    body += key;
    body += "\":";
    body += value;
  };
  switch (r.ev) {
    case TraceEv::kRunBegin:
      field("machine", str(r.machine));
      field("program", str(r.program));
      field("scheduler", str(r.scheduler));
      field("p", integer(r.p));
      break;
    case TraceEv::kLoopBegin:
      field("epoch", integer(r.epoch));
      field("n", integer(r.n));
      field("p", integer(r.p));
      break;
    case TraceEv::kGrab:
      field("proc", integer(r.proc));
      field("kind", '"' + std::string(to_string(r.kind)) + '"');
      field("queue", integer(r.queue));
      field("begin", integer(r.begin));
      field("end", integer(r.end));
      field("t0", num(r.t0));
      field("t1", num(r.t1));
      break;
    case TraceEv::kChunk:
      field("proc", integer(r.proc));
      field("begin", integer(r.begin));
      field("end", integer(r.end));
      field("t0", num(r.t0));
      field("t1", num(r.t1));
      break;
    case TraceEv::kMiss:
      field("proc", integer(r.proc));
      field("block", integer(r.block));
      field("size", num(r.size));
      field("t0", num(r.t0));
      field("t1", num(r.t1));
      break;
    case TraceEv::kInval:
      field("proc", integer(r.proc));
      field("block", integer(r.block));
      field("copies", integer(r.copies));
      field("t0", num(r.t0));
      field("t1", num(r.t1));
      break;
    case TraceEv::kDone:
    case TraceEv::kLost:
      field("proc", integer(r.proc));
      field("t", num(r.t0));
      break;
    case TraceEv::kStall:
      field("proc", integer(r.proc));
      field("t0", num(r.t0));
      field("t1", num(r.t1));
      break;
    case TraceEv::kFaultSteal:
      field("proc", integer(r.proc));
      field("queue", integer(r.queue));
      field("iters", integer(r.n));
      break;
    case TraceEv::kAbandoned:
      field("iters", integer(r.n));
      break;
    case TraceEv::kLoopEnd:
      field("epoch", integer(r.epoch));
      field("end", num(r.t0));
      break;
    case TraceEv::kBarrier:
      field("epoch", integer(r.epoch));
      field("cost", num(r.size));
      field("total", num(r.t0));
      break;
    case TraceEv::kRunEnd:
      field("makespan", num(r.t0));
      break;
  }
  body += '}';
  return body;
}

}  // namespace afs
