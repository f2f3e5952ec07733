#include "trace/trace_reader.hpp"

#include "trace/binary_sink.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace afs {
namespace {

std::uint64_t u64_of_bits(std::uint64_t b, double& out) {
  std::memcpy(&out, &b, sizeof out);
  return b;
}

bool grab_kind_of(const std::string& s, GrabKind& out) {
  if (s == "none") out = GrabKind::kNone;
  else if (s == "central") out = GrabKind::kCentral;
  else if (s == "local") out = GrabKind::kLocal;
  else if (s == "remote") out = GrabKind::kRemote;
  else if (s == "static") out = GrabKind::kStatic;
  else return false;
  return true;
}

/// One parsed member of a flat JSON object.
struct JsonField {
  std::string key;
  std::string value;  // unescaped string, or the raw number token
  bool is_string = false;
};

/// Minimal parser for the flat objects the JSONL sink emits: string keys,
/// string or number values, no nesting. Returns false on malformed input.
bool parse_flat_object(const std::string& line, std::vector<JsonField>& out) {
  out.clear();
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto parse_string = [&](std::string& s) {
    s.clear();
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    while (i < line.size() && line[i] != '"') {
      char c = line[i++];
      if (c == '\\') {
        if (i >= line.size()) return false;
        const char e = line[i++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (i + 4 > line.size()) return false;
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = line[i++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // The sink only \u-escapes control bytes (< 0x20).
            if (v > 0xff) return false;
            c = static_cast<char>(v);
            break;
          }
          default: return false;
        }
      }
      s.push_back(c);
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return true;  // empty object
  for (;;) {
    JsonField f;
    skip_ws();
    if (!parse_string(f.key)) return false;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    if (i < line.size() && line[i] == '"') {
      f.is_string = true;
      if (!parse_string(f.value)) return false;
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      f.value = line.substr(start, i - start);
      while (!f.value.empty() && (f.value.back() == ' ' || f.value.back() == '\t'))
        f.value.pop_back();
      if (f.value.empty()) return false;
    }
    out.push_back(std::move(f));
    skip_ws();
    if (i >= line.size()) return false;
    if (line[i] == '}') {
      ++i;
      skip_ws();
      return i == line.size();  // no trailing garbage
    }
    if (line[i] != ',') return false;
    ++i;
  }
}

const JsonField* find(const std::vector<JsonField>& fields,
                      const char* key) {
  for (const JsonField& f : fields)
    if (f.key == key) return &f;
  return nullptr;
}

}  // namespace

TraceReader::TraceReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_), context_(path) {
  if (!file_) throw std::runtime_error("cannot open trace: " + path);
  sniff();
}

TraceReader::TraceReader(std::istream& in) : in_(&in), context_("<stream>") {
  sniff();
}

void TraceReader::fail(const std::string& what) const {
  throw std::runtime_error("malformed trace (" + context_ + ", record " +
                           std::to_string(records_) + "): " + what);
}

void TraceReader::sniff() {
  const int first = in_->peek();
  if (first == std::istream::traits_type::eof()) fail("empty trace");
  if (first == '{') {
    format_ = TraceFormat::kJsonl;
    return;
  }
  unsigned char header[sizeof BinaryTraceSink::kMagic];
  in_->read(reinterpret_cast<char*>(header), sizeof header);
  if (static_cast<std::size_t>(in_->gcount()) != sizeof header ||
      std::memcmp(header, "CCTR", 4) != 0)
    fail("not a trace: bad magic");
  if (header[4] != BinaryTraceSink::kMagic[4])
    fail("unsupported .cctrace version " + std::to_string(header[4]));
  format_ = TraceFormat::kBinary;
}

bool TraceReader::next(TraceRecord& rec) {
  rec = TraceRecord{};
  return format_ == TraceFormat::kBinary ? next_binary(rec) : next_jsonl(rec);
}

std::uint8_t TraceReader::read_u8() {
  const int c = in_->get();
  if (c == std::istream::traits_type::eof()) fail("unexpected end of stream");
  return static_cast<std::uint8_t>(c);
}

std::uint64_t TraceReader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = read_u8();
    if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0))
      fail("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::int64_t TraceReader::read_svarint() {
  const std::uint64_t z = read_varint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

double TraceReader::read_time() {
  prev_time_bits_ ^= read_varint();
  double out;
  u64_of_bits(prev_time_bits_, out);
  return out;
}

double TraceReader::read_value() {
  prev_value_bits_ ^= read_varint();
  double out;
  u64_of_bits(prev_value_bits_, out);
  return out;
}

bool TraceReader::next_binary(TraceRecord& rec) {
  for (bool after_definition = false;; after_definition = true) {
    const int c = in_->get();
    if (c == std::istream::traits_type::eof()) {
      // The sink defines each string right before the first record that
      // uses it, so a definition with no record after it is a cut file.
      if (after_definition) fail("trace ends after a string definition");
      return false;  // clean end
    }
    const auto opcode = static_cast<std::uint8_t>(c);
    if (opcode == 0) {
      // String definition: ids are assigned sequentially at first use.
      const std::uint64_t id = read_varint();
      if (id != strings_.size()) fail("out-of-order string definition");
      const std::uint64_t len = read_varint();
      if (len > (1u << 20)) fail("unreasonable string length");
      std::string s(static_cast<std::size_t>(len), '\0');
      in_->read(s.data(), static_cast<std::streamsize>(len));
      if (static_cast<std::uint64_t>(in_->gcount()) != len)
        fail("truncated string definition");
      strings_.push_back(std::move(s));
      continue;
    }
    if (opcode < static_cast<std::uint8_t>(TraceEv::kRunBegin) ||
        opcode > static_cast<std::uint8_t>(TraceEv::kRunEnd))
      fail("unknown opcode " + std::to_string(opcode));
    rec.ev = static_cast<TraceEv>(opcode);
    break;
  }

  const auto string_ref = [&]() -> const std::string& {
    const std::uint64_t id = read_varint();
    if (id >= strings_.size()) fail("dangling string reference");
    return strings_[static_cast<std::size_t>(id)];
  };
  const auto read_int = [&] { return static_cast<int>(read_varint()); };

  switch (rec.ev) {
    case TraceEv::kRunBegin:
      rec.machine = string_ref();
      rec.program = string_ref();
      rec.scheduler = string_ref();
      rec.p = read_int();
      break;
    case TraceEv::kLoopBegin:
      rec.epoch = read_int();
      rec.n = static_cast<std::int64_t>(read_varint());
      rec.p = read_int();
      break;
    case TraceEv::kGrab: {
      rec.proc = read_int();
      const std::uint8_t kind = read_u8();
      if (kind > static_cast<std::uint8_t>(GrabKind::kStatic))
        fail("unknown grab kind");
      rec.kind = static_cast<GrabKind>(kind);
      rec.queue = static_cast<int>(read_svarint());
      rec.begin = read_svarint();
      rec.end = read_svarint();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    }
    case TraceEv::kChunk:
      rec.proc = read_int();
      rec.begin = read_svarint();
      rec.end = read_svarint();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kMiss:
      rec.proc = read_int();
      rec.block = read_svarint();
      rec.size = read_value();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kInval:
      rec.proc = read_int();
      rec.block = read_svarint();
      rec.copies = read_int();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kDone:
    case TraceEv::kLost:
      rec.proc = read_int();
      rec.t0 = read_time();
      break;
    case TraceEv::kStall:
      rec.proc = read_int();
      rec.t0 = read_time();
      rec.t1 = read_time();
      break;
    case TraceEv::kFaultSteal:
      rec.proc = read_int();
      rec.queue = static_cast<int>(read_svarint());
      rec.n = static_cast<std::int64_t>(read_varint());
      break;
    case TraceEv::kAbandoned:
      rec.n = static_cast<std::int64_t>(read_varint());
      break;
    case TraceEv::kLoopEnd:
      rec.epoch = read_int();
      rec.t0 = read_time();
      break;
    case TraceEv::kBarrier:
      rec.epoch = read_int();
      rec.size = read_value();
      rec.t0 = read_time();
      break;
    case TraceEv::kRunEnd:
      rec.t0 = read_time();
      break;
  }
  ++records_;
  return true;
}

bool TraceReader::next_jsonl(TraceRecord& rec) {
  std::string line;
  do {
    if (!std::getline(*in_, line)) return false;  // clean end
  } while (line.empty());

  std::vector<JsonField> fields;
  if (!parse_flat_object(line, fields)) fail("unparsable JSON line: " + line);

  const auto str = [&](const char* key) -> const std::string& {
    const JsonField* f = find(fields, key);
    if (!f || !f->is_string) fail(std::string("missing string field ") + key);
    return f->value;
  };
  const auto num = [&](const char* key) {
    const JsonField* f = find(fields, key);
    if (!f || f->is_string) fail(std::string("missing number field ") + key);
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(f->value.c_str(), &end);
    if (end == f->value.c_str() || *end != '\0' || errno == ERANGE)
      fail(std::string("bad number in field ") + key + ": " + f->value);
    return v;
  };
  const auto integer = [&](const char* key) {
    const JsonField* f = find(fields, key);
    if (!f || f->is_string) fail(std::string("missing number field ") + key);
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(f->value.c_str(), &end, 10);
    if (end == f->value.c_str() || *end != '\0' || errno == ERANGE)
      fail(std::string("bad integer in field ") + key + ": " + f->value);
    return static_cast<std::int64_t>(v);
  };

  const std::string& ev = str("ev");
  if (ev == "run_begin") {
    rec.ev = TraceEv::kRunBegin;
    rec.machine = str("machine");
    rec.program = str("program");
    rec.scheduler = str("scheduler");
    rec.p = static_cast<int>(integer("p"));
  } else if (ev == "loop_begin") {
    rec.ev = TraceEv::kLoopBegin;
    rec.epoch = static_cast<int>(integer("epoch"));
    rec.n = integer("n");
    rec.p = static_cast<int>(integer("p"));
  } else if (ev == "grab") {
    rec.ev = TraceEv::kGrab;
    rec.proc = static_cast<int>(integer("proc"));
    if (!grab_kind_of(str("kind"), rec.kind)) fail("unknown grab kind");
    rec.queue = static_cast<int>(integer("queue"));
    rec.begin = integer("begin");
    rec.end = integer("end");
    rec.t0 = num("t0");
    rec.t1 = num("t1");
  } else if (ev == "chunk") {
    rec.ev = TraceEv::kChunk;
    rec.proc = static_cast<int>(integer("proc"));
    rec.begin = integer("begin");
    rec.end = integer("end");
    rec.t0 = num("t0");
    rec.t1 = num("t1");
  } else if (ev == "miss") {
    rec.ev = TraceEv::kMiss;
    rec.proc = static_cast<int>(integer("proc"));
    rec.block = integer("block");
    rec.size = num("size");
    rec.t0 = num("t0");
    rec.t1 = num("t1");
  } else if (ev == "inval") {
    rec.ev = TraceEv::kInval;
    rec.proc = static_cast<int>(integer("proc"));
    rec.block = integer("block");
    rec.copies = static_cast<int>(integer("copies"));
    rec.t0 = num("t0");
    rec.t1 = num("t1");
  } else if (ev == "done") {
    rec.ev = TraceEv::kDone;
    rec.proc = static_cast<int>(integer("proc"));
    rec.t0 = num("t");
  } else if (ev == "stall") {
    rec.ev = TraceEv::kStall;
    rec.proc = static_cast<int>(integer("proc"));
    rec.t0 = num("t0");
    rec.t1 = num("t1");
  } else if (ev == "lost") {
    rec.ev = TraceEv::kLost;
    rec.proc = static_cast<int>(integer("proc"));
    rec.t0 = num("t");
  } else if (ev == "fault_steal") {
    rec.ev = TraceEv::kFaultSteal;
    rec.proc = static_cast<int>(integer("proc"));
    rec.queue = static_cast<int>(integer("queue"));
    rec.n = integer("iters");
  } else if (ev == "abandoned") {
    rec.ev = TraceEv::kAbandoned;
    rec.n = integer("iters");
  } else if (ev == "loop_end") {
    rec.ev = TraceEv::kLoopEnd;
    rec.epoch = static_cast<int>(integer("epoch"));
    rec.t0 = num("end");
  } else if (ev == "barrier") {
    rec.ev = TraceEv::kBarrier;
    rec.epoch = static_cast<int>(integer("epoch"));
    rec.size = num("cost");
    rec.t0 = num("total");
  } else if (ev == "run_end") {
    rec.ev = TraceEv::kRunEnd;
    rec.t0 = num("makespan");
  } else {
    fail("unknown ev \"" + ev + "\"");
  }
  ++records_;
  return true;
}

std::vector<TraceRecord> read_trace(const std::string& path) {
  TraceReader reader(path);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

}  // namespace afs
