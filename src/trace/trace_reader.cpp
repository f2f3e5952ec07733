#include "trace/trace_reader.hpp"

#include "trace/binary_sink.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace afs {
namespace {

std::uint64_t u64_of_bits(std::uint64_t b, double& out) {
  std::memcpy(&out, &b, sizeof out);
  return b;
}

}  // namespace

TraceReader::TraceReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_), context_(path) {
  if (!file_) throw std::runtime_error("cannot open trace: " + path);
  read_header();
}

TraceReader::TraceReader(std::istream& in) : in_(&in), context_("<stream>") {
  read_header();
}

void TraceReader::fail(const std::string& what) const {
  throw std::runtime_error("malformed trace (" + context_ + ", record " +
                           std::to_string(records_) + "): " + what);
}

void TraceReader::read_header() {
  if (in_->peek() == std::istream::traits_type::eof()) fail("empty trace");
  unsigned char header[sizeof BinaryTraceSink::kMagic];
  in_->read(reinterpret_cast<char*>(header), sizeof header);
  if (static_cast<std::size_t>(in_->gcount()) != sizeof header ||
      std::memcmp(header, "CCTR", 4) != 0)
    fail("not a trace: bad magic");
  if (header[4] != BinaryTraceSink::kMagic[4])
    fail("unsupported .cctrace version " + std::to_string(header[4]));
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

bool TraceReader::next(TraceRecord& rec) {
  rec = TraceRecord{};
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

std::vector<TraceRecord> read_trace(const std::string& path) {
  TraceReader reader(path);
  std::vector<TraceRecord> out;
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

}  // namespace afs
