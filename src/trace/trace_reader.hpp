// TraceReader: the .cctrace decoder.
//
// Opens a trace file (or istream), checks the "CCTR" magic and version,
// and iterates TraceRecords until end of stream. Every double is stored
// as its bit pattern, so decoding is lossless: the records equal, field
// for field, the events the simulator narrated into BinaryTraceSink —
// the property tests/trace/trace_equivalence_test.cpp enforces.
//
// Malformed input (bad magic, unknown opcode, truncated record, dangling
// string reference) throws std::runtime_error with the offending record
// index; a clean EOF at a record boundary ends iteration normally. A
// file cut right after the header decodes as an empty trace: the format
// has no end marker, so callers that need a run check for one.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <vector>

#include "trace/trace_record.hpp"

namespace afs {

class TraceReader {
 public:
  /// Opens `path` and reads the header. Throws std::runtime_error when
  /// the file cannot be opened or does not start with the .cctrace magic.
  explicit TraceReader(const std::string& path);

  /// Reads from `in` (not owned; must outlive the reader), starting with
  /// the header.
  explicit TraceReader(std::istream& in);

  /// Decodes the next record into `rec`. Returns false at a clean end of
  /// stream; throws on malformed input.
  bool next(TraceRecord& rec);

  std::int64_t records_read() const { return records_; }

 private:
  void read_header();
  [[noreturn]] void fail(const std::string& what) const;

  std::uint8_t read_u8();
  std::uint64_t read_varint();
  std::int64_t read_svarint();
  double read_time();
  double read_value();

  std::ifstream file_;  // used by the path constructor
  std::istream* in_;    // always valid
  std::vector<std::string> strings_;  // intern table
  std::uint64_t prev_time_bits_ = 0;
  std::uint64_t prev_value_bits_ = 0;
  std::int64_t records_ = 0;
  std::string context_;  // path or "<stream>", for error messages
};

/// Convenience: decodes the whole file into a vector.
std::vector<TraceRecord> read_trace(const std::string& path);

}  // namespace afs
