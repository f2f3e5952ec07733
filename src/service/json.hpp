// Minimal strict JSON for the sweep service protocol.
//
// The daemon speaks line-delimited JSON to untrusted local clients, so the
// parser is written for robustness first: it validates UTF-8 (overlong
// encodings, surrogates and out-of-range code points are rejected, not
// passed through), bounds nesting depth, refuses trailing garbage, and
// reports every failure with a byte offset instead of throwing. Writers
// produce exactly one line of canonical output (no embedded newlines),
// which is what keeps the framing trivial: one request or response per
// '\n'-terminated frame, always.
//
// This is deliberately not a general-purpose JSON library — no DOM
// mutation helpers, no number-preserving bignums, no comments. The
// protocol needs objects, arrays, strings, doubles, bools and null, and
// nothing else.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json_quote.hpp"

namespace afs::service {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order. Duplicate keys are preserved; find()
  /// returns the first, which callers treat as authoritative.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// First member named `key`; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Maximum container nesting the parser accepts. The protocol never nests
/// more than three levels; 32 leaves headroom without letting a hostile
/// client recurse the stack away.
inline constexpr int kMaxJsonDepth = 32;

/// Parses exactly one JSON document from `text` (leading/trailing ASCII
/// whitespace allowed, nothing else). Returns false and fills `error`
/// (message with byte offset) on malformed input — including invalid
/// UTF-8 anywhere in the document, unpaired surrogates in \u escapes,
/// unescaped control characters, and depth overflow. Never throws.
bool parse_json(std::string_view text, JsonValue& out, std::string& error);

/// True when `text` is well-formed UTF-8 (rejects overlong encodings,
/// surrogate code points, and values above U+10FFFF). Exposed for the
/// framer, which wants to classify bad bytes before parsing.
bool valid_utf8(std::string_view text);

/// Shortest decimal rendering of `v` that round-trips a double. NaN and
/// infinities (unrepresentable in JSON) render as null.
std::string json_number(double v);

}  // namespace afs::service
