#include "service/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace afs::service {
namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    error = msg + " at byte " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos;
      else
        break;
    }
  }

  bool peek(char& c) {
    if (pos >= text.size()) return false;
    c = text[pos];
    return true;
  }

  bool consume(char expected) {
    if (pos < text.size() && text[pos] == expected) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxJsonDepth) return fail("nesting too deep");
    skip_ws();
    char c;
    if (!peek(c)) return fail("unexpected end of input");
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        return parse_literal("true", [&] {
          out.kind = JsonValue::Kind::kBool;
          out.boolean = true;
        });
      case 'f':
        return parse_literal("false", [&] {
          out.kind = JsonValue::Kind::kBool;
          out.boolean = false;
        });
      case 'n':
        return parse_literal("null",
                             [&] { out.kind = JsonValue::Kind::kNull; });
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
        return fail(std::string("unexpected character '") + c + "'");
    }
  }

  template <typename Fn>
  bool parse_literal(const char* lit, Fn apply) {
    const std::size_t n = std::strlen(lit);
    if (text.compare(pos, n, lit) != 0) return fail("bad literal");
    pos += n;
    apply();
    return true;
  }

  bool parse_number(JsonValue& out) {
    // Validate the JSON number grammar by hand (strtod accepts hex, inf
    // and nan, which JSON forbids), then convert the validated span.
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (consume('0')) {
      // leading zero: no further digits allowed before '.' / 'e'
    } else {
      if (pos >= text.size() || text[pos] < '1' || text[pos] > '9')
        return fail("bad number");
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (consume('.')) {
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9')
        return fail("bad number (missing fraction digits)");
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9')
        return fail("bad number (missing exponent digits)");
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    const std::string span(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(span.c_str(), &end);
    if (end != span.c_str() + span.size()) return fail("bad number");
    if (!std::isfinite(v)) return fail("number out of range");
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  bool parse_hex4(unsigned& v) {
    v = 0;
    for (int k = 0; k < 4; ++k) {
      if (pos >= text.size()) return fail("truncated \\u escape");
      const char c = text[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("bad \\u escape digit");
    }
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    out.clear();
    if (!consume('"')) return fail("expected '\"'");
    for (;;) {
      if (pos >= text.size()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("truncated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: the low half must follow immediately.
              if (!(consume('\\') && consume('u')))
                return fail("unpaired high surrogate");
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF)
                return fail("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("unpaired low surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return fail(std::string("bad escape '\\") + e + "'");
        }
        continue;
      }
      // Raw (non-escape) bytes: already validated as UTF-8 up front, so
      // copy through.
      out += static_cast<char>(c);
      ++pos;
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    consume('[');
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    consume('{');
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

bool valid_utf8(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char c0 = static_cast<unsigned char>(text[i]);
    if (c0 < 0x80) {
      ++i;
      continue;
    }
    int len;
    unsigned cp;
    if ((c0 & 0xE0) == 0xC0) {
      len = 2;
      cp = c0 & 0x1F;
    } else if ((c0 & 0xF0) == 0xE0) {
      len = 3;
      cp = c0 & 0x0F;
    } else if ((c0 & 0xF8) == 0xF0) {
      len = 4;
      cp = c0 & 0x07;
    } else {
      return false;  // bare continuation byte or 0xF8+ lead
    }
    if (i + static_cast<std::size_t>(len) > text.size()) return false;
    for (int k = 1; k < len; ++k) {
      const unsigned char c = static_cast<unsigned char>(text[i + k]);
      if ((c & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (c & 0x3F);
    }
    // Overlong encodings, surrogates, and > U+10FFFF are all invalid.
    if (len == 2 && cp < 0x80) return false;
    if (len == 3 && cp < 0x800) return false;
    if (len == 4 && cp < 0x10000) return false;
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;
    if (cp > 0x10FFFF) return false;
    i += len;
  }
  return true;
}

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  error.clear();
  out = JsonValue{};
  if (!valid_utf8(text)) {
    error = "invalid UTF-8";
    return false;
  }
  Parser p{text, 0, {}};
  if (!p.parse_value(out, 0)) {
    error = p.error;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    error = "trailing garbage at byte " + std::to_string(p.pos);
    return false;
  }
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // Integral values render as plain digits — never "3e+01" for 30, which
  // %.1g would pick: sequence numbers and counters must stay greppable
  // as integers. 2^53 bounds the doubles that hold integers exactly.
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  // %.17g always round-trips a double; try shorter renderings first so
  // common values (one-decimal latencies) stay readable.
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace afs::service
