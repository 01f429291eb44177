// Shared, dependency-free JSON library: a tolerant reader plus a
// deterministic writer, used by the fuzzer (.repro files), the scenario DSL
// (*.scenario.json), and the observability layer (Perfetto/NDJSON
// validation). Grew out of the fuzzer's .repro reader.
//
// Reader grammar subset: objects, arrays, strings with basic escapes,
// integer/float numbers, booleans, null — exactly what the writers in this
// repo produce, but tolerant enough to accept hand-edited files too.
// Hostile input (deep nesting, duplicate keys) is handled deliberately:
// nesting beyond json_detail::kMaxDepth is a parse error (never a stack
// overflow), duplicate object keys resolve last-wins with an optional
// warning per duplicate.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace wfd::util {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string number;  ///< raw numeric text; converted on demand
  std::string str;
  std::vector<Json> items;                             // kArray
  std::vector<std::pair<std::string, Json>> members;   // kObject, in order

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::uint64_t as_u64(std::uint64_t fallback = 0) const {
    if (kind != Kind::kNumber) return fallback;
    return std::strtoull(number.c_str(), nullptr, 10);
  }
  std::int64_t as_i64(std::int64_t fallback = 0) const {
    if (kind != Kind::kNumber) return fallback;
    return std::strtoll(number.c_str(), nullptr, 10);
  }
  double as_double(double fallback = 0.0) const {
    if (kind != Kind::kNumber) return fallback;
    return std::strtod(number.c_str(), nullptr);
  }
  const std::string& as_string(const std::string& fallback) const {
    return kind == Kind::kString ? str : fallback;
  }
  bool as_bool(bool fallback = false) const {
    return kind == Kind::kBool ? boolean : fallback;
  }

  // --- writer-side construction -------------------------------------------
  // Build a document programmatically, then render it with dump(). The
  // scenario DSL's round-trip guarantee (parse -> write -> parse,
  // structurally equal) rests on these plus structurally_equal().

  static Json object() {
    Json out;
    out.kind = Kind::kObject;
    return out;
  }
  static Json array() {
    Json out;
    out.kind = Kind::kArray;
    return out;
  }
  static Json of_string(std::string value) {
    Json out;
    out.kind = Kind::kString;
    out.str = std::move(value);
    return out;
  }
  static Json of_bool(bool value) {
    Json out;
    out.kind = Kind::kBool;
    out.boolean = value;
    return out;
  }
  static Json of_u64(std::uint64_t value) {
    Json out;
    out.kind = Kind::kNumber;
    out.number = std::to_string(value);
    return out;
  }
  static Json of_i64(std::int64_t value) {
    Json out;
    out.kind = Kind::kNumber;
    out.number = std::to_string(value);
    return out;
  }
  /// Doubles render with enough digits to round-trip (%.17g trimmed), so a
  /// written value parses back to the identical double.
  static Json of_double(double value) {
    Json out;
    out.kind = Kind::kNumber;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out.number = buf;
    // Prefer the shortest representation that still round-trips.
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[40];
      std::snprintf(shorter, sizeof shorter, "%.*g", precision, value);
      if (std::strtod(shorter, nullptr) == value) {
        out.number = shorter;
        break;
      }
    }
    return out;
  }

  /// Object member: replaces an existing key in place, appends otherwise.
  Json& set(const std::string& key, Json value) {
    kind = Kind::kObject;
    for (auto& [k, v] : members) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    members.emplace_back(key, std::move(value));
    return *this;
  }
  /// Array element, appended.
  Json& push(Json value) {
    kind = Kind::kArray;
    items.push_back(std::move(value));
    return *this;
  }

  /// Render the document. `indent` > 0 pretty-prints with that many spaces
  /// per nesting level; 0 renders compact one-line JSON. Object members keep
  /// insertion order, so writing is deterministic.
  std::string dump(int indent = 0) const {
    std::string out;
    dump_into(out, indent, 0);
    return out;
  }

  /// Structural equality: same kind and value, object members compared by
  /// key regardless of order, numbers compared numerically (so "1.0" and
  /// "1" are equal). This is the round-trip invariant the scenario DSL
  /// pins: parse(write(parse(text))) is structurally equal to parse(text).
  friend bool structurally_equal(const Json& a, const Json& b) {
    if (a.kind != b.kind) {
      // A number is a number regardless of rendering; nothing else crosses
      // kinds.
      return false;
    }
    switch (a.kind) {
      case Kind::kNull: return true;
      case Kind::kBool: return a.boolean == b.boolean;
      case Kind::kNumber:
        return a.number == b.number ||
               std::strtod(a.number.c_str(), nullptr) ==
                   std::strtod(b.number.c_str(), nullptr);
      case Kind::kString: return a.str == b.str;
      case Kind::kArray: {
        if (a.items.size() != b.items.size()) return false;
        for (std::size_t i = 0; i < a.items.size(); ++i) {
          if (!structurally_equal(a.items[i], b.items[i])) return false;
        }
        return true;
      }
      case Kind::kObject: {
        if (a.members.size() != b.members.size()) return false;
        for (const auto& [key, value] : a.members) {
          const Json* other = b.find(key);
          if (other == nullptr || !structurally_equal(value, *other)) {
            return false;
          }
        }
        return true;
      }
    }
    return false;
  }

  /// Parse `text` into `out`. Returns false (with a message in `error`)
  /// on malformed input, trailing garbage, or nesting deeper than
  /// json_detail::kMaxDepth (a hostile hand-edited file must produce an
  /// error, never a stack overflow). Duplicate object keys are accepted
  /// with last-wins semantics; pass `warnings` to be told about each one.
  static bool parse(const std::string& text, Json* out, std::string* error,
                    std::vector<std::string>* warnings = nullptr);

 private:
  static void escape_into(std::string& out, const std::string& text) {
    out.push_back('"');
    for (const char c : text) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    out.push_back('"');
  }

  void dump_into(std::string& out, int indent, int depth) const {
    const auto newline_pad = [&](int level) {
      if (indent <= 0) return;
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * level), ' ');
    };
    switch (kind) {
      case Kind::kNull: out += "null"; return;
      case Kind::kBool: out += boolean ? "true" : "false"; return;
      case Kind::kNumber: out += number.empty() ? "0" : number; return;
      case Kind::kString: escape_into(out, str); return;
      case Kind::kArray: {
        if (items.empty()) {
          out += "[]";
          return;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (i > 0) out.push_back(',');
          newline_pad(depth + 1);
          items[i].dump_into(out, indent, depth + 1);
        }
        newline_pad(depth);
        out.push_back(']');
        return;
      }
      case Kind::kObject: {
        if (members.empty()) {
          out += "{}";
          return;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < members.size(); ++i) {
          if (i > 0) out.push_back(',');
          newline_pad(depth + 1);
          escape_into(out, members[i].first);
          out += indent > 0 ? ": " : ":";
          members[i].second.dump_into(out, indent, depth + 1);
        }
        newline_pad(depth);
        out.push_back('}');
        return;
      }
    }
  }
};

namespace json_detail {

/// Maximum value-nesting depth. Every file this repo writes is ~4 deep; 64
/// leaves generous headroom for hand-edited files while keeping the
/// recursive parser's stack usage bounded on hostile input.
inline constexpr int kMaxDepth = 64;

struct Parser {
  const char* p;
  const char* end;
  std::string* error;
  std::vector<std::string>* warnings = nullptr;
  int depth = 0;

  bool fail(const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (static_cast<std::size_t>(end - p) < len) return false;
    for (std::size_t i = 0; i < len; ++i) {
      if (p[i] != word[i]) return false;
    }
    p += len;
    return true;
  }

  bool parse_string(std::string* out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return fail("dangling escape");
        switch (*p) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (end - p < 5) return fail("truncated \\u escape");
            char buf[5] = {p[1], p[2], p[3], p[4], 0};
            const long code = std::strtol(buf, nullptr, 16);
            // Our files are ASCII; fold anything else to '?'.
            out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
            p += 4;
            break;
          }
          default:
            return fail("unknown escape");
        }
        ++p;
      } else {
        out->push_back(*p++);
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_value(Json* out) {
    if (depth >= kMaxDepth) {
      return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                  " levels");
    }
    ++depth;
    const bool ok = parse_value_impl(out);
    --depth;
    return ok;
  }

  bool parse_value_impl(Json* out) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case '{': {
        ++p;
        out->kind = Json::Kind::kObject;
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':'");
          ++p;
          Json value;
          if (!parse_value(&value)) return false;
          // Duplicate keys: last wins, overwriting in place so find() (which
          // returns the first match) observes the winning value.
          bool duplicate = false;
          for (auto& [k, v] : out->members) {
            if (k == key) {
              v = std::move(value);
              duplicate = true;
              if (warnings != nullptr) {
                warnings->push_back("duplicate key \"" + key +
                                    "\": last value wins");
              }
              break;
            }
          }
          if (!duplicate) {
            out->members.emplace_back(std::move(key), std::move(value));
          }
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++p;
        out->kind = Json::Kind::kArray;
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        for (;;) {
          Json value;
          if (!parse_value(&value)) return false;
          out->items.push_back(std::move(value));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        out->kind = Json::Kind::kString;
        return parse_string(&out->str);
      case 't':
        if (!literal("true", 4)) return fail("bad literal");
        out->kind = Json::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false", 5)) return fail("bad literal");
        out->kind = Json::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!literal("null", 4)) return fail("bad literal");
        out->kind = Json::Kind::kNull;
        return true;
      default: {
        if (*p != '-' && *p != '+' && !std::isdigit(static_cast<unsigned char>(*p))) {
          return fail("unexpected character");
        }
        out->kind = Json::Kind::kNumber;
        const char* start = p;
        while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                           *p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                           *p == 'E')) {
          ++p;
        }
        out->number.assign(start, p);
        return true;
      }
    }
  }
};

}  // namespace json_detail

inline bool Json::parse(const std::string& text, Json* out, std::string* error,
                        std::vector<std::string>* warnings) {
  json_detail::Parser parser{text.data(), text.data() + text.size(), error,
                             warnings};
  if (!parser.parse_value(out)) return false;
  parser.skip_ws();
  if (parser.p != parser.end) {
    if (error != nullptr) *error = "trailing garbage after JSON value";
    return false;
  }
  return true;
}

}  // namespace wfd::util
