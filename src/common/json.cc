#include "src/common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/string_util.h"

namespace loggrep {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

namespace {
const std::string kEmptyString;
const std::vector<JsonValue> kEmptyArray;
const std::map<std::string, JsonValue> kEmptyObject;
const JsonValue kNullValue;
}  // namespace

bool JsonValue::AsBool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

// The float-to-int casts below are undefined outside the target range, so
// the range is checked first (2^63 and 2^64 are exact doubles). The negated
// comparisons also send NaN to the fallback.
int64_t JsonValue::AsInt(int64_t fallback) const {
  if (is_uint_ && uint_ <= static_cast<uint64_t>(INT64_MAX)) {
    return static_cast<int64_t>(uint_);
  }
  if (kind_ != Kind::kNumber || !(number_ >= -0x1p63 && number_ < 0x1p63)) {
    return fallback;
  }
  return static_cast<int64_t>(number_);
}

uint64_t JsonValue::AsUint(uint64_t fallback) const {
  if (is_uint_) {
    return uint_;
  }
  if (kind_ != Kind::kNumber || !(number_ >= 0 && number_ < 0x1p64)) {
    return fallback;
  }
  return static_cast<uint64_t>(number_);
}

double JsonValue::AsDouble(double fallback) const {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

const std::string& JsonValue::AsString() const {
  return kind_ == Kind::kString ? string_ : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  return kind_ == Kind::kArray ? array_ : kEmptyArray;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  return kind_ == Kind::kObject ? object_ : kEmptyObject;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return kNullValue;
  }
  const auto it = object_.find(key);
  return it == object_.end() ? kNullValue : it->second;
}

JsonValue JsonValue::Null() { return JsonValue(); }

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Uint(uint64_t u) {
  JsonValue v = Number(static_cast<double>(u));
  v.is_uint_ = true;
  v.uint_ = u;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// Nesting cap: a hostile 1 MB document of '[' must not exhaust the stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    if (Status s = ParseValue(&value, 0); !s.ok()) {
      return s;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return InvalidArgument("json: trailing bytes after document");
    }
    return value;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool EatLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return InvalidArgument("json: nesting too deep");
    }
    SkipWs();
    if (pos_ >= text_.size()) {
      return InvalidArgument("json: unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out, depth);
    }
    if (c == '[') {
      return ParseArray(out, depth);
    }
    if (c == '"') {
      std::string s;
      if (Status st = ParseString(&s); !st.ok()) {
        return st;
      }
      *out = JsonValue::Str(std::move(s));
      return OkStatus();
    }
    if (EatLiteral("true")) {
      *out = JsonValue::Bool(true);
      return OkStatus();
    }
    if (EatLiteral("false")) {
      *out = JsonValue::Bool(false);
      return OkStatus();
    }
    if (EatLiteral("null")) {
      *out = JsonValue::Null();
      return OkStatus();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    if (Eat('}')) {
      *out = JsonValue::Object(std::move(members));
      return OkStatus();
    }
    while (true) {
      SkipWs();
      std::string key;
      if (Status s = ParseString(&key); !s.ok()) {
        return s;
      }
      if (!Eat(':')) {
        return InvalidArgument("json: expected ':' after object key");
      }
      JsonValue value;
      if (Status s = ParseValue(&value, depth + 1); !s.ok()) {
        return s;
      }
      members.insert_or_assign(std::move(key), std::move(value));
      if (Eat(',')) {
        continue;
      }
      if (Eat('}')) {
        break;
      }
      return InvalidArgument("json: expected ',' or '}' in object");
    }
    *out = JsonValue::Object(std::move(members));
    return OkStatus();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    if (Eat(']')) {
      *out = JsonValue::Array(std::move(items));
      return OkStatus();
    }
    while (true) {
      JsonValue value;
      if (Status s = ParseValue(&value, depth + 1); !s.ok()) {
        return s;
      }
      items.push_back(std::move(value));
      if (Eat(',')) {
        continue;
      }
      if (Eat(']')) {
        break;
      }
      return InvalidArgument("json: expected ',' or ']' in array");
    }
    *out = JsonValue::Array(std::move(items));
    return OkStatus();
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return InvalidArgument("json: expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return OkStatus();
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return InvalidArgument("json: truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return InvalidArgument("json: bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not used by
          // any producer in this repo; lone surrogates encode as-is).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return InvalidArgument("json: bad escape character");
      }
    }
    return InvalidArgument("json: unterminated string");
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — so "+1",
  // ".5" and "1." are rejected, and a leading zero ends the number ("01"
  // then fails on the stray "1"). Rejecting leading zeros loses no file this
  // repository writes: its writers emit integers through AppendUint, which
  // never writes one.
  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    auto at = [this](char c) {
      return pos_ < text_.size() && text_[pos_] == c;
    };
    auto digits = [this] {
      const size_t from = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > from;
    };
    if (at('-')) {
      ++pos_;
    }
    if (at('0')) {
      ++pos_;
    } else if (!digits()) {
      return InvalidArgument(pos_ == start ? "json: expected value"
                                           : "json: malformed number");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) {
        return InvalidArgument("json: malformed number");
      }
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) {
        ++pos_;
      }
      if (!digits()) {
        return InvalidArgument("json: malformed number");
      }
    }
    // strtod reads the whole token: the grammar above is a subset of its.
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      return InvalidArgument("json: malformed number");
    }
    uint64_t exact = 0;
    *out = ParseDecimal(token, &exact) ? JsonValue::Uint(exact)
                                       : JsonValue::Number(value);
    return OkStatus();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace loggrep
