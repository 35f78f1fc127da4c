// The repository's one JSON layer: string escaping for every writer and a
// small recursive-descent value parser for every reader. Query responses,
// the quarantine and set-manifest sidecars, the metrics and trace exporters
// and the blocking client all go through it, so there is one set of escape
// rules and one tree instead of a one-off cursor per file format.
//
// The parser is defensive, not fast: depth-capped, size comes from the
// caller, malformed input yields kInvalidArgument, never a crash or
// unbounded recursion. Numbers are kept as doubles; a plain unsigned
// integer literal (digits only) that fits uint64 also keeps its exact value
// (is_uint / AsUint), so counters and line numbers above 2^53 read back
// exactly.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace loggrep {

// Appends `s` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);
inline std::string JsonQuote(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

// One parsed JSON value. Object keys are sorted (std::map) which matches
// every producer in this repo (all emit sorted keys already).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  // True for an exact unsigned integer, made by Uint(). The parser makes
  // one of every plain unsigned decimal literal (digits only, no sign,
  // fraction or exponent) that fits uint64.
  bool is_uint() const { return is_uint_; }

  // Typed accessors; defaults are returned on kind mismatch and, for the
  // integer accessors, when the number lies outside the target type's range
  // (callers in tests assert kinds explicitly where it matters).
  bool AsBool(bool fallback = false) const;
  int64_t AsInt(int64_t fallback = 0) const;
  uint64_t AsUint(uint64_t fallback = 0) const;
  double AsDouble(double fallback = 0) const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  // Object member lookup; returns a shared null value when absent or when
  // this is not an object. `Get("a.b")` does NOT split on dots.
  const JsonValue& Get(const std::string& key) const;

  static JsonValue Null();
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Uint(uint64_t u);
  static JsonValue Str(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  bool is_uint_ = false;
  uint64_t uint_ = 0;  // exact value when is_uint_
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses one complete JSON document (trailing garbage is an error).
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace loggrep

#endif  // SRC_COMMON_JSON_H_
