#ifndef MMDB_UTIL_JSON_H_
#define MMDB_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace mmdb {

// Minimal JSON emission and parsing, shared by the observability layer
// (metrics/trace export), the offline tools (`mmdb_log_dump --json`,
// `mmdb_stats`) and the bench sidecar files. Dependency-free by design:
// the engine must not grow third-party requirements for its telemetry.

// Streaming writer producing compact (single-line) JSON. Structural
// methods keep a nesting stack so commas are inserted automatically;
// misuse (e.g. a value where a key is required) is caught by assertions
// in debug builds and produces well-formed-but-wrong output otherwise.
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Object member key; must be followed by exactly one value.
  void Key(std::string_view key);

  void String(std::string_view value);
  void Int(int64_t value);
  void Uint(uint64_t value);
  // Non-finite values (the simulator's +infinity sentinels) are emitted as
  // null: JSON has no representation for them.
  void Double(double value);
  void Bool(bool value);
  void Null();
  // Embeds `json`, which must itself be a complete well-formed JSON value.
  void RawValue(std::string_view json);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

  // Appends `value` to `out` with JSON string escaping (no quotes).
  static void Escape(std::string_view value, std::string* out);

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true once the first element was written
  // (so the next one needs a comma).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

// Parsed JSON document node. Numbers are held as double (adequate for the
// counters and timings this tree produces: they are exact to 2^53).
class JsonValue {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses a complete JSON document (trailing whitespace allowed).
  // CORRUPTION on malformed input.
  [[nodiscard]] static StatusOr<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  // Object member lookup; nullptr if absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  // Chained lookup convenience: Find(a) then ->Find(b) ...
  const JsonValue* FindPath(std::initializer_list<std::string_view> keys) const;
  // Removes object member `key`; false if absent or not an object.
  bool Erase(std::string_view key);

  // Re-serializes this value (compact). Useful for tests and round-trips.
  std::string Dump() const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace mmdb

#endif  // MMDB_UTIL_JSON_H_
