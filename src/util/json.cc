#include "util/json.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mmdb {

// --- JsonWriter ------------------------------------------------------------

void JsonWriter::Escape(std::string_view value, std::string* out) {
  for (char c : value) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_.push_back(',');
    has_element_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  assert(!has_element_.empty());
  has_element_.pop_back();
  out_.push_back('}');
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  assert(!has_element_.empty());
  has_element_.pop_back();
  out_.push_back(']');
}

void JsonWriter::Key(std::string_view key) {
  assert(!pending_key_);
  if (!has_element_.empty()) {
    if (has_element_.back()) out_.push_back(',');
    has_element_.back() = true;
  }
  out_.push_back('"');
  Escape(key, &out_);
  out_.append("\":");
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  Escape(value, &out_);
  out_.push_back('"');
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_.append(buf);
}

void JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out_.append(buf);
}

void JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_.append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_.append(buf);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
}

void JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
}

void JsonWriter::RawValue(std::string_view json) {
  BeforeValue();
  out_.append(json);
}

// --- JsonValue -------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::Erase(std::string_view key) {
  return std::erase_if(object_, [key](const auto& m) {
           return m.first == key;
         }) > 0;
}

const JsonValue* JsonValue::FindPath(
    std::initializer_list<std::string_view> keys) const {
  const JsonValue* v = this;
  for (std::string_view k : keys) {
    if (v == nullptr) return nullptr;
    v = v->Find(k);
  }
  return v;
}

namespace {

void DumpTo(const JsonValue& v, JsonWriter* w) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      w->Null();
      break;
    case JsonValue::Type::kBool:
      w->Bool(v.bool_value());
      break;
    case JsonValue::Type::kNumber:
      w->Double(v.number_value());
      break;
    case JsonValue::Type::kString:
      w->String(v.string_value());
      break;
    case JsonValue::Type::kArray:
      w->BeginArray();
      for (const JsonValue& item : v.array_items()) DumpTo(item, w);
      w->EndArray();
      break;
    case JsonValue::Type::kObject:
      w->BeginObject();
      for (const auto& [k, item] : v.object_items()) {
        w->Key(k);
        DumpTo(item, w);
      }
      w->EndObject();
      break;
  }
}

}  // namespace

std::string JsonValue::Dump() const {
  JsonWriter w;
  DumpTo(*this, &w);
  return w.TakeString();
}

// Recursive-descent parser. Depth-limited so hostile input cannot blow the
// stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    MMDB_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return CorruptionError("json: trailing characters after document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return CorruptionError(std::string("json: expected '") + c + "'");
    }
    return Status::OK();
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return CorruptionError("json: nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return CorruptionError("json: unexpected end");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        MMDB_ASSIGN_OR_RETURN(v.string_, ParseString());
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        const std::string_view word = c == 't' ? "true" : "false";
        if (text_.substr(pos_, word.size()) != word) {
          return CorruptionError("json: bad literal");
        }
        pos_ += word.size();
        v.bool_ = (c == 't');
        return v;
      }
      case 'n': {
        if (text_.substr(pos_, 4) != "null") {
          return CorruptionError("json: bad literal");
        }
        pos_ += 4;
        return JsonValue();
      }
      default:
        return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    MMDB_RETURN_IF_ERROR(Expect('{'));
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return v;
    while (true) {
      SkipWhitespace();
      MMDB_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      MMDB_RETURN_IF_ERROR(Expect(':'));
      MMDB_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      v.object_.emplace_back(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume('}')) return v;
      MMDB_RETURN_IF_ERROR(Expect(','));
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    MMDB_RETURN_IF_ERROR(Expect('['));
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return v;
    while (true) {
      MMDB_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
      v.array_.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return v;
      MMDB_RETURN_IF_ERROR(Expect(','));
    }
  }

  StatusOr<std::string> ParseString() {
    MMDB_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return CorruptionError("json: truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return CorruptionError("json: bad \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not needed for
          // the escapes this library emits; lone surrogates pass through).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return CorruptionError("json: bad escape character");
      }
    }
    return CorruptionError("json: unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return CorruptionError("json: expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return CorruptionError("json: malformed number '" + token + "'");
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = d;
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace mmdb
