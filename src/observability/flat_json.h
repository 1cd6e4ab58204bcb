// Flat-JSON building blocks shared by the framed record formats (the MJN1
// campaign journal and the MFL1 fleet wire protocol): little-endian u32
// helpers for length/CRC headers, an incremental JSON-object builder, and a
// minimal recursive-descent parser sufficient for the flat objects both
// formats emit. Production counterpart of tests/mini_json.h.

#ifndef MUMAK_SRC_OBSERVABILITY_FLAT_JSON_H_
#define MUMAK_SRC_OBSERVABILITY_FLAT_JSON_H_

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace mumak {

// --- little-endian u32 (frame headers) -------------------------------------

inline void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// --- JSON emission ---------------------------------------------------------

inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

// Incremental JSON-object builder: callers add fields in a fixed order so
// records are stable and greppable. Plain string appends, no iostream: a
// sandbox worker encodes its verdict with this right after a fork, where
// an ostringstream's first use costs ~0.1 ms of copy-on-write faults.
class JsonObject {
 public:
  JsonObject& Str(const char* key, const std::string& value) {
    Key(key);
    out_ += '"';
    out_ += JsonEscape(value);
    out_ += '"';
    return *this;
  }
  JsonObject& U64(const char* key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  // A u64 a JSON number could round (above 2^53: a trace fingerprint, a
  // pool size), as 16 hex digits; JsonValue::Hex64 reads it back.
  JsonObject& Hex64(const char* key, uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return Str(key, buffer);
  }
  JsonObject& Double(const char* key, double value) {
    Key(key);
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
    out_ += buffer;
    return *this;
  }
  JsonObject& Bool(const char* key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  // Embeds pre-serialised JSON verbatim (e.g. a metrics snapshot).
  JsonObject& Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  std::string Finish() {
    out_ += '}';
    return out_;
  }

 private:
  void Key(const char* key) {
    out_ += first_ ? "{\"" : ", \"";
    out_ += key;
    out_ += "\": ";
    first_ = false;
  }
  std::string out_;
  bool first_ = true;
};

// --- JSON decoding ---------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it != object.end() ? &it->second : nullptr;
  }
  std::string Str(const std::string& key) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kString ? v->string
                                                    : std::string();
  }
  uint64_t U64(const std::string& key) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kNumber
               ? static_cast<uint64_t>(v->number)
               : 0;
  }
  uint64_t Hex64(const std::string& key) const {
    return std::strtoull(Str(key).c_str(), nullptr, 16);
  }
  double Num(const std::string& key) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : 0;
  }
  bool BoolOr(const std::string& key, bool fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->type == Type::kBool ? v->boolean : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key) || !Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }
  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) {
      return false;
    }
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }
  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          return false;
        }
        const char escape = text_[pos_ + 1];
        pos_ += 2;
        switch (escape) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            const std::string hex = text_.substr(pos_, 4);
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) {
              return false;
            }
            *out += static_cast<char>(code);  // emitters produce ASCII escapes
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
        continue;
      }
      *out += c;
      ++pos_;
    }
    return false;
  }
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->type = JsonValue::Type::kNumber;
    out->number =
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace mumak

#endif  // MUMAK_SRC_OBSERVABILITY_FLAT_JSON_H_
