#include "src/common/json_writer.h"

#include <cmath>
#include <cstdio>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace spider {

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (scopes_.empty()) return;
  if (scopes_.back() == Scope::kObject) {
    SPIDER_CHECK(pending_key_) << "JSON object value emitted without a key";
    pending_key_ = false;
    return;
  }
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  scopes_.push_back(Scope::kObject);
  has_items_.push_back(false);
}

void JsonWriter::EndObject() {
  SPIDER_CHECK(!scopes_.empty() && scopes_.back() == Scope::kObject);
  SPIDER_CHECK(!pending_key_) << "JSON object closed with a dangling key";
  out_ += '}';
  scopes_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  scopes_.push_back(Scope::kArray);
  has_items_.push_back(false);
}

void JsonWriter::EndArray() {
  SPIDER_CHECK(!scopes_.empty() && scopes_.back() == Scope::kArray);
  out_ += ']';
  scopes_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  SPIDER_CHECK(!scopes_.empty() && scopes_.back() == Scope::kObject)
      << "JSON key outside of object";
  SPIDER_CHECK(!pending_key_);
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char text[kDoubleTextBytes];
  out_.append(text, AppendDouble(text, value));
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

}  // namespace spider
