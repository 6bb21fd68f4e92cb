#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace leopard::obs {

void JsonWriter::before_value() {
  if (stack_.empty()) return;  // top-level single value
  if (stack_.back() == Ctx::kObject) {
    util::expects(pending_key_, "JsonWriter: value without key inside object");
    pending_key_ = false;
    return;
  }
  if (has_elems_.back()) out_ += ',';
  has_elems_.back() = true;
}

void JsonWriter::escape(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::object_begin() {
  before_value();
  out_ += '{';
  stack_.push_back(Ctx::kObject);
  has_elems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::object_end() {
  util::expects(!stack_.empty() && stack_.back() == Ctx::kObject && !pending_key_,
                "JsonWriter: unbalanced object_end");
  out_ += '}';
  stack_.pop_back();
  has_elems_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::array_begin() {
  before_value();
  out_ += '[';
  stack_.push_back(Ctx::kArray);
  has_elems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::array_end() {
  util::expects(!stack_.empty() && stack_.back() == Ctx::kArray,
                "JsonWriter: unbalanced array_end");
  out_ += ']';
  stack_.pop_back();
  has_elems_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  util::expects(!stack_.empty() && stack_.back() == Ctx::kObject && !pending_key_,
                "JsonWriter: key outside object");
  if (has_elems_.back()) out_ += ',';
  has_elems_.back() = true;
  escape(k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  escape(v);
  return *this;
}

void append_number(std::string& out, double v, const char* fmt) {
  char buf[32];
  if (v >= 0 && v < 0x1p64 && v == static_cast<double>(static_cast<std::uint64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(static_cast<std::uint64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), fmt, v);
  }
  out += buf;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

}  // namespace leopard::obs
