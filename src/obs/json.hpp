// Minimal streaming JSON writer for the /statusz endpoint and trace dumps:
// handles comma placement and string escaping, nothing else. Misuse (value
// without key inside an object, unbalanced end) is a programming error and
// trips util::expects.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace leopard::obs {

/// Appends `v` as number text: a whole number in [0, 2^64) as an integer (no
/// exponent, however large), anything else in printf format `fmt`.
void append_number(std::string& out, double v, const char* fmt = "%.9g");

class JsonWriter {
 public:
  JsonWriter& object_begin();
  JsonWriter& object_end();
  JsonWriter& array_begin();
  JsonWriter& array_end();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);  // append_number text; non-finite as null
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(std::int32_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  enum class Ctx : std::uint8_t { kObject, kArray };
  void before_value();
  void escape(std::string_view s);

  std::string out_;
  std::vector<Ctx> stack_;
  std::vector<bool> has_elems_;
  bool pending_key_ = false;
};

}  // namespace leopard::obs
