// Byte-level serialization: little-endian fixed-width integers and
// length-prefixed byte ranges over a growable buffer.
//
// Every wire message in src/proto is encoded through ByteWriter/ByteReader so
// that digests are computed over a canonical encoding and wire_size() can be
// cross-checked against the actual encoded size in tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace leopard::util {

using Bytes = std::vector<std::uint8_t>;

/// Appends primitive values to a byte buffer in a canonical little-endian form.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Appends after `buf`'s contents, in its storage: hand a reused buffer in
  /// by move and take() it back to encode without a fresh allocation.
  explicit ByteWriter(Bytes&& buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  /// Raw bytes, no length prefix (caller knows the size, e.g. fixed digests).
  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Length-prefixed (u32) variable-size byte range.
  void blob(std::span<const std::uint8_t> bytes) {
    expects(bytes.size() <= UINT32_MAX, "blob too large");
    u32(static_cast<std::uint32_t>(bytes.size()));
    raw(bytes);
  }

  void str(std::string_view s) {
    blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Overwrites the u32 already written at byte `at` (a length or checksum
  /// field reserved before the bytes it describes were known).
  void patch_u32(std::size_t at, std::uint32_t v) {
    expects(at + sizeof(v) <= buf_.size(), "patch_u32 out of range");
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Reads values written by ByteWriter; throws ContractViolation on underflow.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }

  std::span<const std::uint8_t> raw(std::size_t len) { return take(len); }

  std::span<const std::uint8_t> blob() {
    const auto len = u32();
    return take(len);
  }

  std::string str() {
    const auto b = blob();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  T read_le() {
    const auto b = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(b[i]) << (8 * i)));
    }
    return v;
  }

  std::span<const std::uint8_t> take(std::size_t len) {
    expects(remaining() >= len, "ByteReader underflow");
    auto out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Convenience: copy a span into an owned Bytes vector.
Bytes to_bytes(std::span<const std::uint8_t> s);

/// Convenience: view a string's bytes.
std::span<const std::uint8_t> as_bytes(std::string_view s);

}  // namespace leopard::util
