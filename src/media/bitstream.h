// Byte-oriented serialization primitives shared by the video codec and the
// annotation codec: LEB128 varints, zigzag signed mapping, and run-length
// encoding.  The paper stores annotations "RLE compressed, so the overhead is
// minimal, in the order of hundreds of bytes" (Sec. 4.3).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace anno::media {

/// Zigzag signed mapping: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
[[nodiscard]] constexpr std::uint64_t zigzagEncode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzagDecode(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Growable byte sink with varint support.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xFF));
    u8(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xFFFF));
    u16(static_cast<std::uint16_t>(v >> 16));
  }

  /// Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-mapped signed LEB128.
  void svarint(std::int64_t v) { varint(zigzagEncode(v)); }

  /// Pre-sizes the sink for writers that know their output length.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  void bytes(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked byte source.  Throws std::out_of_range on underrun and
/// std::runtime_error on malformed varints, so truncated/corrupted streams
/// surface as exceptions rather than UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    if (pos_ >= data_.size()) throw std::out_of_range("ByteReader: underrun");
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
  }

  [[nodiscard]] std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }

  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw std::runtime_error("ByteReader: varint too long");
  }

  /// Reads a varint element count for a decoder about to size a container
  /// from it.  Every element takes at least `minBytesPerElem` bytes of the
  /// input, so a count the remaining bytes cannot hold throws
  /// std::out_of_range before anything is allocated from it.
  /// `minBytesPerElem` must be at least 1.
  [[nodiscard]] std::size_t count(std::size_t minBytesPerElem) {
    if (minBytesPerElem == 0) {
      throw std::invalid_argument("ByteReader::count: zero element size");
    }
    const std::uint64_t n = varint();
    if (n > remaining() / minBytesPerElem) {
      throw std::out_of_range("ByteReader: count exceeds remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::int64_t svarint() { return zigzagDecode(varint()); }

  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    if (n > remaining()) {  // not pos_ + n: a corrupt n near 2^64 wraps
      throw std::out_of_range("ByteReader: underrun");
    }
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Run-length encodes a byte sequence as (count,value) varint pairs.
[[nodiscard]] std::vector<std::uint8_t> rleEncode(
    std::span<const std::uint8_t> data);

/// Inverse of rleEncode.  Throws on malformed input, and -- so corrupt run
/// counts cannot drive gigabyte allocations from a hundred-byte buffer --
/// when the decoded size would exceed `maxBytes` (callers usually know the
/// exact expected size from framing).
[[nodiscard]] std::vector<std::uint8_t> rleDecode(
    std::span<const std::uint8_t> data,
    std::size_t maxBytes = static_cast<std::size_t>(-1));

}  // namespace anno::media
