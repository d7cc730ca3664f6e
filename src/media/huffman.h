// JPEG baseline Huffman coding (ITU-T T.81 Annex K) for the block codec:
// the four standard tables, a 64-bit bit writer and a table-driven bit
// reader that never reads past its span.
//
// Codes are canonical and written most significant bit first.  Every
// Annex K table leaves the all-ones code of its longest length unassigned;
// the codec uses that code as an escape (symbol kEscape) for values beyond
// the table's size categories, so each table here is the Annex K code plus
// that one extra symbol -- a complete prefix code.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>

#include "media/bitstream.h"

namespace anno::media::huffman {

/// The symbol of a table's escape code.
inline constexpr int kEscape = 256;
/// Codes up to this length decode with one table lookup; longer ones by a
/// canonical-code walk.
inline constexpr int kLookupBits = 10;
inline constexpr int kMaxCodeLength = 16;
inline constexpr std::uint32_t kNoFastEntry = 0xFF << 8;

/// JPEG's size category: the bit length of |v|.  Branch-free, since the
/// sign and zero-ness of a coefficient do not predict.
[[nodiscard]] constexpr int sizeOf(std::int32_t v) {
  const auto a = static_cast<std::uint32_t>(v < 0 ? -v : v);
  return std::bit_width(a | 1) - (a == 0 ? 1 : 0);
}

/// The `size` magnitude bits of v: v itself when positive, v - 1 in
/// `size`-bit two's complement when negative.
[[nodiscard]] constexpr std::uint32_t magnitudeBits(std::int32_t v,
                                                    int size) {
  return static_cast<std::uint32_t>(v + (v >> 31)) & ((1u << size) - 1);
}

/// Inverse of magnitudeBits.
[[nodiscard]] constexpr std::int32_t extend(std::uint32_t bits, int size) {
  const auto v = static_cast<std::int32_t>(bits);
  return size > 0 && v < (1 << (size - 1)) ? v - (1 << size) + 1 : v;
}

struct Table {
  /// Encoder: code and length per symbol; length 0 = not in the table.
  std::array<std::uint16_t, kEscape + 1> code{};
  std::array<std::uint8_t, kEscape + 1> length{};
  /// Decoder fast path, indexed by the next kLookupBits bits:
  /// length << 9 | symbol for codes of at most kLookupBits bits, 0 for
  /// longer codes.
  std::array<std::uint16_t, 1 << kLookupBits> lookup{};
  /// Decoder slow path, per code length l: the largest code of length l
  /// (-1 when there is none) and symbolIndex = code + offset[l].
  std::array<std::int32_t, kMaxCodeLength + 1> maxCode{};
  std::array<std::int32_t, kMaxCodeLength + 1> offset{};
  /// Symbols in code order, the escape last.
  std::array<std::uint16_t, kEscape + 1> symbols{};
  /// Decoder fast path for a code and its magnitude bits together, indexed
  /// like `lookup`: when both fit in kLookupBits bits, value << 16 |
  /// length << 8 | symbol with value the signed magnitude (a DC table's
  /// symbol is the size; an AC table's is run << 4 | size); else
  /// kNoFastEntry, whose length no reader holds.  The escape has no entry.
  std::array<std::uint32_t, 1 << kLookupBits> fast{};
};

/// Annex K tables: K.3 (luma DC), K.4 (chroma DC), K.5 (luma AC) and
/// K.6 (chroma AC), each with its escape code.
[[nodiscard]] const Table& lumaDc();
[[nodiscard]] const Table& chromaDc();
[[nodiscard]] const Table& lumaAc();
[[nodiscard]] const Table& chromaAc();

/// Appends bit fields to a ByteWriter through a 64-bit accumulator that
/// spills whole bytes when full.  finish() pads the last byte with one bits.
///
/// BitWriter and BitReader are small values whose members never leave the
/// class: a hot loop can work on a local copy, which the compiler keeps in
/// registers, and store it back when done.
class BitWriter {
 public:
  explicit BitWriter(ByteWriter& out) : out_(&out) {}

  /// Appends the low `n` bits of `v` (n in [0, 32]; v < 2^n).
  void put(std::uint32_t v, int n) {
    if (count_ + n > 64) count_ = spill(*out_, acc_, count_);
    acc_ = acc_ << n | v;
    count_ += n;
  }

  /// Appends `sym`'s code in `t`.
  void code(const Table& t, int sym) { put(t.code[sym], t.length[sym]); }

  /// Pads to a byte boundary with one bits and writes every pending byte.
  void finish();

 private:
  /// Writes the whole bytes of the `count` pending bits of `acc` and
  /// returns the count left, count % 8.
  static int spill(ByteWriter& out, std::uint64_t acc, int count);

  ByteWriter* out_;
  std::uint64_t acc_ = 0;  ///< the low count_ bits are pending
  int count_ = 0;
};

/// Reads bit fields and Huffman symbols from a span.  Bits past its end
/// read as absent: consuming one throws std::runtime_error, so a truncated
/// payload is an error and never a read outside the span.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data)
      : next_(data.data()), end_(data.data() + data.size()) {}

  /// Consumes `n` bits (n in [0, 32]) and returns them as an integer.
  [[nodiscard]] std::uint32_t bits(int n) {
    if (count_ < n) {
      refill();
      if (count_ < n) truncated();
    }
    // Two shifts, so n = 0 shifts by 32 of 64 and reads nothing.
    const auto v = static_cast<std::uint32_t>((buf_ >> 32) >> (32 - n));
    consume(n);
    return v;
  }

  /// Consumes a code of `t` and its magnitude bits when `t.fast` holds
  /// them and returns that entry; returns 0, consuming nothing, when the
  /// caller must use symbol() and bits().
  [[nodiscard]] std::uint32_t fast(const Table& t) {
    if (count_ < kLookupBits) refill();
    const std::uint32_t entry = t.fast[buf_ >> (64 - kLookupBits)];
    const int len = entry >> 8 & 0xFF;
    if (count_ < len) return 0;
    consume(len);
    return entry;
  }

  /// Consumes one code of `t` and returns its symbol (kEscape included).
  [[nodiscard]] int symbol(const Table& t) {
    if (count_ < kMaxCodeLength) refill();
    std::uint16_t hit = t.lookup[buf_ >> (64 - kLookupBits)];
    if (hit == 0) hit = longCode(t, buf_);
    const int len = hit >> 9;
    if (count_ < len) truncated();
    consume(len);
    return hit & 0x1FF;
  }

  /// Checks that the span ends here: fewer than 8 bits remain and they are
  /// the writer's one-bit padding.
  void finish() {
    refill();
    if (next_ != end_ || count_ >= 8 ||
        (count_ > 0 && buf_ >> (64 - count_) != (1u << count_) - 1)) {
      throw std::runtime_error("decodeFrame: trailing bits after the frame");
    }
  }

 private:
  /// Tops the buffer up to at least 56 bits, or to every bit left.  The
  /// bits below count_ may already hold the next bytes; OR-ing the same
  /// bytes in again leaves them unchanged.
  void refill() {
    if (end_ - next_ >= 8) {
      buf_ |= loadBigEndian64(next_) >> count_;
      const int whole = (63 - count_) >> 3;
      next_ += whole;
      count_ += 8 * whole;
      return;
    }
    while (count_ <= 56 && next_ != end_) {
      buf_ |= static_cast<std::uint64_t>(*next_++) << (56 - count_);
      count_ += 8;
    }
  }

  static std::uint64_t loadBigEndian64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::little) {
#if defined(__GNUC__) || defined(__clang__)
      v = __builtin_bswap64(v);
#else
      v = 0;
      for (int i = 0; i < 8; ++i) v = v << 8 | p[i];
#endif
    }
    return v;
  }

  void consume(int n) {
    buf_ <<= n;
    count_ -= n;
  }

  /// The table's entry (length << 9 | symbol) for a code longer than
  /// kLookupBits at the top of `buf`; throws for a bit string no code
  /// starts.  Static, so the reader's state never leaves registers.
  static std::uint16_t longCode(const Table& t, std::uint64_t buf);
  [[noreturn]] static void truncated();

  const std::uint8_t* next_;
  const std::uint8_t* end_;
  std::uint64_t buf_ = 0;  ///< the top count_ bits are unread
  int count_ = 0;
};

}  // namespace anno::media::huffman
