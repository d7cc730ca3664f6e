#include "media/huffman.h"

namespace anno::media::huffman {
namespace {

/// An Annex K table as T.81 lists it: the number of codes of each length
/// 1..16, then the symbols in code order.  A DC table's symbol is a size;
/// an AC table's is run << 4 | size.
struct Spec {
  std::uint8_t counts[kMaxCodeLength];
  std::span<const std::uint8_t> symbols;
  bool dc;
};

constexpr std::uint8_t kDcSymbols[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};

constexpr std::uint8_t kLumaAcSymbols[] = {
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
    0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3,
    0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
    0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9,
    0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
    0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4,
    0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa};

constexpr std::uint8_t kChromaAcSymbols[] = {
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1,
    0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
    0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a,
    0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
    0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
    0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
    0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4,
    0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa};

constexpr Spec kK3{{0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
                   kDcSymbols, true};
constexpr Spec kK4{{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
                   kDcSymbols, true};
constexpr Spec kK5{{0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125},
                   kLumaAcSymbols, false};
constexpr Spec kK6{{0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119},
                   kChromaAcSymbols, false};

/// Assigns canonical codes (T.81 Annex C) and appends the escape as the
/// next code of the longest length.  Throws -- a compile error, since the
/// tables are constant-initialised -- unless the symbol list matches the
/// counts and the escape is that length's all-ones code.
constexpr Table build(const Spec& spec) {
  Table t;
  t.fast.fill(kNoFastEntry);
  int longest = 0;
  std::size_t total = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    if (spec.counts[len - 1] != 0) longest = len;
    total += spec.counts[len - 1];
  }
  if (total != spec.symbols.size()) {
    throw std::logic_error("huffman: symbol count mismatch");
  }
  std::int32_t code = 0;
  std::size_t k = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    const int n = spec.counts[len - 1] + (len == longest ? 1 : 0);
    t.offset[len] = static_cast<std::int32_t>(k) - code;
    for (int i = 0; i < n; ++i, ++k, ++code) {
      const int sym = k < total ? spec.symbols[k] : kEscape;
      if (t.length[sym] != 0) throw std::logic_error("huffman: duplicate");
      t.code[sym] = static_cast<std::uint16_t>(code);
      t.length[sym] = static_cast<std::uint8_t>(len);
      t.symbols[k] = static_cast<std::uint16_t>(sym);
      if (len <= kLookupBits) {
        const int shift = kLookupBits - len;
        for (int j = code << shift; j < (code + 1) << shift; ++j) {
          t.lookup[j] = static_cast<std::uint16_t>(len << 9 | sym);
        }
      }
      const int size = spec.dc ? sym : sym & 15;
      if (sym != kEscape && len + size <= kLookupBits) {
        // Every kLookupBits prefix starting with the code and `size`
        // magnitude bits: the entry carries their extended value.
        const int shift = kLookupBits - len - size;
        for (int m = 0; m < 1 << size; ++m) {
          const std::uint32_t entry =
              static_cast<std::uint32_t>(extend(static_cast<std::uint32_t>(m),
                                                size))
                  << 16 |
              static_cast<std::uint32_t>((len + size) << 8 | sym);
          const int first = (code << size | m) << shift;
          for (int j = first; j < first + (1 << shift); ++j) t.fast[j] = entry;
        }
      }
    }
    t.maxCode[len] = n == 0 ? -1 : code - 1;
    code <<= 1;
  }
  if (t.code[kEscape] != (1 << longest) - 1) {
    throw std::logic_error("huffman: escape is not the all-ones code");
  }
  return t;
}

constexpr Table kLumaDc = build(kK3);
constexpr Table kChromaDc = build(kK4);
constexpr Table kLumaAc = build(kK5);
constexpr Table kChromaAc = build(kK6);

}  // namespace

const Table& lumaDc() { return kLumaDc; }
const Table& chromaDc() { return kChromaDc; }
const Table& lumaAc() { return kLumaAc; }
const Table& chromaAc() { return kChromaAc; }

int BitWriter::spill(ByteWriter& out, std::uint64_t acc, int count) {
  for (; count >= 8; count -= 8) {
    out.u8(static_cast<std::uint8_t>(acc >> (count - 8)));
  }
  return count;
}

void BitWriter::finish() {
  const int pad = (8 - count_ % 8) % 8;
  put((1u << pad) - 1, pad);
  count_ = spill(*out_, acc_, count_);
}

std::uint16_t BitReader::longCode(const Table& t, std::uint64_t buf) {
  for (int len = kLookupBits + 1; len <= kMaxCodeLength; ++len) {
    const auto code = static_cast<std::int32_t>(buf >> (64 - len));
    if (code <= t.maxCode[len]) {
      return static_cast<std::uint16_t>(
          len << 9 | t.symbols[static_cast<std::size_t>(code + t.offset[len])]);
    }
  }
  throw std::runtime_error("decodeFrame: invalid Huffman code");
}

void BitReader::truncated() {
  throw std::runtime_error("decodeFrame: payload truncated");
}

}  // namespace anno::media::huffman
