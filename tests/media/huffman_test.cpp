#include "media/huffman.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "media/rng.h"

namespace anno::media::huffman {
namespace {

/// `symbol`'s code in `t` as a bit string.
std::string codeOf(const Table& t, int symbol) {
  std::string s;
  for (int i = t.length[symbol] - 1; i >= 0; --i) {
    s += (t.code[symbol] >> i & 1) != 0 ? '1' : '0';
  }
  return s;
}

TEST(Huffman, DcTablesAreK3AndK4) {
  const char* const luma[] = {"00",       "010",       "011",     "100",
                              "101",      "110",       "1110",    "11110",
                              "111110",   "1111110",   "11111110",
                              "111111110"};
  const char* const chroma[] = {
      "00",      "01",       "10",        "110",        "1110",
      "11110",   "111110",   "1111110",   "11111110",   "111111110",
      "1111111110", "11111111110"};
  for (int size = 0; size <= 11; ++size) {
    EXPECT_EQ(codeOf(lumaDc(), size), luma[size]) << size;
    EXPECT_EQ(codeOf(chromaDc(), size), chroma[size]) << size;
  }
  EXPECT_EQ(codeOf(lumaDc(), kEscape), "111111111");
  EXPECT_EQ(codeOf(chromaDc(), kEscape), "11111111111");
}

TEST(Huffman, AcTablesAreK5AndK6) {
  // Codes of T.81 tables K.5 and K.6, short and long.
  const std::pair<int, const char*> luma[] = {
      {0x00, "1010"},        {0x01, "00"},
      {0x02, "01"},          {0x03, "100"},
      {0x11, "1100"},        {0x08, "1111110110"},
      {0xF0, "11111111001"}, {0x09, "1111111110000010"},
      {0xFA, "1111111111111110"}};
  const std::pair<int, const char*> chroma[] = {
      {0x00, "00"},          {0x01, "01"},
      {0x11, "1011"},        {0xF0, "1111111010"},
      {0xE1, "11111111100000"}, {0xF1, "111111111000011"},
      {0xFA, "1111111111111110"}};
  for (const auto& [symbol, code] : luma) {
    EXPECT_EQ(codeOf(lumaAc(), symbol), code) << std::hex << symbol;
  }
  for (const auto& [symbol, code] : chroma) {
    EXPECT_EQ(codeOf(chromaAc(), symbol), code) << std::hex << symbol;
  }
  for (const Table* t : {&lumaAc(), &chromaAc()}) {
    EXPECT_EQ(codeOf(*t, kEscape), "1111111111111111");
    // Exactly EOB, ZRL and every (run, size <= 10) pair.
    for (int symbol = 0; symbol < kEscape; ++symbol) {
      const int size = symbol & 15;
      const bool coded = symbol == 0x00 || symbol == 0xF0 ||
                         (size >= 1 && size <= 10);
      EXPECT_EQ(t->length[symbol] != 0, coded) << std::hex << symbol;
    }
  }
}

TEST(Huffman, SymbolsAndFieldsRoundTrip) {
  // Random symbols of all four tables (long codes take the slow path),
  // each followed by a raw field of 0..16 bits.
  const Table* tables[] = {&lumaDc(), &chromaDc(), &lumaAc(), &chromaAc()};
  SplitMix64 rng(7);
  struct Item {
    int table;
    int symbol;
    std::uint32_t field;
    int bits;
  };
  std::vector<Item> items;
  for (int i = 0; i < 20000; ++i) {
    Item it{};
    it.table = static_cast<int>(rng.next() % 4);
    do {
      it.symbol = static_cast<int>(rng.next() % (kEscape + 1));
    } while (tables[it.table]->length[it.symbol] == 0);
    it.bits = static_cast<int>(rng.next() % 17);
    it.field = static_cast<std::uint32_t>(rng.next()) &
               ((std::uint32_t{1} << it.bits) - 1);
    items.push_back(it);
  }
  ByteWriter out;
  BitWriter w(out);
  for (const Item& it : items) {
    w.code(*tables[it.table], it.symbol);
    w.put(it.field, it.bits);
  }
  w.finish();
  const std::vector<std::uint8_t> bytes = out.take();
  BitReader r(bytes);
  for (const Item& it : items) {
    ASSERT_EQ(r.symbol(*tables[it.table]), it.symbol);
    ASSERT_EQ(r.bits(it.bits), it.field);
  }
  EXPECT_NO_THROW(r.finish());
}

TEST(Huffman, ReaderStopsAtTheEndOfItsSpan) {
  // Two bytes inside a larger buffer: bits past the span are absent, not
  // the buffer's next byte.
  const std::vector<std::uint8_t> buffer = {0xAB, 0xCD, 0x00};
  const std::span<const std::uint8_t> all(buffer);
  BitReader r(all.first(2));
  EXPECT_EQ(r.bits(12), 0xABCu);
  EXPECT_THROW((void)r.bits(5), std::runtime_error);
  BitReader code(all.first(1));
  // One bit left, "1": with absent bits read as zeros it looks like K.5's
  // three-bit "100", which the span cannot supply.
  (void)code.bits(7);
  EXPECT_THROW((void)code.symbol(lumaAc()), std::runtime_error);
}

TEST(Huffman, FinishAcceptsOnlyOneBitPadding) {
  const std::vector<std::uint8_t> padded = {0b10100111};
  BitReader zeroPad(padded);
  EXPECT_EQ(zeroPad.bits(3), 0b101u);
  EXPECT_THROW(zeroPad.finish(), std::runtime_error);  // "00111"
  BitReader good(padded);
  EXPECT_EQ(good.bits(5), 0b10100u);
  EXPECT_NO_THROW(good.finish());
  BitReader early(padded);
  EXPECT_THROW(early.finish(), std::runtime_error);  // 8 bits unread
}

}  // namespace
}  // namespace anno::media::huffman
