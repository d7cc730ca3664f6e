#include "media/bitstream.h"

#include <gtest/gtest.h>

#include <limits>

#include "media/rng.h"

namespace anno::media {
namespace {

TEST(ByteWriter, FixedWidthLittleEndian) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 7u);
  EXPECT_EQ(d[0], 0xAB);
  EXPECT_EQ(d[1], 0x34);
  EXPECT_EQ(d[2], 0x12);
  EXPECT_EQ(d[3], 0xEF);
  EXPECT_EQ(d[4], 0xBE);
  EXPECT_EQ(d[5], 0xAD);
  EXPECT_EQ(d[6], 0xDE);
}

TEST(ByteReader, FixedWidthRoundtrip) {
  ByteWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(123456789);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 123456789u);
  EXPECT_TRUE(r.atEnd());
}

class VarintRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundtrip, Exact) {
  ByteWriter w;
  w.varint(GetParam());
  ByteReader r(w.data());
  EXPECT_EQ(r.varint(), GetParam());
  EXPECT_TRUE(r.atEnd());
}

INSTANTIATE_TEST_SUITE_P(
    EdgeValues, VarintRoundtrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 12345,
                      std::numeric_limits<std::uint64_t>::max()));

TEST(Varint, EncodedSizes) {
  const auto size = [](std::uint64_t v) {
    ByteWriter w;
    w.varint(v);
    return w.size();
  };
  EXPECT_EQ(size(0), 1u);
  EXPECT_EQ(size(127), 1u);
  EXPECT_EQ(size(128), 2u);
  EXPECT_EQ(size(16383), 2u);
  EXPECT_EQ(size(16384), 3u);
  EXPECT_EQ(size(std::numeric_limits<std::uint64_t>::max()), 10u);
}

class SvarintRoundtrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SvarintRoundtrip, Exact) {
  ByteWriter w;
  w.svarint(GetParam());
  ByteReader r(w.data());
  EXPECT_EQ(r.svarint(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    EdgeValues, SvarintRoundtrip,
    ::testing::Values(0LL, 1LL, -1LL, 63LL, -64LL, 64LL, -65LL, 1000000LL,
                      -1000000LL, std::numeric_limits<std::int64_t>::max(),
                      std::numeric_limits<std::int64_t>::min()));

TEST(Svarint, ZigzagKeepsSmallMagnitudesShort) {
  ByteWriter w;
  w.svarint(-1);
  EXPECT_EQ(w.size(), 1u);  // -1 maps to 1, not a huge unsigned
}

TEST(ByteReader, UnderrunThrows) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.data());
  (void)r.u8();
  EXPECT_THROW((void)r.u8(), std::out_of_range);
  ByteReader r2(w.data());
  EXPECT_THROW((void)r2.u32(), std::out_of_range);
  ByteReader r3(w.data());
  EXPECT_THROW((void)r3.bytes(2), std::out_of_range);
}

TEST(ByteReader, MalformedVarintThrows) {
  // Eleven continuation bytes: longer than any valid 64-bit varint.
  std::vector<std::uint8_t> bad(11, 0x80);
  ByteReader r(bad);
  EXPECT_THROW((void)r.varint(), std::runtime_error);
}

TEST(ByteReader, BytesSpanAndPosition) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  w.u8(3);
  ByteReader r(w.data());
  auto s = r.bytes(2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 2);
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReader, CountWithinRemainingBytes) {
  ByteWriter w;
  w.varint(3);
  for (int i = 0; i < 6; ++i) w.u8(0);
  ByteReader r(w.data());
  EXPECT_EQ(r.count(2), 3u);  // 6 bytes left hold 3 two-byte elements
  ByteReader exact(w.data());
  EXPECT_THROW((void)exact.count(3), std::out_of_range);  // 9 > 6
}

TEST(ByteReader, CountRejectsHugeCountBeforeAllocating) {
  // A 2^40 count in a 16-byte buffer: the bound fires on the count itself,
  // so a caller's reserve(count) is never reached.
  ByteWriter w;
  w.varint(std::uint64_t{1} << 40);
  while (w.size() < 16) w.u8(0);
  ByteReader r(w.data());
  EXPECT_THROW((void)r.count(1), std::out_of_range);
  ByteReader zero(w.data());
  EXPECT_THROW((void)zero.count(0), std::invalid_argument);
}

TEST(Rle, RoundtripRandom) {
  SplitMix64 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> data;
    const int n = static_cast<int>(rng.below(500));
    for (int i = 0; i < n; ++i) {
      // Small alphabet to create runs.
      data.push_back(static_cast<std::uint8_t>(rng.below(4)));
    }
    EXPECT_EQ(rleDecode(rleEncode(data)), data);
  }
}

TEST(Rle, CompressesRuns) {
  std::vector<std::uint8_t> data(10000, 42);
  const auto enc = rleEncode(data);
  EXPECT_LT(enc.size(), 10u);  // one (run,value) pair
  EXPECT_EQ(rleDecode(enc), data);
}

TEST(Rle, EmptyInput) {
  EXPECT_TRUE(rleEncode({}).empty());
  EXPECT_TRUE(rleDecode({}).empty());
}

TEST(Rle, MalformedInputThrows) {
  // run = 0 is invalid.
  std::vector<std::uint8_t> bad = {0x00, 0x42};
  EXPECT_THROW((void)rleDecode(bad), std::runtime_error);
  // Truncated: run without value.
  std::vector<std::uint8_t> trunc = {0x05};
  EXPECT_THROW((void)rleDecode(trunc), std::out_of_range);
}

}  // namespace
}  // namespace anno::media
