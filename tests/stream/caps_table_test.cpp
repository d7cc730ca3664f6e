// CapsTable: capabilities intern to one id exactly when their negotiation
// bytes are equal, the table stays within its bound, and evicted
// capabilities come back under a new id that serves the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "media/clipgen.h"
#include "stream/server.h"

namespace anno::stream {
namespace {

ClientCapabilities ipaqCaps(std::size_t quality = 2) {
  const display::DeviceModel d =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  return ClientCapabilities{d.name, d.transfer, quality};
}

/// `caps` with one LUT entry nudged by `delta` (the table stays monotone).
ClientCapabilities withNudgedLut(ClientCapabilities caps, double delta) {
  std::array<double, 256> lut = caps.transfer.lut();
  lut[128] += delta;
  caps.transfer = display::TransferFunction::fromLut(lut);
  return caps;
}

TEST(CapsTable, EqualCapsShareAnId) {
  CapsTable table;
  const ClientCapabilities caps = ipaqCaps();
  const CapsId id = table.intern(caps);
  EXPECT_EQ(table.intern(caps), id);
  const ClientCapabilities copy = caps;
  EXPECT_EQ(table.intern(copy), id);
  // Built again from scratch: equal values in a separate table object.
  const ClientCapabilities rebuilt = ipaqCaps();
  ASSERT_FALSE(rebuilt.transfer.sharesLut(caps.transfer));
  EXPECT_EQ(table.intern(rebuilt), id);
  EXPECT_EQ(table.size(), 1u);
}

TEST(CapsTable, SubQuantisationLutsShareAnIdAndAStream) {
  const ClientCapabilities caps = ipaqCaps();
  const ClientCapabilities nudged = withNudgedLut(caps, 1e-9);
  ASSERT_NE(nudged.transfer.lut(), caps.transfer.lut());
  ASSERT_EQ(encodeCapabilities(nudged), encodeCapabilities(caps))
      << "the nudge must stay below the wire's 16-bit quantisation";
  CapsTable table;
  EXPECT_EQ(table.intern(nudged), table.intern(caps));

  MediaServer server;
  server.addClip(
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.02, 32, 24));
  const ServedStream a = server.openStream("catwoman", caps);
  const ServedStream b = server.openStream("catwoman", nudged);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.bytes, b.bytes) << "one cached stream serves both";
  const core::CacheStats stats = server.streamCache().stats();
  EXPECT_EQ(stats.fills, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(CapsTable, AnySingleFieldChangeGivesANewId) {
  const ClientCapabilities base = ipaqCaps();
  std::vector<ClientCapabilities> variants(5, base);
  variants[0].deviceName = "ipaq5555-b";
  variants[1].qualityIndex = base.qualityIndex + 1;
  variants[2].technology = DisplayTechnology::kEmissive;
  variants[3].minBacklightLevel = base.minBacklightLevel + 1;
  variants[4] = withNudgedLut(base, 1e-3);
  CapsTable table;
  std::vector<CapsId> ids = {table.intern(base)};
  for (const ClientCapabilities& v : variants) ids.push_back(table.intern(v));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "every field is part of the identity";
}

/// The i-th of many distinct capabilities (distinct device names).
ClientCapabilities namedCaps(std::size_t i) {
  ClientCapabilities caps = ipaqCaps();
  caps.deviceName = std::to_string(i);
  return caps;
}

TEST(CapsTable, StaysWithinItsBoundAndNeverReusesAnId) {
  CapsTable table;
  std::vector<CapsId> ids;
  for (std::size_t i = 0; i < CapsTable::kMaxEntries; ++i) {
    ids.push_back(table.intern(namedCaps(i)));
  }
  EXPECT_EQ(table.size(), CapsTable::kMaxEntries);
  // Touch caps 0, so caps 1 is now the least recently interned.
  EXPECT_EQ(table.intern(namedCaps(0)), ids[0]);
  for (std::size_t i = CapsTable::kMaxEntries;
       i < CapsTable::kMaxEntries + 10; ++i) {
    ids.push_back(table.intern(namedCaps(i)));
    EXPECT_EQ(table.size(), CapsTable::kMaxEntries);
  }
  EXPECT_EQ(table.intern(namedCaps(0)), ids[0])
      << "a recently interned entry is not the one evicted";
  const CapsId again = table.intern(namedCaps(1));
  EXPECT_GT(again, *std::max_element(ids.begin(), ids.end()))
      << "evicted caps come back under a new id, never a reused one";
  EXPECT_EQ(table.size(), CapsTable::kMaxEntries);
}

TEST(CapsTable, EvictedCapsServeIdenticalBytes) {
  MediaServer server;
  server.addClip(
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.02, 32, 24));
  const ClientCapabilities caps = namedCaps(0);
  const ServedStream first = server.openStream("catwoman", caps);
  const std::vector<std::uint8_t> firstBytes = *first.bytes;
  for (std::size_t i = 1; i <= CapsTable::kMaxEntries; ++i) {
    (void)server.openStream("catwoman", namedCaps(i));
  }
  const std::uint64_t missesBefore = server.streamCache().stats().misses;
  const ServedStream back = server.openStream("catwoman", caps);
  EXPECT_NE(back.key.caps, first.key.caps) << "caps 0 was evicted";
  EXPECT_EQ(server.streamCache().stats().misses, missesBefore + 1)
      << "a new id costs one stream-cache miss";
  EXPECT_EQ(*back.bytes, firstBytes);
  EXPECT_EQ(server.serve("catwoman", caps), firstBytes);
}

}  // namespace
}  // namespace anno::stream
