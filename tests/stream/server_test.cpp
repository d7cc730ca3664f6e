#include "stream/server.h"

#include <gtest/gtest.h>

#include "core/runtime.h"
#include "media/clipgen.h"
#include "media/luminance.h"
#include "stream/mux.h"

namespace anno::stream {
namespace {

ClientCapabilities ipaqCaps(std::size_t quality = 2) {
  const display::DeviceModel d =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  return ClientCapabilities{d.name, d.transfer, quality};
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.addClip(
        media::generatePaperClip(media::PaperClip::kCatwoman, 0.03, 32, 24));
    server_.addClip(
        media::generatePaperClip(media::PaperClip::kOfficeXp, 0.03, 32, 24));
  }
  MediaServer server_;
};

TEST_F(ServerTest, CatalogListsClips) {
  const auto names = server_.catalog();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_TRUE(server_.hasClip("catwoman"));
  EXPECT_TRUE(server_.hasClip("officexp"));
  EXPECT_FALSE(server_.hasClip("nope"));
}

TEST_F(ServerTest, EntryHasValidTrack) {
  const CatalogEntry& e = server_.entry("catwoman");
  EXPECT_NO_THROW(core::validateTrack(e.track));
  EXPECT_EQ(e.track.frameCount, e.original.frames.size());
}

TEST_F(ServerTest, ServeProducesAnnotatedStream) {
  const auto bytes = server_.serve("catwoman", ipaqCaps());
  const DemuxedStream d = demux(bytes);
  ASSERT_TRUE(d.annotations.has_value());
  EXPECT_EQ(d.video.frames.size(),
            server_.entry("catwoman").original.frames.size());
}

TEST_F(ServerTest, ServedFramesAreCompensated) {
  // Dark scenes in the served stream must be brighter than the original
  // (the server applied the contrast gain).
  const auto bytes = server_.serve("catwoman", ipaqCaps(2));
  const DemuxedStream d = demux(bytes);
  const media::VideoClip served = media::decodeClip(d.video);
  const media::VideoClip& orig = server_.entry("catwoman").original;
  double servedMean = 0.0, origMean = 0.0;
  for (std::size_t i = 0; i < orig.frames.size(); i += 5) {
    servedMean += media::analyzeLuminance(served.frames[i]).meanLuma;
    origMean += media::analyzeLuminance(orig.frames[i]).meanLuma;
  }
  EXPECT_GT(servedMean, origMean * 1.1);
}

TEST_F(ServerTest, ServeRawHasNoAnnotations) {
  const auto bytes = server_.serveRaw("officexp");
  const DemuxedStream d = demux(bytes);
  EXPECT_FALSE(d.annotations.has_value());
}

TEST_F(ServerTest, UnknownClipThrows) {
  EXPECT_THROW((void)server_.serve("nope", ipaqCaps()), std::out_of_range);
  EXPECT_THROW((void)server_.serveRaw("nope"), std::out_of_range);
  EXPECT_THROW((void)server_.entry("nope"), std::out_of_range);
}

TEST_F(ServerTest, BadQualityIndexThrows) {
  EXPECT_THROW((void)server_.serve("catwoman", ipaqCaps(99)),
               std::out_of_range);
}

TEST_F(ServerTest, BadQualityIndexMessageReportsRequestedAndAvailable) {
  // A fleet operator debugging a misconfigured tenant needs the message to
  // say what was asked for AND what the track offers.
  try {
    (void)server_.serve("catwoman", ipaqCaps(99));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("quality index 99"), std::string::npos) << msg;
    EXPECT_NE(msg.find("5 level(s) offered"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[0, 4]"), std::string::npos) << msg;
  }
}

TEST_F(ServerTest, TenantServeBadQualityIndexChecksTenantLadder) {
  // The tenant overload must validate against the TENANT's quality ladder,
  // not the server default's.
  core::AnnotatorConfig tenant;
  tenant.qualityLevels = {0.0, 0.1};  // 2 levels
  try {
    (void)server_.serve("catwoman", ipaqCaps(2), tenant);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("quality index 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 level(s) offered"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[0, 1]"), std::string::npos) << msg;
  }
}

TEST_F(ServerTest, UnknownClipMessageNamesTheClip) {
  try {
    (void)server_.serve("not-in-catalog", ipaqCaps());
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("not-in-catalog"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ServerTest, NegativePathsLeaveCatalogServable) {
  // Failed serves must not corrupt server state: the same clip still
  // serves, and the memo cache still works.
  EXPECT_THROW((void)server_.serve("catwoman", ipaqCaps(99)),
               std::out_of_range);
  EXPECT_THROW((void)server_.serve("nope", ipaqCaps()), std::out_of_range);
  const auto a = server_.serve("catwoman", ipaqCaps(2));
  const auto b = server_.serve("catwoman", ipaqCaps(2));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST_F(ServerTest, ReAddReplacesClip) {
  media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.01, 32, 24);
  const std::size_t newCount = clip.frames.size();
  server_.addClip(std::move(clip));
  EXPECT_EQ(server_.entry("catwoman").original.frames.size(), newCount);
}

TEST_F(ServerTest, ReingestMissesAndReclaimsTheOldRevision) {
  const ClientCapabilities caps = ipaqCaps();
  const ServedStream before = server_.openStream("catwoman", caps);
  const std::vector<std::uint8_t> beforeBytes = *before.bytes;
  (void)server_.openStream("catwoman", ipaqCaps(1));
  (void)server_.openStream("officexp", caps);
  const core::CacheStats cached = server_.streamCache().stats();
  ASSERT_EQ(cached.entries, 3u);

  media::VideoClip replacement =
      media::generatePaperClip(media::PaperClip::kShrek2, 0.03, 32, 24);
  replacement.name = "catwoman";
  MediaServer fresh;
  fresh.addClip(replacement);
  std::vector<media::VideoClip> batch;
  batch.push_back(std::move(replacement));
  server_.addClips(std::move(batch));
  EXPECT_EQ(server_.streamCache().stats().entries, 1u)
      << "both streams of the replaced revision are reclaimed";
  EXPECT_EQ(server_.streamCache().eraseClip(before.key.revision), 0u);

  const ServedStream after = server_.openStream("catwoman", caps);
  EXPECT_NE(after.key.revision, before.key.revision);
  EXPECT_EQ(after.key.caps, before.key.caps);
  EXPECT_EQ(server_.streamCache().stats().misses, cached.misses + 1)
      << "the same name and caps miss after a re-ingest";
  EXPECT_EQ(*after.bytes, fresh.serve("catwoman", caps))
      << "the new content's bytes";
  EXPECT_NE(*after.bytes, beforeBytes);
}

TEST(Server, RejectsInvalidClip) {
  MediaServer server;
  media::VideoClip bad;
  bad.name = "bad";
  EXPECT_THROW(server.addClip(std::move(bad)), std::invalid_argument);
}

TEST_F(ServerTest, EmissiveClientGetsUncompensatedPixels) {
  // OLED negotiation: the server must NOT brighten pixels for an emissive
  // client (that would raise its power) -- it gets original pixels plus
  // the annotations.
  ClientCapabilities oledCaps = ipaqCaps(2);
  oledCaps.technology = DisplayTechnology::kEmissive;
  const auto bytes = server_.serve("catwoman", oledCaps);
  const DemuxedStream d = demux(bytes);
  ASSERT_TRUE(d.annotations.has_value());
  const media::VideoClip served = media::decodeClip(d.video);
  const media::VideoClip& orig = server_.entry("catwoman").original;
  for (std::size_t i = 0; i < orig.frames.size(); i += 9) {
    const double meanServed =
        media::analyzeLuminance(served.frames[i]).meanLuma;
    const double meanOrig = media::analyzeLuminance(orig.frames[i]).meanLuma;
    EXPECT_NEAR(meanServed, meanOrig, 4.0) << "frame " << i;
  }
}

TEST(Server, TechnologySurvivesWireRoundtrip) {
  ClientCapabilities caps = ipaqCaps(1);
  caps.technology = DisplayTechnology::kEmissive;
  const ClientCapabilities decoded =
      decodeCapabilities(encodeCapabilities(caps));
  EXPECT_EQ(decoded.technology, DisplayTechnology::kEmissive);
}

TEST(Server, CapabilitiesWireRoundtrip) {
  const ClientCapabilities caps = ipaqCaps(3);
  const auto bytes = encodeCapabilities(caps);
  // Name + quality + 256 x u16 LUT: compact, sent once per session.
  EXPECT_LT(bytes.size(), 560u);
  const ClientCapabilities decoded = decodeCapabilities(bytes);
  EXPECT_EQ(decoded.deviceName, caps.deviceName);
  EXPECT_EQ(decoded.qualityIndex, caps.qualityIndex);
  for (int level = 0; level < 256; ++level) {
    EXPECT_NEAR(decoded.transfer.relLuminance(level),
                caps.transfer.relLuminance(level), 2e-5)
        << "level " << level;
  }
}

TEST(Server, CapabilitiesDecodedOverWireServeIdentically) {
  // Serving against the wire-decoded capabilities must pick the same
  // backlight levels as serving against the in-memory original.
  MediaServer server;
  server.addClip(
      media::generatePaperClip(media::PaperClip::kIRobot, 0.02, 32, 24));
  const ClientCapabilities caps = ipaqCaps(2);
  const ClientCapabilities wire =
      decodeCapabilities(encodeCapabilities(caps));
  const core::AnnotationTrack& track = server.entry("i_robot").track;
  const core::BacklightSchedule a =
      core::buildSchedule(track, 2, deviceFromCapabilities(caps));
  const core::BacklightSchedule b =
      core::buildSchedule(track, 2, deviceFromCapabilities(wire));
  ASSERT_EQ(a.commands.size(), b.commands.size());
  for (std::size_t i = 0; i < a.commands.size(); ++i) {
    EXPECT_EQ(a.commands[i].level, b.commands[i].level);
  }
}

TEST(Server, CapabilitiesRejectMalformed) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4};
  EXPECT_THROW((void)decodeCapabilities(junk), std::runtime_error);
  auto bytes = encodeCapabilities(ipaqCaps());
  bytes.resize(bytes.size() / 2);
  EXPECT_ANY_THROW((void)decodeCapabilities(bytes));
}

TEST(Server, DeviceFromCapabilitiesCarriesTransfer) {
  const ClientCapabilities caps = ipaqCaps();
  const display::DeviceModel d = deviceFromCapabilities(caps);
  EXPECT_EQ(d.name, "ipaq5555");
  for (int level = 0; level < 256; level += 51) {
    EXPECT_DOUBLE_EQ(d.transfer.relLuminance(level),
                     caps.transfer.relLuminance(level));
  }
}

}  // namespace
}  // namespace anno::stream
