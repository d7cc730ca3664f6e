// Codec stream goldens: every encoded byte and every decoded pixel of the
// codec_golden_matrix.h configurations must match the CRCs captured by
// tools/capture_codec_goldens.cpp when the AV2 format was introduced -- at
// every available dispatch level.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

#include "codec_golden_matrix.h"
#include "media/kernels/kernels.h"

namespace anno::codec_golden {
namespace {

struct CodecGolden {
  const char* name;
  std::size_t frames;
  std::size_t streamBytes;
  std::uint32_t streamCrc;
  std::uint32_t pixelCrc;
};

#include "codec_goldens.inc"

void replayGoldens() {
  const std::vector<Config> configs = matrix();
  ASSERT_EQ(configs.size(), std::size(kCodecGoldens));
  std::map<std::pair<media::PaperClip, int>, media::VideoClip> clips;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& cfg = configs[i];
    const CodecGolden& golden = kCodecGoldens[i];
    const std::string name = cfg.name();
    ASSERT_EQ(name, golden.name);
    auto it = clips.find({cfg.clip, cfg.width});
    if (it == clips.end()) {
      it = clips
               .emplace(std::pair{cfg.clip, cfg.width},
                        clipFor(cfg.clip, cfg.width, cfg.height))
               .first;
    }
    const Digest d = digest(it->second, cfg);
    EXPECT_EQ(d.frames, golden.frames) << name;
    EXPECT_EQ(d.streamBytes, golden.streamBytes) << name;
    EXPECT_EQ(d.streamCrc, golden.streamCrc) << name;
    EXPECT_EQ(d.pixelCrc, golden.pixelCrc) << name;
  }
}

TEST(CodecGolden, ActiveLevelMatchesCapturedStreams) { replayGoldens(); }

TEST(CodecGolden, EveryLevelMatchesCapturedStreams) {
  for (const media::kernels::Level level :
       media::kernels::availableLevels()) {
    SCOPED_TRACE(media::kernels::levelName(level));
    const media::kernels::ScopedLevel scoped(level);
    replayGoldens();
  }
}

}  // namespace
}  // namespace anno::codec_golden
