// Codec stream goldens: every encoded byte and every decoded pixel of the
// codec_golden_matrix.h configurations must match the CRCs captured by
// tools/capture_codec_goldens.cpp -- at every available dispatch level.
// The GOP-1 rows date from the AV2 format; the GOP-12 and served rows from
// the scene-cut GOPs and their clamped-plane P reference.
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

void expectGolden(const Digest& d, const CodecGolden& golden,
                  const std::string& name) {
  EXPECT_EQ(d.frames, golden.frames) << name;
  EXPECT_EQ(d.streamBytes, golden.streamBytes) << name;
  EXPECT_EQ(d.streamCrc, golden.streamCrc) << name;
  EXPECT_EQ(d.pixelCrc, golden.pixelCrc) << name;
}

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
    expectGolden(digest(it->second, cfg.codec()), golden, name);
  }
  const std::vector<SplicedConfig> served = servedMatrix();
  ASSERT_EQ(served.size(), std::size(kServedGoldens));
  for (std::size_t i = 0; i < served.size(); ++i) {
    const std::string name = served[i].name();
    ASSERT_EQ(name, kServedGoldens[i].name);
    expectGolden(digest(splicedClip(served[i]), media::CodecConfig{}),
                 kServedGoldens[i], name);
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
