// Golden regression: the adapter-based annotation paths must reproduce the
// PRE-refactor (legacy offline annotate() + inline proxy OnlineAnnotator)
// output byte-for-byte, as captured by tools/capture_engine_goldens.cpp at
// the last commit before the AnnotationEngine extraction.  Each golden is
// the scene count, encodeTrack() byte count and CRC-32 of one
// configuration's encoded track; the replay here walks the identical
// config matrix in the identical order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/anno_codec.h"
#include "core/annotate.h"
#include "core/engine.h"
#include "golden_clips.h"
#include "media/crc32.h"
#include "media/kernels/kernels.h"
#include "stream/proxy.h"

namespace anno::core {
namespace {

struct GoldenTrack {
  const char* name;
  std::size_t scenes;
  std::size_t bytes;
  std::uint32_t crc;
};

#include "golden_tracks.inc"

std::string configName(const std::string& clip, SceneDetector det,
                       Granularity gran, bool credits, std::uint32_t latency) {
  std::string name = clip;
  name += det == SceneDetector::kHistogramEmd ? "/emd" : "/maxluma";
  name += gran == Granularity::kPerFrame ? "/frame" : "/scene";
  name += credits ? "/credits" : "/plain";
  name += "/lat" + std::to_string(latency);
  return name;
}

void expectGolden(const GoldenTrack& golden, const std::string& name,
                  const AnnotationTrack& track) {
  const std::vector<std::uint8_t> bytes = encodeTrack(track);
  EXPECT_EQ(golden.name, name);
  EXPECT_EQ(golden.scenes, track.scenes.size()) << name;
  EXPECT_EQ(golden.bytes, bytes.size()) << name;
  EXPECT_EQ(golden.crc, media::crc32(bytes)) << name;
}

void runGoldenMatrix() {
  const std::vector<std::pair<std::string, media::VideoClip>> clips = {
      {"catwoman", engine_golden::goldenCatwomanClip()},
      {"mixed-credits", engine_golden::goldenMixedCreditsClip()},
  };
  std::size_t next = 0;
  const std::size_t goldenCount = std::size(kGoldenTracks);
  for (const auto& [clipName, clip] : clips) {
    const std::vector<media::FrameStats> stats = media::profileClip(clip);
    for (const SceneDetector det :
         {SceneDetector::kMaxLuma, SceneDetector::kHistogramEmd}) {
      for (const Granularity gran :
           {Granularity::kPerScene, Granularity::kPerFrame}) {
        for (const bool credits : {false, true}) {
          AnnotatorConfig cfg;
          cfg.detector = det;
          cfg.granularity = gran;
          cfg.protectCredits = credits;
          // Offline adapters: annotate() from stats, and the full
          // profile-included annotateClip/annotateClips, all byte-identical
          // to the legacy pass.
          ASSERT_LT(next, goldenCount);
          const AnnotationTrack offline = annotate(clip.name, clip.fps, stats, cfg);
          expectGolden(kGoldenTracks[next],
                       configName(clipName, det, gran, credits, 0), offline);
          ++next;
          EXPECT_EQ(annotateClip(clip, cfg), offline);
          EXPECT_EQ(annotateClips(std::span(&clip, 1), cfg).at(0), offline);
          // Online adapter (the engine by alias), bounded latency.  Only
          // max-luma configs have a legacy golden: the legacy online path
          // silently ignored kHistogramEmd -- the fixed behaviour is
          // covered by the live differentials in engine_test.cpp.
          if (det != SceneDetector::kMaxLuma) continue;
          for (const std::uint32_t latency : {8u, 64u}) {
            stream::OnlineAnnotator online(cfg, latency);
            AnnotationTrack track;
            track.clipName = clip.name;
            track.fps = clip.fps;
            track.frameCount = static_cast<std::uint32_t>(stats.size());
            track.granularity = cfg.granularity;
            track.qualityLevels = cfg.qualityLevels;
            for (const media::FrameStats& fs : stats) {
              if (auto scene = online.push(fs)) track.scenes.push_back(*scene);
            }
            if (auto scene = online.flush()) track.scenes.push_back(*scene);
            validateTrack(track);
            ASSERT_LT(next, goldenCount);
            expectGolden(kGoldenTracks[next],
                         configName(clipName, det, gran, credits, latency),
                         track);
            ++next;
            // annotateStats is the shared track assembler: same bytes.
            EXPECT_EQ(
                encodeTrack(annotateStats(clip.name, clip.fps, stats, cfg, latency)),
                encodeTrack(track));
          }
        }
      }
    }
  }
  EXPECT_EQ(next, goldenCount) << "config matrix and goldens out of sync";
}

TEST(EngineGolden, AdaptersReproducePreRefactorTracksByteForByte) {
  // Once per available SIMD dispatch level: the goldens were captured from
  // pure scalar code, so passing here under avx2 IS the proof of
  // the kernel layer's bit-identical contract end-to-end (profiling,
  // accumulate, EMD detector, safe-luma scans, track encoding).
  for (const media::kernels::Level level :
       media::kernels::availableLevels()) {
    SCOPED_TRACE(testing::Message()
                 << "ANNO_SIMD=" << media::kernels::levelName(level));
    media::kernels::ScopedLevel guard(level);
    runGoldenMatrix();
  }
}

}  // namespace
}  // namespace anno::core
