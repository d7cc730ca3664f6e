#include "core/annotation.h"

#include <gtest/gtest.h>

namespace anno::core {
namespace {

AnnotationTrack goodTrack() {
  return {.clipName = "x",
          .fps = 12.0,
          .frameCount = 30,
          .qualityLevels = {0.0, 0.05, 0.10},
          .scenes = {
              {SceneSpan{0, 10}, {200, 180, 160}, {}},
              {SceneSpan{10, 20}, {120, 110, 100}, {}},
          }};
}

TEST(AnnotationTrack, GoodTrackValidates) {
  EXPECT_NO_THROW(validateTrack(goodTrack()));
}

TEST(AnnotationTrack, RejectsBadFps) {
  AnnotationTrack t = goodTrack();
  t.fps = 0.0;
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsNoQualityLevels) {
  AnnotationTrack t = goodTrack();
  t.qualityLevels.clear();
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsUnsortedQualityLevels) {
  AnnotationTrack t = goodTrack();
  t.qualityLevels = {0.10, 0.05, 0.0};
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsOutOfRangeQuality) {
  AnnotationTrack t = goodTrack();
  t.qualityLevels = {0.0, 0.5, 1.0};
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsNoScenes) {
  AnnotationTrack t = goodTrack();
  t.scenes.clear();
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsGapInSpans) {
  AnnotationTrack t = goodTrack();
  t.scenes[1].span.firstFrame = 11;  // gap after frame 9
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsEmptyScene) {
  AnnotationTrack t = goodTrack();
  t.scenes[0].span.frameCount = 0;
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsWrongSafeLumaCount) {
  AnnotationTrack t = goodTrack();
  t.scenes[0].safeLuma.pop_back();
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsIncreasingSafeLuma) {
  AnnotationTrack t = goodTrack();
  t.scenes[0].safeLuma = {100, 150, 120};  // more clipping must not raise it
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, RejectsCoverageMismatch) {
  AnnotationTrack t = goodTrack();
  t.frameCount = 31;
  EXPECT_THROW(validateTrack(t), std::invalid_argument);
}

TEST(AnnotationTrack, SceneIndexForFrame) {
  const AnnotationTrack t = goodTrack();
  EXPECT_EQ(sceneIndexForFrame(t, 0), 0u);
  EXPECT_EQ(sceneIndexForFrame(t, 9), 0u);
  EXPECT_EQ(sceneIndexForFrame(t, 10), 1u);
  EXPECT_EQ(sceneIndexForFrame(t, 29), 1u);
  EXPECT_THROW((void)sceneIndexForFrame(t, 30), std::out_of_range);
}

TEST(AnnotationTrack, QualityCount) {
  EXPECT_EQ(goodTrack().qualityCount(), 3u);
}

}  // namespace
}  // namespace anno::core
