#include "core/track_cache.h"

namespace anno::core {

namespace {

std::size_t sceneBytes(const std::vector<SceneAnnotation>& scenes) {
  std::size_t total = scenes.capacity() * sizeof(SceneAnnotation);
  for (const SceneAnnotation& s : scenes) {
    total += s.safeLuma.capacity() * sizeof(std::uint8_t);
  }
  return total;
}

}  // namespace

std::size_t estimateTrackBytes(const CachedTrack& value) {
  return sizeof(CachedTrack) + value.track.clipName.capacity() +
         value.track.qualityLevels.capacity() * sizeof(double) +
         sceneBytes(value.track.scenes) +
         value.sketches.scenes.capacity() * sizeof(SceneSketch);
}

}  // namespace anno::core
