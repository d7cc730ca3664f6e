#include "core/annotate.h"

#include <memory>
#include <span>
#include <stdexcept>

#include "compensate/backend.h"
#include "compensate/compensate.h"
#include "compensate/planner.h"
#include "concurrency/parallel.h"
#include "concurrency/thread_pool.h"
#include "core/runtime.h"

namespace anno::core {

AnnotationTrack annotate(const std::string& clipName, double fps,
                         const std::vector<media::FrameStats>& stats,
                         const AnnotatorConfig& cfg) {
  return annotateStats(clipName, fps, stats, cfg);
}

AnnotationTrack annotateClip(const media::VideoClip& clip,
                             const AnnotatorConfig& cfg,
                             concurrency::ThreadPool* pool) {
  media::validateClip(clip);
  concurrency::PoolLease lease;
  if (pool == nullptr) {
    lease = concurrency::leaseFor(cfg.threads);
    pool = lease.get();
  }
  return annotate(clip.name, clip.fps, media::profileClip(clip, pool), cfg);
}

std::vector<AnnotationTrack> annotateClips(
    std::span<const media::VideoClip> clips, const AnnotatorConfig& cfg,
    std::vector<std::vector<media::FrameStats>>* statsOut) {
  std::vector<AnnotationTrack> tracks(clips.size());
  if (statsOut) {
    statsOut->clear();
    statsOut->resize(clips.size());
  }
  if (clips.empty()) return tracks;
  const concurrency::PoolLease lease = concurrency::leaseFor(cfg.threads);
  concurrency::ThreadPool* pool = lease.get();
  concurrency::parallelFor(
      pool, clips.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          media::validateClip(clips[i]);
          std::vector<media::FrameStats> stats =
              media::profileClip(clips[i], pool);
          tracks[i] = annotate(clips[i].name, clips[i].fps, stats, cfg);
          if (statsOut) (*statsOut)[i] = std::move(stats);
        }
      });
  return tracks;
}

media::VideoClip compensateClip(const media::VideoClip& clip,
                                const AnnotationTrack& track,
                                std::size_t qualityIndex,
                                const display::DeviceModel& device,
                                int minBacklightLevel) {
  media::validateClip(clip);
  validateTrack(track);
  if (qualityIndex >= track.qualityLevels.size()) {
    throw std::out_of_range("compensateClip: qualityIndex out of range");
  }
  if (clip.frames.size() != track.frameCount) {
    throw std::invalid_argument(
        "compensateClip: clip frame count != track frame count");
  }
  media::VideoClip out;
  out.name = clip.name;
  out.fps = clip.fps;
  out.frames.reserve(clip.frames.size());
  const std::unique_ptr<const compensate::Backend> backend =
      backendForTrack(track);
  for (std::size_t si = 0; si < track.scenes.size(); ++si) {
    const SceneAnnotation& scene = track.scenes[si];
    const compensate::CompensationDecision decision = decideForScene(
        *backend, track, si, qualityIndex, device, minBacklightLevel);
    backend->applyScene(std::span(clip.frames)
                            .subspan(scene.span.firstFrame,
                                     scene.span.frameCount),
                        decision, out.frames);
  }
  return out;
}

}  // namespace anno::core
