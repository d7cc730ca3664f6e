// Offline annotation adapters: the profiling + annotation passes run at the
// server (paper Sec. 4.3, "Technique for Annotations").
//
// Pipeline: per-frame luminance profiling (parallel across frames) -> the
// causal core::AnnotationEngine pushed in frame order (scene detection,
// per-scene histogram, credits protection, safe-luma planning -- see
// core/engine.h, the single implementation every serving context shares).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/annotation.h"
#include "core/engine.h"
#include "core/scene_detect.h"
#include "display/device.h"
#include "media/pixel.h"
#include "media/video.h"

namespace anno::concurrency {
class ThreadPool;
}

namespace anno::core {

/// Builds the annotation track from profiled frame statistics: a thin
/// adapter that feeds `stats` to an AnnotationEngine in frame order.
/// (Use media::profileClip to produce `stats` from a decoded clip.)
[[nodiscard]] AnnotationTrack annotate(const std::string& clipName, double fps,
                                       const std::vector<media::FrameStats>& stats,
                                       const AnnotatorConfig& cfg = {});

/// Convenience: profile + annotate a decoded clip.  Profiling runs on the
/// pool resolved from cfg.threads (or `pool` when non-null -- the batch
/// path shares one pool across clips); the engine pass is causal/serial
/// and bit-identical for any thread count.
[[nodiscard]] AnnotationTrack annotateClip(const media::VideoClip& clip,
                                           const AnnotatorConfig& cfg = {},
                                           concurrency::ThreadPool* pool = nullptr);

/// Batch annotation: profiles and annotates every clip over ONE pool
/// resolved from cfg.threads, parallelising across clips and, within a
/// clip, across frames (nested parallelism on the same pool is
/// deadlock-free by construction).  Tracks come back in input order and are
/// bit-identical to annotateClip(clips[i], cfg).  When `statsOut` is
/// non-null it receives the per-clip frame statistics (index-parallel to
/// the result) so callers that also need them -- e.g. the media server's
/// sketch builder -- avoid a second profiling pass.
[[nodiscard]] std::vector<AnnotationTrack> annotateClips(
    std::span<const media::VideoClip> clips, const AnnotatorConfig& cfg = {},
    std::vector<std::vector<media::FrameStats>>* statsOut = nullptr);

/// Server-side frame compensation (Sec. 4.3: "the compensation of the
/// frames in the video stream is performed at either the server or the
/// intermediary proxy node").  Applies each scene's contrast gain for the
/// chosen quality level on `device`, returning the compensated clip the
/// client will receive.  Frame count must match the track.
/// `minBacklightLevel` must match the floor the client's schedule uses
/// (negotiated in ClientCapabilities), so gains and levels stay paired.
[[nodiscard]] media::VideoClip compensateClip(const media::VideoClip& clip,
                                              const AnnotationTrack& track,
                                              std::size_t qualityIndex,
                                              const display::DeviceModel& device,
                                              int minBacklightLevel = 10);

/// compensateClip's pixel transform as per-frame channel tables, for an
/// encoder that applies them inside its colour conversion
/// (media::encodeClip).  `frames[i]` is frame i's table, or null for a
/// frame compensateClip leaves as it is (gain <= 1); it points into
/// `scenes`, so the tables move but do not copy.
struct CompensationTables {
  CompensationTables() = default;
  CompensationTables(CompensationTables&&) = default;
  CompensationTables& operator=(CompensationTables&&) = default;

  std::vector<media::ChannelTable> scenes;  ///< one per scene with gain > 1
  std::vector<const media::ChannelTable*> frames;
};

/// The tables of compensateClip(clip, track, ...), from the same per-scene
/// decisions, when every scene resolves to a per-channel lookup
/// (compensate::appliesPerChannel): the linear gain.  std::nullopt when a
/// scene downscales or applies a tone curve.  Checks its arguments as
/// compensateClip does.
[[nodiscard]] std::optional<CompensationTables> compensationTables(
    const media::VideoClip& clip, const AnnotationTrack& track,
    std::size_t qualityIndex, const display::DeviceModel& device,
    int minBacklightLevel = 10);

}  // namespace anno::core
