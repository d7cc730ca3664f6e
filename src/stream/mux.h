// Stream container: multiplexes the compressed video and its annotation
// track into one byte stream ("the annotations can be generated and added to
// the video stream at either the server or proxy node, with no changes for
// the client" -- clients that do not understand the annotation section can
// skip it, because sections are length-prefixed).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/anno_codec.h"
#include "core/annotation.h"
#include "core/sketch.h"
#include "media/codec.h"
#include "power/dvfs.h"

namespace anno::stream {

/// A demuxed stream.  Optional sections degrade instead of aborting the
/// demux: a damaged annotation section decodes leniently (partial track +
/// damage report), and damaged complexity/sketch riders simply come back
/// absent -- only the video section is load-bearing.
struct DemuxedStream {
  media::EncodedClip video;
  std::optional<core::AnnotationTrack> annotations;
  /// Damage report for the annotation section.  When `annotations` is
  /// engaged and this is non-intact, the track contains full-backlight
  /// repair scenes for the spans listed here.
  core::TrackDamageReport annotationDamage;
  /// Optional per-frame decode-workload annotations (drives client DVFS).
  std::optional<power::ComplexityTrack> complexity;
  /// Optional per-scene histogram sketches (drives client-side tone
  /// mapping without frame analysis).
  std::optional<core::SketchTrack> sketches;
  /// Optional sections that were present but undecodable (dropped).
  bool complexityDamaged = false;
  bool sketchesDamaged = false;
};

/// Muxes video (+ optional annotation tracks) into one container stream.
[[nodiscard]] std::vector<std::uint8_t> mux(
    const media::EncodedClip& video,
    const core::AnnotationTrack* annotations = nullptr,
    const power::ComplexityTrack* complexity = nullptr,
    const core::SketchTrack* sketches = nullptr);

/// Demuxes a container.  Unknown sections are skipped (forward compat);
/// throws std::runtime_error if the video section is missing or malformed.
[[nodiscard]] DemuxedStream demux(std::span<const std::uint8_t> bytes);

}  // namespace anno::stream
