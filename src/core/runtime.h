// Client-side annotation runtime.
//
// Paper Sec. 4.3: "The only extra operation that the device has to perform
// during playback is to adjust the backlight level periodically, according
// to the annotations in the video stream" -- per scene, a "simple
// multiplication, followed by a table look-up" against the device's
// backlight-luminance transfer LUT.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "compensate/backend.h"
#include "core/annotation.h"
#include "display/device.h"

namespace anno::core {

/// One backlight change command.
struct BacklightCommand {
  std::uint32_t frame = 0;        ///< effective from this frame onward
  std::uint8_t level = 255;       ///< software backlight level
  double gainK = 1.0;             ///< gain the stream was compensated with
  /// Device-scaled pixel tone curve for curve-carrying backends (HEBS);
  /// null for the linear default (apply gainK instead).
  std::shared_ptr<const compensate::ToneCurve> toneCurve;
};

/// The full per-clip backlight schedule for one quality level on one device.
struct BacklightSchedule {
  std::vector<BacklightCommand> commands;  ///< sorted by frame, deduplicated
  std::uint32_t frameCount = 0;

  /// Level in effect at `frame` (binary search).
  [[nodiscard]] std::uint8_t levelAt(std::uint32_t frame) const;

  /// Gain in effect at `frame`.
  [[nodiscard]] double gainAt(std::uint32_t frame) const;

  /// Tone curve in effect at `frame` (null outside curve-carrying spans).
  [[nodiscard]] std::shared_ptr<const compensate::ToneCurve> curveAt(
      std::uint32_t frame) const;

  /// Number of backlight *changes* during playback (flicker proxy; the
  /// initial set is not counted).
  [[nodiscard]] std::size_t switchCount() const noexcept {
    return commands.empty() ? 0 : commands.size() - 1;
  }
};

/// Reconstructs the compensation backend a decoded track was produced for
/// (kind + spatial scale; server-only knobs like the HEBS equalization
/// weight are baked into the shipped curves and not needed at decode time).
[[nodiscard]] std::unique_ptr<const compensate::Backend> backendForTrack(
    const AnnotationTrack& track);

/// The single decision routine every consumer of a decoded track shares
/// (buildSchedule, compensateClip, the adaptive player):
/// resolves scene `sceneIndex` at `qualityIndex` on `device` through the
/// track's backend.  Curve-carrying backends receive the scene's perceived
/// curve when present; when absent (legacy track, damaged curve chunk) they
/// return the full-backlight decision.
[[nodiscard]] compensate::CompensationDecision decideForScene(
    const compensate::Backend& backend, const AnnotationTrack& track,
    std::size_t sceneIndex, std::size_t qualityIndex,
    const display::DeviceModel& device, int minBacklightLevel = 10);

/// Maps an annotation track onto a device: for each scene, safeLuma ->
/// target relative luminance (the multiplication) -> minimum backlight
/// level (the table lookup).  Consecutive scenes resolving to the same
/// level are merged, which is how the annotation scheme "avoids a
/// postprocessing step by limiting backlight changes".  Curve-carrying
/// tracks (HEBS) attach the device-scaled pixel curve to each command;
/// merging then also requires an identical curve.
[[nodiscard]] BacklightSchedule buildSchedule(const AnnotationTrack& track,
                                              std::size_t qualityIndex,
                                              const display::DeviceModel& device,
                                              int minBacklightLevel = 10);

/// Conservative degradation schedule: full backlight (level 255, gain 1)
/// for the whole clip.  What the client programs when the stream carries no
/// usable annotations -- exactly the paper's non-annotated baseline, so the
/// worst failure mode costs power, never correctness.
[[nodiscard]] BacklightSchedule fullBacklightSchedule(std::uint32_t frameCount);

/// Bounds the per-frame backlight level delta of a schedule (flicker
/// control at repair boundaries).  The result is the LOWEST schedule that
/// (a) never drops below the input schedule's level at any frame -- dimming
/// below the planned level could clip compensated pixels, brightening above
/// it never can -- and (b) changes by at most `maxDeltaPerFrame` levels
/// between consecutive frames.  Brightening is therefore anticipated (the
/// ramp ends as the brighter span begins) and dimming is spread out after
/// the boundary.  Gains are carried over from the input schedule unchanged
/// (the gain belongs to the content the server compensated, not to the
/// level the client happens to hold during a ramp).
/// `maxDeltaPerFrame == 0` disables limiting (returns the input).
/// `clampedFrames` (optional) receives the number of frames whose level the
/// limiter had to raise above the input schedule -- 0 means the schedule
/// was already within the slew bound (the client telemetry signal for how
/// often repair boundaries actually flickered).
[[nodiscard]] BacklightSchedule limitSlewRate(const BacklightSchedule& schedule,
                                              std::uint8_t maxDeltaPerFrame,
                                              std::size_t* clampedFrames = nullptr);

/// Rough operation count of building + executing the schedule on the client
/// (for the "negligible work" claim): one multiply + one LUT lookup per
/// scene plus one backlight write per switch.
struct ClientWorkEstimate {
  std::size_t multiplies = 0;
  std::size_t tableLookups = 0;
  std::size_t backlightWrites = 0;
};

[[nodiscard]] ClientWorkEstimate estimateClientWork(
    const AnnotationTrack& track, const BacklightSchedule& schedule);

}  // namespace anno::core
