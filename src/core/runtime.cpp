#include "core/runtime.h"

#include <algorithm>
#include <stdexcept>

#include "compensate/planner.h"

namespace anno::core {

std::uint8_t BacklightSchedule::levelAt(std::uint32_t frame) const {
  if (commands.empty()) return 255;
  auto it = std::upper_bound(commands.begin(), commands.end(), frame,
                             [](std::uint32_t f, const BacklightCommand& c) {
                               return f < c.frame;
                             });
  if (it == commands.begin()) return 255;
  return std::prev(it)->level;
}

double BacklightSchedule::gainAt(std::uint32_t frame) const {
  if (commands.empty()) return 1.0;
  auto it = std::upper_bound(commands.begin(), commands.end(), frame,
                             [](std::uint32_t f, const BacklightCommand& c) {
                               return f < c.frame;
                             });
  if (it == commands.begin()) return 1.0;
  return std::prev(it)->gainK;
}

std::shared_ptr<const compensate::ToneCurve> BacklightSchedule::curveAt(
    std::uint32_t frame) const {
  if (commands.empty()) return nullptr;
  auto it = std::upper_bound(commands.begin(), commands.end(), frame,
                             [](std::uint32_t f, const BacklightCommand& c) {
                               return f < c.frame;
                             });
  if (it == commands.begin()) return nullptr;
  return std::prev(it)->toneCurve;
}

std::unique_ptr<const compensate::Backend> backendForTrack(
    const AnnotationTrack& track) {
  compensate::BackendConfig cfg;
  cfg.kind = track.backendKind;
  cfg.spatialScale = track.spatialScale;
  return compensate::makeBackend(cfg);
}

compensate::CompensationDecision decideForScene(
    const compensate::Backend& backend, const AnnotationTrack& track,
    std::size_t sceneIndex, std::size_t qualityIndex,
    const display::DeviceModel& device, int minBacklightLevel) {
  const SceneAnnotation& scene = track.scenes.at(sceneIndex);
  const compensate::ToneCurve* curve =
      scene.perceivedCurves.empty() ? nullptr
                                    : &scene.perceivedCurves.at(qualityIndex);
  return backend.decide(device, scene.safeLuma.at(qualityIndex), curve,
                        minBacklightLevel, nullptr);
}

BacklightSchedule buildSchedule(const AnnotationTrack& track,
                                std::size_t qualityIndex,
                                const display::DeviceModel& device,
                                int minBacklightLevel) {
  validateTrack(track);
  if (qualityIndex >= track.qualityLevels.size()) {
    throw std::out_of_range("buildSchedule: qualityIndex out of range");
  }
  const std::unique_ptr<const compensate::Backend> backend =
      backendForTrack(track);
  BacklightSchedule schedule;
  schedule.frameCount = track.frameCount;
  schedule.commands.reserve(track.scenes.size());
  for (std::size_t si = 0; si < track.scenes.size(); ++si) {
    const compensate::CompensationDecision d = decideForScene(
        *backend, track, si, qualityIndex, device, minBacklightLevel);
    // Merge with the previous command when neither the level nor the pixel
    // curve changes: no backlight write is issued, so no flicker and no
    // switch counted.  Curves compare by content -- decide() allocates a
    // fresh curve per scene even when the values repeat.
    if (!schedule.commands.empty()) {
      const BacklightCommand& back = schedule.commands.back();
      const bool sameCurve =
          (back.toneCurve == nullptr) == (d.pixelCurve == nullptr) &&
          (back.toneCurve == nullptr || *back.toneCurve == *d.pixelCurve);
      if (back.level == d.plan.backlightLevel && sameCurve) continue;
    }
    schedule.commands.push_back({track.scenes[si].span.firstFrame,
                                 d.plan.backlightLevel, d.plan.gainK,
                                 d.pixelCurve});
  }
  return schedule;
}

BacklightSchedule fullBacklightSchedule(std::uint32_t frameCount) {
  BacklightSchedule schedule;
  schedule.frameCount = frameCount;
  if (frameCount > 0) {
    schedule.commands.push_back(BacklightCommand{});  // full, unit gain
  }
  return schedule;
}

BacklightSchedule limitSlewRate(const BacklightSchedule& schedule,
                                std::uint8_t maxDeltaPerFrame,
                                std::size_t* clampedFrames) {
  if (clampedFrames != nullptr) *clampedFrames = 0;
  if (maxDeltaPerFrame == 0 || schedule.commands.size() < 2 ||
      schedule.frameCount == 0) {
    return schedule;
  }
  const std::size_t n = schedule.frameCount;
  // Desired per-frame levels from the command list.
  std::vector<std::uint8_t> desired(n);
  for (std::size_t f = 0; f < n; ++f) {
    desired[f] = schedule.levelAt(static_cast<std::uint32_t>(f));
  }
  // Lowest envelope that never undercuts `desired` and moves at most
  // `maxDeltaPerFrame` per frame: out[f] = max_g(desired[g] - d*|f-g|),
  // computed as a forward pass (bounds dim-down speed) and a backward pass
  // (starts brightening ramps early enough to arrive on time).
  std::vector<std::uint8_t> limited(n);
  int prev = desired[0];
  limited[0] = desired[0];
  for (std::size_t f = 1; f < n; ++f) {
    prev = std::max<int>(desired[f], prev - maxDeltaPerFrame);
    limited[f] = static_cast<std::uint8_t>(prev);
  }
  for (std::size_t f = n - 1; f-- > 0;) {
    limited[f] = static_cast<std::uint8_t>(
        std::max<int>(limited[f], limited[f + 1] - maxDeltaPerFrame));
  }
  if (clampedFrames != nullptr) {
    std::size_t clamped = 0;
    for (std::size_t f = 0; f < n; ++f) {
      if (limited[f] != desired[f]) ++clamped;
    }
    *clampedFrames = clamped;
  }
  // Recompress into commands; a command breaks on a level change or on a
  // gain or tone-curve change in the underlying schedule (curves switch
  // only at input-command boundaries, so pointer identity suffices).
  BacklightSchedule out;
  out.frameCount = schedule.frameCount;
  for (std::size_t f = 0; f < n; ++f) {
    const double gain = schedule.gainAt(static_cast<std::uint32_t>(f));
    const std::shared_ptr<const compensate::ToneCurve> curve =
        schedule.curveAt(static_cast<std::uint32_t>(f));
    if (out.commands.empty() || out.commands.back().level != limited[f] ||
        out.commands.back().gainK != gain ||
        out.commands.back().toneCurve != curve) {
      out.commands.push_back(
          {static_cast<std::uint32_t>(f), limited[f], gain, curve});
    }
  }
  return out;
}

ClientWorkEstimate estimateClientWork(const AnnotationTrack& track,
                                      const BacklightSchedule& schedule) {
  ClientWorkEstimate est;
  est.multiplies = track.scenes.size();
  est.tableLookups = track.scenes.size();
  est.backlightWrites = schedule.commands.size();
  return est;
}

}  // namespace anno::core
