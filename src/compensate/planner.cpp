#include "compensate/planner.h"

#include <algorithm>
#include <stdexcept>

#include "media/kernels/kernels.h"

namespace anno::compensate {

CompensationPlan planForLuma(const display::DeviceModel& device,
                             std::uint8_t sceneLuma, int minBacklightLevel) {
  if (minBacklightLevel < 0 || minBacklightLevel > 255) {
    throw std::invalid_argument("planForLuma: minBacklightLevel in [0,255]");
  }
  CompensationPlan plan;
  plan.sceneLuma = sceneLuma;
  const double target = std::max<double>(sceneLuma, 1.0) / 255.0;
  int level = device.transfer.minimumLevelFor(target);
  level = std::max(level, minBacklightLevel);
  plan.backlightLevel = static_cast<std::uint8_t>(level);
  plan.backlightRel = device.transfer.relLuminance(level);
  // Gain derived from the *achieved* backlight luminance so perceived
  // intensity is preserved exactly even when the transfer LUT is coarse.
  plan.gainK = plan.backlightRel > 0.0 ? 1.0 / plan.backlightRel : 1.0;
  if (plan.gainK < 1.0) plan.gainK = 1.0;
  plan.lumaCeiling = 255.0 * plan.backlightRel;
  return plan;
}

CompensationPlan planForHistogram(const display::DeviceModel& device,
                                  const media::Histogram& sceneHistogram,
                                  double clipFraction,
                                  int minBacklightLevel) {
  if (clipFraction < 0.0 || clipFraction >= 1.0) {
    throw std::invalid_argument("planForHistogram: clipFraction in [0,1)");
  }
  if (sceneHistogram.total() == 0) {
    throw std::invalid_argument("planForHistogram: empty histogram");
  }
  // Smallest luminance with at most clipFraction of the mass above it.
  const auto budget = static_cast<std::uint64_t>(
      clipFraction * static_cast<double>(sceneHistogram.total()));
  const auto safe = static_cast<std::uint8_t>(
      media::kernels::tailBudgetLevel(sceneHistogram.counts().data(), budget));
  return planForLuma(device, safe, minBacklightLevel);
}

media::Histogram predictPerceivedHistogram(const media::Histogram& original,
                                           const CompensationPlan& plan) {
  media::Histogram predicted;
  const auto ceiling = static_cast<std::uint8_t>(
      std::min(255.0, plan.lumaCeiling + 0.5));
  for (int y = 0; y < 256; ++y) {
    const std::uint64_t mass = original.count(y);
    if (mass == 0) continue;
    predicted.add(y > ceiling ? ceiling : static_cast<std::uint8_t>(y), mass);
  }
  return predicted;
}

double predictPerceivedEmd(const media::Histogram& original,
                           const CompensationPlan& plan) {
  return media::Histogram::earthMovers(
      original, predictPerceivedHistogram(original, plan));
}

CompensationPlan planForLumaAmbient(const display::DeviceModel& device,
                                    std::uint8_t sceneLuma, double ambientRel,
                                    int minBacklightLevel) {
  if (ambientRel < 0.0) {
    throw std::invalid_argument("planForLumaAmbient: ambientRel >= 0");
  }
  if (minBacklightLevel < 0 || minBacklightLevel > 255) {
    throw std::invalid_argument(
        "planForLumaAmbient: minBacklightLevel in [0,255]");
  }
  // Reflective contribution relative to the transmissive path.
  double reflectiveBoost = 0.0;
  if (device.panel.type != display::PanelType::kTransmissive &&
      device.panel.transmittance > 0.0) {
    reflectiveBoost =
        device.panel.reflectance / device.panel.transmittance * ambientRel;
  }
  CompensationPlan plan;
  plan.sceneLuma = sceneLuma;
  const double target = std::max(
      0.0, std::max<double>(sceneLuma, 1.0) / 255.0 - reflectiveBoost);
  int level = device.transfer.minimumLevelFor(target);
  level = std::max(level, minBacklightLevel);
  plan.backlightLevel = static_cast<std::uint8_t>(level);
  plan.backlightRel = device.transfer.relLuminance(level);
  const double effective = plan.backlightRel + reflectiveBoost;
  plan.gainK = effective > 0.0 ? std::max(1.0, 1.0 / effective) : 1.0;
  plan.lumaCeiling = std::min(255.0, 255.0 * effective);
  return plan;
}

double plannedClipFraction(const CompensationPlan& plan,
                           const media::Histogram& sceneHistogram) {
  if (sceneHistogram.total() == 0) return 0.0;
  return sceneHistogram.fractionAbove(
      static_cast<std::uint8_t>(std::min(255.0, plan.lumaCeiling)));
}

}  // namespace anno::compensate
