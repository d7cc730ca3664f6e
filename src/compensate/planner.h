// Compensation planning: from a scene's clip-safe maximum luminance to a
// concrete (backlight level, gain k) pair for a specific device.
//
// Derivation (paper Sec. 4.1, with T the device's backlight->luminance
// transfer, Ysafe the luminance below which all but the clip budget lies):
//   perceived intensity at full backlight:  I = rho * T(255) * Y = rho * Y
//   at reduced level b with gain k:         I' = rho * T(b) * min(255, Y*k)
//   choose b = T^-1(Ysafe/255)  (smallest level able to show Ysafe faithfully)
//   choose k = 1 / T(b)         (then I' = I for all Y <= 255*T(b) >= Ysafe)
// Pixels brighter than 255*T(b) saturate; by construction their population
// is within the requested clip budget.
#pragma once

#include <cstdint>

#include "display/device.h"
#include "media/histogram.h"

namespace anno::compensate {

/// A concrete per-scene (or per-frame) compensation decision.
struct CompensationPlan {
  std::uint8_t sceneLuma = 255;   ///< clip-safe max luminance the plan serves
  std::uint8_t backlightLevel = 255;
  double gainK = 1.0;             ///< contrast-enhancement factor
  double backlightRel = 1.0;      ///< T(backlightLevel)
  double lumaCeiling = 255.0;     ///< luminance above which pixels clip
};

/// Quality levels evaluated in the paper: fraction of the brightest pixels
/// allowed to clip (Figs. 9/10 sweep 0%..20% in 5% steps).
inline constexpr double kPaperQualityLevels[] = {0.00, 0.05, 0.10, 0.15, 0.20};
inline constexpr int kPaperQualityLevelCount = 5;

/// Plans compensation for a scene whose clip-safe maximum luminance is
/// `sceneLuma`, on `device`.  `minBacklightLevel` bounds the dimming (very
/// low levels render panels unreadable; the paper never drops to zero).
[[nodiscard]] CompensationPlan planForLuma(const display::DeviceModel& device,
                                           std::uint8_t sceneLuma,
                                           int minBacklightLevel = 10);

/// Plans from a scene-accumulated luma histogram and a clip budget:
/// determines the clip-safe luminance at `clipFraction`, then plans for it.
[[nodiscard]] CompensationPlan planForHistogram(
    const display::DeviceModel& device, const media::Histogram& sceneHistogram,
    double clipFraction, int minBacklightLevel = 10);

/// Fraction of `sceneHistogram` mass the plan will clip (sanity check:
/// should not exceed the requested budget).
[[nodiscard]] double plannedClipFraction(const CompensationPlan& plan,
                                         const media::Histogram& sceneHistogram);

/// Predicted histogram of the PERCEIVED image under a plan: with gain
/// k = 1/T(b), a pixel of luminance y displays at min(y, lumaCeiling) --
/// unclipped pixels are exactly preserved, clipped ones pin at the ceiling.
[[nodiscard]] media::Histogram predictPerceivedHistogram(
    const media::Histogram& original, const CompensationPlan& plan);

/// Predicted perceived-quality EMD of a plan (original vs predicted
/// perceived histogram) -- the server-side quality estimate that needs no
/// camera and no pixel pass.
[[nodiscard]] double predictPerceivedEmd(const media::Histogram& original,
                                         const CompensationPlan& plan);

/// Ambient-aware planning for reflective/transflective panels.
///
/// Outdoors, the reflective path contributes rho_r * A * Y of perceived
/// intensity for free (paper Sec. 4.1: transflective panels "perform best
/// both indoors (low light) and outdoors (in sunlight)").  Matching the
/// dark-room full-backlight reference rho_t * Y then requires only
///     T(b) >= Ysafe/255 - (rho_r/rho_t) * A,
/// so the brighter the ambient, the lower the backlight may go -- extra
/// savings the transmissive-only formula leaves on the table.  The gain
/// accounts for both light paths: k = 1 / (T(b) + (rho_r/rho_t) * A).
/// For transmissive panels (no reflective path) this reduces exactly to
/// planForLuma.
[[nodiscard]] CompensationPlan planForLumaAmbient(
    const display::DeviceModel& device, std::uint8_t sceneLuma,
    double ambientRel, int minBacklightLevel = 10);

}  // namespace anno::compensate
