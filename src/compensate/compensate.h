// Image compensation: the pixel transforms that accompany backlight dimming.
//
// Paper Sec. 4.1.  Two schemes:
//   Brightness compensation: C' = min(1, C + deltaC)   (constant offset)
//   Contrast enhancement:    C' = min(1, C * k)        (constant gain)
// "We use this method [contrast enhancement] in our work and we select a k
// value to maintain the same perceived intensity I (keep the product of L
// and Y constant, i.e. k = L/L')."
//
// Both apply per RGB channel, as one lookup table per call.  Tone curves
// act on the computed luminance Y only.
#pragma once

#include <array>
#include <cstdint>

#include "media/histogram.h"
#include "media/image.h"

namespace anno::compensate {

/// Per-channel code map: every 8-bit channel code to its compensated code.
using ChannelTable = std::array<std::uint8_t, 256>;

/// Contrast enhancement's code map, table[c] = media::clamp8(c * k): the
/// expression media::scale evaluates per channel, so looking every channel
/// byte up in it gives exactly media::scale of every pixel.
[[nodiscard]] ChannelTable gainTable(double k);

/// Contrast enhancement: multiply by `k` >= 1 with saturation.  Per
/// channel this is one lookup in gainTable(k).
[[nodiscard]] media::Image contrastEnhance(const media::Image& img, double k);

/// Per-channel contrast enhancement with the caller's gainTable(k), for
/// callers that apply one gain to many frames.
[[nodiscard]] media::Image contrastEnhance(const media::Image& img,
                                           const ChannelTable& gains);

/// Brightness compensation: add `delta` (8-bit code units) with saturation.
[[nodiscard]] media::Image brightnessCompensate(const media::Image& img,
                                                double delta);

/// 256-entry tone curve on luminance codes (for DTM-style baselines,
/// cf. Iranli & Pedram, DAC'05).
using ToneCurve = std::array<std::uint8_t, 256>;

/// Applies a tone curve in the luminance domain (chroma preserved).
[[nodiscard]] media::Image applyToneCurve(const media::Image& img,
                                          const ToneCurve& curve);

/// Soft-knee brightening curve: linear gain `k` up to the knee, smooth
/// compression above it so bright pixels roll off instead of clipping hard.
/// kneeFraction in (0,1] positions the knee on the OUTPUT range.
[[nodiscard]] ToneCurve softKneeToneCurve(double k, double kneeFraction = 0.85);

/// Mean squared PERCEIVED-luminance error of showing tone-mapped content at
/// the backlight whose compensation gain is `k` (= 1/T(b)): the viewer sees
/// curve(y)/k, which should equal y.  Computed over the content histogram;
/// used by tone-mapping policies to pick the deepest acceptable dimming.
[[nodiscard]] double toneCurveMse(const media::Histogram& hist,
                                  const ToneCurve& curve, double k);

/// Fraction of pixels that saturate in at least one channel when scaled by
/// `k` >= 0 (predicts the quality degradation of a given gain), from the
/// image's max-channel histogram (media::Histogram::ofMaxChannel).  A pixel
/// clips under gain k iff its max channel reaches
/// media::kernels::clipThreshold(k), so this is exactly the per-pixel
/// media::clipsWhenScaled count over the pixel count, in O(256).  Build the
/// histogram once, then sweep k for free.
[[nodiscard]] double clippedFraction(const media::Histogram& maxChannelHist,
                                     double k);

}  // namespace anno::compensate
