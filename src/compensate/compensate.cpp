#include "compensate/compensate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "media/kernels/kernels.h"
#include "media/pixel.h"

namespace anno::compensate {
namespace {

/// YCbCr-domain op: transform luma with `f`, keep chroma.
template <typename F>
media::Image lumaDomainOp(const media::Image& img, F&& f) {
  media::Image out(img.width(), img.height(), media::kForOverwrite);
  auto src = img.pixels();
  auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const media::Rgb8& p = src[i];
    const double y = media::luminance(p);
    const double cb = -0.168736 * p.r - 0.331264 * p.g + 0.5 * p.b;
    const double cr = 0.5 * p.r - 0.418688 * p.g - 0.081312 * p.b;
    const double y2 = f(y);
    dst[i] = media::Rgb8{media::clamp8(y2 + 1.402 * cr),
                         media::clamp8(y2 - 0.344136 * cb - 0.714136 * cr),
                         media::clamp8(y2 + 1.772 * cb)};
  }
  return out;
}

template <typename F>
ChannelTable tabulate(F&& f) {
  ChannelTable table;
  for (int c = 0; c < 256; ++c) table[static_cast<std::size_t>(c)] = f(c);
  return table;
}

/// Per-channel op: every channel byte looked up in `table`.
media::Image applyChannelTable(const media::Image& img,
                               const ChannelTable& table) {
  media::Image out(img.width(), img.height(), media::kForOverwrite);
  auto src = img.pixels();
  auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = media::Rgb8{table[src[i].r], table[src[i].g], table[src[i].b]};
  }
  return out;
}

}  // namespace

ChannelTable gainTable(double k) {
  return tabulate([k](int c) { return media::clamp8(c * k); });
}

media::Image contrastEnhance(const media::Image& img, double k) {
  if (k < 1.0) {
    throw std::invalid_argument("contrastEnhance: k must be >= 1");
  }
  if (img.empty()) {
    throw std::invalid_argument("contrastEnhance: empty image");
  }
  return contrastEnhance(img, gainTable(k));
}

media::Image contrastEnhance(const media::Image& img,
                             const ChannelTable& gains) {
  if (img.empty()) {
    throw std::invalid_argument("contrastEnhance: empty image");
  }
  return applyChannelTable(img, gains);
}

media::Image brightnessCompensate(const media::Image& img, double delta) {
  if (delta < 0.0) {
    throw std::invalid_argument("brightnessCompensate: delta must be >= 0");
  }
  if (img.empty()) {
    throw std::invalid_argument("brightnessCompensate: empty image");
  }
  return applyChannelTable(
      img, tabulate([delta](int c) { return media::clamp8(c + delta); }));
}

media::Image applyToneCurve(const media::Image& img, const ToneCurve& curve) {
  if (img.empty()) {
    throw std::invalid_argument("applyToneCurve: empty image");
  }
  return lumaDomainOp(img, [&curve](double y) {
    const int idx = static_cast<int>(std::clamp(y, 0.0, 255.0));
    // Interpolate between adjacent entries to avoid banding.
    const int next = std::min(idx + 1, 255);
    const double frac = std::clamp(y, 0.0, 255.0) - idx;
    return curve[idx] + (curve[next] - curve[idx]) * frac;
  });
}

ToneCurve softKneeToneCurve(double k, double kneeFraction) {
  if (k < 1.0) {
    throw std::invalid_argument("softKneeToneCurve: k must be >= 1");
  }
  if (kneeFraction <= 0.0 || kneeFraction > 1.0) {
    throw std::invalid_argument("softKneeToneCurve: kneeFraction in (0,1]");
  }
  ToneCurve curve{};
  const double knee = 255.0 * kneeFraction;  // output value where knee sits
  const double kneeIn = knee / k;            // input reaching the knee
  for (int y = 0; y < 256; ++y) {
    double out;
    if (y <= kneeIn) {
      out = y * k;
    } else {
      // Exponential roll-off approaching 255 asymptotically.
      const double span = 255.0 - knee;
      out = knee + span * (1.0 - std::exp(-k * (y - kneeIn) / span));
    }
    curve[y] = media::clamp8(out);
  }
  return curve;
}

double toneCurveMse(const media::Histogram& hist, const ToneCurve& curve,
                    double k) {
  if (k < 1.0) {
    throw std::invalid_argument("toneCurveMse: k must be >= 1");
  }
  if (hist.total() == 0) return 0.0;
  double sse = 0.0;
  for (int y = 0; y < 256; ++y) {
    // Perceived luminance at the dimmed backlight: curve(y) * T(b) with
    // T(b) = 1/k; the target is the original y.
    const double err = y - static_cast<double>(curve[y]) / k;
    sse += err * err * static_cast<double>(hist.count(y));
  }
  return sse / static_cast<double>(hist.total());
}

double clippedFraction(const media::Histogram& maxChannelHist, double k) {
  if (maxChannelHist.total() == 0) return 0.0;
  const int threshold = media::kernels::clipThreshold(k);
  std::uint64_t clipped = 0;
  for (int v = threshold; v < 256; ++v) clipped += maxChannelHist.count(v);
  return static_cast<double>(clipped) /
         static_cast<double>(maxChannelHist.total());
}

}  // namespace anno::compensate
