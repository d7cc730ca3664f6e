#include "display/emissive.h"

#include <cmath>
#include <stdexcept>

#include "media/pixel.h"

namespace anno::display {

double EmissiveDisplay::powerWatts(const media::Image& frame) const {
  if (frame.empty()) {
    throw std::invalid_argument("EmissiveDisplay::powerWatts: empty frame");
  }
  const double wsum = weightR + weightG + weightB;
  double emission = 0.0;
  for (const media::Rgb8& p : frame.pixels()) {
    emission += weightR * std::pow(p.r / 255.0, gammaExp) +
                weightG * std::pow(p.g / 255.0, gammaExp) +
                weightB * std::pow(p.b / 255.0, gammaExp);
  }
  emission /= wsum * static_cast<double>(frame.pixelCount());
  return basePanelWatts + maxPowerWatts * emission;
}

double EmissiveDisplay::averagePowerWatts(const media::VideoClip& clip) const {
  media::validateClip(clip);
  double sum = 0.0;
  for (const media::Image& f : clip.frames) sum += powerWatts(f);
  return sum / static_cast<double>(clip.frames.size());
}

EmissiveDisplay makeGenericOled() { return EmissiveDisplay{}; }

media::Image dimContent(const media::Image& frame, double factor) {
  if (factor < 0.0 || factor > 1.0) {
    throw std::invalid_argument("dimContent: factor must be in [0,1]");
  }
  if (frame.empty()) {
    throw std::invalid_argument("dimContent: empty frame");
  }
  media::Image out(frame.width(), frame.height(), media::kForOverwrite);
  auto src = frame.pixels();
  auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = media::Rgb8{media::clamp8(src[i].r * factor),
                         media::clamp8(src[i].g * factor),
                         media::clamp8(src[i].b * factor)};
  }
  return out;
}

}  // namespace anno::display
