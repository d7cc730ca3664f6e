#include "core/sketch.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "media/bitstream.h"

namespace anno::core {

SceneSketch sketchHistogram(const media::Histogram& hist) {
  if (hist.total() == 0) {
    throw std::invalid_argument("sketchHistogram: empty histogram");
  }
  SceneSketch sketch;
  for (int bin = 0; bin < 16; ++bin) {
    std::uint64_t mass = 0;
    for (int v = bin * 16; v < (bin + 1) * 16; ++v) {
      mass += hist.count(v);
    }
    const double share =
        static_cast<double>(mass) / static_cast<double>(hist.total());
    sketch.bins[bin] = static_cast<std::uint8_t>(
        std::min(255.0, std::round(share * 255.0)));
  }
  return sketch;
}

media::Histogram expandSketch(const SceneSketch& sketch) {
  media::Histogram hist;
  for (int bin = 0; bin < 16; ++bin) {
    // Spread each bin's 16x-scaled mass uniformly over its 16 values so the
    // expanded histogram's per-value resolution stays integral.
    for (int v = bin * 16; v < (bin + 1) * 16; ++v) {
      hist.add(static_cast<std::uint8_t>(v), sketch.bins[bin]);
    }
  }
  return hist;
}

std::vector<std::uint8_t> SketchTrack::encode() const {
  media::ByteWriter w;
  w.varint(scenes.size());
  // Bin-major layout: bin b of every scene consecutively -- neighbouring
  // scenes have similar shapes, so runs form for the RLE.
  std::vector<std::uint8_t> raw;
  raw.reserve(scenes.size() * 16);
  for (int bin = 0; bin < 16; ++bin) {
    for (const SceneSketch& s : scenes) {
      raw.push_back(s.bins[bin]);
    }
  }
  const std::vector<std::uint8_t> rle = media::rleEncode(raw);
  w.varint(rle.size());
  w.bytes(rle);
  return w.take();
}

SketchTrack SketchTrack::decode(std::span<const std::uint8_t> bytes) {
  media::ByteReader r(bytes);
  SketchTrack track;
  const std::uint64_t nscenes = r.varint();
  // The RLE payload is compressed, so the scene count has no byte bound;
  // guard the size multiply and let the RLE decoder stop at that size.
  if (nscenes > std::numeric_limits<std::size_t>::max() / 16) {
    throw std::runtime_error("SketchTrack::decode: scene count overflows");
  }
  const std::size_t rawBytes = static_cast<std::size_t>(nscenes) * 16;
  const std::size_t rleLen = r.varint();
  const std::vector<std::uint8_t> raw =
      media::rleDecode(r.bytes(rleLen), rawBytes);
  if (raw.size() != rawBytes) {
    throw std::runtime_error("SketchTrack::decode: size mismatch");
  }
  track.scenes.resize(nscenes);
  for (int bin = 0; bin < 16; ++bin) {
    for (std::size_t s = 0; s < nscenes; ++s) {
      track.scenes[s].bins[bin] = raw[bin * nscenes + s];
    }
  }
  return track;
}

SketchTrack buildSketchTrack(const AnnotationTrack& track,
                             const std::vector<media::FrameStats>& stats) {
  validateTrack(track);
  if (stats.size() != track.frameCount) {
    throw std::invalid_argument(
        "buildSketchTrack: stats count != track frame count");
  }
  SketchTrack sketches;
  sketches.scenes.reserve(track.scenes.size());
  for (const SceneAnnotation& scene : track.scenes) {
    media::Histogram sceneHist;
    for (std::uint32_t f = scene.span.firstFrame; f <= scene.span.lastFrame();
         ++f) {
      sceneHist.accumulate(stats[f].histogram);
    }
    sketches.scenes.push_back(sketchHistogram(sceneHist));
  }
  return sketches;
}

}  // namespace anno::core
