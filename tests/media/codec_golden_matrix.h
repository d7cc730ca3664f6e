// The configuration matrix behind the codec stream goldens, shared by
// tests/media/codec_golden_test.cpp and tools/capture_codec_goldens.cpp so
// the captured goldens and the replaying test can never disagree on the
// content: the ten paper clips x GOP {1, 12} x quality {30, 75, 95}, at
// 32x24 and at 44x30 (not a multiple of the 8x8 block size, so every
// frame has partial edge blocks).
//
// Each golden is the CRC-32 of serializeClip(encodeClip(clip, cfg)) and the
// CRC-32 of the RGB bytes of every frame decodeClip returns, so one row
// pins every encoded byte AND every decoded pixel of its configuration.
// rateDistortion() reduces the same round trip to the two numbers the
// rate/distortion table (codec_rd_test.cpp) compares across formats.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "media/clipgen.h"
#include "media/codec.h"
#include "media/crc32.h"

namespace anno::codec_golden {

/// Frames per clip: a GOP-12 run covers one full GOP plus the next I frame
/// and a few P frames after it.
inline constexpr std::size_t kFrames = 20;

struct Config {
  media::PaperClip clip;
  int width;
  int height;
  int gop;
  int quality;

  [[nodiscard]] std::string name() const {
    return media::paperClipName(clip) + "/" + std::to_string(width) + "x" +
           std::to_string(height) + "/gop" + std::to_string(gop) + "/q" +
           std::to_string(quality);
  }
};

/// Every configuration, in golden-table order.
inline std::vector<Config> matrix() {
  std::vector<Config> out;
  for (const media::PaperClip clip : media::allPaperClips()) {
    for (const auto& [w, h] : {std::pair{32, 24}, std::pair{44, 30}}) {
      for (const int gop : {1, 12}) {
        for (const int quality : {30, 75, 95}) {
          out.push_back({clip, w, h, gop, quality});
        }
      }
    }
  }
  return out;
}

/// The first kFrames frames of the paper clip at the given size.
inline media::VideoClip clipFor(media::PaperClip clip, int width,
                                int height) {
  media::VideoClip out = media::generatePaperClip(clip, 0.07, width, height);
  out.frames.resize(std::min(out.frames.size(), kFrames));
  return out;
}

struct Digest {
  std::size_t frames;
  std::size_t streamBytes;
  std::uint32_t streamCrc;
  std::uint32_t pixelCrc;
};

inline Digest digest(const media::VideoClip& clip, const Config& cfg) {
  media::CodecConfig codec;
  codec.quality = cfg.quality;
  codec.gopLength = cfg.gop;
  const media::EncodedClip enc = media::encodeClip(clip, codec);
  const std::vector<std::uint8_t> stream = media::serializeClip(enc);
  std::uint32_t pixelCrc = 0;
  for (const media::Image& frame : media::decodeClip(enc).frames) {
    const auto px = frame.pixels();
    pixelCrc = media::crc32(
        std::span(reinterpret_cast<const std::uint8_t*>(px.data()),
                  px.size() * sizeof(media::Rgb8)),
        pixelCrc);
  }
  return {clip.frames.size(), stream.size(), media::crc32(stream), pixelCrc};
}

struct RateDistortion {
  std::size_t streamBytes;
  /// PSNR of every decoded RGB channel sample against the source, over
  /// the whole clip (one pooled mean squared error).
  double psnrDb;
};

inline RateDistortion rateDistortion(const media::VideoClip& clip,
                                     const Config& cfg) {
  media::CodecConfig codec;
  codec.quality = cfg.quality;
  codec.gopLength = cfg.gop;
  const media::EncodedClip enc = media::encodeClip(clip, codec);
  const media::VideoClip dec = media::decodeClip(enc);
  double sse = 0.0;
  std::size_t samples = 0;
  for (std::size_t f = 0; f < clip.frames.size(); ++f) {
    const auto a = clip.frames[f].pixels();
    const auto b = dec.frames[f].pixels();
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (const auto ch :
           {&media::Rgb8::r, &media::Rgb8::g, &media::Rgb8::b}) {
        const double d = static_cast<double>(a[i].*ch) - (b[i].*ch);
        sse += d * d;
      }
    }
    samples += 3 * a.size();
  }
  const double mse = sse / static_cast<double>(samples);
  return {media::serializeClip(enc).size(),
          mse == 0.0 ? 99.0 : 10.0 * std::log10(255.0 * 255.0 / mse)};
}

}  // namespace anno::codec_golden
