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
//
// servedMatrix() adds the served configuration (CodecConfig{}: scene-cut
// GOPs) on clips spliced from three paper clips, so its rows also pin where
// the encoder cuts.  It is kept out of matrix(), whose rows the
// rate/distortion table mirrors one for one.
#pragma once

#include <algorithm>
#include <array>
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

  [[nodiscard]] media::CodecConfig codec() const {
    return {.quality = quality, .gopLength = gop};
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

/// Frames taken from each clip of a splice: more than one maximum GOP, so
/// a served row holds a GOP-length I frame as well as the cuts.
inline constexpr std::size_t kSpliceFrames = 14;

/// The served configuration on three paper clips played back to back.
struct SplicedConfig {
  std::array<media::PaperClip, 3> parts;
  int width;
  int height;

  [[nodiscard]] std::string name() const {
    std::string out = "served";
    for (const media::PaperClip part : parts) {
      out += '/';
      out += media::paperClipName(part);
    }
    return out + "/" + std::to_string(width) + "x" + std::to_string(height);
  }
};

/// Every served configuration, in golden-table order: each paper clip in
/// one splice, at both sizes of matrix().
inline std::vector<SplicedConfig> servedMatrix() {
  using media::PaperClip;
  const std::array<std::array<PaperClip, 3>, 4> splices = {{
      {PaperClip::kTheMovie, PaperClip::kCatwoman, PaperClip::kHunterSubres},
      {PaperClip::kIRobot, PaperClip::kIceAge, PaperClip::kOfficeXp},
      {PaperClip::kReturnOfTheKing, PaperClip::kShrek2,
       PaperClip::kSpiderman2},
      {PaperClip::kIncrediblesTlr2, PaperClip::kTheMovie, PaperClip::kIceAge},
  }};
  std::vector<SplicedConfig> out;
  for (const auto& parts : splices) {
    for (const auto& [w, h] : {std::pair{32, 24}, std::pair{44, 30}}) {
      out.push_back({parts, w, h});
    }
  }
  return out;
}

struct Digest {
  std::size_t frames;
  std::size_t streamBytes;
  std::uint32_t streamCrc;
  std::uint32_t pixelCrc;
};

/// The first kSpliceFrames frames of each part, back to back.
inline media::VideoClip splicedClip(const SplicedConfig& cfg) {
  media::VideoClip out;
  out.name = cfg.name();
  for (const media::PaperClip part : cfg.parts) {
    media::VideoClip clip = clipFor(part, cfg.width, cfg.height);
    out.fps = clip.fps;
    const std::size_t n = std::min(clip.frames.size(), kSpliceFrames);
    for (std::size_t i = 0; i < n; ++i) {
      out.frames.push_back(std::move(clip.frames[i]));
    }
  }
  return out;
}

inline Digest digest(const media::VideoClip& clip,
                     const media::CodecConfig& codec) {
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
  const media::EncodedClip enc = media::encodeClip(clip, cfg.codec());
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
