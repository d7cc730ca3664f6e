// Fixed-point block-DCT video codec ("AV1").
//
// Substrate for the streaming experiments: the paper streams MPEG clips of
// "a few megabytes" and embeds annotations whose RLE-compressed size is
// "in the order of hundreds of bytes".  To measure that ratio honestly we
// need a real (if simple) compressed representation of the video, plus a
// decode path that exercises the client CPU like a software MPEG player.
//
// Layout, all integer arithmetic (media/kernels), so the encoded bytes and
// decoded pixels are the same on every compiler and SIMD level:
//   * RGB -> BT.601 YCbCr as three Q5 int16 planes (32x the 8-bit value),
//     the one plane format of encoder input, P-frame reference and decoder
//     output; rounded to RGB8 once, at the end of decoding.
//   * Per-plane 8x8 JPEG "islow" DCT (13-bit constants), uniform
//     round-half-away quantisation with a JPEG-style matrix scaled by a
//     quality factor, zigzag scan.
//   * Entropy coding with LEB128 varints.  A block starts with its DC
//     symbol: the zigzag-mapped DC delta (DC predicted from the previous
//     block of the plane) shifted left by one, with the end-of-block flag
//     in the low bit.  A DC-only block is that one varint and decodes to a
//     constant fill; otherwise (run+1, level) pairs of the nonzero AC
//     coefficients follow, ended by a 0.
//   * The clip container starts with the magic "\0AV1".  Levels and DC
//     deltas are range-checked on decode, so corrupt streams throw rather
//     than overflow.
//
// Two frame types, MPEG-style:
//   I (intra):  blocks coded standalone; every GOP starts with one.
//   P (inter):  per-block conditional replenishment against the previous
//               decoded frame -- SKIP (copy reference) or DELTA (DCT of the
//               residual).  Dark/static scenes produce tiny P frames, which
//               is exactly the size variation the annotation-driven DVFS and
//               NIC-scheduling experiments exploit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "media/image.h"
#include "media/video.h"

namespace anno::media {

/// Codec tuning.  quality in [1,100]; higher = larger, more faithful.
/// gopLength = 1 forces intra-only (every frame independently decodable);
/// larger values insert P frames between I frames.
struct CodecConfig {
  int quality = 75;
  int gopLength = 1;
};

/// One compressed frame.
struct EncodedFrame {
  std::vector<std::uint8_t> bytes;
  bool intra = true;

  [[nodiscard]] std::size_t sizeBytes() const noexcept { return bytes.size(); }
};

/// A compressed clip: header metadata plus per-frame payloads.
struct EncodedClip {
  std::string name;
  int width = 0;
  int height = 0;
  double fps = 0.0;
  int quality = 75;
  std::vector<EncodedFrame> frames;

  [[nodiscard]] std::size_t totalBytes() const noexcept {
    std::size_t n = 0;
    for (const EncodedFrame& f : frames) n += f.sizeBytes();
    return n;
  }
};

/// Encodes one RGB frame as an I frame.
[[nodiscard]] EncodedFrame encodeFrame(const Image& frame,
                                       const CodecConfig& cfg = {});

/// Encodes one RGB frame as a P frame against `reference` (the previous
/// DECODED frame, so encoder and decoder stay in sync).
[[nodiscard]] EncodedFrame encodePFrame(const Image& frame,
                                        const Image& reference,
                                        const CodecConfig& cfg = {});

/// Decodes one frame; dimensions must match the encoder's.  `reference`
/// must be the previous decoded frame for P frames (may be null for I
/// frames).  Throws std::runtime_error on malformed payloads or a missing
/// reference.
[[nodiscard]] Image decodeFrame(const EncodedFrame& frame, int width,
                                int height, const Image* reference = nullptr);

/// Encodes a whole clip.
[[nodiscard]] EncodedClip encodeClip(const VideoClip& clip,
                                     const CodecConfig& cfg = {});

/// Decodes a whole clip.
[[nodiscard]] VideoClip decodeClip(const EncodedClip& clip);

/// Serializes an EncodedClip into one flat container byte stream
/// (magic, header, frame table, payloads) and parses it back.
[[nodiscard]] std::vector<std::uint8_t> serializeClip(const EncodedClip& clip);
[[nodiscard]] EncodedClip parseClip(std::span<const std::uint8_t> bytes);

}  // namespace anno::media
