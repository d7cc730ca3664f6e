// Fixed-point block-DCT video codec ("AV2").
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
//   * JPEG baseline Huffman coding with the fixed Annex K tables (K.3/K.5
//     for Y, K.4/K.6 for Cb and Cr; media/huffman.h), MSB first, one
//     bitstream per frame padded to a byte with one bits.  A block is its
//     DC delta's size category and magnitude bits (DC predicted from the
//     previous coded block of the plane), then (zero-run, size) symbols
//     with magnitude bits for the nonzero AC coefficients, ZRL for runs
//     over 15 and EOB unless the last coefficient is at zigzag position
//     63.  A DC-only block (DC, then EOB) decodes to a constant fill.
//     Values past the tables' size categories (quality ~95-100, P
//     residuals) follow the tables' unused all-ones code as raw fields:
//     the run (4 bits, AC only), the size (4 bits), the magnitude bits.
//   * A frame is its quality byte, its type byte and the bitstream.  The
//     clip container starts with the magic "\0AV2" and stores each frame
//     as a length and its payload; the payload's type byte sets
//     EncodedFrame::intra.  Levels and DC deltas are range-checked on
//     decode, and every block has exactly one valid coding, so corrupt
//     streams throw rather than overflow.
//
// Two frame types, MPEG-style:
//   I (intra):  blocks coded standalone.  Every GOP starts with one: at
//               the first frame, at every scene cut (the mean absolute
//               luma difference between consecutive source frames is over
//               8 in 8-bit units) and after gopLength - 1 P frames.
//   P (inter):  per-block conditional replenishment against the reference
//               planes -- SKIP (keep the reference) or DELTA (DCT of the
//               residual), one mode bit per block.  A block is SKIPped
//               when its mean absolute difference from the reference is
//               under 1.5 in 8-bit units, tested in integers as
//               2 * SAD < 3 * 32n over its n samples inside the frame.
//               Dark/static scenes produce tiny P frames, which is exactly
//               the size variation the annotation-driven DVFS and
//               NIC-scheduling experiments exploit.
// The reference of a P frame is the previous frame's decoded planes, each
// sample clamped to [0, 255 * 32] (an unclamped residual could leave the
// forward transform's input range).  FrameDecoder holds it on the client.
// Each side clamps a reference block once: the encoder right after it
// writes the block, the decoder lazily (its RGB output converts the
// planes as decoded) when a P frame arrives, and then only the blocks the
// last frame wrote.
// The encoder never decodes its own output: it rebuilds the same planes
// from the levels it has just quantised (dequantise, inverse transform or
// DC fill, the same saturations), and only when the next frame is a P
// frame, so encoder and decoder references are equal bit for bit.  Both
// sides keep one set of planes: an I frame writes all of it, and a P frame
// updates it in place, where a SKIP block costs nothing and a DELTA block
// adds its residual onto the reference samples it replaces.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "media/image.h"
#include "media/pixel.h"
#include "media/video.h"

namespace anno::media {

/// Codec tuning.  quality in [1,100]; higher = larger, more faithful.
/// gopLength is the longest run of frames from one I frame to the next;
/// scene cuts start I frames sooner.  1 forces intra-only (every frame
/// independently decodable).
struct CodecConfig {
  int quality = 75;
  int gopLength = 12;
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

/// Decodes one I frame; dimensions must match the encoder's.  Throws
/// std::invalid_argument on dimensions FrameDecoder rejects, and
/// std::runtime_error on malformed payloads and on a P frame, which needs
/// the reference a FrameDecoder holds.
[[nodiscard]] Image decodeFrame(const EncodedFrame& frame, int width,
                                int height);

/// Decodes a clip's frames in order, holding the reference planes of the
/// last frame decoded.  decodeClip and the client's concealing decoder
/// share it.
class FrameDecoder {
 public:
  /// Throws std::invalid_argument unless both dimensions are in
  /// [1, Image::kMaxDim].
  FrameDecoder(int width, int height);
  ~FrameDecoder();
  FrameDecoder(FrameDecoder&&) noexcept;
  FrameDecoder& operator=(FrameDecoder&&) noexcept;

  /// Decodes the next frame.  A P frame predicts from the last frame this
  /// decoder returned, decoding into its planes.  Throws std::runtime_error
  /// on a malformed payload or a P frame without a reference.  A frame that
  /// throws drops the reference: P frames throw until the next I frame.
  [[nodiscard]] Image decode(const EncodedFrame& frame);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Encodes a whole clip.  Non-empty `tables` hold one entry per frame: a
/// non-null entry maps every channel byte of its frame before it is coded
/// (inside the colour conversion), so the stream is exactly that of the
/// clip with each frame's pixels looked up first.  A null entry codes its
/// frame as it is.  Throws std::invalid_argument when `tables` is neither
/// empty nor one entry per frame.
[[nodiscard]] EncodedClip encodeClip(
    const VideoClip& clip, const CodecConfig& cfg = {},
    std::span<const ChannelTable* const> tables = {});

/// Decodes a whole clip.
[[nodiscard]] VideoClip decodeClip(const EncodedClip& clip);

/// Serializes an EncodedClip into one flat container byte stream
/// (magic, header, frame table, payloads) and parses it back.
[[nodiscard]] std::vector<std::uint8_t> serializeClip(const EncodedClip& clip);
[[nodiscard]] EncodedClip parseClip(std::span<const std::uint8_t> bytes);

namespace detail {
/// The SKIP rule for block (bx,by) of a width x height source plane `cur`
/// against its reference plane `ref`, both Q5 (see the P-frame notes
/// above): the code the encoder runs inline, for the lane-bound tests.
[[nodiscard]] bool isSkipBlock(const std::int16_t* cur,
                               const std::int16_t* ref, int width,
                               int height, int bx, int by);

/// A block of a P frame as the decoder meets it: whether the frame codes it
/// as DELTA (else SKIP), and whether the reference samples it predicts from
/// lay outside [0, 255 * 32] before the decoder clamped them.
struct ReferenceBlock {
  bool delta;
  bool overshoot;
};
/// Decodes `clip` up to its P frame `frame` and reports each of that
/// frame's blocks, plane by plane in raster order: for the reference clamp
/// tests.  Throws std::invalid_argument unless `frame` is a P frame.
[[nodiscard]] std::vector<ReferenceBlock> referenceBlocks(
    const EncodedClip& clip, std::size_t frame);
}  // namespace detail

}  // namespace anno::media
