#include "media/codec.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "media/bitstream.h"
#include "media/dct.h"
#include "media/kernels/kernels.h"

namespace anno::media {
namespace {

// JPEG Annex K luminance quantization matrix; we use it for all three
// planes (we code full-resolution chroma, so the luma table is fine).
constexpr int kBaseQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::uint8_t kFrameIntra = 0;
constexpr std::uint8_t kFrameInter = 1;
constexpr std::uint8_t kBlockSkip = 0;
constexpr std::uint8_t kBlockDelta = 1;

/// JPEG-style quality scaling of the base matrix.
std::array<int, 64> quantMatrix(int quality) {
  if (quality < 1 || quality > 100) {
    throw std::invalid_argument("codec: quality must be in [1,100]");
  }
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, 64> q{};
  for (int i = 0; i < 64; ++i) {
    q[i] = std::clamp((kBaseQuant[i] * scale + 50) / 100, 1, 255);
  }
  return q;
}

int blocksAcross(int dim) { return (dim + 7) / 8; }

using Planes = std::array<std::vector<double>, 3>;

Planes toPlanes(const Image& frame) {
  Planes planes;
  for (auto& p : planes) {
    p.resize(frame.pixelCount());
  }
  const auto src = frame.pixels();
  kernels::active().rgbToYcbcrPlanes(src.data(), src.size(), planes[0].data(),
                                     planes[1].data(), planes[2].data());
  return planes;
}

Image fromPlanes(const Planes& planes, int width, int height) {
  Image img(width, height);
  auto dst = img.pixels();
  kernels::active().ycbcrPlanesToRgb(planes[0].data(), planes[1].data(),
                                     planes[2].data(), dst.size(), dst.data());
  return img;
}

/// Extracts the 8x8 block at block coordinates (bx,by) from `plane`,
/// replicating edge samples for partial blocks.  `offset` is subtracted
/// from every sample (128 for intra blocks, 0 for residuals).
Block8x8 fetchBlock(const std::vector<double>& plane, int width, int height,
                    int bx, int by, double offset) {
  Block8x8 blk;
  const int cols = std::min(8, width - bx * 8);
  for (int y = 0; y < 8; ++y) {
    const int sy = std::min(by * 8 + y, height - 1);
    const double* row =
        plane.data() + static_cast<std::size_t>(sy) * width + bx * 8;
    double* out = blk.data() + y * 8;
    for (int x = 0; x < cols; ++x) out[x] = row[x] - offset;
    for (int x = cols; x < 8; ++x) out[x] = row[cols - 1] - offset;
  }
  return blk;
}

/// The part of block (bx,by) inside a width x height plane: `rows` x
/// `cols` samples starting at plane index `origin`.
struct BlockSpan {
  int rows;
  int cols;
  std::size_t origin;
};

BlockSpan spanOf(int width, int height, int bx, int by) {
  return {std::min(8, height - by * 8), std::min(8, width - bx * 8),
          static_cast<std::size_t>(by) * 8 * width + bx * 8};
}

/// Writes the block into the plane, adding `offset` back; pixels outside
/// the image are dropped.
void storeBlock(const Block8x8& blk, std::vector<double>& plane, int width,
                int height, int bx, int by, double offset) {
  const BlockSpan s = spanOf(width, height, bx, by);
  double* dst = plane.data() + s.origin;
  for (int y = 0; y < s.rows; ++y, dst += width) {
    for (int x = 0; x < s.cols; ++x) dst[x] = blk[y * 8 + x] + offset;
  }
}

/// Adds a residual block onto the reference plane content.
void addBlock(const Block8x8& residual, const std::vector<double>& ref,
              std::vector<double>& plane, int width, int height, int bx,
              int by) {
  const BlockSpan s = spanOf(width, height, bx, by);
  const double* src = ref.data() + s.origin;
  double* dst = plane.data() + s.origin;
  for (int y = 0; y < s.rows; ++y, src += width, dst += width) {
    for (int x = 0; x < s.cols; ++x) dst[x] = src[x] + residual[y * 8 + x];
  }
}

void copyBlock(const std::vector<double>& ref, std::vector<double>& plane,
               int width, int height, int bx, int by) {
  const BlockSpan s = spanOf(width, height, bx, by);
  const double* src = ref.data() + s.origin;
  double* dst = plane.data() + s.origin;
  for (int y = 0; y < s.rows; ++y, src += width, dst += width) {
    std::copy_n(src, s.cols, dst);
  }
}

/// Mean absolute difference of a block position between two planes.
double blockMad(const std::vector<double>& a, const std::vector<double>& b,
                int width, int height, int bx, int by) {
  const BlockSpan s = spanOf(width, height, bx, by);
  const double* pa = a.data() + s.origin;
  const double* pb = b.data() + s.origin;
  double sum = 0.0;
  for (int y = 0; y < s.rows; ++y, pa += width, pb += width) {
    for (int x = 0; x < s.cols; ++x) sum += std::abs(pa[x] - pb[x]);
  }
  const int n = s.rows * s.cols;
  return n > 0 ? sum / n : 0.0;
}

/// Transforms, quantises and entropy-codes one block of samples: the
/// zigzagged coefficients as a DC delta then (run,level) pairs, terminated
/// by a run=0 marker.
void encodeBlock(const kernels::KernelTable& kt, const Block8x8& spatial,
                 const std::array<int, 64>& quant, int& dcPred,
                 ByteWriter& w) {
  Block8x8 freq;
  kt.fdct8x8(spatial.data(), freq.data());
  int coeffs[64];
  kt.quantizeBlock(freq.data(), quant.data(), coeffs);
  w.svarint(coeffs[0] - dcPred);
  dcPred = coeffs[0];
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    if (coeffs[i] == 0) {
      ++run;
      continue;
    }
    w.varint(static_cast<std::uint64_t>(run) + 1);  // 1-based: 0 = EOB
    w.svarint(coeffs[i]);
    run = 0;
  }
  w.varint(0);  // end of block
}

/// Entropy-decodes and dequantises one block, returning its samples.
Block8x8 decodeBlock(const kernels::KernelTable& kt,
                     const std::array<int, 64>& quant, int& dcPred,
                     ByteReader& r) {
  const auto& zz = zigzagOrder();
  // Dequantise as we go: uncoded coefficients stay +0.0, which is what
  // 0 * quant gives.
  Block8x8 freq{};
  dcPred += static_cast<int>(r.svarint());
  freq[0] = static_cast<double>(dcPred) * quant[0];
  int pos = 0;
  for (;;) {
    const std::uint64_t marker = r.varint();
    if (marker == 0) break;  // EOB
    // marker = run+1 -> advance past zeros.  Checked before the add, so a
    // corrupt 64-bit marker cannot wrap pos negative.
    if (marker > static_cast<std::uint64_t>(63 - pos)) {
      throw std::runtime_error("codec: coefficient overrun");
    }
    pos += static_cast<int>(marker);
    const int z = zz[pos];
    freq[z] = static_cast<double>(static_cast<int>(r.svarint())) * quant[z];
  }
  Block8x8 spatial;
  kt.idct8x8(freq.data(), spatial.data());
  return spatial;
}

void checkFrameGeometry(const Image& frame) {
  if (frame.empty()) throw std::invalid_argument("codec: empty frame");
}

/// Codes an I frame from its colour planes.
EncodedFrame encodeIntra(const Planes& planes, int w, int h,
                         const std::array<int, 64>& quant,
                         const CodecConfig& cfg) {
  const kernels::KernelTable& kt = kernels::active();
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(cfg.quality));
  out.u8(kFrameIntra);
  const int bw = blocksAcross(w);
  const int bh = blocksAcross(h);
  for (const auto& plane : planes) {
    int dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        encodeBlock(kt, fetchBlock(plane, w, h, bx, by, 128.0), quant,
                    dcPred, out);
      }
    }
  }
  return EncodedFrame{out.take(), /*intra=*/true};
}

/// Codes a P frame from its colour planes against the reference planes.
EncodedFrame encodeInter(const Planes& cur, const Planes& ref, int w, int h,
                         const std::array<int, 64>& quant,
                         const CodecConfig& cfg) {
  const kernels::KernelTable& kt = kernels::active();
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(cfg.quality));
  out.u8(kFrameInter);
  const int bw = blocksAcross(w);
  const int bh = blocksAcross(h);
  for (int p = 0; p < 3; ++p) {
    int dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        const double mad = blockMad(cur[p], ref[p], w, h, bx, by);
        if (mad < cfg.skipThreshold) {
          out.u8(kBlockSkip);
          continue;
        }
        out.u8(kBlockDelta);
        // Residual block: cur - ref (no 128 offset on residuals).
        Block8x8 residual = fetchBlock(cur[p], w, h, bx, by, 0.0);
        const Block8x8 refBlk = fetchBlock(ref[p], w, h, bx, by, 0.0);
        for (int i = 0; i < 64; ++i) residual[i] -= refBlk[i];
        encodeBlock(kt, residual, quant, dcPred, out);
      }
    }
  }
  return EncodedFrame{out.take(), /*intra=*/false};
}

bool isInterFrame(const EncodedFrame& frame) {
  return frame.bytes.size() >= 2 && frame.bytes[1] == kFrameInter;
}

/// Decodes a frame into colour planes.  `ref` holds the reference planes
/// and must be non-null for a P frame.
Planes decodePlanes(const EncodedFrame& frame, int width, int height,
                    const Planes* ref) {
  ByteReader r(frame.bytes);
  const int quality = r.u8();
  const std::uint8_t frameType = r.u8();
  const auto quant = quantMatrix(quality == 0 ? 1 : quality);

  const bool inter = frameType == kFrameInter;
  if (frameType != kFrameIntra && !inter) {
    throw std::runtime_error("decodeFrame: unknown frame type");
  }
  if (inter && ref == nullptr) {
    throw std::runtime_error("decodeFrame: P frame needs a reference");
  }

  const kernels::KernelTable& kt = kernels::active();
  Planes planes;
  for (auto& p : planes) {
    p.assign(static_cast<std::size_t>(width) * height, 0.0);
  }
  const int bw = blocksAcross(width);
  const int bh = blocksAcross(height);
  for (int p = 0; p < 3; ++p) {
    int dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        if (!inter) {
          storeBlock(decodeBlock(kt, quant, dcPred, r), planes[p], width,
                     height, bx, by, 128.0);
          continue;
        }
        const std::uint8_t mode = r.u8();
        if (mode == kBlockSkip) {
          copyBlock((*ref)[p], planes[p], width, height, bx, by);
        } else if (mode == kBlockDelta) {
          addBlock(decodeBlock(kt, quant, dcPred, r), (*ref)[p], planes[p],
                   width, height, bx, by);
        } else {
          throw std::runtime_error("decodeFrame: unknown block mode");
        }
      }
    }
  }
  return planes;
}

}  // namespace

EncodedFrame encodeFrame(const Image& frame, const CodecConfig& cfg) {
  checkFrameGeometry(frame);
  return encodeIntra(toPlanes(frame), frame.width(), frame.height(),
                     quantMatrix(cfg.quality), cfg);
}

EncodedFrame encodePFrame(const Image& frame, const Image& reference,
                          const CodecConfig& cfg) {
  checkFrameGeometry(frame);
  if (reference.width() != frame.width() ||
      reference.height() != frame.height()) {
    throw std::invalid_argument("encodePFrame: reference geometry mismatch");
  }
  return encodeInter(toPlanes(frame), toPlanes(reference), frame.width(),
                     frame.height(), quantMatrix(cfg.quality), cfg);
}

Image decodeFrame(const EncodedFrame& frame, int width, int height,
                  const Image* reference) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("decodeFrame: bad dimensions");
  }
  Planes ref;
  const bool useRef = reference != nullptr && isInterFrame(frame);
  if (useRef) {
    if (reference->width() != width || reference->height() != height) {
      throw std::invalid_argument("decodeFrame: reference geometry mismatch");
    }
    ref = toPlanes(*reference);
  }
  return fromPlanes(
      decodePlanes(frame, width, height, useRef ? &ref : nullptr), width,
      height);
}

EncodedClip encodeClip(const VideoClip& clip, const CodecConfig& cfg) {
  validateClip(clip);
  if (cfg.gopLength < 1) {
    throw std::invalid_argument("encodeClip: gopLength must be >= 1");
  }
  checkFrameGeometry(clip.frames.front());
  const auto quant = quantMatrix(cfg.quality);
  EncodedClip out;
  out.name = clip.name;
  out.width = clip.width();
  out.height = clip.height();
  out.fps = clip.fps;
  out.quality = cfg.quality;
  out.frames.reserve(clip.frames.size());

  // Closed-loop encoding: P frames reference the previous DECODED frame so
  // the decoder never drifts.  That reconstruction (decode, then through
  // RGB and back to planes, exactly as decodeClip sees it) is only made
  // when the next frame is a P frame; with gopLength 1 it never is.
  const auto gop = static_cast<std::size_t>(cfg.gopLength);
  Planes refPlanes;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const bool intra = i % gop == 0;
    const Planes cur = toPlanes(clip.frames[i]);
    EncodedFrame enc =
        intra ? encodeIntra(cur, out.width, out.height, quant, cfg)
              : encodeInter(cur, refPlanes, out.width, out.height, quant,
                            cfg);
    const bool nextIsP = i + 1 < clip.frames.size() && (i + 1) % gop != 0;
    if (nextIsP) {
      refPlanes = toPlanes(fromPlanes(
          decodePlanes(enc, out.width, out.height,
                       intra ? nullptr : &refPlanes),
          out.width, out.height));
    }
    out.frames.push_back(std::move(enc));
  }
  return out;
}

VideoClip decodeClip(const EncodedClip& clip) {
  VideoClip out;
  out.name = clip.name;
  out.fps = clip.fps;
  out.frames.reserve(clip.frames.size());
  for (const EncodedFrame& f : clip.frames) {
    const Image* ref = out.frames.empty() ? nullptr : &out.frames.back();
    out.frames.push_back(decodeFrame(f, clip.width, clip.height, ref));
  }
  return out;
}

namespace {
constexpr std::uint32_t kClipMagic = 0x30564100;  // "\0AV0"
}

std::vector<std::uint8_t> serializeClip(const EncodedClip& clip) {
  ByteWriter w;
  w.u32(kClipMagic);
  w.varint(clip.name.size());
  w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(clip.name.data()),
                    clip.name.size()));
  w.varint(static_cast<std::uint64_t>(clip.width));
  w.varint(static_cast<std::uint64_t>(clip.height));
  w.varint(static_cast<std::uint64_t>(std::lround(clip.fps * 1000.0)));
  w.varint(static_cast<std::uint64_t>(clip.quality));
  w.varint(clip.frames.size());
  for (const EncodedFrame& f : clip.frames) {
    w.u8(f.intra ? 1 : 0);
    w.varint(f.bytes.size());
    w.bytes(f.bytes);
  }
  return w.take();
}

EncodedClip parseClip(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u32() != kClipMagic) {
    throw std::runtime_error("parseClip: bad magic");
  }
  EncodedClip clip;
  const std::size_t nameLen = r.varint();
  auto nameBytes = r.bytes(nameLen);
  clip.name.assign(reinterpret_cast<const char*>(nameBytes.data()), nameLen);
  clip.width = static_cast<int>(r.varint());
  clip.height = static_cast<int>(r.varint());
  clip.fps = static_cast<double>(r.varint()) / 1000.0;
  clip.quality = static_cast<int>(r.varint());
  // A frame record is at least a type byte and a one-byte length.
  const std::size_t nframes = r.count(2);
  clip.frames.reserve(nframes);
  for (std::size_t i = 0; i < nframes; ++i) {
    EncodedFrame f;
    f.intra = r.u8() != 0;
    const std::size_t len = r.varint();
    auto payload = r.bytes(len);
    f.bytes.assign(payload.begin(), payload.end());
    clip.frames.push_back(std::move(f));
  }
  return clip;
}

}  // namespace anno::media
