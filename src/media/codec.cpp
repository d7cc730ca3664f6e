#include "media/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "media/bitstream.h"
#include "media/dct.h"
#include "media/huffman.h"
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
/// A P block's mode bit.
constexpr std::uint32_t kBlockSkip = 0;
constexpr std::uint32_t kBlockDelta = 1;
/// Mean absolute luma difference, in 8-bit units, between consecutive
/// source frames above which encodeClip starts an I frame (a scene cut).
constexpr int kSceneCutLuma = 8;

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

/// The quantizer of one quality level: reciprocal table for the encoder,
/// divisors and the per-position level bound for the decoder.
struct Quantizer {
  kernels::QuantTable table;
  /// Largest |level| the decoder accepts at row-major position z, so
  /// |level * divisor| <= kMaxIdctInput.  The DC bound also admits the
  /// intra offset; its dequantised value is range-checked on its own.
  std::array<std::int32_t, 64> maxLevel;
};

/// An intra block's samples are coded with 128 subtracted, a DC of 1024.
/// The islow transforms are exact under that DC shift, so the offset rides
/// on the DC coefficient instead of on every sample.
constexpr std::int32_t kIntraOffset = 1024;
/// A valid stream's dequantised coefficients stay below 2178: the forward
/// transform of a residual of 8-bit samples is at most 2050 and rounding
/// adds at most 127 (255 / 2).  kMaxIdctInput leaves room for that, so
/// the decoder can reject every coefficient the inverse transform could
/// overflow on.
static_assert(kernels::kMaxIdctInput >= 2050 + 127);
/// The samples of a DC-only block: its integer DC coefficient (8 times
/// the 8-bit mean) in plane units, exactly what the inverse transform
/// returns for it.
constexpr std::int32_t kDcSample = 1 << (kernels::kPlaneFracBits - 3);

Quantizer makeQuantizer(int quality) {
  const std::array<int, 64> divisors = quantMatrix(quality);
  Quantizer q{kernels::makeQuantTable(divisors.data()), {}};
  for (int z = 0; z < 64; ++z) {
    q.maxLevel[z] = kernels::kMaxIdctInput / divisors[z];
  }
  q.maxLevel[0] = (kernels::kMaxIdctInput + kIntraOffset) / divisors[0];
  return q;
}

/// The quantizer of the last quality byte decoded.  A clip's frames share
/// one quality, so decoding a clip builds its quantizer once.
class QuantizerCache {
 public:
  const Quantizer& get(int quality) {
    if (quality != quality_) {
      quant_ = makeQuantizer(quality);
      quality_ = quality;
    }
    return quant_;
  }

 private:
  int quality_ = 0;  // none yet: a quality byte of 0 decodes as 1
  Quantizer quant_{};
};

int blocksAcross(int dim) { return (dim + 7) / 8; }

/// Samples per chunk of the whole-plane loops (the reference clamp and the
/// scene-cut sum): a constant trip count the compiler unrolls into vectors.
constexpr std::size_t kChunk = 32;

/// Y, Cb, Cr as Q5 int16 planes (see codec.h) in one write-once frame
/// buffer: every sample is written before it is read.
class Planes {
 public:
  Planes() = default;
  explicit Planes(std::size_t samples) : samples_(samples) {
    data_.resize(3 * samples);
  }

  [[nodiscard]] bool empty() const { return data_.empty(); }

  std::int16_t* operator[](int p) { return data_.data() + p * samples_; }
  const std::int16_t* operator[](int p) const {
    return data_.data() + p * samples_;
  }

  /// Clamps every sample to the 8-bit range [0, 255 * 32], which makes
  /// decoded planes a P frame's reference (see codec.h).
  void clampToSampleRange() {
    const auto clamp = [](std::int16_t* v, std::size_t n) {
      constexpr std::int16_t kMax = 255 << kernels::kPlaneFracBits;
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::min(std::max(v[i], std::int16_t{0}), kMax);
      }
    };
    // Fixed-length chunks, which the compiler vectorises, then the tail.
    std::int16_t* v = data_.data();
    const std::size_t n = data_.size();
    std::size_t i = 0;
    for (; i + kChunk <= n; i += kChunk) clamp(v + i, kChunk);
    clamp(v + i, n - i);
  }

 private:
  std::size_t samples_ = 0;
  FrameBuffer<std::int16_t> data_;
};

Planes toPlanes(const Image& frame) {
  Planes planes(frame.pixelCount());
  const auto src = frame.pixels();
  kernels::active().rgbToYcbcrPlanes(src.data(), src.size(), planes[0],
                                     planes[1], planes[2]);
  return planes;
}

Image fromPlanes(const Planes& planes, int width, int height) {
  Image img(width, height, kForOverwrite);
  auto dst = img.pixels();
  kernels::active().ycbcrPlanesToRgb(planes[0], planes[1], planes[2],
                                     dst.size(), dst.data());
  return img;
}

/// Whether the source luma of consecutive frames differs by more than
/// kSceneCutLuma per sample on average.  The sums are integers, so the
/// decision is the same on every build.
bool isSceneCut(const Planes& prev, const Planes& next, std::size_t samples) {
  const std::int16_t* a = prev[0];
  const std::int16_t* b = next[0];
  const auto sad = [a, b](std::size_t from, std::size_t n) {
    std::int32_t sum = 0;
    for (std::size_t i = from; i < from + n; ++i) sum += std::abs(a[i] - b[i]);
    return sum;
  };
  // Fixed-length chunks, which the compiler vectorises, then the tail.
  std::int64_t sum = 0;
  std::size_t i = 0;
  for (; i + kChunk <= samples; i += kChunk) sum += sad(i, kChunk);
  sum += sad(i, samples - i);
  return sum > std::int64_t{kSceneCutLuma << kernels::kPlaneFracBits} *
                   static_cast<std::int64_t>(samples);
}

std::int16_t saturate16(std::int32_t v) {
  return static_cast<std::int16_t>(std::clamp<std::int32_t>(
      v, std::numeric_limits<std::int16_t>::min(),
      std::numeric_limits<std::int16_t>::max()));
}

/// The sample count of a full block row, as a type: row loops over it have
/// a fixed trip count, which the compiler unrolls into vectors.
using FullRow = std::integral_constant<int, 8>;

/// Calls row(at, y, cols) for each row y of block (bx,by) that lies inside
/// a width x height plane: `at` is the plane index of the row's first
/// sample and `cols` its sample count, FullRow for a full 8x8 block.
template <typename Row>
[[gnu::always_inline]] inline void forEachRow(int width, int height, int bx,
                                              int by, Row row) {
  const int rows = std::min(8, height - by * 8);
  const int cols = std::min(8, width - bx * 8);
  std::size_t at = static_cast<std::size_t>(by) * 8 * width + bx * 8;
  if (rows == 8 && cols == 8) {
    for (int y = 0; y < 8; ++y, at += width) row(at, y, FullRow{});
  } else {
    for (int y = 0; y < rows; ++y, at += width) row(at, y, cols);
  }
}

/// Extracts the 8x8 block at block coordinates (bx,by) from `plane`,
/// replicating edge samples for partial blocks.
SampleBlock fetchBlock(const std::int16_t* plane, int width,
                       int height, int bx, int by) {
  SampleBlock blk;
  int rows = 0;
  forEachRow(width, height, bx, by, [&](std::size_t at, int y, auto cols) {
    std::int16_t* out = blk.data() + y * 8;
    std::copy_n(plane + at, cols, out);
    std::fill(out + cols, out + 8, plane[at + cols - 1]);
    rows = y + 1;
  });
  for (int y = rows; y < 8; ++y) {
    std::copy_n(blk.data() + (rows - 1) * 8, 8, blk.data() + y * 8);
  }
  return blk;
}

/// Writes the block into the plane; pixels outside the image are dropped.
void storeBlock(const SampleBlock& blk, std::int16_t* plane,
                int width, int height, int bx, int by) {
  forEachRow(width, height, bx, by, [&](std::size_t at, int y, auto cols) {
    std::copy_n(blk.data() + y * 8, cols, plane + at);
  });
}

/// Fills the block with one value (a DC-only intra block).
void fillBlock(std::int16_t value, std::int16_t* plane,
               int width, int height, int bx, int by) {
  forEachRow(width, height, bx, by, [&](std::size_t at, int, auto cols) {
    std::fill_n(plane + at, cols, value);
  });
}

/// Adds a residual block onto the plane's reference content, saturating.
void addBlock(const SampleBlock& residual, std::int16_t* plane, int width,
              int height, int bx, int by) {
  forEachRow(width, height, bx, by, [&](std::size_t at, int y, auto cols) {
    std::int16_t* dst = plane + at;
    // A local copy of the residual row, which the plane cannot alias, so
    // the full-row loop vectorises without a runtime alias check.
    std::array<std::int16_t, 8> add;
    std::copy_n(residual.data() + y * 8, 8, add.data());
    for (int x = 0; x < cols; ++x) dst[x] = saturate16(dst[x] + add[x]);
  });
}

/// Adds a constant residual (a DC-only P block), saturating.
void addConstant(std::int32_t value, std::int16_t* plane, int width,
                 int height, int bx, int by) {
  forEachRow(width, height, bx, by, [&](std::size_t at, int, auto cols) {
    std::int16_t* dst = plane + at;
    for (int x = 0; x < cols; ++x) dst[x] = saturate16(dst[x] + value);
  });
}

/// Writes one coded block's samples: the inverse transform of `freq`
/// (dequantised, DC offset included) or, when `transform` is false, the
/// constant freq[0] * kDcSample of a DC-only block (exactly what the
/// inverse transform returns for it).  An I block is stored; an `inter`
/// block is added onto the reference the plane holds, in place, saturating.
/// The decoder and the encoder's reconstruction share it, so both produce
/// the same planes.
[[gnu::always_inline]] inline void writeBlock(
    const kernels::KernelTable& kt, const CoefBlock& freq, bool transform,
    bool inter, std::int16_t* plane, int width, int height, int bx, int by) {
  if (!transform) {
    const std::int32_t dc = freq[0] * kDcSample;
    if (inter) {
      addConstant(dc, plane, width, height, bx, by);
    } else {
      fillBlock(static_cast<std::int16_t>(dc), plane, width, height, bx, by);
    }
    return;
  }
  SampleBlock spatial;
  kt.idct8x8(freq.data(), spatial.data());
  if (inter) {
    addBlock(spatial, plane, width, height, bx, by);
  } else {
    storeBlock(spatial, plane, width, height, bx, by);
  }
}

/// Whether a P block is SKIPped: its mean absolute difference from the
/// reference is under 1.5 in 8-bit units.  In integers that is
/// 2 * SAD < 3 * 32n over the block's n samples in the plane, exactly: 1.5
/// is a double, and the quotient SAD / 32n (32n at most 2048) is never
/// within a rounding of 1.5 without being equal to it.  The SAD runs on
/// 16-bit lanes, which a full block's fixed-width loop vectorises: source
/// samples lie in [0, 8176] (Y 0..8160, Cb and Cr 16..8176) and reference
/// samples in [0, 8160], so a difference is within int16 and each
/// column's eight differences sum in a uint16 lane to at most
/// 8 * 8176 = 65,408.
[[gnu::always_inline]] inline bool isSkipBlock(const std::int16_t* cur,
                                               const std::int16_t* ref,
                                               int width, int height, int bx,
                                               int by) {
  std::array<std::uint16_t, 8> column{};
  int n = 0;
  forEachRow(width, height, bx, by, [&](std::size_t at, int, auto cols) {
    for (int x = 0; x < cols; ++x) {
      const auto diff = static_cast<std::int16_t>(cur[at + x] - ref[at + x]);
      column[x] = static_cast<std::uint16_t>(column[x] + std::abs(diff));
    }
    n += cols;
  });
  std::int32_t sad = 0;
  for (const std::uint16_t s : column) sad += s;
  return 2 * sad < (3 * n) << kernels::kPlaneFracBits;
}

/// The Annex K tables of plane p: luma for Y, chroma for Cb and Cr.
struct PlaneTables {
  const huffman::Table& dc;
  const huffman::Table& ac;
};

PlaneTables tablesFor(int plane) {
  return plane == 0 ? PlaneTables{huffman::lumaDc(), huffman::lumaAc()}
                    : PlaneTables{huffman::chromaDc(), huffman::chromaAc()};
}

constexpr int kEob = 0x00;  ///< AC symbol: the rest of the block is zero
constexpr int kZrl = 0xF0;  ///< AC symbol: a run of 16 zeros
/// Largest size category the Annex K tables code directly; larger DC
/// deltas and AC levels take the escape code.
constexpr int kMaxDcSize = 11;
constexpr int kMaxAcSize = 10;

/// Transforms, quantises and entropy-codes one block of samples: the DC
/// delta's size category and magnitude bits, then (run, size) symbols with
/// the magnitude bits of the nonzero AC coefficients in zigzag order, ZRL
/// for every 16 zeros of a longer run, and EOB unless the last coefficient
/// is nonzero.  Values past the tables' categories follow the escape code
/// as raw fields: AC run (4 bits), size (4 bits), magnitude bits.  Leaves
/// the zigzag levels in `levels` and returns the mask of nonzero AC levels.
std::uint64_t encodeBlock(const kernels::KernelTable& kt,
                          const SampleBlock& spatial, std::int32_t dcOffset,
                          const kernels::QuantTable& quant,
                          const PlaneTables& tables, std::int32_t& dcPred,
                          huffman::BitWriter& writer,
                          std::int32_t (&levels)[64]) {
  huffman::BitWriter w = writer;  // a local copy stays in registers
  CoefBlock freq;
  kt.fdct8x8(spatial.data(), freq.data());
  freq[0] -= dcOffset << kernels::kCoefFracBits;
  const std::uint64_t ac = kt.quantizeBlock(freq.data(), quant, levels) & ~1ull;
  const std::int32_t delta = levels[0] - dcPred;
  dcPred = levels[0];
  const int dcSize = huffman::sizeOf(delta);
  const std::uint32_t dcBits = huffman::magnitudeBits(delta, dcSize);
  if (dcSize <= kMaxDcSize) {
    w.put(tables.dc.code[dcSize] << dcSize | dcBits,
          tables.dc.length[dcSize] + dcSize);
  } else {
    w.code(tables.dc, huffman::kEscape);
    w.put(static_cast<std::uint32_t>(dcSize) << dcSize | dcBits, 4 + dcSize);
  }
  int pos = 0;
  for (std::uint64_t m = ac; m != 0; m &= m - 1) {
    const int next = std::countr_zero(m);
    int run = next - pos - 1;
    for (; run > 15; run -= 16) w.code(tables.ac, kZrl);
    const std::int32_t level = levels[next];
    const int size = huffman::sizeOf(level);
    const int symbol = run << 4 | size;
    const std::uint32_t bits = huffman::magnitudeBits(level, size);
    if (size <= kMaxAcSize) {
      w.put(tables.ac.code[symbol] << size | bits,
            tables.ac.length[symbol] + size);
    } else {
      w.code(tables.ac, huffman::kEscape);
      w.put(static_cast<std::uint32_t>(symbol) << size | bits, 8 + size);
    }
    pos = next;
  }
  if (pos != 63) w.code(tables.ac, kEob);
  writer = w;
  return ac;
}

/// The coefficients decodeBlock reads back for the zigzag `levels` of
/// encodeBlock (nonzero AC mask `ac`).  Returns false for a DC-only block,
/// of which only freq[0] is written.
bool dequantise(const std::int32_t (&levels)[64], std::uint64_t ac,
                std::int32_t dcOffset, const kernels::QuantTable& quant,
                CoefBlock& freq) {
  freq[0] = levels[0] * quant.divisor[0] + dcOffset;
  if (ac == 0) return false;
  std::fill(freq.begin() + 1, freq.end(), 0);
  const auto& zz = zigzagOrder();
  for (std::uint64_t m = ac; m != 0; m &= m - 1) {
    const int pos = std::countr_zero(m);
    freq[zz[pos]] = levels[pos] * quant.divisor[zz[pos]];
  }
  return true;
}

/// The next DC delta: one fast-table lookup when its code and magnitude
/// bits fit, else the code, the escape's raw size and the magnitude bits.
std::int32_t nextDc(huffman::BitReader& r, const huffman::Table& dc) {
  if (const std::uint32_t entry = r.fast(dc)) {
    return static_cast<std::int16_t>(entry >> 16);
  }
  int size = r.symbol(dc);
  if (size == huffman::kEscape) {
    size = static_cast<int>(r.bits(4));
    if (size <= kMaxDcSize) {
      throw std::runtime_error("codec: escape of a codable DC delta");
    }
  }
  return huffman::extend(r.bits(size), size);
}

/// The next AC symbol (run << 4 | size) and, for a coefficient, its level
/// (EOB and ZRL read as level 0), decoded like nextDc.
int nextAc(huffman::BitReader& r, const huffman::Table& ac,
           std::int32_t& level) {
  if (const std::uint32_t entry = r.fast(ac)) {
    level = static_cast<std::int16_t>(entry >> 16);
    return static_cast<int>(entry & 0xFF);
  }
  int symbol = r.symbol(ac);
  if (symbol == huffman::kEscape) {
    symbol = static_cast<int>(r.bits(8));
    if ((symbol & 15) <= kMaxAcSize) {
      throw std::runtime_error("codec: escape of a codable AC symbol");
    }
  }
  level = huffman::extend(r.bits(symbol & 15), symbol & 15);
  return symbol;
}

/// Entropy-decodes and dequantises one block into `freq`, DC offset
/// included.  Returns false for a DC-only block, whose samples are the
/// constant freq[0] (the inverse transform of a DC-only block, exactly);
/// only freq[0] is written then.  Every DC delta and level is range-checked
/// before it is added or multiplied, so a corrupt stream throws instead of
/// wrapping.  A block has one valid coding: an escape of a value the table
/// codes, a run past position 63 and a ZRL followed by EOB are rejected.
bool decodeBlock(const Quantizer& q, std::int32_t dcOffset,
                 const PlaneTables& tables, std::int32_t& dcPred,
                 huffman::BitReader& r, CoefBlock& freq) {
  const std::int32_t delta = nextDc(r, tables.dc);
  const std::int32_t maxDc = q.maxLevel[0];
  if (delta < -2 * maxDc || delta > 2 * maxDc ||
      std::abs(dcPred + delta) > maxDc) {
    throw std::runtime_error("codec: DC out of range");
  }
  dcPred += delta;
  freq[0] = dcPred * q.table.divisor[0] + dcOffset;
  if (std::abs(freq[0]) > kernels::kMaxIdctInput) {
    throw std::runtime_error("codec: DC out of range");
  }
  const huffman::Table& ac = tables.ac;
  const auto& zz = zigzagOrder();
  int pos = 0;
  bool zrl = false;
  for (;;) {
    std::int32_t level;
    const int symbol = nextAc(r, ac, level);  // one call site: inlined
    if (symbol == kEob) {
      if (pos == 0 && !zrl) return false;  // DC-only
      if (zrl) throw std::runtime_error("codec: ZRL before end of block");
      break;
    }
    if (pos == 0 && !zrl) std::fill(freq.begin() + 1, freq.end(), 0);
    if (symbol == kZrl) {
      pos += 16;
      if (pos >= 63) throw std::runtime_error("codec: coefficient overrun");
      zrl = true;
      continue;
    }
    pos += (symbol >> 4) + 1;
    if (pos > 63) throw std::runtime_error("codec: coefficient overrun");
    const int z = zz[pos];
    if (level < -q.maxLevel[z] || level > q.maxLevel[z]) {
      throw std::runtime_error("codec: level out of range");
    }
    freq[z] = level * q.table.divisor[z];
    if (pos == 63) break;
    zrl = false;
  }
  return true;
}

void checkFrameGeometry(const Image& frame) {
  if (frame.empty()) throw std::invalid_argument("codec: empty frame");
}

/// Codes an I frame from its colour planes.  A non-null `recon` receives
/// the planes the decoder will reconstruct from the frame.
EncodedFrame encodeIntra(const Planes& planes, int w, int h,
                         const Quantizer& quant, const CodecConfig& cfg,
                         Planes* recon) {
  const kernels::KernelTable& kt = kernels::active();
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(cfg.quality));
  out.u8(kFrameIntra);
  huffman::BitWriter bits(out);
  const int bw = blocksAcross(w);
  const int bh = blocksAcross(h);
  std::int32_t levels[64];
  CoefBlock freq;
  for (int p = 0; p < 3; ++p) {
    const PlaneTables tables = tablesFor(p);
    std::int32_t dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        const std::uint64_t ac =
            encodeBlock(kt, fetchBlock(planes[p], w, h, bx, by),
                        kIntraOffset, quant.table, tables, dcPred, bits,
                        levels);
        if (recon != nullptr) {
          const bool transform =
              dequantise(levels, ac, kIntraOffset, quant.table, freq);
          writeBlock(kt, freq, transform, false, (*recon)[p], w, h, bx, by);
        }
      }
    }
  }
  bits.finish();
  return EncodedFrame{out.take(), /*intra=*/true};
}

/// Codes a P frame from its colour planes against the reference planes.
/// With `rebuild`, the reference becomes the planes the decoder will
/// reconstruct from the frame, in place: a SKIP block leaves its samples as
/// they are and a DELTA block adds its coded residual onto them.
EncodedFrame encodeInter(const Planes& cur, Planes& ref, int w, int h,
                         const Quantizer& quant, const CodecConfig& cfg,
                         bool rebuild) {
  const kernels::KernelTable& kt = kernels::active();
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(cfg.quality));
  out.u8(kFrameInter);
  huffman::BitWriter bits(out);
  const int bw = blocksAcross(w);
  const int bh = blocksAcross(h);
  std::int32_t levels[64];
  CoefBlock freq;
  for (int p = 0; p < 3; ++p) {
    const PlaneTables tables = tablesFor(p);
    std::int32_t dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        // A block reads and writes only its own samples of the reference.
        if (isSkipBlock(cur[p], ref[p], w, h, bx, by)) {
          bits.put(kBlockSkip, 1);
          continue;
        }
        bits.put(kBlockDelta, 1);
        // Residual block: cur - ref, within kMaxFdctInput.
        SampleBlock residual = fetchBlock(cur[p], w, h, bx, by);
        const SampleBlock refBlk = fetchBlock(ref[p], w, h, bx, by);
        for (int i = 0; i < 64; ++i) {
          residual[i] = static_cast<std::int16_t>(residual[i] - refBlk[i]);
        }
        const std::uint64_t ac = encodeBlock(kt, residual, 0, quant.table,
                                             tables, dcPred, bits, levels);
        if (rebuild) {
          const bool transform = dequantise(levels, ac, 0, quant.table, freq);
          writeBlock(kt, freq, transform, true, ref[p], w, h, bx, by);
        }
      }
    }
  }
  bits.finish();
  return EncodedFrame{out.take(), /*intra=*/false};
}

bool isInterFrame(const EncodedFrame& frame) {
  return frame.bytes.size() >= 2 && frame.bytes[1] == kFrameInter;
}

/// Decodes a frame into `planes`: an I frame writes every sample, a P frame
/// (which needs `haveReference`) updates the reference they hold in place.
/// Empty planes are sized once the payload has passed its bound.
void decodePlanes(const EncodedFrame& frame, int width, int height,
                  Planes& planes, bool haveReference,
                  QuantizerCache& quants) {
  const std::span<const std::uint8_t> payload = frame.bytes;
  if (payload.size() < 2) {
    throw std::runtime_error("decodeFrame: payload too short for the frame");
  }
  const int quality = payload[0];
  const std::uint8_t frameType = payload[1];
  const Quantizer& quant = quants.get(quality == 0 ? 1 : quality);

  const bool inter = frameType == kFrameInter;
  if (frameType != kFrameIntra && !inter) {
    throw std::runtime_error("decodeFrame: unknown frame type");
  }
  if (inter && !haveReference) {
    throw std::runtime_error("decodeFrame: P frame needs a reference");
  }

  const int bw = blocksAcross(width);
  const int bh = blocksAcross(height);
  // Every block codes at least one bit (its DC code or its P mode), so the
  // payload bounds the frame size -- and what decoding allocates.
  const std::span<const std::uint8_t> coded = payload.subspan(2);
  if (coded.size() * 8 / 3 < static_cast<std::size_t>(bw) * bh) {
    throw std::runtime_error("decodeFrame: payload too short for the frame");
  }
  const kernels::KernelTable& kt = kernels::active();
  huffman::BitReader r(coded);
  if (planes.empty()) {
    planes = Planes(static_cast<std::size_t>(width) * height);
  }
  CoefBlock freq;
  const std::int32_t dcOffset = inter ? 0 : kIntraOffset;
  for (int p = 0; p < 3; ++p) {
    const PlaneTables tables = tablesFor(p);
    std::int32_t dcPred = 0;
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        if (inter && r.bits(1) == kBlockSkip) continue;
        // One call site, so decodeBlock inlines and the reader stays in
        // registers across blocks.
        const bool transform =
            decodeBlock(quant, dcOffset, tables, dcPred, r, freq);
        writeBlock(kt, freq, transform, inter, planes[p], width, height, bx,
                   by);
      }
    }
  }
  r.finish();
}

}  // namespace

bool detail::isSkipBlock(const std::int16_t* cur, const std::int16_t* ref,
                         int width, int height, int bx, int by) {
  return media::isSkipBlock(cur, ref, width, height, bx, by);
}

EncodedFrame encodeFrame(const Image& frame, const CodecConfig& cfg) {
  checkFrameGeometry(frame);
  return encodeIntra(toPlanes(frame), frame.width(), frame.height(),
                     makeQuantizer(cfg.quality), cfg, nullptr);
}

struct FrameDecoder::State {
  int width;
  int height;
  /// The planes every frame decodes into: the last frame decoded,
  /// unclamped until a P frame predicts from it.  Sized by the first frame
  /// that passes the payload bound.
  Planes reference;
  /// Whether `reference` holds a whole decoded frame.
  bool haveReference = false;
  QuantizerCache quants;
};

FrameDecoder::FrameDecoder(int width, int height) {
  // Image's bound, as parseClip checks it.
  if (width < 1 || height < 1 || width > Image::kMaxDim ||
      height > Image::kMaxDim) {
    throw std::invalid_argument("FrameDecoder: dimensions out of range");
  }
  state_ = std::make_unique<State>(State{width, height, {}, false, {}});
}
FrameDecoder::~FrameDecoder() = default;
FrameDecoder::FrameDecoder(FrameDecoder&&) noexcept = default;
FrameDecoder& FrameDecoder::operator=(FrameDecoder&&) noexcept = default;

Image FrameDecoder::decode(const EncodedFrame& frame) {
  State& s = *state_;
  // A frame that throws may leave the planes half written, so the
  // reference counts again only once a frame has decoded whole.
  const bool haveReference = std::exchange(s.haveReference, false);
  if (haveReference && isInterFrame(frame)) s.reference.clampToSampleRange();
  decodePlanes(frame, s.width, s.height, s.reference, haveReference,
               s.quants);
  Image image = fromPlanes(s.reference, s.width, s.height);
  s.haveReference = true;
  return image;
}

Image decodeFrame(const EncodedFrame& frame, int width, int height) {
  return FrameDecoder(width, height).decode(frame);
}

EncodedClip encodeClip(const VideoClip& clip, const CodecConfig& cfg) {
  validateClip(clip);
  if (cfg.gopLength < 1) {
    throw std::invalid_argument("encodeClip: gopLength must be >= 1");
  }
  checkFrameGeometry(clip.frames.front());
  const Quantizer quant = makeQuantizer(cfg.quality);
  EncodedClip out;
  out.name = clip.name;
  out.width = clip.width();
  out.height = clip.height();
  out.fps = clip.fps;
  out.quality = cfg.quality;
  out.frames.reserve(clip.frames.size());

  // Closed-loop encoding: a P frame's reference is the previous frame as
  // the decoder reconstructs it, rebuilt in `ref` from the levels just
  // quantised, and only when the next frame is a P frame.  An I frame
  // writes every sample of `ref`; a P frame updates it in place.  `run`
  // counts the frames of the current GOP so far; with gopLength 1 no frame
  // is a P frame, no scene cut is measured and `ref` stays empty.
  const std::size_t n = clip.frames.size();
  const std::size_t samples = clip.frames.front().pixelCount();
  const auto gop = static_cast<std::size_t>(cfg.gopLength);
  Planes cur = toPlanes(clip.frames.front());
  Planes ref;
  bool intra = true;
  std::size_t run = 1;
  for (std::size_t i = 0; i < n; ++i) {
    Planes next;
    bool nextIsP = false;
    if (i + 1 < n) {
      next = toPlanes(clip.frames[i + 1]);
      nextIsP = run < gop && !isSceneCut(cur, next, samples);
    }
    if (nextIsP && ref.empty()) ref = Planes(samples);
    out.frames.push_back(
        intra ? encodeIntra(cur, out.width, out.height, quant, cfg,
                            nextIsP ? &ref : nullptr)
              : encodeInter(cur, ref, out.width, out.height, quant, cfg,
                            nextIsP));
    if (nextIsP) ref.clampToSampleRange();
    cur = std::move(next);
    intra = !nextIsP;
    run = nextIsP ? run + 1 : 1;
  }
  return out;
}

VideoClip decodeClip(const EncodedClip& clip) {
  VideoClip out;
  out.name = clip.name;
  out.fps = clip.fps;
  out.frames.reserve(clip.frames.size());
  FrameDecoder decoder(clip.width, clip.height);
  for (const EncodedFrame& f : clip.frames) {
    out.frames.push_back(decoder.decode(f));
  }
  return out;
}

namespace {
constexpr std::uint32_t kClipMagic = 0x32564100;  // "\0AV2"
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
  // Image's bound, checked before the cast: a larger varint would wrap, and
  // a width near INT_MAX overflows the decoder's block arithmetic.
  const auto dimension = [&r] {
    const std::uint64_t v = r.varint();
    if (v < 1 || v > static_cast<std::uint64_t>(Image::kMaxDim)) {
      throw std::runtime_error("parseClip: frame dimension out of range");
    }
    return static_cast<int>(v);
  };
  clip.width = dimension();
  clip.height = dimension();
  clip.fps = static_cast<double>(r.varint()) / 1000.0;
  clip.quality = static_cast<int>(r.varint());
  // A frame record is at least a one-byte length and the payload's quality
  // and frame-type bytes.
  const std::size_t nframes = r.count(3);
  clip.frames.reserve(nframes);
  for (std::size_t i = 0; i < nframes; ++i) {
    const std::size_t len = r.varint();
    auto payload = r.bytes(len);
    // The payload's type byte is the frame's one record of its type.
    if (len < 2 || (payload[1] != kFrameIntra && payload[1] != kFrameInter)) {
      throw std::runtime_error("parseClip: bad frame type");
    }
    EncodedFrame f;
    f.intra = payload[1] == kFrameIntra;
    f.bytes.assign(payload.begin(), payload.end());
    clip.frames.push_back(std::move(f));
  }
  return clip;
}

}  // namespace anno::media
