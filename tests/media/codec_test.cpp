#include "media/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "media/bitstream.h"
#include "media/clipgen.h"
#include "media/crc32.h"
#include "media/dct.h"
#include "media/kernels/kernels.h"
#include "media/rng.h"
#include "quality/metrics.h"

namespace anno::media {
namespace {

Image testFrame(int w = 48, int h = 32, std::uint64_t seed = 5) {
  SplitMix64 rng(seed);
  Image img(w, h);
  // Smooth content plus a few sharp features: representative of video.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double base = 100.0 + 60.0 * std::sin(x * 0.2) * std::cos(y * 0.15);
      img(x, y) = Rgb8{clamp8(base + rng.uniform(-4, 4)),
                       clamp8(base * 0.8 + rng.uniform(-4, 4)),
                       clamp8(base * 1.1 + rng.uniform(-4, 4))};
    }
  }
  return img;
}

TEST(Codec, FrameRoundtripIsFaithful) {
  const Image frame = testFrame();
  const EncodedFrame enc = encodeFrame(frame, {90});
  const Image dec = decodeFrame(enc, frame.width(), frame.height());
  EXPECT_GT(quality::psnr(frame, dec), 32.0);
}

TEST(Codec, CompressesSmoothContent) {
  const Image frame = testFrame();
  const EncodedFrame enc = encodeFrame(frame, {75});
  EXPECT_LT(enc.sizeBytes(), frame.pixelCount() * 3 / 2)
      << "expected at least 2x compression on smooth content";
}

TEST(Codec, HigherQualityLargerAndBetter) {
  const Image frame = testFrame();
  const EncodedFrame lo = encodeFrame(frame, {30});
  const EncodedFrame hi = encodeFrame(frame, {95});
  EXPECT_LT(lo.sizeBytes(), hi.sizeBytes());
  const Image decLo = decodeFrame(lo, frame.width(), frame.height());
  const Image decHi = decodeFrame(hi, frame.width(), frame.height());
  EXPECT_LT(quality::psnr(frame, decLo), quality::psnr(frame, decHi));
}

TEST(Codec, NonMultipleOf8Dimensions) {
  const Image frame = testFrame(37, 23);
  const EncodedFrame enc = encodeFrame(frame, {85});
  const Image dec = decodeFrame(enc, 37, 23);
  EXPECT_EQ(dec.width(), 37);
  EXPECT_EQ(dec.height(), 23);
  EXPECT_GT(quality::psnr(frame, dec), 28.0);
}

TEST(Codec, QualityValidation) {
  const Image frame = testFrame(8, 8);
  EXPECT_THROW((void)encodeFrame(frame, {0}), std::invalid_argument);
  EXPECT_THROW((void)encodeFrame(frame, {101}), std::invalid_argument);
  EXPECT_THROW((void)encodeFrame(Image{}, {50}), std::invalid_argument);
}

TEST(Codec, DecodeValidation) {
  EXPECT_THROW((void)decodeFrame(EncodedFrame{}, 0, 8), std::invalid_argument);
  // Garbage payload must throw, not crash.
  EncodedFrame garbage;
  garbage.bytes = {50, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_ANY_THROW((void)decodeFrame(garbage, 16, 16));
}

TEST(Codec, FrameDecoderChecksDimensionsAtConstruction) {
  // Image's bound, checked once.  The planes are sized by the first frame
  // that passes the payload bound, so the largest geometry constructs,
  // and a small frame is rejected as too short for it before any of its
  // 6 GiB of planes is allocated.
  for (const auto& [w, h] :
       {std::pair{0, 8}, std::pair{8, 0}, std::pair{-1, 8},
        std::pair{Image::kMaxDim + 1, 8}, std::pair{8, Image::kMaxDim + 1}}) {
    EXPECT_THROW((void)FrameDecoder(w, h), std::invalid_argument)
        << w << "x" << h;
  }
  FrameDecoder largest(Image::kMaxDim, Image::kMaxDim);
  EXPECT_THROW((void)largest.decode(encodeFrame(testFrame(8, 8))),
               std::runtime_error);
}

TEST(Codec, ClipRoundtrip) {
  const VideoClip clip = generatePaperClip(PaperClip::kOfficeXp, 0.02, 48, 32);
  const EncodedClip enc = encodeClip(clip, {85});
  EXPECT_EQ(enc.frames.size(), clip.frames.size());
  const VideoClip dec = decodeClip(enc);
  EXPECT_EQ(dec.frames.size(), clip.frames.size());
  EXPECT_EQ(dec.fps, clip.fps);
  EXPECT_EQ(dec.name, clip.name);
  for (std::size_t i = 0; i < clip.frames.size(); i += 7) {
    EXPECT_GT(quality::psnr(clip.frames[i], dec.frames[i]), 28.0)
        << "frame " << i;
  }
}

TEST(Codec, SerializeParseRoundtrip) {
  const VideoClip clip = generatePaperClip(PaperClip::kOfficeXp, 0.01, 32, 24);
  const EncodedClip enc = encodeClip(clip, {70});
  const std::vector<std::uint8_t> bytes = serializeClip(enc);
  const EncodedClip parsed = parseClip(bytes);
  EXPECT_EQ(parsed.name, enc.name);
  EXPECT_EQ(parsed.width, enc.width);
  EXPECT_EQ(parsed.height, enc.height);
  EXPECT_DOUBLE_EQ(parsed.fps, enc.fps);
  EXPECT_EQ(parsed.quality, enc.quality);
  ASSERT_EQ(parsed.frames.size(), enc.frames.size());
  for (std::size_t i = 0; i < enc.frames.size(); ++i) {
    EXPECT_EQ(parsed.frames[i].bytes, enc.frames[i].bytes);
  }
}

TEST(Codec, ParseRejectsBadMagic) {
  std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW((void)parseClip(bytes), std::runtime_error);
}

TEST(Codec, ParseRejectsTheAv0Magic) {
  // Streams of the previous format (magic "\0AV0") are not decodable.
  EncodedClip empty;
  empty.width = 1;
  empty.height = 1;
  std::vector<std::uint8_t> bytes = serializeClip(empty);
  ASSERT_EQ(bytes[0], 0x00);
  ASSERT_EQ(bytes[1], 0x41);  // 'A'
  ASSERT_EQ(bytes[2], 0x56);  // 'V'
  ASSERT_EQ(bytes[3], 0x32);  // '2'
  EXPECT_NO_THROW((void)parseClip(bytes));
  bytes[3] = 0x30;            // '0'
  EXPECT_THROW((void)parseClip(bytes), std::runtime_error);
}

TEST(Codec, ParseRejectsTheAv1Magic) {
  // AV1 streams (byte-aligned varint coefficients, a frame-type byte in
  // each frame record) are not decodable either.
  EncodedClip empty;
  empty.width = 1;
  empty.height = 1;
  std::vector<std::uint8_t> bytes = serializeClip(empty);
  bytes[3] = 0x31;  // '1'
  EXPECT_THROW((void)parseClip(bytes), std::runtime_error);
}

TEST(Codec, DcOnlyBlockCodesInExactBits) {
  // A flat frame is all DC-only blocks: the DC code and magnitude bits,
  // then EOB.  Grey 120 is Y level 8 * (120 - 128) / 8 = -8 at q75 (DC
  // divisor 8); Cb and Cr are 128, level 0.
  //   Y block 0: K.3 size 4 "101", magnitude -8 -> "0111", K.5 EOB "1010"
  //   Y block 1: K.3 size 0 "00", EOB "1010"
  //   Cb, Cr x 2 blocks: K.4 size 0 "00", K.6 EOB "00"
  // 11 + 6 + 16 = 33 bits, padded with seven one bits to 5 bytes.
  const Image flat(16, 8, Rgb8{120, 120, 120});
  const EncodedFrame enc = encodeFrame(flat, {75});
  EXPECT_EQ(enc.bytes, (std::vector<std::uint8_t>{75, 0, 0b10101111,
                                                  0b01000101, 0, 0,
                                                  0b01111111}));
  const Image dec = decodeFrame(enc, 16, 8);
  for (const Rgb8& p : dec.pixels()) {
    EXPECT_EQ(p, (Rgb8{120, 120, 120}));
  }
}

/// 64x64 grey frames whose top-left block is at the sample-range
/// extremes: all 0, all 255, the full swing checkerboard and its inverse
/// (so their P residuals reach +-255), pure red and pure blue.  One block
/// of 64 changes per frame, a mean luma change under the scene-cut
/// threshold of 8, so at GOP 12 every frame after the first is a P frame.
std::vector<Image> extremeFrames() {
  const auto canvas = [](auto pixel) {
    Image img(64, 64, Rgb8{128, 128, 128});
    for (int y = 0; y < 8; ++y) {
      for (int x = 0; x < 8; ++x) img(x, y) = pixel(x, y);
    }
    return img;
  };
  const auto solid = [&](Rgb8 c) {
    return canvas([c](int, int) { return c; });
  };
  const auto board = [&](bool inverse) {
    return canvas([inverse](int x, int y) {
      const std::uint8_t v = ((x + y) % 2 == 0) != inverse ? 255 : 0;
      return Rgb8{v, v, v};
    });
  };
  return {solid({0, 0, 0}), solid({255, 255, 255}), board(false),
          board(true),      solid({255, 0, 0}),     solid({0, 0, 255})};
}

/// The top-left 8x8 block of a frame: the extreme content of
/// extremeFrames(), measured without the exact grey around it.
Image topLeftBlock(const Image& frame) {
  Image out(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) out(x, y) = frame(x, y);
  }
  return out;
}

TEST(Codec, ExtremeBlocksAreIdenticalAtEveryLevel) {
  VideoClip clip;
  clip.name = "extremes";
  clip.fps = 15.0;
  clip.frames = extremeFrames();
  for (const int quality : {1, 30, 75, 95, 100}) {
    for (const int gop : {1, 12}) {
      const CodecConfig cfg{quality, gop};
      std::vector<std::uint8_t> wantBytes;
      std::vector<Image> wantFrames;
      {
        const kernels::ScopedLevel scalar(kernels::Level::kScalar);
        const EncodedClip enc = encodeClip(clip, cfg);
        for (std::size_t f = 0; f < enc.frames.size(); ++f) {
          ASSERT_EQ(enc.frames[f].intra, gop == 1 || f == 0) << "frame " << f;
        }
        wantBytes = serializeClip(enc);
        wantFrames = decodeClip(enc).frames;
      }
      // Black and white come back exact from quality 30 up (at 1 the DC
      // divisor is 255); at 100 (divisor 1) every frame is close.
      for (const std::size_t f : {std::size_t{0}, std::size_t{1}}) {
        if (quality >= 30) {
          EXPECT_EQ(wantFrames[f], clip.frames[f]) << "q" << quality;
        }
      }
      if (quality == 100) {
        for (std::size_t f = 0; f < clip.frames.size(); ++f) {
          EXPECT_GT(quality::psnr(topLeftBlock(clip.frames[f]),
                                  topLeftBlock(wantFrames[f])),
                    40.0)
              << "frame " << f;
        }
      }
      for (const kernels::Level level : kernels::availableLevels()) {
        const kernels::ScopedLevel scoped(level);
        const EncodedClip enc = encodeClip(clip, cfg);
        EXPECT_EQ(serializeClip(enc), wantBytes)
            << kernels::levelName(level) << " q" << quality << " gop" << gop;
        EXPECT_EQ(decodeClip(enc).frames, wantFrames)
            << kernels::levelName(level) << " q" << quality << " gop" << gop;
      }
    }
  }
}

/// Two 128x64 grey frames whose first two luma blocks swap black and
/// white: at quality 100 the P frame between them codes a DC delta of
/// -4080, past K.3's size 11, so it takes the escape code.  2 of 128
/// blocks changing is no scene cut.
std::pair<Image, Image> swapFrames() {
  Image a(128, 64, Rgb8{128, 128, 128});
  Image b = a;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      const bool white = x >= 8;
      a(x, y) = white ? Rgb8{255, 255, 255} : Rgb8{0, 0, 0};
      b(x, y) = white ? Rgb8{0, 0, 0} : Rgb8{255, 255, 255};
    }
  }
  return {a, b};
}

TEST(Codec, EscapedValuesRoundTripAtQuality100) {
  // At quality 100 (every divisor 1) a +-255 checkerboard P residual has
  // an AC level past K.5's size 10, and a P frame whose two luma blocks
  // turn black -> white and white -> black has a DC delta of -4080, past
  // K.3's size 11: both take the escape code.
  SampleBlock residual;
  for (int i = 0; i < 64; ++i) {
    residual[i] = static_cast<std::int16_t>(((i / 8 + i % 8) % 2 ? -255 : 255)
                                            << kernels::kPlaneFracBits);
  }
  const CoefBlock freq = forwardDct(residual);
  const std::int32_t peak = *std::max_element(
      freq.begin(), freq.end(),
      [](std::int32_t a, std::int32_t b) { return std::abs(a) < std::abs(b); });
  ASSERT_GE(std::abs(peak) >> kernels::kCoefFracBits, 1 << 10);

  // The extremes (the checkerboard and its inverse, so frame 3 is that
  // residual at GOP 12): intra and P blocks come back within 40 dB.
  VideoClip clip;
  clip.name = "extremes";
  clip.fps = 15.0;
  clip.frames = extremeFrames();
  for (const int gop : {1, 12}) {
    const EncodedClip enc = encodeClip(clip, {100, gop});
    ASSERT_EQ(enc.frames[3].intra, gop == 1);
    const VideoClip dec = decodeClip(parseClip(serializeClip(enc)));
    for (std::size_t f = 0; f < clip.frames.size(); ++f) {
      EXPECT_GT(quality::psnr(topLeftBlock(clip.frames[f]),
                              topLeftBlock(dec.frames[f])),
                40.0)
          << "gop " << gop << " frame " << f;
    }
  }

  // DC-only blocks at the range ends come back exact, through P frames.
  const auto [a, b] = swapFrames();
  VideoClip swap;
  swap.name = "swap";
  swap.fps = 15.0;
  swap.frames = {a, b, a};
  const EncodedClip enc = encodeClip(swap, {100, 3});
  ASSERT_FALSE(enc.frames[1].intra);
  ASSERT_FALSE(enc.frames[2].intra);
  EXPECT_EQ(decodeClip(parseClip(serializeClip(enc))).frames, swap.frames);
}

/// A two-frame clip coded as an I frame and a P frame: `cur` must differ
/// from `ref` by less than a scene cut.
EncodedClip iThenP(const Image& ref, const Image& cur, int quality) {
  VideoClip clip;
  clip.name = "pair";
  clip.fps = 15.0;
  clip.frames = {ref, cur};
  EncodedClip enc = encodeClip(clip, {quality, 2});
  EXPECT_TRUE(enc.frames[0].intra);
  EXPECT_FALSE(enc.frames[1].intra) << "the pair is a scene cut";
  return enc;
}

/// A decoder that has decoded `enc`'s first frame, ready for its second.
FrameDecoder primed(const EncodedClip& enc) {
  FrameDecoder decoder(enc.width, enc.height);
  (void)decoder.decode(enc.frames.front());
  return decoder;
}

TEST(Codec, EveryTruncationOfAFrameThrows) {
  // Every proper prefix of an I frame and of a P frame (q75 and q100, and
  // the swap frames' escaped DC delta) is rejected with the documented
  // std::runtime_error; each prefix is its own allocation, so under ASan a
  // read past it aborts.  One byte too many is rejected too: a frame ends
  // in its padding.
  const Image ref = testFrame(24, 16, 12);
  Image cur = ref;
  for (Rgb8& p : cur.pixels()) p = offset(p, 6.0);
  const auto [a, b] = swapFrames();
  for (const EncodedClip& enc :
       {iThenP(ref, cur, 75), iThenP(ref, cur, 100), iThenP(a, b, 100)}) {
    const int quality = enc.quality;
    for (const EncodedFrame& frame : enc.frames) {
      ASSERT_NO_THROW((void)primed(enc).decode(frame));
      for (std::size_t n = 0; n < frame.bytes.size(); ++n) {
        EncodedFrame cut;
        cut.bytes.assign(frame.bytes.begin(), frame.bytes.begin() + n);
        EXPECT_THROW((void)primed(enc).decode(cut), std::runtime_error)
            << "q" << quality << " intra " << frame.intra << " length " << n;
      }
      EncodedFrame longer = frame;
      longer.bytes.push_back(0xFF);
      EXPECT_THROW((void)primed(enc).decode(longer), std::runtime_error);
    }
  }
}

TEST(Codec, PayloadBoundIsOneBitPerBlock) {
  // An all-SKIP P frame is one zero bit per block -- the least a frame can
  // code, and the bound the decoder checks before allocating planes.  A
  // 64x64 frame has 3 x 64 blocks: 24 bytes decode to the reference, 23
  // are rejected as too short.
  const Image ref = testFrame(64, 64, 13);
  FrameDecoder decoder(64, 64);
  const Image refDec = decoder.decode(encodeFrame(ref));
  EncodedFrame skip;
  skip.bytes.assign(2 + 24, 0);
  skip.bytes[0] = 75;
  skip.bytes[1] = 1;  // P frame
  skip.intra = false;
  EXPECT_EQ(decoder.decode(skip), refDec);
  skip.bytes.pop_back();
  try {
    (void)decoder.decode(skip);
    ADD_FAILURE() << "a 23-byte all-SKIP payload decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("too short"), std::string::npos)
        << e.what();
  }
}

TEST(Codec, ParseRejectsTruncation) {
  const VideoClip clip = generatePaperClip(PaperClip::kOfficeXp, 0.01, 32, 24);
  std::vector<std::uint8_t> bytes = serializeClip(encodeClip(clip, {70}));
  bytes.resize(bytes.size() / 2);
  EXPECT_ANY_THROW((void)parseClip(bytes));
}

TEST(Codec, ParseRejectsFrameCountLargerThanInput) {
  // A 2^40 frame count in a 16-byte container must throw the bounded-count
  // error before reserving frame records (bad_alloc, or an ASan abort).
  // An empty clip's container ends in its zero frame count; swap that
  // last byte for the forged count.
  EncodedClip empty;
  empty.width = 1;
  empty.height = 1;
  const std::vector<std::uint8_t> header = serializeClip(empty);
  ByteWriter w;
  w.bytes(std::span(header).first(header.size() - 1));
  w.varint(std::uint64_t{1} << 40);
  while (w.size() < 16) w.u8(0);
  ASSERT_EQ(w.size(), 16u);
  EXPECT_THROW((void)parseClip(w.data()), std::out_of_range);
}

TEST(Codec, PFrameRoundtrip) {
  const Image ref = testFrame(48, 32, 5);
  // A slightly moved/brightened version of the reference.
  Image cur = ref;
  for (Rgb8& p : cur.pixels()) p = offset(p, 6.0);
  const EncodedClip enc = iThenP(ref, cur, 90);
  const Image dec = primed(enc).decode(enc.frames[1]);
  EXPECT_GT(quality::psnr(cur, dec), 32.0);
}

TEST(Codec, PFrameOfIdenticalContentIsTiny) {
  const Image frame = testFrame(48, 32, 6);
  const EncodedClip enc = iThenP(frame, frame, 90);
  const EncodedFrame& i = enc.frames[0];
  const EncodedFrame& p = enc.frames[1];
  // All blocks SKIP: one mode bit per block per plane + header.
  EXPECT_LT(p.sizeBytes() * 5, i.sizeBytes());
  const VideoClip dec = decodeClip(enc);
  EXPECT_GT(quality::psnr(dec.frames[0], dec.frames[1]), 45.0);
}

TEST(Codec, PFrameNeedsReference) {
  const Image frame = testFrame(32, 24, 7);
  const EncodedClip enc = iThenP(frame, frame, 80);
  const EncodedFrame& p = enc.frames[1];
  EXPECT_THROW((void)decodeFrame(p, 32, 24), std::runtime_error);
  EXPECT_THROW((void)FrameDecoder(32, 24).decode(p), std::runtime_error);
  // A decoder of another geometry misreads the bitstream and rejects it.
  for (const auto& [w, h] : {std::pair{16, 16}, std::pair{64, 48}}) {
    EXPECT_THROW((void)FrameDecoder(w, h).decode(enc.frames[0]),
                 std::runtime_error)
        << w << "x" << h;
  }
  VideoClip mixed;
  mixed.name = "mixed";
  mixed.fps = 15.0;
  mixed.frames = {frame, Image(16, 16)};
  EXPECT_THROW((void)encodeClip(mixed, {80}), std::invalid_argument);
}

/// A P frame's mode bit for Y block `index`, when every block before it
/// is a SKIP (one zero bit each, which this checks).
int lumaModeBit(const EncodedFrame& p, int index) {
  const auto bit = [&p](int i) {
    return p.bytes[2 + i / 8] >> (7 - i % 8) & 1;
  };
  for (int i = 0; i < index; ++i) EXPECT_EQ(bit(i), 0) << "block " << i;
  return bit(index);
}

/// `grey` with a change of `steps` codes spread over the samples of its
/// 8x8 block (bx,by) inside the frame: each moves by steps / n codes or
/// one more, up or down as `rng` picks.
Image changeBlock(const Image& grey, int bx, int by, int steps,
                  SplitMix64& rng) {
  const int rows = std::min(8, grey.height() - 8 * by);
  const int cols = std::min(8, grey.width() - 8 * bx);
  const int n = rows * cols;
  Image out = grey;
  for (int i = 0; i < n; ++i) {
    const int move = steps / n + (i < steps % n ? 1 : 0);
    Rgb8& p = out(8 * bx + i % cols, 8 * by + i / cols);
    const std::uint8_t v = clamp8(p.r + (rng.below(2) == 0 ? move : -move));
    p = Rgb8{v, v, v};
  }
  return out;
}

TEST(Codec, SkipRuleHoldsAtItsBoundary) {
  // At quality 100 a flat grey block reconstructs exactly and grey v is
  // the planes (32v, 32 * 128, 32 * 128), so a change of `steps` codes to
  // a luma block of n samples is a SAD of 32 * steps against the
  // reference.  A block is SKIPped below a mean of 1.5 codes (2 * SAD <
  // 3 * 32n): 3n/2 steps is a DELTA and one step fewer a SKIP, for a full
  // block and for the right (4x8), bottom (8x6) and corner (4x6) partial
  // blocks of a 44x30 frame.
  const Image grey(44, 30, Rgb8{100, 100, 100});
  SplitMix64 rng(25);
  for (const auto& [bx, by] : {std::pair{1, 1}, std::pair{5, 1},
                               std::pair{2, 3}, std::pair{5, 3}}) {
    const int n = std::min(8, 44 - 8 * bx) * std::min(8, 30 - 8 * by);
    for (const auto& [steps, mode] :
         {std::pair{3 * n / 2, 1}, std::pair{3 * n / 2 - 1, 0}}) {
      const EncodedClip enc =
          iThenP(grey, changeBlock(grey, bx, by, steps, rng), 100);
      ASSERT_EQ(decodeClip(enc).frames[0], grey);
      EXPECT_EQ(lumaModeBit(enc.frames[1], by * 6 + bx), mode)
          << "block (" << bx << "," << by << "), n " << n << ", steps "
          << steps;
    }
  }
}

TEST(Codec, IntegerSkipRuleMatchesTheMeanAbsoluteDifference) {
  // The rule the integer test replaced, kept here as the reference: the
  // mean absolute difference in double, in 8-bit units, under 1.5.
  const auto meanRuleSkips = [](std::int64_t sad, int n) {
    return static_cast<double>(sad) / (n << 5) < 1.5;
  };
  // Every SAD a block of n samples can reach, for every span an edge
  // block can have, in the integer form...
  for (int rows = 1; rows <= 8; ++rows) {
    for (int cols = 1; cols <= 8; ++cols) {
      const int n = rows * cols;
      for (std::int64_t sad = 0; sad <= 255 * 32 * n; ++sad) {
        if ((2 * sad < (3 * n) << 5) != meanRuleSkips(sad, n)) {
          FAIL() << "n " << n << ", SAD " << sad;
        }
      }
    }
  }
  // ...and the encoder's mode bit for random one-block changes of a grey
  // 44x30 frame, half of them within four steps of the boundary.
  const Image grey(44, 30, Rgb8{100, 100, 100});
  SplitMix64 rng(2025);
  int skips = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int bx = static_cast<int>(rng.between(0, 5));
    const int by = static_cast<int>(rng.between(0, 3));
    const int n = std::min(8, 44 - 8 * bx) * std::min(8, 30 - 8 * by);
    const int steps = static_cast<int>(
        trial % 2 == 0 ? rng.between(0, 3 * n)
                       : 3 * n / 2 + rng.between(-4, 4));
    const bool skip = meanRuleSkips(32 * steps, n);
    skips += skip ? 1 : 0;
    const EncodedClip enc =
        iThenP(grey, changeBlock(grey, bx, by, steps, rng), 100);
    EXPECT_EQ(lumaModeBit(enc.frames[1], by * 6 + bx), skip ? 0 : 1)
        << "block (" << bx << "," << by << "), n " << n << ", steps "
        << steps;
  }
  EXPECT_GT(skips, kTrials / 4);
  EXPECT_LT(skips, kTrials * 3 / 4);
}

TEST(Codec, FrameThatThrowsDropsTheReference) {
  // I P P I P (GOP 3, each frame 6 codes brighter, no scene cut).  The
  // first P frame cut after its first coded blocks throws part-way
  // through the planes, so the decoder drops its reference: the next P
  // frame throws "needs a reference", and the next I frame and the P
  // frame after it decode as on a fresh decoder.
  const Image base = testFrame(48, 32, 31);
  VideoClip clip;
  clip.name = "drop";
  clip.fps = 12.0;
  for (int t = 0; t < 5; ++t) {
    Image frame = base;
    for (Rgb8& p : frame.pixels()) p = offset(p, 6.0 * t);
    clip.frames.push_back(std::move(frame));
  }
  const EncodedClip enc = encodeClip(clip, {75, 3});
  std::vector<bool> intra;
  for (const EncodedFrame& f : enc.frames) intra.push_back(f.intra);
  ASSERT_EQ(intra, (std::vector<bool>{true, false, false, true, false}));

  EncodedFrame cut = enc.frames[1];
  cut.bytes.resize(cut.bytes.size() / 2);
  FrameDecoder decoder(48, 32);
  (void)decoder.decode(enc.frames[0]);
  try {
    (void)decoder.decode(cut);
    ADD_FAILURE() << "the cut P frame decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find("too short"), std::string::npos)
        << "cut before its first block: " << e.what();
  }
  try {
    (void)decoder.decode(enc.frames[2]);
    ADD_FAILURE() << "a P frame decoded on a dropped reference";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("needs a reference"),
              std::string::npos)
        << e.what();
  }
  FrameDecoder fresh(48, 32);
  EXPECT_EQ(decoder.decode(enc.frames[3]), fresh.decode(enc.frames[3]));
  EXPECT_EQ(decoder.decode(enc.frames[4]), fresh.decode(enc.frames[4]));
}

TEST(Codec, ClipOfMixedQualitiesDecodesFrameByFrame) {
  // decodeClip reuses one quantizer while the quality byte repeats; every
  // change of quality (I and P frames alike) must rebuild it.  The P frame
  // is coded at q60 and decoded against the q95 frame before it.
  const Image a = testFrame(48, 32, 8);
  const Image b = testFrame(48, 32, 9);
  EncodedClip clip;
  clip.width = 48;
  clip.height = 32;
  clip.fps = 12.0;
  clip.frames.push_back(encodeFrame(a, {30}));
  clip.frames.push_back(encodeFrame(b, {30}));
  clip.frames.push_back(encodeFrame(a, {95}));
  clip.frames.push_back(iThenP(a, b, 60).frames[1]);
  clip.frames.push_back(encodeFrame(b, {60}));
  const VideoClip decoded = decodeClip(clip);
  ASSERT_EQ(decoded.frames.size(), clip.frames.size());
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    // Each frame on a fresh decoder (a fresh quantizer), after the frame
    // before it for the P frame.
    FrameDecoder fresh(48, 32);
    if (!clip.frames[i].intra) (void)fresh.decode(clip.frames[i - 1]);
    EXPECT_EQ(decoded.frames[i], fresh.decode(clip.frames[i]))
        << "frame " << i;
  }
}

TEST(Codec, GopEncodingShrinksStaticContent) {
  // A mostly static synthetic scene: P frames should be far smaller than
  // I frames, so a GOP-coded clip beats intra-only substantially.
  const VideoClip clip = generatePaperClip(PaperClip::kTheMovie, 0.02, 48, 32);
  CodecConfig intraOnly{75, 1};
  CodecConfig gop{75, 12};
  const EncodedClip a = encodeClip(clip, intraOnly);
  const EncodedClip b = encodeClip(clip, gop);
  EXPECT_LT(b.totalBytes() * 3, a.totalBytes() * 2)
      << "GOP coding should save >= ~33% on this content";
  // And the decode must remain faithful (closed-loop encoder: no drift).
  const VideoClip dec = decodeClip(b);
  for (std::size_t i = 0; i < clip.frames.size(); i += 5) {
    EXPECT_GT(quality::psnr(clip.frames[i], dec.frames[i]), 27.0)
        << "frame " << i;
  }
}

TEST(Codec, GopPatternIsPeriodic) {
  const VideoClip clip = generatePaperClip(PaperClip::kOfficeXp, 0.02, 32, 24);
  const EncodedClip enc = encodeClip(clip, {75, 6});
  for (std::size_t i = 0; i < enc.frames.size(); ++i) {
    EXPECT_EQ(enc.frames[i].intra, i % 6 == 0) << "frame " << i;
  }
  EXPECT_THROW((void)encodeClip(clip, {75, 0}), std::invalid_argument);
}

TEST(Codec, SerializePreservesFrameTypes) {
  const VideoClip clip = generatePaperClip(PaperClip::kOfficeXp, 0.02, 32, 24);
  const EncodedClip enc = encodeClip(clip, {75, 4});
  const EncodedClip parsed = parseClip(serializeClip(enc));
  ASSERT_EQ(parsed.frames.size(), enc.frames.size());
  for (std::size_t i = 0; i < enc.frames.size(); ++i) {
    EXPECT_EQ(parsed.frames[i].intra, enc.frames[i].intra);
  }
}

/// Three scenes of the clip generator back to back at 12 fps: 15 frames
/// of a dark scene, 6 of a bright one and 26 of a mid-grey one.
VideoClip threeSceneClip() {
  ClipProfile profile;
  profile.name = "three_scenes";
  profile.width = 48;
  profile.height = 32;
  profile.fps = 12.0;
  profile.seed = 24;
  for (const auto& [luma, frames] :
       {std::pair{40, 15}, std::pair{200, 6}, std::pair{110, 26}}) {
    SceneSpec scene;
    scene.durationSeconds = frames / profile.fps;
    scene.backgroundLuma = static_cast<std::uint8_t>(luma);
    profile.scenes.push_back(scene);
  }
  return generateClip(profile);
}

TEST(Codec, IFramesStartAtSceneCutsAndTheGopMaximum) {
  // The served configuration: I frames at the two cuts (15, 21) and after
  // every 11 P frames (12, 33, 45), P frames everywhere else.
  const VideoClip clip = threeSceneClip();
  ASSERT_EQ(clip.frames.size(), 47u);
  const EncodedClip enc = encodeClip(clip);
  std::vector<std::size_t> iFrames;
  for (std::size_t i = 0; i < enc.frames.size(); ++i) {
    if (enc.frames[i].intra) iFrames.push_back(i);
  }
  EXPECT_EQ(iFrames, (std::vector<std::size_t>{0, 12, 15, 21, 33, 45}));
  const VideoClip dec = decodeClip(enc);
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    EXPECT_GT(quality::psnr(clip.frames[i], dec.frames[i]), 30.0)
        << "frame " << i;
  }
  // gopLength 1 stays intra-only whatever the content.
  for (const EncodedFrame& f : encodeClip(clip, {75, 1}).frames) {
    EXPECT_TRUE(f.intra);
  }
}

TEST(Codec, ClosedLoopPFramesDoNotDrift) {
  // One textured scene brightening by half a code per frame: no cut, and
  // with a GOP longer than the clip every frame after the first is a P
  // frame chained on the one before.  Each step is under the SKIP
  // threshold, so an encoder that predicted from its source frames would
  // skip every block while the decoder's picture stood still; the closed
  // loop codes the difference from what the decoder has, and decoded
  // PSNR holds along the chain.
  const Image base = testFrame(48, 32, 21);
  VideoClip clip;
  clip.name = "drift";
  clip.fps = 12.0;
  for (int t = 0; t < 96; ++t) {
    Image frame = base;
    for (Rgb8& p : frame.pixels()) p = offset(p, 0.5 * t);
    clip.frames.push_back(std::move(frame));
  }
  const EncodedClip enc = encodeClip(clip, {75, 1000});
  for (std::size_t i = 1; i < enc.frames.size(); ++i) {
    ASSERT_FALSE(enc.frames[i].intra) << "frame " << i;
  }
  const VideoClip dec = decodeClip(enc);
  const auto meanPsnr = [&](std::size_t from, std::size_t to) {
    double sum = 0.0;
    for (std::size_t i = from; i < to; ++i) {
      sum += quality::psnr(clip.frames[i], dec.frames[i]);
    }
    return sum / static_cast<double>(to - from);
  };
  const double early = meanPsnr(1, 25);
  const double late = meanPsnr(72, 96);
  EXPECT_GT(early, 30.0);
  EXPECT_GT(late, early - 0.5) << "early " << early << " dB, late " << late;
}

/// Frame t of a 48x32 clip of hard-edged 3-pixel stripes (white, black,
/// red, blue), whose reconstruction at quality 95 rings past the sample
/// range on every plane.  Only the stripes of a 16x8 patch on the bottom
/// block row move, one pixel per frame until frame 3, so P frames 1-3
/// DELTA-code the patch's blocks and SKIP the rest, and P frame 4 SKIPs the
/// blocks frame 3 rebuilt.
Image stripeFrame(int t) {
  const Rgb8 colours[] = {
      {255, 255, 255}, {0, 0, 0}, {255, 0, 0}, {0, 0, 255}};
  Image img(48, 32);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const bool patch = y >= 24 && x >= 16 && x < 32;
      const int u = patch ? x + std::min(t, 3) : x;
      img(x, y) = colours[(u / 3) % 4];
    }
  }
  return img;
}

TEST(Codec, ReferenceClampCoversSkippedAndDeltaBlocks) {
  VideoClip clip;
  clip.name = "stripes";
  clip.fps = 15.0;
  for (int t = 0; t < 8; ++t) clip.frames.push_back(stripeFrame(t));
  const EncodedClip enc = encodeClip(clip, {95, 12});
  for (std::size_t f = 1; f < enc.frames.size(); ++f) {
    ASSERT_FALSE(enc.frames[f].intra) << "frame " << f;
  }
  // Reference samples outside [0, 255 * 32] meet both block modes: after
  // the I frame (whose every block was written) and after the P frame that
  // rebuilt the patch.
  for (const std::size_t f : {1u, 4u}) {
    int skipped = 0;
    int delta = 0;
    for (const detail::ReferenceBlock& b : detail::referenceBlocks(enc, f)) {
      if (b.overshoot) ++(b.delta ? delta : skipped);
    }
    EXPECT_GT(skipped, 0) << "frame " << f;
    if (f == 1) {
      EXPECT_GT(delta, 0);
    }
  }
  // CRCs of the stream and of the decoded RGB, captured when both sides
  // clamped whole planes: the encoder after every frame, the decoder before
  // every P frame.
  const std::vector<std::uint8_t> stream = serializeClip(enc);
  std::uint32_t pixelCrc = 0;
  for (const Image& frame : decodeClip(enc).frames) {
    const auto px = frame.pixels();
    pixelCrc = crc32(
        std::span(reinterpret_cast<const std::uint8_t*>(px.data()),
                  px.size() * sizeof(Rgb8)),
        pixelCrc);
  }
  EXPECT_EQ(stream.size(), 1599u);
  EXPECT_EQ(crc32(stream), 0x42A5F7D6u);
  EXPECT_EQ(pixelCrc, 0x8E7CBC0Fu);
}

class CodecQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CodecQualitySweep, RoundtripFidelityScalesWithQuality) {
  const int quality = GetParam();
  const Image frame = testFrame(48, 32, 11);
  const EncodedFrame enc = encodeFrame(frame, {quality});
  const Image dec = decodeFrame(enc, 48, 32);
  // Even the lowest quality must stay recognizable; high quality must be
  // genuinely faithful.
  const double floor = quality >= 75 ? 30.0 : (quality >= 40 ? 26.0 : 20.0);
  EXPECT_GT(quality::psnr(frame, dec), floor) << "quality=" << quality;
}

INSTANTIATE_TEST_SUITE_P(Qualities, CodecQualitySweep,
                         ::testing::Values(5, 20, 40, 60, 75, 90, 100));

class CodecGopSweep : public ::testing::TestWithParam<int> {};

TEST_P(CodecGopSweep, AnyGopLengthRoundtrips) {
  const int gop = GetParam();
  const VideoClip clip = generatePaperClip(PaperClip::kCatwoman, 0.02, 32, 24);
  const EncodedClip enc = encodeClip(clip, {80, gop});
  const VideoClip dec = decodeClip(enc);
  ASSERT_EQ(dec.frames.size(), clip.frames.size());
  for (std::size_t i = 0; i < clip.frames.size(); i += 6) {
    EXPECT_GT(quality::psnr(clip.frames[i], dec.frames[i]), 26.0)
        << "gop=" << gop << " frame=" << i;
  }
  // Serialization stays consistent at every GOP length.
  EXPECT_EQ(parseClip(serializeClip(enc)).frames.size(), enc.frames.size());
}

INSTANTIATE_TEST_SUITE_P(GopLengths, CodecGopSweep,
                         ::testing::Values(1, 2, 5, 12, 1000));

TEST(Codec, TotalBytesSumsFrames) {
  const VideoClip clip = generatePaperClip(PaperClip::kOfficeXp, 0.01, 32, 24);
  const EncodedClip enc = encodeClip(clip, {70});
  std::size_t sum = 0;
  for (const auto& f : enc.frames) sum += f.sizeBytes();
  EXPECT_EQ(enc.totalBytes(), sum);
}

}  // namespace
}  // namespace anno::media
