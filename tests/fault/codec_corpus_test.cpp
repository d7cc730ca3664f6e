// Seeded mutation corpus over AV1 clip streams: every mutant of the paper
// clips' serialized streams must either be rejected with a std::exception
// or decode to frames of the geometry its header declares -- never crash,
// hang, allocate beyond its size, or (under UBSan) overflow.  The corpus
// seed and size are the fault label's pinned ANNO_FAULT_CORPUS_SEED /
// ANNO_FAULT_CORPUS_SIZE, so every run replays the same byte streams.
#include <gtest/gtest.h>

#include <exception>
#include <limits>

#include "fault/inject.h"
#include "media/bitstream.h"
#include "media/clipgen.h"
#include "media/codec.h"

#ifndef ANNO_FAULT_CORPUS_SEED
#define ANNO_FAULT_CORPUS_SEED 0xF4017ULL
#endif
#ifndef ANNO_FAULT_CORPUS_SIZE
#define ANNO_FAULT_CORPUS_SIZE 10000
#endif

namespace anno::media {
namespace {

struct Outcome {
  std::size_t total = 0;
  std::size_t rejected = 0;
  std::size_t decoded = 0;
};

/// Parses and decodes one stream; a throw is a rejection.
void decodeMutant(std::span<const std::uint8_t> bytes, bool intact,
                  Outcome& out) {
  ++out.total;
  try {
    const EncodedClip clip = parseClip(bytes);
    const VideoClip video = decodeClip(clip);
    ASSERT_EQ(video.frames.size(), clip.frames.size());
    for (const Image& frame : video.frames) {
      ASSERT_EQ(frame.width(), clip.width);
      ASSERT_EQ(frame.height(), clip.height);
    }
    ++out.decoded;
  } catch (const std::exception&) {
    ++out.rejected;
    ASSERT_FALSE(intact) << "an unmutated stream was rejected";
  }
}

TEST(CodecFaultCorpus, MutatedPaperClipStreamsDecodeOrThrow) {
  const std::size_t perClip = ANNO_FAULT_CORPUS_SIZE / allPaperClips().size();
  Outcome out;
  std::uint64_t seed = ANNO_FAULT_CORPUS_SEED ^ 0xC0DECULL;
  for (const PaperClip pc : allPaperClips()) {
    VideoClip clip = generatePaperClip(pc, 0.07, 32, 24);
    clip.frames.resize(std::min<std::size_t>(clip.frames.size(), 12));
    for (const int gop : {1, 6}) {
      const std::vector<std::uint8_t> base =
          serializeClip(encodeClip(clip, {75, gop}));
      fault::runCorpus(
          base, seed++, perClip / 2, {},
          [&](std::span<const std::uint8_t> mutated,
              const fault::InjectionPlan&,
              const fault::InjectionReport& report) {
            decodeMutant(mutated, report.identity(), out);
          });
    }
  }
  EXPECT_EQ(out.total, perClip * allPaperClips().size());
  // The corpus must reach the block decoder, not just the framing: most
  // mutants are rejected, yet some still decode.
  EXPECT_GT(out.rejected, out.total / 2);
  EXPECT_GT(out.decoded, out.total / 50);
}

/// A one-frame 8x8 intra stream: the Y block `y`, then DC-only Cb and Cr.
std::vector<std::uint8_t> oneBlockStream(const std::vector<std::uint8_t>& y) {
  EncodedClip clip;
  clip.name = "nasty";
  clip.width = 8;
  clip.height = 8;
  clip.fps = 15.0;
  ByteWriter w;
  w.u8(75);  // quality
  w.u8(0);   // intra
  w.bytes(y);
  w.u8(1);   // Cb: DC-only, delta 0
  w.u8(1);   // Cr: DC-only, delta 0
  clip.frames.push_back({w.take(), true});
  return serializeClip(clip);
}

TEST(CodecFaultCorpus, CorruptLevelsAndDcDeltasAreRejectedNotWrapped) {
  const auto varint = [](std::uint64_t v) {
    ByteWriter w;
    w.varint(v);
    return w.take();
  };
  const auto cat = [](std::vector<std::uint8_t> a,
                      const std::vector<std::uint8_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  // DC symbols: (zigzag(delta) << 1) | end-of-block.  acAt1: DC 0 with
  // AC coefficients following, then the run marker of zigzag position 1.
  const std::vector<std::uint8_t> acAt1 = cat(varint(0), varint(1));
  const std::vector<std::vector<std::uint8_t>> nasties = {
      varint(zigzagEncode(std::int64_t{1} << 61) << 1 | 1),  // huge DC delta
      varint(zigzagEncode(-(std::int64_t{1} << 61)) << 1 | 1),
      varint(zigzagEncode(1000) << 1 | 1),  // 1000 * 8 + 1024 > 2304
      varint(~std::uint64_t{0}),            // all-ones symbol
      // One AC coefficient of level 2^40, 2^31 and -2^31 at zigzag 1.
      cat(acAt1, varint(zigzagEncode(std::int64_t{1} << 40))),
      cat(acAt1, varint(zigzagEncode(std::int64_t{1} << 31))),
      cat(acAt1, varint(zigzagEncode(-(std::int64_t{1} << 31)))),
      // A run marker past the block.
      cat(cat(varint(0), varint(64)), varint(2)),
  };
  for (const auto& y : nasties) {
    const std::vector<std::uint8_t> bytes = oneBlockStream(y);
    const EncodedClip clip = parseClip(bytes);
    EXPECT_THROW((void)decodeClip(clip), std::runtime_error);
  }
  // The same stream with an in-range DC decodes.
  EXPECT_NO_THROW((void)decodeClip(parseClip(oneBlockStream(varint(1)))));
}

TEST(CodecFaultCorpus, HugeDeclaredGeometryIsRejectedBeforeAllocating) {
  // A 32768 x 32768 frame needs at least 3 x 2^24 payload bytes.
  EncodedClip clip;
  clip.width = 1 << 15;
  clip.height = 1 << 15;
  clip.fps = 15.0;
  clip.frames.push_back({{75, 0, 1, 1, 1}, true});
  EXPECT_THROW((void)decodeClip(parseClip(serializeClip(clip))),
               std::runtime_error);
  // Past Image::kMaxDim the header itself is rejected: a width of INT_MAX
  // would overflow the decoder's block count.
  clip.width = std::numeric_limits<int>::max();
  clip.height = 8;
  EXPECT_THROW((void)decodeClip(parseClip(serializeClip(clip))),
               std::runtime_error);
  // A width varint above INT_MAX, 2^32 + 8, which an int cast would read
  // as 8.  An unnamed clip's width varint starts at byte 5, after the
  // magic and the name length.
  clip.width = 8;
  const std::vector<std::uint8_t> base = serializeClip(clip);
  ASSERT_EQ(base[5], 8);
  ByteWriter w;
  w.bytes(std::span(base).first(5));
  w.varint((std::uint64_t{1} << 32) + 8);
  w.bytes(std::span(base).subspan(6));
  EXPECT_THROW((void)decodeClip(parseClip(w.data())), std::runtime_error);
}

}  // namespace
}  // namespace anno::media
