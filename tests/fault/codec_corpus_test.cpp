// Seeded mutation corpus over AV2 clip streams: every mutant of the paper
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
#include "media/huffman.h"

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

/// A bit field: `n` bits of `v`, most significant first.
struct Field {
  std::uint32_t v;
  int n;
};

/// A one-frame 8x8 intra stream at q75: the Y block's bit fields `y`, then
/// DC-only Cb and Cr (K.4 size 0 "00", K.6 EOB "00").
std::vector<std::uint8_t> oneBlockStream(const std::vector<Field>& y) {
  EncodedClip clip;
  clip.name = "nasty";
  clip.width = 8;
  clip.height = 8;
  clip.fps = 15.0;
  ByteWriter w;
  w.u8(75);  // quality
  w.u8(0);   // intra
  huffman::BitWriter bits(w);
  for (const Field& f : y) bits.put(f.v, f.n);
  bits.put(0, 8);  // Cb and Cr
  bits.finish();
  clip.frames.push_back({w.take(), true});
  return serializeClip(clip);
}

TEST(CodecFaultCorpus, CorruptLevelsAndDcDeltasAreRejectedNotWrapped) {
  const huffman::Table& dc = huffman::lumaDc();
  const huffman::Table& ac = huffman::lumaAc();
  const auto code = [](const huffman::Table& t, int symbol) {
    return Field{t.code[symbol], t.length[symbol]};
  };
  const Field dcZero = code(dc, 0);
  const Field eob = code(ac, 0x00);
  const Field zrl = code(ac, 0xF0);
  const Field dcEscape = code(dc, huffman::kEscape);
  const Field acEscape = code(ac, huffman::kEscape);
  // At q75 the DC divisor is 8, so |DC level| <= (2304 + 1024) / 8 = 416,
  // and the zigzag-1 divisor is 6, so |level| <= 2304 / 6 = 384 there.
  const std::vector<std::vector<Field>> nasties = {
      // DC: the largest escaped delta, a table-coded delta of 1023 and an
      // escape of a size K.3 codes.
      {dcEscape, {15, 4}, {0x7FFF, 15}, eob},
      {code(dc, 10), {1023, 10}, eob},
      {dcEscape, {3, 4}, {7, 3}, eob},
      // AC at zigzag 1: the largest escaped level, a table-coded level of
      // 1023, and an escape of (run 0, size 5).
      {dcZero, acEscape, {0x0F, 8}, {0x7FFF, 15}, eob},
      {dcZero, code(ac, 0x0A), {1023, 10}, eob},
      {dcZero, acEscape, {0x05, 8}, {31, 5}, eob},
      // Runs past position 63: three ZRLs then a run of 15, four ZRLs.
      {dcZero, zrl, zrl, zrl, code(ac, 0xF1), {1, 1}},
      {dcZero, zrl, zrl, zrl, zrl, eob},
      // A ZRL straight before EOB: the same block as a bare EOB.
      {dcZero, zrl, eob},
      // A whole byte after the frame (the extra byte codes Cb and Cr).
      {dcZero, eob, {0, 8}},
  };
  for (std::size_t i = 0; i < nasties.size(); ++i) {
    const EncodedClip clip = parseClip(oneBlockStream(nasties[i]));
    EXPECT_THROW((void)decodeClip(clip), std::runtime_error) << "nasty " << i;
  }
  // The same stream with an in-range DC decodes.
  EXPECT_NO_THROW(
      (void)decodeClip(parseClip(oneBlockStream({code(dc, 1), {1, 1}, eob}))));
}

TEST(CodecFaultCorpus, HugeDeclaredGeometryIsRejectedBeforeAllocating) {
  // A kMaxDim x kMaxDim frame (32768 x 32768) needs at least 3 x 2^24
  // payload bits; three bytes are rejected before the planes exist.
  EncodedClip clip;
  clip.width = Image::kMaxDim;
  clip.height = Image::kMaxDim;
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
