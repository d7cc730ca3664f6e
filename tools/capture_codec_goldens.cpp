// Captures the codec stream goldens (tests/media/codec_golden_test.cpp):
// for every configuration of tests/media/codec_golden_matrix.h it encodes,
// serializes and decodes the clip and prints one table row -- frame count,
// serialized byte count, CRC-32 of the serialized stream and CRC-32 of the
// decoded RGB -- formatted as a C++ initializer to paste into
// tests/media/codec_goldens.inc.  A second table does the same for the
// served configuration on spliced multi-scene clips (servedMatrix()), so
// the scene-cut decisions are pinned too.
//
// The committed .inc's GOP-1 rows were captured when the AV2 format was
// introduced, its GOP-12 and served rows with scene-cut GOPs; the suite
// replays it at every dispatch level, and CI checks that it is this tool's
// exact output.  Re-running this tool captures the CURRENT code --
// only regenerate the goldens to bless an intentional format change.
//
// Run: ./build/tools/capture_codec_goldens > tests/media/codec_goldens.inc
//
// With --rd it prints the rate/distortion table instead -- serialized
// bytes and pooled PSNR per configuration -- for
// tests/media/codec_rd_table.inc.  That table holds the figures of the
// previous stream format, so it is captured by building this tool against
// that format's source tree, not against the current one.
#include <cstdio>
#include <cstring>

#include "codec_golden_matrix.h"
#include "media/kernels/kernels.h"

using namespace anno;

namespace {

void printRow(const std::string& name, const codec_golden::Digest& d) {
  std::printf("    {\"%s\", %zuu, %zuu, 0x%08Xu, 0x%08Xu},\n", name.c_str(),
              d.frames, d.streamBytes, d.streamCrc, d.pixelCrc);
}

int printRateDistortion() {
  std::printf(
      "// Codec rate/distortion reference: serialized bytes and pooled RGB\n"
      "// PSNR per configuration, captured by\n"
      "// `tools/capture_codec_goldens --rd` (see that file's header).\n"
      "// clang-format off\n");
  std::printf("inline constexpr CodecRd kCodecRdReference[] = {\n");
  for (const codec_golden::Config& cfg : codec_golden::matrix()) {
    const codec_golden::RateDistortion rd = codec_golden::rateDistortion(
        codec_golden::clipFor(cfg.clip, cfg.width, cfg.height), cfg);
    std::printf("    {\"%s\", %zuu, %.4f},\n", cfg.name().c_str(),
                rd.streamBytes, rd.psnrDb);
  }
  std::printf("};\n// clang-format on\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::fprintf(stderr, "capturing with SIMD dispatch level: %s\n",
               media::kernels::levelName(media::kernels::activeLevel()));
  if (argc > 1 && std::strcmp(argv[1], "--rd") == 0) {
    return printRateDistortion();
  }
  std::printf(
      "// Codec stream goldens: frames, serialized bytes, CRC-32 of the\n"
      "// serialized stream and CRC-32 of the decoded RGB per configuration,\n"
      "// captured by tools/capture_codec_goldens.cpp (see that file's\n"
      "// header).\n"
      "// clang-format off\n");
  std::printf("inline constexpr CodecGolden kCodecGoldens[] = {\n");
  for (const codec_golden::Config& cfg : codec_golden::matrix()) {
    printRow(cfg.name(), codec_golden::digest(
        codec_golden::clipFor(cfg.clip, cfg.width, cfg.height), cfg.codec()));
  }
  std::printf("};\ninline constexpr CodecGolden kServedGoldens[] = {\n");
  for (const codec_golden::SplicedConfig& cfg : codec_golden::servedMatrix()) {
    printRow(cfg.name(), codec_golden::digest(codec_golden::splicedClip(cfg),
                                              media::CodecConfig{}));
  }
  std::printf("};\n// clang-format on\n");
  return 0;
}
