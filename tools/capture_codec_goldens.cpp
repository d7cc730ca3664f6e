// Captures the codec stream goldens (tests/media/codec_golden_test.cpp):
// for every configuration of tests/media/codec_golden_matrix.h it encodes,
// serializes and decodes the clip and prints one table row -- frame count,
// serialized byte count, CRC-32 of the serialized stream and CRC-32 of the
// decoded RGB -- formatted as a C++ initializer to paste into
// tests/media/codec_goldens.inc.
//
// The committed .inc was captured from the codec as it stood before the
// DCT, quantisation and colour conversion moved into the SIMD kernel
// table, so the suite proves every dispatch level still produces the same
// bytes and pixels.  Re-running this tool captures the CURRENT code --
// only regenerate the goldens to bless an intentional format change.
//
// Run: ./build/tools/capture_codec_goldens > tests/media/codec_goldens.inc
#include <cstdio>

#include "codec_golden_matrix.h"
#include "media/kernels/kernels.h"

using namespace anno;

int main() {
  std::fprintf(stderr, "capturing with SIMD dispatch level: %s\n",
               media::kernels::levelName(media::kernels::activeLevel()));
  std::printf(
      "// Codec stream goldens: frames, serialized bytes, CRC-32 of the\n"
      "// serialized stream and CRC-32 of the decoded RGB per configuration,\n"
      "// captured by tools/capture_codec_goldens.cpp (see that file's\n"
      "// header).\n"
      "// clang-format off\n");
  std::printf("inline constexpr CodecGolden kCodecGoldens[] = {\n");
  for (const codec_golden::Config& cfg : codec_golden::matrix()) {
    const codec_golden::Digest d = codec_golden::digest(
        codec_golden::clipFor(cfg.clip, cfg.width, cfg.height), cfg);
    std::printf("    {\"%s\", %zuu, %zuu, 0x%08Xu, 0x%08Xu},\n",
                cfg.name().c_str(), d.frames, d.streamBytes, d.streamCrc,
                d.pixelCrc);
  }
  std::printf("};\n// clang-format on\n");
  return 0;
}
