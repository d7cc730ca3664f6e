#include "stream/mux.h"

#include <stdexcept>

#include "core/anno_codec.h"
#include "media/bitstream.h"

namespace anno::stream {
namespace {

constexpr std::uint32_t kMuxMagic = 0x4D555830;  // "MUX0"
constexpr std::uint8_t kSectionVideo = 1;
constexpr std::uint8_t kSectionAnnotations = 2;
constexpr std::uint8_t kSectionComplexity = 3;
constexpr std::uint8_t kSectionSketches = 4;

void writeSection(media::ByteWriter& w, std::uint8_t type,
                  std::span<const std::uint8_t> payload) {
  w.u8(type);
  w.varint(payload.size());
  w.bytes(payload);
}

}  // namespace

std::vector<std::uint8_t> mux(const media::EncodedClip& video,
                              const core::AnnotationTrack* annotations,
                              const power::ComplexityTrack* complexity,
                              const core::SketchTrack* sketches) {
  media::ByteWriter w;
  w.u32(kMuxMagic);
  writeSection(w, kSectionVideo, media::serializeClip(video));
  if (annotations != nullptr) {
    writeSection(w, kSectionAnnotations, core::encodeTrack(*annotations));
  }
  if (complexity != nullptr) {
    writeSection(w, kSectionComplexity, complexity->encode());
  }
  if (sketches != nullptr) {
    writeSection(w, kSectionSketches, sketches->encode());
  }
  return w.take();
}

DemuxedStream demux(std::span<const std::uint8_t> bytes) {
  media::ByteReader r(bytes);
  if (r.u32() != kMuxMagic) {
    throw std::runtime_error("demux: bad container magic");
  }
  DemuxedStream out;
  bool sawVideo = false;
  while (!r.atEnd()) {
    const std::uint8_t section = r.u8();
    const std::size_t len = r.varint();
    auto payload = r.bytes(len);
    switch (section) {
      case kSectionVideo:
        out.video = media::parseClip(payload);
        sawVideo = true;
        break;
      case kSectionAnnotations: {
        // Lenient: a damaged annotation section must not cost the video.
        core::LenientDecodeResult lenient = core::decodeTrackLenient(payload);
        out.annotationDamage = lenient.damage;
        if (lenient.usable) {
          out.annotations = std::move(lenient.track);
        }
        break;
      }
      case kSectionComplexity:
        try {
          out.complexity = power::ComplexityTrack::decode(payload);
        } catch (const std::exception&) {
          out.complexityDamaged = true;  // optional rider: drop, don't abort
        }
        break;
      case kSectionSketches:
        try {
          out.sketches = core::SketchTrack::decode(payload);
        } catch (const std::exception&) {
          out.sketchesDamaged = true;  // optional rider: drop, don't abort
        }
        break;
      default:
        break;  // unknown section: skip (forward compatibility)
    }
  }
  if (!sawVideo) {
    throw std::runtime_error("demux: container has no video section");
  }
  return out;
}

}  // namespace anno::stream
