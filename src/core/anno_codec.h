// Annotation track serialization.
//
// Paper Sec. 4.3: "The annotations are RLE compressed, so the overhead is
// minimal, in the order of hundreds of bytes for our video clips which are
// on the order of a few megabytes."
//
// Wire format ANN1: versioned, CRC32-checksummed chunks.  After the magic
// and a version byte, the stream is a sequence of self-describing chunks
// [type u8 | payload-length varint | crc32 u32 | payload].  Chunk 1 is the
// header (clip metadata, quality levels, scene count); chunks of type 2 each
// carry a *group* of up to 16 scenes (first scene index, first frame, span
// lengths, RLE'd safeLuma, quality-major within the group) and are
// self-locating, so damage to one chunk loses only its scene-spans.
// decodeTrackLenient repairs the gap with conservative full-backlight scenes
// and reports exactly what was lost; the strict decodeTrack still throws on
// any damage.  Any other magic -- including the retired, checksum-free ANN0
// blob -- is unrecognized: strict decode throws, lenient decode is unusable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotation.h"

namespace anno::telemetry {
class Registry;
}

namespace anno::core {

/// Publishes process-wide codec telemetry into `registry`: lenient decodes
/// attempted, damaged chunks, and repair scenes/frames synthesized (the
/// TrackDamageReport totals, counted at the decoder so every consumer --
/// client demux, proxy, fault corpus -- feeds the same counters).  Detached
/// by default: the decoder then takes one branch and records nothing.
/// Attach before concurrent decoding starts; handles live in `registry`.
void attachCodecTelemetry(telemetry::Registry& registry);
void detachCodecTelemetry() noexcept;

/// Serializes a validated track in the resilient ANN1 framing.  Throws
/// std::invalid_argument if the track fails validateTrack.
[[nodiscard]] std::vector<std::uint8_t> encodeTrack(
    const AnnotationTrack& track);

/// Parses a serialized ANN1 track; validates before returning.
/// Strict: throws std::runtime_error, or std::out_of_range for a length or
/// count the input cannot hold, on any malformed or damaged input.
[[nodiscard]] AnnotationTrack decodeTrack(std::span<const std::uint8_t> bytes);

/// What a lenient decode had to give up on.
struct TrackDamageReport {
  bool headerIntact = false;   ///< clip metadata chunk survived
  std::size_t totalChunks = 0;
  std::size_t damagedChunks = 0;  ///< CRC mismatch, short, or unparsable
  std::uint32_t damagedFrames = 0;  ///< frames whose annotations were lost
  /// Frame spans that were synthesized as conservative full-backlight
  /// scenes because their annotation chunks were damaged or missing.
  std::vector<SceneSpan> repairedSpans;

  /// True when the decode recovered the track byte-for-byte losslessly.
  [[nodiscard]] bool intact() const noexcept {
    return headerIntact && damagedChunks == 0 && repairedSpans.empty();
  }
};

/// Result of a lenient decode: `usable` means `track` passes validateTrack
/// (possibly with full-backlight repair scenes standing in for damaged
/// spans); when false, the header itself was unrecoverable and `track` is
/// default-constructed.
struct LenientDecodeResult {
  AnnotationTrack track;
  TrackDamageReport damage;
  bool usable = false;
};

/// Parses as much of a serialized track as survives corruption.  NEVER
/// throws: any input -- truncated, bit-flipped, reordered, or pure noise --
/// yields a result; damaged scene-spans come back as full-backlight repair
/// scenes (safeLuma 255 at every quality level) listed in the damage report.
[[nodiscard]] LenientDecodeResult decodeTrackLenient(
    std::span<const std::uint8_t> bytes) noexcept;

/// Size breakdown for the overhead experiment (Sec. 4.3 claim).
struct AnnotationSizeReport {
  std::size_t encodedBytes = 0;     ///< total serialized size
  std::size_t headerBytes = 0;      ///< framing + clip metadata portion
  std::size_t sceneTableBytes = 0;  ///< scene-group chunks portion
  std::size_t sceneCount = 0;
  std::size_t rawLumaBytes = 0;     ///< safeLuma matrix before RLE
};

[[nodiscard]] AnnotationSizeReport measureEncoding(
    const AnnotationTrack& track);

}  // namespace anno::core
