#include "core/anno_codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>

#include "media/bitstream.h"
#include "media/crc32.h"
#include "telemetry/metrics.h"

namespace anno::core {
namespace {

constexpr std::uint32_t kTrackMagicLegacy = 0x414E4E30;  // "ANN0"
constexpr std::uint32_t kTrackMagic = 0x414E4E31;        // "ANN1"
constexpr std::uint8_t kFormatVersion = 1;

constexpr std::uint8_t kChunkHeader = 1;
constexpr std::uint8_t kChunkSceneGroup = 2;
/// Backend identity chunk (curve-format version, backend kind, spatial
/// scale).  Written ONLY for non-default backends, so kLinearGain tracks
/// encode byte-identically to the pre-backend format -- and decoders from
/// before this chunk existed skip it via the unknown-chunk rule below.
constexpr std::uint8_t kChunkBackend = 3;
/// Per-scene-group tone curves (HEBS perceived-target curves), written only
/// when at least one scene in the group carries curves.
constexpr std::uint8_t kChunkToneCurveGroup = 4;
/// Versions the control-point encoding of tone curves inside chunks 3/4.
constexpr std::uint8_t kCurveFormatVersion = 1;

/// Scenes per group chunk: the damage blast radius.  One corrupted chunk
/// loses at most this many scene-spans; the rest of the track survives.
constexpr std::size_t kScenesPerGroup = 16;

// Sanity bounds so corrupt varints cannot drive pathological allocations
// (the "no hang" half of the robustness contract).
constexpr std::size_t kMaxNameBytes = 4096;
constexpr std::size_t kMaxQualityLevels = 256;

std::uint8_t repairLuma() { return 255; }  // full backlight: always safe

// ---------------------------------------------------------------------------
// Legacy ANN0 framing.
// ---------------------------------------------------------------------------

media::ByteWriter encodeHeaderLegacy(const AnnotationTrack& track) {
  media::ByteWriter w;
  w.u32(kTrackMagicLegacy);
  w.varint(track.clipName.size());
  w.bytes(std::span(
      reinterpret_cast<const std::uint8_t*>(track.clipName.data()),
      track.clipName.size()));
  w.varint(static_cast<std::uint64_t>(std::llround(track.fps * 1000.0)));
  w.varint(track.frameCount);
  w.u8(static_cast<std::uint8_t>(track.granularity));
  w.varint(track.qualityLevels.size());
  for (double q : track.qualityLevels) {
    // Quality levels as per-mille (0..999), exact for the paper's 5% grid.
    w.varint(static_cast<std::uint64_t>(std::llround(q * 1000.0)));
  }
  return w;
}

AnnotationTrack decodeLegacy(std::span<const std::uint8_t> bytes) {
  media::ByteReader r(bytes);
  if (r.u32() != kTrackMagicLegacy) {
    throw std::runtime_error("decodeTrack: bad magic");
  }
  AnnotationTrack track;
  const std::size_t nameLen = r.varint();
  if (nameLen > kMaxNameBytes) {
    throw std::runtime_error("decodeTrack: clip name too long");
  }
  auto nameBytes = r.bytes(nameLen);
  track.clipName.assign(reinterpret_cast<const char*>(nameBytes.data()),
                        nameLen);
  track.fps = static_cast<double>(r.varint()) / 1000.0;
  track.frameCount = static_cast<std::uint32_t>(r.varint());
  track.granularity = static_cast<Granularity>(r.u8());
  const std::size_t nq = r.varint();
  if (nq > kMaxQualityLevels) {
    throw std::runtime_error("decodeTrack: too many quality levels");
  }
  track.qualityLevels.reserve(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    track.qualityLevels.push_back(static_cast<double>(r.varint()) / 1000.0);
  }

  // Each scene needs at least one span byte; anything larger is corrupt.
  const std::size_t nscenes = r.count(1);
  track.scenes.resize(nscenes);
  std::uint32_t start = 0;
  for (std::size_t i = 0; i < nscenes; ++i) {
    const auto len = static_cast<std::uint32_t>(r.varint());
    track.scenes[i].span = SceneSpan{start, len};
    start += len;
  }

  const std::size_t rleLen = r.varint();
  auto rleBytes = r.bytes(rleLen);
  const std::vector<std::uint8_t> raw =
      media::rleDecode(rleBytes, nscenes * nq);
  if (raw.size() != nscenes * nq) {
    throw std::runtime_error("decodeTrack: safeLuma matrix size mismatch");
  }
  for (std::size_t i = 0; i < nscenes; ++i) {
    track.scenes[i].safeLuma.resize(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      track.scenes[i].safeLuma[q] = raw[q * nscenes + i];
    }
  }
  try {
    validateTrack(track);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("decodeTrack: invalid track: ") +
                             e.what());
  }
  return track;
}

// ---------------------------------------------------------------------------
// Resilient ANN1 framing.
// ---------------------------------------------------------------------------

void writeChunk(media::ByteWriter& w, std::uint8_t type,
                std::span<const std::uint8_t> payload) {
  w.u8(type);
  w.varint(payload.size());
  w.u32(media::crc32(payload));
  w.bytes(payload);
}

std::vector<std::uint8_t> headerChunkPayload(const AnnotationTrack& track) {
  media::ByteWriter w;
  w.varint(track.clipName.size());
  w.bytes(std::span(
      reinterpret_cast<const std::uint8_t*>(track.clipName.data()),
      track.clipName.size()));
  w.varint(static_cast<std::uint64_t>(std::llround(track.fps * 1000.0)));
  w.varint(track.frameCount);
  w.u8(static_cast<std::uint8_t>(track.granularity));
  w.varint(track.qualityLevels.size());
  for (double q : track.qualityLevels) {
    w.varint(static_cast<std::uint64_t>(std::llround(q * 1000.0)));
  }
  w.varint(track.scenes.size());
  return w.take();
}

std::vector<std::uint8_t> sceneGroupPayload(const AnnotationTrack& track,
                                            std::size_t firstScene,
                                            std::size_t count) {
  media::ByteWriter w;
  w.varint(firstScene);
  w.varint(count);
  w.varint(track.scenes[firstScene].span.firstFrame);
  for (std::size_t i = 0; i < count; ++i) {
    w.varint(track.scenes[firstScene + i].span.frameCount);
  }
  // safeLuma, quality-major WITHIN the group, RLE'd: runs still form along
  // the scene axis (repeated dark scenes), just bounded by the group.
  std::vector<std::uint8_t> raw;
  raw.reserve(count * track.qualityLevels.size());
  for (std::size_t q = 0; q < track.qualityLevels.size(); ++q) {
    for (std::size_t i = 0; i < count; ++i) {
      raw.push_back(track.scenes[firstScene + i].safeLuma[q]);
    }
  }
  const std::vector<std::uint8_t> rle = media::rleEncode(raw);
  w.varint(rle.size());
  w.bytes(rle);
  return w.take();
}

std::vector<std::uint8_t> backendChunkPayload(const AnnotationTrack& track) {
  media::ByteWriter w;
  w.u8(kCurveFormatVersion);
  w.u8(static_cast<std::uint8_t>(track.backendKind));
  // Spatial scale as per-mille: exact for the sensible grid, 1 byte varint.
  w.varint(static_cast<std::uint64_t>(
      std::llround(track.spatialScale * 1000.0)));
  return w.take();
}

[[nodiscard]] bool groupHasCurves(const AnnotationTrack& track,
                                  std::size_t firstScene, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!track.scenes[firstScene + i].perceivedCurves.empty()) return true;
  }
  return false;
}

std::vector<std::uint8_t> toneCurveGroupPayload(const AnnotationTrack& track,
                                                std::size_t firstScene,
                                                std::size_t count) {
  media::ByteWriter w;
  w.varint(firstScene);
  w.varint(count);
  w.varint(compensate::kCurveControlPoints);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!track.scenes[firstScene + i].perceivedCurves.empty()) {
      mask |= std::uint64_t{1} << i;
    }
  }
  w.varint(mask);
  // Control points, quality-major then present-scene-major, RLE'd: adjacent
  // scenes' curves at one quality level are often near-identical, so runs
  // form along the scene axis like the safeLuma matrix above.
  std::vector<std::uint8_t> raw;
  for (std::size_t q = 0; q < track.qualityLevels.size(); ++q) {
    for (std::size_t i = 0; i < count; ++i) {
      const SceneAnnotation& s = track.scenes[firstScene + i];
      if (s.perceivedCurves.empty()) continue;
      const auto pts = compensate::curveToControlPoints(s.perceivedCurves[q]);
      raw.insert(raw.end(), pts.begin(), pts.end());
    }
  }
  const std::vector<std::uint8_t> rle = media::rleEncode(raw);
  w.varint(rle.size());
  w.bytes(rle);
  return w.take();
}

/// A parsed, CRC-verified tone-curve-group chunk (curves still RLE'd; the
/// quality count lives in the header chunk).
struct CurveGroup {
  std::size_t firstScene = 0;
  std::size_t sceneCount = 0;
  std::uint64_t presenceMask = 0;
  std::vector<std::uint8_t> rleCurves;
};

CurveGroup parseCurveGroup(std::span<const std::uint8_t> payload) {
  media::ByteReader r(payload);
  CurveGroup g;
  g.firstScene = r.varint();
  g.sceneCount = r.varint();
  if (g.sceneCount == 0 || g.sceneCount > kScenesPerGroup) {
    throw std::runtime_error("curve group: bad scene count");
  }
  if (r.varint() != compensate::kCurveControlPoints) {
    throw std::runtime_error("curve group: unknown control-point count");
  }
  g.presenceMask = r.varint();
  if (g.presenceMask >> g.sceneCount != 0) {
    throw std::runtime_error("curve group: presence mask exceeds group");
  }
  const std::size_t rleLen = r.varint();
  auto rle = r.bytes(rleLen);
  g.rleCurves.assign(rle.begin(), rle.end());
  if (!r.atEnd()) {
    throw std::runtime_error("curve group: trailing payload bytes");
  }
  return g;
}

/// A parsed, CRC-verified backend chunk.
struct BackendInfo {
  compensate::BackendKind kind = compensate::BackendKind::kLinearGain;
  double spatialScale = 1.0;
};

BackendInfo parseBackendChunk(std::span<const std::uint8_t> payload) {
  media::ByteReader r(payload);
  if (r.u8() != kCurveFormatVersion) {
    throw std::runtime_error("backend chunk: unknown curve format version");
  }
  const std::uint8_t raw = r.u8();
  if (!compensate::isKnownBackendKind(raw)) {
    throw std::runtime_error("backend chunk: unknown backend kind");
  }
  BackendInfo info;
  info.kind = static_cast<compensate::BackendKind>(raw);
  const std::uint64_t perMille = r.varint();
  if (perMille == 0 || perMille > 1000) {
    throw std::runtime_error("backend chunk: spatial scale out of range");
  }
  info.spatialScale = static_cast<double>(perMille) / 1000.0;
  if (!r.atEnd()) {
    throw std::runtime_error("backend chunk: trailing payload bytes");
  }
  return info;
}

/// A parsed, CRC-verified scene-group chunk (luma still RLE'd: the quality
/// count needed to unpack it lives in the header chunk).
struct SceneGroup {
  std::size_t firstScene = 0;
  std::size_t sceneCount = 0;
  std::uint32_t firstFrame = 0;
  std::vector<std::uint32_t> spanLengths;
  std::vector<std::uint8_t> rleLuma;
};

SceneGroup parseSceneGroup(std::span<const std::uint8_t> payload) {
  media::ByteReader r(payload);
  SceneGroup g;
  g.firstScene = r.varint();
  g.sceneCount = r.varint();
  if (g.sceneCount == 0 || g.sceneCount > kScenesPerGroup) {
    throw std::runtime_error("scene group: bad scene count");
  }
  g.firstFrame = static_cast<std::uint32_t>(r.varint());
  g.spanLengths.reserve(g.sceneCount);
  for (std::size_t i = 0; i < g.sceneCount; ++i) {
    g.spanLengths.push_back(static_cast<std::uint32_t>(r.varint()));
  }
  const std::size_t rleLen = r.varint();
  auto rle = r.bytes(rleLen);
  g.rleLuma.assign(rle.begin(), rle.end());
  if (!r.atEnd()) {
    throw std::runtime_error("scene group: trailing payload bytes");
  }
  return g;
}

struct ParsedHeader {
  AnnotationTrack shell;  ///< metadata only, scenes empty
  std::size_t sceneCount = 0;
};

ParsedHeader parseHeader(std::span<const std::uint8_t> payload) {
  media::ByteReader r(payload);
  ParsedHeader h;
  const std::size_t nameLen = r.varint();
  if (nameLen > kMaxNameBytes) {
    throw std::runtime_error("header: clip name too long");
  }
  auto nameBytes = r.bytes(nameLen);
  h.shell.clipName.assign(reinterpret_cast<const char*>(nameBytes.data()),
                          nameLen);
  h.shell.fps = static_cast<double>(r.varint()) / 1000.0;
  h.shell.frameCount = static_cast<std::uint32_t>(r.varint());
  h.shell.granularity = static_cast<Granularity>(r.u8());
  const std::size_t nq = r.varint();
  if (nq > kMaxQualityLevels) {
    throw std::runtime_error("header: too many quality levels");
  }
  h.shell.qualityLevels.reserve(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    h.shell.qualityLevels.push_back(static_cast<double>(r.varint()) / 1000.0);
  }
  h.sceneCount = r.varint();
  if (!r.atEnd()) {
    throw std::runtime_error("header: trailing payload bytes");
  }
  return h;
}

SceneAnnotation repairScene(std::uint32_t firstFrame, std::uint32_t frames,
                            std::size_t nq) {
  SceneAnnotation s;
  s.span = SceneSpan{firstFrame, frames};
  s.safeLuma.assign(nq, repairLuma());
  return s;
}

LenientDecodeResult decodeResilientLenient(
    std::span<const std::uint8_t> bytes) {
  LenientDecodeResult out;
  TrackDamageReport& dmg = out.damage;

  media::ByteReader r(bytes);
  (void)r.u32();  // magic, checked by caller
  if (r.u8() != kFormatVersion) {
    return out;  // unknown layout: nothing can be trusted
  }

  bool haveHeader = false;
  ParsedHeader header;
  std::vector<SceneGroup> groups;
  bool haveBackend = false;
  BackendInfo backendInfo;
  std::vector<CurveGroup> curveGroups;
  while (!r.atEnd()) {
    std::uint8_t type = 0;
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    try {
      type = r.u8();
      len = r.varint();
      crc = r.u32();
    } catch (const std::exception&) {
      ++dmg.totalChunks;
      ++dmg.damagedChunks;
      break;  // truncated framing: nothing after this is locatable
    }
    ++dmg.totalChunks;
    if (len > r.remaining()) {
      ++dmg.damagedChunks;
      break;  // length field points past the buffer
    }
    auto payload = r.bytes(static_cast<std::size_t>(len));
    if (media::crc32(payload) != crc) {
      ++dmg.damagedChunks;
      continue;  // damaged chunk; framing stays aligned, keep scanning
    }
    try {
      if (type == kChunkHeader) {
        if (!haveHeader) {
          header = parseHeader(payload);
          haveHeader = true;
        }
      } else if (type == kChunkSceneGroup) {
        groups.push_back(parseSceneGroup(payload));
      } else if (type == kChunkBackend) {
        if (!haveBackend) {
          backendInfo = parseBackendChunk(payload);
          haveBackend = true;
        }
      } else if (type == kChunkToneCurveGroup) {
        curveGroups.push_back(parseCurveGroup(payload));
      }
      // Unknown chunk types with a valid CRC are skipped (forward compat).
    } catch (const std::exception&) {
      ++dmg.damagedChunks;
    }
  }

  if (!haveHeader) {
    return out;  // no metadata: no frame count, no quality levels -- unusable
  }
  dmg.headerIntact = true;

  const std::size_t nq = header.shell.qualityLevels.size();
  std::stable_sort(groups.begin(), groups.end(),
                   [](const SceneGroup& a, const SceneGroup& b) {
                     return a.firstScene < b.firstScene;
                   });

  AnnotationTrack track = header.shell;
  if (haveBackend) {
    // A damaged (hence absent) backend chunk leaves the safe default:
    // kLinearGain ignores any curves, and curve-carrying scenes without a
    // usable backend annotation render at full backlight downstream.
    track.backendKind = backendInfo.kind;
    track.spatialScale = backendInfo.spatialScale;
  }
  // Curve groups pair with scene groups by firstScene (keep-first on
  // duplicate delivery, matching the scene-group rule).
  std::map<std::size_t, const CurveGroup*> curveByFirstScene;
  for (const CurveGroup& cg : curveGroups) {
    curveByFirstScene.insert({cg.firstScene, &cg});
  }
  std::uint32_t cursorFrame = 0;
  std::size_t cursorScene = 0;
  const auto repairGapTo = [&](std::uint32_t frame) {
    if (frame <= cursorFrame) return;
    const SceneAnnotation s =
        repairScene(cursorFrame, frame - cursorFrame, nq);
    dmg.repairedSpans.push_back(s.span);
    dmg.damagedFrames += s.span.frameCount;
    track.scenes.push_back(s);
    cursorFrame = frame;
  };
  for (const SceneGroup& g : groups) {
    if (g.firstScene < cursorScene) continue;  // duplicate delivery
    if (g.firstFrame < cursorFrame) continue;  // overlaps covered frames
    // Unpack the luma matrix; a size mismatch against the header's quality
    // count means header and group disagree -- treat the group as damaged.
    std::vector<std::uint8_t> raw;
    try {
      raw = media::rleDecode(g.rleLuma, g.sceneCount * nq);
    } catch (const std::exception&) {
      ++dmg.damagedChunks;
      continue;
    }
    if (raw.size() != g.sceneCount * nq) {
      ++dmg.damagedChunks;
      continue;
    }
    // Unpack this group's tone curves, if an intact curve chunk matches.
    // Damage here never rejects the scene group: the scenes keep empty
    // perceivedCurves and curve-carrying backends fall back to full
    // backlight for them (the client cannot reconstruct the curve).
    const CurveGroup* curves = nullptr;
    std::vector<std::uint8_t> curveRaw;
    if (const auto cit = curveByFirstScene.find(g.firstScene);
        cit != curveByFirstScene.end() &&
        cit->second->sceneCount == g.sceneCount) {
      const CurveGroup& cg = *cit->second;
      const std::size_t present =
          static_cast<std::size_t>(std::popcount(cg.presenceMask));
      const std::size_t want =
          present * nq * compensate::kCurveControlPoints;
      try {
        curveRaw = media::rleDecode(cg.rleCurves, want);
      } catch (const std::exception&) {
        curveRaw.clear();
      }
      if (curveRaw.size() == want && present > 0) {
        curves = &cg;
      } else {
        ++dmg.damagedChunks;
      }
    }
    repairGapTo(g.firstFrame);
    std::uint32_t frame = g.firstFrame;
    for (std::size_t i = 0; i < g.sceneCount; ++i) {
      SceneAnnotation s;
      s.span = SceneSpan{frame, g.spanLengths[i]};
      s.safeLuma.resize(nq);
      for (std::size_t q = 0; q < nq; ++q) {
        s.safeLuma[q] = raw[q * g.sceneCount + i];
      }
      if (curves != nullptr && (curves->presenceMask >> i & 1) != 0) {
        const auto present =
            static_cast<std::size_t>(std::popcount(curves->presenceMask));
        const auto rank = static_cast<std::size_t>(std::popcount(
            curves->presenceMask & ((std::uint64_t{1} << i) - 1)));
        s.perceivedCurves.reserve(nq);
        for (std::size_t q = 0; q < nq; ++q) {
          const std::size_t off =
              (q * present + rank) * compensate::kCurveControlPoints;
          s.perceivedCurves.push_back(compensate::curveFromControlPoints(
              std::span(curveRaw.data() + off,
                        compensate::kCurveControlPoints)));
        }
      }
      frame += g.spanLengths[i];
      track.scenes.push_back(std::move(s));
    }
    cursorFrame = frame;
    cursorScene = g.firstScene + g.sceneCount;
  }
  repairGapTo(track.frameCount);

  try {
    validateTrack(track);
  } catch (const std::exception&) {
    return out;  // inconsistent survivors (forged CRC class): unusable
  }
  out.track = std::move(track);
  out.usable = true;
  return out;
}

std::uint32_t peekMagic(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return 0;
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

}  // namespace

std::vector<std::uint8_t> encodeTrack(const AnnotationTrack& track) {
  validateTrack(track);
  media::ByteWriter w;
  w.u32(kTrackMagic);
  w.u8(kFormatVersion);
  writeChunk(w, kChunkHeader, headerChunkPayload(track));
  // Backend identity only when it deviates from the default, so linear
  // tracks stay byte-identical to the pre-backend format.
  if (track.backendKind != compensate::BackendKind::kLinearGain ||
      track.spatialScale != 1.0) {
    writeChunk(w, kChunkBackend, backendChunkPayload(track));
  }
  for (std::size_t first = 0; first < track.scenes.size();
       first += kScenesPerGroup) {
    const std::size_t count =
        std::min(kScenesPerGroup, track.scenes.size() - first);
    writeChunk(w, kChunkSceneGroup, sceneGroupPayload(track, first, count));
    if (groupHasCurves(track, first, count)) {
      writeChunk(w, kChunkToneCurveGroup,
                 toneCurveGroupPayload(track, first, count));
    }
  }
  return w.take();
}

std::vector<std::uint8_t> encodeTrackLegacy(const AnnotationTrack& track) {
  validateTrack(track);
  media::ByteWriter w = encodeHeaderLegacy(track);

  // Scene spans: only lengths are needed (spans are contiguous from 0).
  w.varint(track.scenes.size());
  for (const SceneAnnotation& s : track.scenes) {
    w.varint(s.span.frameCount);
  }

  // safeLuma matrix, QUALITY-major, RLE compressed: consecutive scenes at
  // the same quality level often share ceilings (e.g. repeated dark scenes),
  // so runs form along the scene axis, not across quality levels.
  std::vector<std::uint8_t> raw;
  raw.reserve(track.scenes.size() * track.qualityLevels.size());
  for (std::size_t q = 0; q < track.qualityLevels.size(); ++q) {
    for (const SceneAnnotation& s : track.scenes) {
      raw.push_back(s.safeLuma[q]);
    }
  }
  const std::vector<std::uint8_t> rle = media::rleEncode(raw);
  w.varint(rle.size());
  w.bytes(rle);
  return w.take();
}

AnnotationTrack decodeTrack(std::span<const std::uint8_t> bytes) {
  if (peekMagic(bytes) == kTrackMagicLegacy) {
    return decodeLegacy(bytes);
  }
  if (peekMagic(bytes) != kTrackMagic) {
    throw std::runtime_error("decodeTrack: bad magic");
  }
  LenientDecodeResult lenient = decodeResilientLenient(bytes);
  if (!lenient.usable || !lenient.damage.intact()) {
    throw std::runtime_error("decodeTrack: damaged track (" +
                             std::to_string(lenient.damage.damagedChunks) +
                             " of " +
                             std::to_string(lenient.damage.totalChunks) +
                             " chunks)");
  }
  return std::move(lenient.track);
}

namespace {

/// Process-wide codec telemetry handles, published once by
/// attachCodecTelemetry.  Hot paths read one atomic pointer; detached
/// (nullptr) costs a single branch.
struct CodecTelemetry {
  telemetry::Counter* lenientDecodes = nullptr;
  telemetry::Counter* damagedChunks = nullptr;
  telemetry::Counter* repairedScenes = nullptr;
  telemetry::Counter* repairedFrames = nullptr;
};
std::atomic<const CodecTelemetry*> g_codecTelemetry{nullptr};

LenientDecodeResult decodeTrackLenientImpl(
    std::span<const std::uint8_t> bytes) noexcept {
  try {
    if (peekMagic(bytes) == kTrackMagicLegacy) {
      // Legacy framing has no per-chunk checksums: all-or-nothing.
      LenientDecodeResult out;
      out.damage.legacyFormat = true;
      out.damage.totalChunks = 1;
      try {
        out.track = decodeLegacy(bytes);
        out.damage.headerIntact = true;
        out.usable = true;
      } catch (const std::exception&) {
        out.damage.damagedChunks = 1;
      }
      return out;
    }
    if (peekMagic(bytes) != kTrackMagic) {
      return {};  // unrecognized framing: unusable, zero chunks seen
    }
    return decodeResilientLenient(bytes);
  } catch (...) {
    return {};  // belt and braces: lenient decode must never throw
  }
}

}  // namespace

void attachCodecTelemetry(telemetry::Registry& registry) {
  static CodecTelemetry block;
  block.lenientDecodes = &registry.counter(
      "anno_codec_lenient_decodes_total", {},
      "Lenient annotation-track decodes attempted");
  block.damagedChunks = &registry.counter(
      "anno_codec_damaged_chunks_total", {},
      "Track chunks lost to CRC mismatch, truncation, or parse failure");
  block.repairedScenes = &registry.counter(
      "anno_codec_repaired_scenes_total", {},
      "Full-backlight repair scenes synthesized for damaged spans");
  block.repairedFrames = &registry.counter(
      "anno_codec_repaired_frames_total", {},
      "Frames whose annotations were replaced by repair scenes");
  g_codecTelemetry.store(&block, std::memory_order_release);
}

void detachCodecTelemetry() noexcept {
  g_codecTelemetry.store(nullptr, std::memory_order_release);
}

LenientDecodeResult decodeTrackLenient(
    std::span<const std::uint8_t> bytes) noexcept {
  LenientDecodeResult out = decodeTrackLenientImpl(bytes);
  if (const CodecTelemetry* m =
          g_codecTelemetry.load(std::memory_order_acquire)) {
    telemetry::inc(m->lenientDecodes);
    telemetry::inc(m->damagedChunks, out.damage.damagedChunks);
    telemetry::inc(m->repairedScenes, out.damage.repairedSpans.size());
    telemetry::inc(m->repairedFrames, out.damage.damagedFrames);
  }
  return out;
}

AnnotationSizeReport measureEncoding(const AnnotationTrack& track) {
  AnnotationSizeReport report;
  report.sceneCount = track.scenes.size();
  report.rawLumaBytes = track.scenes.size() * track.qualityLevels.size();
  // Magic + version + framed header chunk (type + length varint + crc).
  const std::vector<std::uint8_t> hp = headerChunkPayload(track);
  std::size_t lenVarint = 1;
  for (std::uint64_t v = hp.size(); v >= 0x80; v >>= 7) ++lenVarint;
  report.headerBytes = 4 + 1 + 1 + lenVarint + 4 + hp.size();
  const std::vector<std::uint8_t> full = encodeTrack(track);
  report.encodedBytes = full.size();
  report.sceneTableBytes = report.encodedBytes - report.headerBytes;
  return report;
}

}  // namespace anno::core
