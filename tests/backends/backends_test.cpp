// Compensation-backend suite: the ANN1 backend/tone-curve chunks must
// round-trip exactly, degrade to full-backlight when damaged, and stay
// invisible on default linear tracks; the fingerprint must key every
// backend (and only its ACTIVE knobs) so distinct backends can never alias
// in the TrackCache.
#include "compensate/backend.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/anno_codec.h"
#include "core/annotate.h"
#include "core/engine.h"
#include "core/runtime.h"
#include "core/track_cache.h"
#include "display/device.h"
#include "media/clipgen.h"

namespace anno::core {
namespace {

media::VideoClip testClip() {
  return media::generatePaperClip(media::PaperClip::kShrek2, 0.05, 48, 36);
}

AnnotationTrack annotateWith(const compensate::BackendConfig& backend) {
  AnnotatorConfig cfg;
  cfg.backend = backend;
  return annotateClip(testClip(), cfg);
}

TEST(BackendCodec, HebsTrackRoundTripsWithCurves) {
  compensate::BackendConfig backend;
  backend.kind = compensate::BackendKind::kHebs;
  const AnnotationTrack track = annotateWith(backend);
  ASSERT_EQ(track.backendKind, compensate::BackendKind::kHebs);
  ASSERT_FALSE(track.scenes.empty());
  for (const SceneAnnotation& s : track.scenes) {
    ASSERT_EQ(s.perceivedCurves.size(), track.qualityLevels.size());
  }
  const std::vector<std::uint8_t> bytes = encodeTrack(track);
  EXPECT_EQ(decodeTrack(bytes), track);
  const LenientDecodeResult lenient = decodeTrackLenient(bytes);
  ASSERT_TRUE(lenient.usable);
  EXPECT_TRUE(lenient.damage.intact());
  EXPECT_EQ(lenient.track, track);
}

TEST(BackendCodec, SpatialScalingFieldsRoundTrip) {
  compensate::BackendConfig backend;
  backend.kind = compensate::BackendKind::kSpatialScaling;
  backend.spatialScale = 0.5;
  const AnnotationTrack track = annotateWith(backend);
  ASSERT_EQ(track.backendKind, compensate::BackendKind::kSpatialScaling);
  ASSERT_EQ(track.spatialScale, 0.5);
  const AnnotationTrack decoded = decodeTrack(encodeTrack(track));
  EXPECT_EQ(decoded.backendKind, compensate::BackendKind::kSpatialScaling);
  EXPECT_EQ(decoded.spatialScale, 0.5);
  EXPECT_EQ(decoded, track);
}

TEST(BackendCodec, DamagedCurveChunkFallsBackToFullBacklight) {
  compensate::BackendConfig backend;
  backend.kind = compensate::BackendKind::kHebs;
  const AnnotationTrack track = annotateWith(backend);
  std::vector<std::uint8_t> bytes = encodeTrack(track);
  // The stream ends with the last scene group's tone-curve chunk; flipping
  // a payload byte kills that chunk's CRC but nothing else.
  bytes[bytes.size() - 3] ^= 0x40;
  const LenientDecodeResult lenient = decodeTrackLenient(bytes);
  ASSERT_TRUE(lenient.usable);
  EXPECT_TRUE(lenient.damage.headerIntact);
  EXPECT_GE(lenient.damage.damagedChunks, 1u);
  // Curve loss is not scene loss: the safe-luma scene groups all survived.
  EXPECT_TRUE(lenient.damage.repairedSpans.empty());
  EXPECT_EQ(lenient.track.scenes.size(), track.scenes.size());
  std::size_t lostCurves = 0;
  for (const SceneAnnotation& s : lenient.track.scenes) {
    if (s.perceivedCurves.empty()) ++lostCurves;
  }
  ASSERT_GT(lostCurves, 0u);
  // A HEBS decision for a curve-less scene must be the conservative
  // full-backlight default, never a stale or garbage dim level.
  const std::unique_ptr<const compensate::Backend> be =
      backendForTrack(lenient.track);
  const display::DeviceModel device =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  for (std::size_t s = 0; s < lenient.track.scenes.size(); ++s) {
    if (!lenient.track.scenes[s].perceivedCurves.empty()) continue;
    const compensate::CompensationDecision d =
        decideForScene(*be, lenient.track, s, 2, device);
    EXPECT_EQ(d.plan.backlightLevel, 255);
    EXPECT_EQ(d.plan.gainK, 1.0);
    EXPECT_EQ(d.pixelCurve, nullptr);
  }
}

TEST(BackendCodec, DefaultLinearTracksCarryNoBackendChunks) {
  // Legacy byte-identity: a default-config track's ANN1 stream must
  // contain exactly the chunks the pre-backend encoder wrote -- one
  // header plus one chunk per 16-scene group -- and decode to a track
  // with the default backend fields.
  const AnnotationTrack track = annotateWith({});
  ASSERT_EQ(track.backendKind, compensate::BackendKind::kLinearGain);
  ASSERT_EQ(track.spatialScale, 1.0);
  for (const SceneAnnotation& s : track.scenes) {
    ASSERT_TRUE(s.perceivedCurves.empty());
  }
  const std::vector<std::uint8_t> bytes = encodeTrack(track);
  const LenientDecodeResult lenient = decodeTrackLenient(bytes);
  ASSERT_TRUE(lenient.usable);
  EXPECT_TRUE(lenient.damage.intact());
  EXPECT_EQ(lenient.damage.totalChunks,
            1 + (track.scenes.size() + 15) / 16);
  EXPECT_EQ(lenient.track, track);
}

TEST(BackendFingerprint, KindAlwaysFeedsTheHash) {
  AnnotatorConfig base;
  AnnotatorConfig hebs;
  hebs.backend.kind = compensate::BackendKind::kHebs;
  AnnotatorConfig spatial;
  spatial.backend.kind = compensate::BackendKind::kSpatialScaling;
  EXPECT_NE(base.fingerprint(), hebs.fingerprint());
  EXPECT_NE(base.fingerprint(), spatial.fingerprint());
  EXPECT_NE(hebs.fingerprint(), spatial.fingerprint());
}

TEST(BackendFingerprint, KnobsFeedTheHashOnlyWhileActive) {
  // hebsEqualizationWeight is dormant under linear/spatial, live under
  // HEBS; spatialScale is dormant under linear/HEBS, live under spatial.
  // Dormant knobs must not split the cache key (they cannot change the
  // plan), live knobs must.
  AnnotatorConfig linear;
  AnnotatorConfig linearTweaked = linear;
  linearTweaked.backend.hebsEqualizationWeight = 0.9;
  linearTweaked.backend.spatialScale = 0.33;
  EXPECT_EQ(linear.fingerprint(), linearTweaked.fingerprint());

  AnnotatorConfig hebs;
  hebs.backend.kind = compensate::BackendKind::kHebs;
  AnnotatorConfig hebsWeight = hebs;
  hebsWeight.backend.hebsEqualizationWeight = 0.9;
  EXPECT_NE(hebs.fingerprint(), hebsWeight.fingerprint());
  AnnotatorConfig hebsScale = hebs;
  hebsScale.backend.spatialScale = 0.33;
  EXPECT_EQ(hebs.fingerprint(), hebsScale.fingerprint());

  AnnotatorConfig spatial;
  spatial.backend.kind = compensate::BackendKind::kSpatialScaling;
  AnnotatorConfig spatialScale = spatial;
  spatialScale.backend.spatialScale = 0.33;
  EXPECT_NE(spatial.fingerprint(), spatialScale.fingerprint());
  AnnotatorConfig spatialWeight = spatial;
  spatialWeight.backend.hebsEqualizationWeight = 0.9;
  EXPECT_EQ(spatial.fingerprint(), spatialWeight.fingerprint());
}

TEST(BackendCache, DistinctBackendsNeverAlias) {
  // The acceptance criterion verbatim: three tenants identical except for
  // the backend must occupy three separate TrackCache entries, each
  // filled once.
  TrackCache cache;
  const media::VideoClip clip = testClip();
  std::vector<AnnotatorConfig> tenants(3);
  tenants[1].backend.kind = compensate::BackendKind::kHebs;
  tenants[2].backend.kind = compensate::BackendKind::kSpatialScaling;
  std::vector<CachedTrackPtr> held;
  for (const AnnotatorConfig& cfg : tenants) {
    const TrackKey key{"shrek2@1", cfg.fingerprint()};
    held.push_back(cache.getOrFill(key, [&] {
      auto cached = std::make_shared<CachedTrack>();
      cached->track = annotateClip(clip, cfg);
      return cached;
    }));
    // Same tenant again: served from cache, no second fill.
    EXPECT_EQ(cache.getOrFill(key, [&]() -> CachedTrackPtr {
                ADD_FAILURE() << "refill for an identical tenant";
                return nullptr;
              }),
              held.back());
  }
  EXPECT_EQ(cache.stats().fills, 3u);
  EXPECT_EQ(held[0]->track.backendKind, compensate::BackendKind::kLinearGain);
  EXPECT_EQ(held[1]->track.backendKind, compensate::BackendKind::kHebs);
  EXPECT_EQ(held[2]->track.backendKind,
            compensate::BackendKind::kSpatialScaling);
}

}  // namespace
}  // namespace anno::core
