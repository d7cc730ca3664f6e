#include "stream/server.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <stdexcept>

#include "media/bitstream.h"
#include "stream/mux.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace anno::stream {

namespace {

/// Process-unique server ids keep cacheIds from colliding when several
/// MediaServer instances share one TrackCache.
std::uint64_t nextServerId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void checkQualityIndex(const char* who, std::size_t requested,
                       std::size_t offered) {
  if (requested >= offered) {
    throw std::out_of_range(
        std::string(who) + ": quality index " + std::to_string(requested) +
        " out of range: " + std::to_string(offered) +
        " level(s) offered, valid indices [0, " +
        std::to_string(offered == 0 ? 0 : offered - 1) + "]");
  }
}

media::EncodedClip encodeForClient(const media::VideoClip& clip,
                                   const core::AnnotationTrack& track,
                                   const ClientCapabilities& caps,
                                   const media::CodecConfig& codecCfg) {
  // Emissive panels must not receive brightened pixels (compensation would
  // RAISE their power); they get the original pixels.
  if (caps.technology != DisplayTechnology::kBacklitLcd) {
    return media::encodeClip(clip, codecCfg);
  }
  const display::DeviceModel device = deviceFromCapabilities(caps);
  // A linear gain is one channel table per scene, which the encoder
  // applies inside its colour conversion: the compensated clip is never
  // built.  Downscaling and tone curves build it.
  if (const std::optional<core::CompensationTables> tables =
          core::compensationTables(clip, track, caps.qualityIndex, device,
                                   caps.minBacklightLevel)) {
    return media::encodeClip(clip, codecCfg, tables->frames);
  }
  return media::encodeClip(
      core::compensateClip(clip, track, caps.qualityIndex, device,
                           caps.minBacklightLevel),
      codecCfg);
}

void MediaServer::attachTelemetry(telemetry::Registry& registry) {
  metrics_.clipsAnnotated = &registry.counter(
      "anno_server_clips_annotated_total", {},
      "Clips profiled and annotated into the catalog");
  metrics_.serves = &registry.counter(
      "anno_server_serves_total", {},
      "serve() requests (compensated + muxed streams)");
  metrics_.catalogSize = &registry.gauge(
      "anno_server_catalog_size", {}, "Clips currently in the catalog");
  metrics_.profileSeconds = &registry.histogram(
      "anno_server_profile_seconds", telemetry::secondsBuckets(), {},
      "Wall time of one addClips ingest (profile + annotate + sketch)");
  metrics_.serveSeconds = &registry.histogram(
      "anno_server_serve_seconds", telemetry::secondsBuckets(), {},
      "Wall time of one serve() request");
  streamCache_.attachTelemetry(registry);
}

void MediaServer::detachTelemetry() noexcept {
  metrics_ = Telemetry{};
  streamCache_.detachTelemetry();
}

void MediaServer::attachTrace(telemetry::TraceRecorder& trace) noexcept {
  trace_ = &trace;
}

void MediaServer::detachTrace() noexcept { trace_ = nullptr; }

MediaServer::MediaServer(core::AnnotatorConfig annotatorCfg,
                         media::CodecConfig codecCfg)
    : annotatorCfg_(std::move(annotatorCfg)),
      annotatorFingerprint_(annotatorCfg_.fingerprint()),
      codecCfg_(codecCfg),
      serverId_(nextServerId()) {}

void MediaServer::attachTrackCache(core::TrackCache& cache) noexcept {
  trackCache_ = &cache;
}

void MediaServer::detachTrackCache() noexcept { trackCache_ = nullptr; }

void MediaServer::addClip(media::VideoClip clip) {
  std::vector<media::VideoClip> one;
  one.push_back(std::move(clip));
  addClips(std::move(one));
}

void MediaServer::addClips(std::vector<media::VideoClip> clips) {
  telemetry::Span profileSpan(metrics_.profileSeconds);
  telemetry::TraceSpan traceSpan(
      trace_, "profile", "server",
      {{"clips", static_cast<double>(clips.size())}});
  telemetry::inc(metrics_.clipsAnnotated, clips.size());
  // One profiling pass feeds both the annotator and the sketch builder
  // (addClip used to profile twice); the batch path fans clips, frames, and
  // scenes out across the annotator's pool.
  std::vector<std::vector<media::FrameStats>> stats;
  std::vector<core::AnnotationTrack> tracks =
      core::annotateClips(clips, annotatorCfg_, &stats);
  for (std::size_t i = 0; i < clips.size(); ++i) {
    CatalogEntry entry;
    entry.track = std::move(tracks[i]);
    entry.sketches = core::buildSketchTrack(entry.track, stats[i]);
    entry.stats = std::move(stats[i]);
    entry.original = std::move(clips[i]);
    entry.revision = ++ingestRevision_;
    entry.cacheId = "s" + std::to_string(serverId_) + "/" +
                    entry.original.name + "@" +
                    std::to_string(entry.revision);
    // Replacing content: reclaim the superseded revision's cached streams
    // and tracks (the new revision already guarantees no stale serve).
    const auto old = catalog_.find(entry.original.name);
    if (old != catalog_.end()) {
      streamCache_.eraseClip(old->second.revision);
      if (trackCache_ != nullptr) trackCache_->eraseClip(old->second.cacheId);
    }
    catalog_.insert_or_assign(entry.original.name, std::move(entry));
  }
  telemetry::set(metrics_.catalogSize,
                 static_cast<std::int64_t>(catalog_.size()));
}

std::vector<std::string> MediaServer::catalog() const {
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) names.push_back(name);
  return names;
}

bool MediaServer::hasClip(const std::string& name) const {
  return catalog_.contains(name);
}

const CatalogEntry& MediaServer::entry(const std::string& name) const {
  return findOrThrow(name);
}

const CatalogEntry& MediaServer::findOrThrow(const std::string& name) const {
  const auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    throw std::out_of_range("MediaServer: no such clip: " + name);
  }
  return it->second;
}

std::vector<std::uint8_t> MediaServer::serve(
    const std::string& clipName, const ClientCapabilities& caps) const {
  return *openStream(clipName, caps).bytes;
}

std::vector<std::uint8_t> MediaServer::serve(
    const std::string& clipName, const ClientCapabilities& caps,
    const core::AnnotatorConfig& tenantCfg) const {
  return *openStream(clipName, caps, &tenantCfg).bytes;
}

core::CachedTrackPtr MediaServer::annotationFor(
    const std::string& clipName, const core::AnnotatorConfig& tenantCfg) const {
  const CatalogEntry& e = findOrThrow(clipName);
  const std::uint64_t fp = tenantCfg.fingerprint();
  const auto compute = [&e, &tenantCfg, fp, this] {
    auto value = std::make_shared<core::CachedTrack>();
    if (fp == annotatorFingerprint_) {
      // The ingest-time pass already planned exactly this config.
      value->track = e.track;
      value->sketches = e.sketches;
    } else {
      // Profiling is shared (config-independent, done at ingest); the fill
      // is only the cheap causal engine pass over the stored stats --
      // bit-identical to a cold annotateClip of the original.
      value->track = core::annotate(e.original.name, e.original.fps, e.stats,
                                    tenantCfg);
      value->sketches = core::buildSketchTrack(value->track, e.stats);
    }
    return value;
  };
  if (trackCache_ == nullptr) return compute();
  return trackCache_->getOrFill(core::TrackKey{e.cacheId, fp}, compute);
}

ServedStream MediaServer::openStream(
    const std::string& clipName, const ClientCapabilities& caps,
    const core::AnnotatorConfig* tenantCfg) const {
  telemetry::inc(metrics_.serves);
  telemetry::Span serveSpan(metrics_.serveSeconds);
  telemetry::TraceSpan traceSpan(trace_, "serve", "server");
  const char* const tracedClip =
      trace_ != nullptr ? trace_->intern(clipName) : nullptr;
  const CatalogEntry& e = findOrThrow(clipName);
  const std::uint64_t fp =
      tenantCfg != nullptr ? tenantCfg->fingerprint() : annotatorFingerprint_;
  const bool isDefaultConfig = fp == annotatorFingerprint_;
  const std::size_t offered = isDefaultConfig
                                  ? e.track.qualityLevels.size()
                                  : tenantCfg->qualityLevels.size();
  checkQualityIndex("MediaServer::serve", caps.qualityIndex, offered);
  ServedStream out{&e, StreamKey{e.revision, fp, capsTable_.intern(caps)},
                   nullptr};
  bool filled = false;
  out.bytes = streamCache_.getOrFill(out.key, [&] {
    filled = true;
    // The default config's track/sketches live in the entry; tenant configs
    // resolve through the shared TrackCache (one engine pass per
    // fingerprint).
    core::CachedTrackPtr tenantTrack;
    if (!isDefaultConfig) tenantTrack = annotationFor(clipName, *tenantCfg);
    const core::AnnotationTrack& track =
        isDefaultConfig ? e.track : tenantTrack->track;
    const core::SketchTrack& sketches =
        isDefaultConfig ? e.sketches : tenantTrack->sketches;
    const media::EncodedClip encoded =
        encodeForClient(e.original, track, caps, codecCfg_);
    // Decode-workload annotations come for free once the clip is encoded
    // (sizes are known before any client decodes a byte) -- Sec. 3's "more
    // optimizations" rider.
    const power::ComplexityTrack complexity =
        power::ComplexityTrack::fromEncodedClip(encoded);
    StreamBytes bytes = mux(encoded, &track, &complexity, &sketches);
    bytes.shrink_to_fit();  // resident for as long as the cache keeps it
    return std::make_shared<const StreamBytes>(std::move(bytes));
  });
  traceSpan.end({{"cache_hit", filled ? 0.0 : 1.0},
                 {"bytes", static_cast<double>(out.bytes->size())}},
                "clip", tracedClip);
  return out;
}

std::vector<std::uint8_t> MediaServer::serveRaw(
    const std::string& clipName) const {
  const CatalogEntry& e = findOrThrow(clipName);
  const media::EncodedClip encoded = media::encodeClip(e.original, codecCfg_);
  return mux(encoded, nullptr);
}

CapsId CapsTable::intern(const ClientCapabilities& caps) {
  const auto sameScalars = [&caps](const Entry& e) {
    return e.caps.qualityIndex == caps.qualityIndex &&
           e.caps.technology == caps.technology &&
           e.caps.minBacklightLevel == caps.minBacklightLevel &&
           e.caps.deviceName == caps.deviceName;
  };
  const auto findEntry = [this](const auto& match) {
    return std::find_if(entries_.begin(), entries_.end(), match);
  };
  const std::lock_guard<std::mutex> lock(mu_);
  ++clock_;
  // Hit: the same table object (a copy of an interned transfer).
  auto it = findEntry([&](const Entry& e) {
    return e.caps.transfer.sharesLut(caps.transfer) && sameScalars(e);
  });
  // Miss paths: an equal table built separately, then equal bytes (tables
  // that differ only below the wire's 16-bit quantisation).
  if (it == entries_.end()) {
    it = findEntry([&](const Entry& e) {
      return sameScalars(e) && e.caps.transfer.lut() == caps.transfer.lut();
    });
  }
  std::vector<std::uint8_t> bytes;
  if (it == entries_.end()) {
    bytes = encodeCapabilities(caps);
    it = findEntry([&bytes](const Entry& e) { return e.bytes == bytes; });
  }
  if (it != entries_.end()) {
    it->lastUse = clock_;
    return it->id;
  }
  if (entries_.size() == kMaxEntries) {
    // Evict the least recently interned; its id retires with it.
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.lastUse < b.lastUse; });
    entries_.erase(lru);
  }
  entries_.push_back(Entry{caps, std::move(bytes), nextId_++, clock_});
  return entries_.back().id;
}

std::size_t CapsTable::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

display::DeviceModel deviceFromCapabilities(const ClientCapabilities& caps) {
  display::DeviceModel device;
  device.name = caps.deviceName;
  device.transfer = caps.transfer;
  return device;
}

namespace {
constexpr std::uint32_t kCapsMagic = 0x43415030;  // "CAP0"
}

std::vector<std::uint8_t> encodeCapabilities(const ClientCapabilities& caps) {
  media::ByteWriter w;
  // Magic, two varints (<= 10 bytes each), name, two u8s, the LUT: one
  // allocation per encode.
  w.reserve(4 + 10 + caps.deviceName.size() + 10 + 2 + 2 * 256);
  w.u32(kCapsMagic);
  w.varint(caps.deviceName.size());
  w.bytes(std::span(
      reinterpret_cast<const std::uint8_t*>(caps.deviceName.data()),
      caps.deviceName.size()));
  w.varint(caps.qualityIndex);
  w.u8(static_cast<std::uint8_t>(caps.technology));
  w.u8(static_cast<std::uint8_t>(caps.minBacklightLevel));
  // Transfer LUT as 16-bit fixed point in [0,1].
  for (const double v : caps.transfer.lut()) {
    w.u16(static_cast<std::uint16_t>(v * 65535.0 + 0.5));
  }
  return w.take();
}

ClientCapabilities decodeCapabilities(std::span<const std::uint8_t> bytes) {
  media::ByteReader r(bytes);
  if (r.u32() != kCapsMagic) {
    throw std::runtime_error("decodeCapabilities: bad magic");
  }
  ClientCapabilities caps;
  const std::size_t nameLen = r.varint();
  auto nameBytes = r.bytes(nameLen);
  caps.deviceName.assign(reinterpret_cast<const char*>(nameBytes.data()),
                         nameLen);
  caps.qualityIndex = r.varint();
  const std::uint8_t tech = r.u8();
  if (tech > static_cast<std::uint8_t>(DisplayTechnology::kEmissive)) {
    throw std::runtime_error("decodeCapabilities: unknown display technology");
  }
  caps.technology = static_cast<DisplayTechnology>(tech);
  caps.minBacklightLevel = r.u8();
  std::array<double, 256> lut{};
  for (int level = 0; level < 256; ++level) {
    lut[level] = r.u16() / 65535.0;
  }
  caps.transfer = display::TransferFunction::fromLut(lut);
  // The encoded form keys the capabilities table, so accept only the one
  // encoding of these caps: no overlong varints, and a LUT that fromLut
  // keeps as sent (already monotone, top at 1).
  const std::vector<std::uint8_t> canonical = encodeCapabilities(caps);
  if (!std::equal(canonical.begin(), canonical.end(), bytes.begin(),
                  bytes.end() - static_cast<std::ptrdiff_t>(r.remaining()))) {
    throw std::runtime_error("decodeCapabilities: non-canonical message");
  }
  return caps;
}

}  // namespace anno::stream
