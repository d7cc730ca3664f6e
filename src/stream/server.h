// Media server (paper Fig. 1): stores clips, profiles and annotates them
// offline, and streams compensated+annotated content on request.
//
// "The video clips available for streaming at the servers are first
// profiled, processed and annotated with data characterizing the luminance
// levels during various scenes."  Compensation itself is device-specific
// (the gain depends on the chosen backlight level, hence on the device's
// transfer function), so the client's characteristics arrive "during the
// initial negotiation phase".  Served streams are memoized in ONE place,
// the server's stream cache (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/annotate.h"
#include "core/sketch.h"
#include "core/track_cache.h"
#include "display/device.h"
#include "media/codec.h"
#include "media/video.h"

namespace anno::telemetry {
class Registry;
class Counter;
class Gauge;
class Histogram;
class TraceRecorder;
}

namespace anno::stream {

/// Display technology declared during negotiation.  Backlit LCDs get
/// compensated streams (the paper's scheme); emissive (OLED) panels must
/// NOT -- brightened pixels drive their emitters harder (see
/// display/emissive.h), so they receive the original pixels and use the
/// annotations, if at all, for content-side decisions.
enum class DisplayTechnology : std::uint8_t {
  kBacklitLcd = 0,
  kEmissive = 1,
};

/// What the client sends during negotiation.
struct ClientCapabilities {
  std::string deviceName;
  display::TransferFunction transfer;  ///< from the device's characterization
  std::size_t qualityIndex = 0;        ///< chosen quality level (paper: user)
  DisplayTechnology technology = DisplayTechnology::kBacklitLcd;
  /// The client's backlight floor.  The server must compensate with gains
  /// derived from the SAME floor the client will clamp its levels to, or
  /// floor-clamped scenes would render brighter than intended.
  int minBacklightLevel = 10;
};

/// A prepared catalog entry.
struct CatalogEntry {
  media::VideoClip original;
  core::AnnotationTrack track;  ///< annotated with the server's default config
  core::SketchTrack sketches;   ///< per-scene histogram sketches
  /// Per-frame profiling statistics, computed ONCE at ingest.  Profiling is
  /// config-independent (pixels in, luminance stats out), so every tenant
  /// config's engine pass reuses these -- a tenant fill costs one cheap
  /// causal pass over stats, never a second walk over pixels.
  std::vector<media::FrameStats> stats;
  /// TrackCache clip identity: unique per (server instance, name, ingest
  /// revision), so replaced content can never serve a stale cached track.
  std::string cacheId;
};

/// Stream-cache key: the catalog entry's cacheId (unique per server, clip
/// and ingest revision), the annotator fingerprint, and the negotiation
/// message verbatim.  Identical devices share one cached stream; any
/// content, plan or capability difference changes the key.
struct StreamKey {
  std::string cacheId;
  std::uint64_t fingerprint = 0;
  std::vector<std::uint8_t> capsBytes;

  friend bool operator==(const StreamKey&, const StreamKey&) = default;
  friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
};

using StreamBytes = std::vector<std::uint8_t>;
using StreamPtr = std::shared_ptr<const StreamBytes>;

struct StreamCacheTraits {
  static constexpr const char* kMetricPrefix = "anno_stream_cache";
  /// Shards by (cacheId, fingerprint); keyHash adds the negotiation bytes
  /// for the lookup within a shard.
  static std::uint64_t shardHash(const StreamKey& k) noexcept {
    return core::clipShardHash(k.cacheId, k.fingerprint);
  }
  static std::size_t keyHash(const StreamKey& k) {
    return shardHash(k) ^ std::hash<std::string_view>{}(std::string_view(
                              reinterpret_cast<const char*>(k.capsBytes.data()),
                              k.capsBytes.size()));
  }
  static const std::string& clipId(const StreamKey& k) noexcept {
    return k.cacheId;
  }
  static std::size_t chargeBytes(const StreamKey& k, const StreamBytes& v) {
    return v.capacity() + k.capsBytes.capacity() + k.cacheId.capacity();
  }
};

using StreamCache =
    core::ShardedCache<StreamKey, StreamBytes, StreamCacheTraits>;

inline constexpr std::size_t kStreamCacheShards = 16;
inline constexpr std::size_t kStreamCacheBytes = 64u << 20;

/// One negotiated stream, resolved through the stream cache.  `entry`
/// points into the catalog: valid until the next addClip(s).
struct ServedStream {
  const CatalogEntry* entry = nullptr;
  StreamKey key;
  StreamPtr bytes;
};

/// The streaming server.
class MediaServer {
 public:
  explicit MediaServer(core::AnnotatorConfig annotatorCfg = {},
                       media::CodecConfig codecCfg = {});

  /// Ingests a clip: profiles, annotates, stores.  Replaces any clip of the
  /// same name.
  void addClip(media::VideoClip clip);

  /// Batch ingest: profiles + annotates all clips concurrently over one
  /// thread pool (the annotator config's `threads` knob; 1 = serial), then
  /// stores them.  The resulting catalog is identical to calling addClip on
  /// each clip in turn -- annotation is deterministic for any thread count.
  void addClips(std::vector<media::VideoClip> clips);

  [[nodiscard]] std::vector<std::string> catalog() const;
  [[nodiscard]] bool hasClip(const std::string& name) const;
  [[nodiscard]] const CatalogEntry& entry(const std::string& name) const;

  /// Full service path: compensate frames for the negotiated device and
  /// quality, encode, and mux video + annotations -- once per StreamKey
  /// while the stream cache holds it, which is what makes one catalog entry
  /// cheap to fan out to a fleet of identical devices.  `tenantCfg` (null =
  /// the server's default config) selects the plan; tenant tracks resolve
  /// through the attached TrackCache (see annotationFor), so M tenants
  /// across N clips cost at most M-fingerprints x N engine passes.  Throws
  /// std::out_of_range for an unknown clip or an unoffered quality index.
  [[nodiscard]] ServedStream openStream(
      const std::string& clipName, const ClientCapabilities& caps,
      const core::AnnotatorConfig* tenantCfg = nullptr) const;

  /// openStream's bytes, copied out (default config).
  [[nodiscard]] std::vector<std::uint8_t> serve(
      const std::string& clipName, const ClientCapabilities& caps) const;

  /// openStream's bytes, copied out, annotated under `tenantCfg`.
  [[nodiscard]] std::vector<std::uint8_t> serve(
      const std::string& clipName, const ClientCapabilities& caps,
      const core::AnnotatorConfig& tenantCfg) const;

  /// The annotation result for (clip, tenant config).  With a TrackCache
  /// attached, resolves through it keyed on (entry cacheId,
  /// tenantCfg.fingerprint()) with a single-flight fill that reuses the
  /// ingest-time profiling stats (one cheap engine pass per missing key,
  /// even under racing requests); without one, computes a cold per-call
  /// result.  Either way the returned track is bit-identical to a cold
  /// core::annotateClip(entry.original, tenantCfg) run -- the tenant-matrix
  /// suite (tests/fleet) pins this by CRC32 of encodeTrack.
  [[nodiscard]] core::CachedTrackPtr annotationFor(
      const std::string& clipName,
      const core::AnnotatorConfig& tenantCfg) const;

  /// Attaches the shared annotation-track cache (fleet mode).  Not owned;
  /// one cache is typically shared by every server/proxy in the process.
  /// Must outlive the server or be detached first.
  void attachTrackCache(core::TrackCache& cache) noexcept;
  void detachTrackCache() noexcept;
  [[nodiscard]] core::TrackCache* trackCache() const noexcept {
    return trackCache_;
  }

  /// The server's stream cache (kStreamCacheShards, kStreamCacheBytes):
  /// stats, entries, and setByteBudget for squeeze drills.
  [[nodiscard]] StreamCache& streamCache() const noexcept {
    return streamCache_;
  }

  /// Registers server instruments in `registry` and starts recording:
  ///   anno_server_clips_annotated_total, anno_server_serves_total,
  ///   anno_server_catalog_size, anno_server_profile_seconds,
  ///   anno_server_serve_seconds, plus the stream cache's
  ///   anno_stream_cache_* instruments.
  /// Detached by default (null handles, zero recording cost).  Pair with an
  /// EngineObserver on the annotator config for engine-level counters.
  void attachTelemetry(telemetry::Registry& registry);
  void detachTelemetry() noexcept;

  /// Starts emitting trace spans (cat "server"): `profile` around each
  /// addClips ingest and `serve` around each request (carrying the clip
  /// name and cache-hit flag).  Same null-object contract as
  /// attachTelemetry; the recorder must outlive the server or be detached
  /// first.  For engine scene spans, set `trace` on the AnnotatorConfig
  /// the server is constructed with.
  void attachTrace(telemetry::TraceRecorder& trace) noexcept;
  void detachTrace() noexcept;

  /// Raw path: original video, no compensation, no annotations (what a
  /// legacy server would send; the proxy then annotates on the fly).
  [[nodiscard]] std::vector<std::uint8_t> serveRaw(
      const std::string& clipName) const;

  [[nodiscard]] const core::AnnotatorConfig& annotatorConfig() const noexcept {
    return annotatorCfg_;
  }

 private:
  struct Telemetry {
    telemetry::Counter* clipsAnnotated = nullptr;
    telemetry::Counter* serves = nullptr;
    telemetry::Gauge* catalogSize = nullptr;
    telemetry::Histogram* profileSeconds = nullptr;
    telemetry::Histogram* serveSeconds = nullptr;
  };

  const CatalogEntry& findOrThrow(const std::string& name) const;

  core::AnnotatorConfig annotatorCfg_;
  std::uint64_t annotatorFingerprint_ = 0;  ///< annotatorCfg_.fingerprint()
  media::CodecConfig codecCfg_;
  std::map<std::string, CatalogEntry> catalog_;
  Telemetry metrics_;
  telemetry::TraceRecorder* trace_ = nullptr;
  core::TrackCache* trackCache_ = nullptr;  ///< shared, not owned
  std::uint64_t serverId_ = 0;   ///< process-unique, part of cacheId
  std::uint64_t ingestRevision_ = 0;  ///< bumped per stored clip
  /// Mutable: serving is logically const; the cache is thread-safe.
  mutable StreamCache streamCache_{{kStreamCacheShards, kStreamCacheBytes}};
};

/// Builds a minimal device model from negotiated capabilities (name +
/// transfer are all the server needs to compute gains and levels).
[[nodiscard]] display::DeviceModel deviceFromCapabilities(
    const ClientCapabilities& caps);

/// Wire format for the negotiation message (paper Sec. 4.3: "client
/// characteristics are sent during the initial negotiation phase").  The
/// transfer LUT travels as 256 16-bit fixed-point samples (~515 bytes
/// total) -- sent once per session.
[[nodiscard]] std::vector<std::uint8_t> encodeCapabilities(
    const ClientCapabilities& caps);

/// Parses a negotiation message; throws std::runtime_error (or
/// std::out_of_range on truncation) on malformed input.  Decoding is
/// canonical: it accepts only bytes that encodeCapabilities reproduces, so
/// equal caps always mean equal cache keys.  The decoded transfer
/// reproduces the original to within the 16-bit quantization (< 2e-5
/// absolute).
[[nodiscard]] ClientCapabilities decodeCapabilities(
    std::span<const std::uint8_t> bytes);

}  // namespace anno::stream
