// Client session: negotiation, reception, demux, schedule construction.
//
// The client is deliberately thin -- the paper's central claim is that the
// handheld does (almost) no work: it sends its display characteristics once,
// then during playback merely decodes video and programs the backlight from
// the annotation schedule.
//
// Robustness contract: a thin client on a lossy 802.11b hop must tolerate
// ANY stream bytes.  receive() never throws on malformed or damaged input;
// it degrades.  Missing or damaged annotation spans fall back to full
// backlight (the non-annotated baseline: costs power, never correctness),
// with a slew-rate limiter bounding per-frame backlight deltas so repair
// boundaries do not flicker.  Only an undecodable VIDEO section leaves the
// result unplayable, reported via `ok == false` -- still no exception.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/runtime.h"
#include "display/device.h"
#include "media/video.h"
#include "stream/mux.h"
#include "stream/net.h"
#include "stream/server.h"

namespace anno::telemetry {
class Registry;
class Counter;
class TraceRecorder;
}

namespace anno::stream {

/// Flicker bound applied when the schedule contains repair/fallback
/// transitions: backlight level moves at most this much per frame across
/// damage boundaries.  Intact streams are untouched -- their schedules
/// already merge scenes to minimize switches.
inline constexpr std::uint8_t kMaxBacklightDeltaPerFrame = 8;

/// Client configuration.
struct ClientConfig {
  display::DeviceModel device;  ///< the PDA (with characterized transfer)
  std::size_t qualityIndex = 0;
  int minBacklightLevel = 10;
};

/// Everything the client ends up with after one streaming session.
struct ReceivedStream {
  media::VideoClip video;            ///< decoded (already compensated) frames
  core::AnnotationTrack track;       ///< annotations (may contain repairs)
  core::BacklightSchedule schedule;  ///< client-computed backlight plan
  /// Decode-workload annotations, when the server sent them (drives DVFS).
  std::optional<power::ComplexityTrack> complexity;
  /// Per-scene histogram sketches, when sent (drives client tone mapping).
  std::optional<core::SketchTrack> sketches;
  TransferStats network;             ///< delivery accounting
  std::size_t streamBytes = 0;
  /// Frames whose backlight level the slew-rate limiter raised above the
  /// planned schedule (0 when no limiting happened or none was needed).
  std::size_t slewClampedFrames = 0;

  /// True when the video decoded and the stream is playable.
  bool ok = false;
  /// True when any part of the backlight schedule had to fall back to full
  /// backlight (no/damaged annotations, or a negotiation mismatch).
  bool annotationFallback = false;
  /// What was lost from the annotation track (empty report when intact).
  core::TrackDamageReport damage;
  /// Human-readable reason when `ok == false`.
  std::string error;
};

class ClientSession {
 public:
  ClientSession(ClientConfig cfg, NetworkPath path);

  /// The negotiation message sent to the server/proxy.
  [[nodiscard]] ClientCapabilities capabilities() const;

  /// Receives a muxed stream (bytes as delivered over `path`), demuxes,
  /// decodes, and builds the backlight schedule from the annotations.
  /// Never throws on stream content: damaged/missing annotations degrade to
  /// a (slew-limited) full-backlight schedule, and an undecodable video
  /// section returns `ok == false` with `error` set.
  [[nodiscard]] ReceivedStream receive(
      std::span<const std::uint8_t> muxedBytes) const;

  [[nodiscard]] const ClientConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const NetworkPath& path() const noexcept { return path_; }

  /// Registers client instruments in `registry` and starts recording.  The
  /// playback-side half of the paper's power story:
  ///   anno_client_streams_received_total / anno_client_streams_undecodable_total,
  ///   anno_client_frames_shown_total, anno_client_backlight_switches_total
  ///   (flicker proxy), anno_client_annotation_fallback_total (sessions that
  ///   ran the full-backlight baseline), anno_client_track_mismatch_total
  ///   (annotations present but unusable for this negotiation),
  ///   anno_client_repaired_scenes_total / anno_client_damaged_frames_total
  ///   (surfaced from TrackDamageReport), anno_client_slew_clamped_frames_total.
  /// Detached by default (null handles, zero recording cost).
  void attachTelemetry(telemetry::Registry& registry);
  void detachTelemetry() noexcept;

  /// Starts emitting trace events (cat "client") during receive(): a
  /// `receive` span, `session`/`device` metadata, one `backlight_switch`
  /// instant per schedule command (frame/level/gain, stamped on the media
  /// clock), per-frame `clipped_fraction` counter samples, and
  /// `track_mismatch` / `annotation_fallback` / `slew_clamp` /
  /// `undecodable` instants on the degradation paths.  These are the
  /// semantic events telemetry::SessionTimeline reconstructs the paper's
  /// power/QoS timeline from.  Per-frame clipped-pixel sampling is only
  /// paid when attached; same null-object contract as attachTelemetry.
  void attachTrace(telemetry::TraceRecorder& trace) noexcept;
  void detachTrace() noexcept;

 private:
  struct Telemetry {
    telemetry::Counter* streamsReceived = nullptr;
    telemetry::Counter* streamsUndecodable = nullptr;
    telemetry::Counter* framesShown = nullptr;
    telemetry::Counter* backlightSwitches = nullptr;
    telemetry::Counter* annotationFallbacks = nullptr;
    telemetry::Counter* trackMismatches = nullptr;
    telemetry::Counter* repairedScenes = nullptr;
    telemetry::Counter* damagedFrames = nullptr;
    telemetry::Counter* slewClampedFrames = nullptr;
  };

  ClientConfig cfg_;
  NetworkPath path_;
  Telemetry metrics_;
  telemetry::TraceRecorder* trace_ = nullptr;
};

}  // namespace anno::stream
