// Proxy node: annotation + compensation of a raw stream for each client.
//
// Paper Fig. 1 / Sec. 3: "The communication between the handheld device and
// the server can be routed through a proxy node -- a high-end machine with
// the ability to process the video stream in real-time, on-the-fly (example
// in videoconferencing). Note that for our scheme either the proxy or the
// server node suffices."
//
// So the proxy runs the server's pipeline on decoded input: demux and
// decode the raw stream, optionally resample every frame, profile, run the
// annotation engine once (core::annotate -- the same causal pass the
// server's ingest runs), then per client encodeForClient + mux, exactly as
// MediaServer::openStream does.  A transcode is whole-clip: it returns
// once every frame is annotated and encoded.  Bounded annotation latency
// for live input is the engine's (core::AnnotationEngine, annotateStats'
// maxLatencyFrames), not something this node adds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotate.h"
#include "core/engine.h"
#include "media/codec.h"
#include "stream/server.h"

namespace anno::telemetry {
class Registry;
class Counter;
class Histogram;
class TraceRecorder;
}

namespace anno::stream {

/// The streaming-side causal annotator is exactly the core annotation
/// engine -- push per-frame stats, receive finished scenes -- for live
/// callers that push frames themselves.  See core/engine.h for the
/// push/flush contract and the maxLatencyFrames live-video bound.
using OnlineAnnotator = core::AnnotationEngine;

/// Result of one fan-out run: per-client streams plus the sharing ledger
/// the fleet bench reports against.
struct FanoutResult {
  /// Muxed streams, index-parallel to the `clients` span.  Byte-identical
  /// to calling transcode() per client (pinned in tests/fleet).
  std::vector<std::vector<std::uint8_t>> streams;
  std::size_t enginePasses = 0;   ///< causal annotation passes run (== 1)
  std::size_t uniqueRenders = 0;  ///< distinct capability groups rendered
  std::size_t frames = 0;         ///< frames decoded+annotated (once, shared)
  std::size_t scenes = 0;         ///< scenes the shared pass closed
};

/// The proxy: consumes a raw muxed stream, produces an annotated +
/// compensated muxed stream for the negotiated client.
class ProxyNode {
 public:
  explicit ProxyNode(core::AnnotatorConfig annotatorCfg = {},
                     media::CodecConfig codecCfg = {});

  /// Transcodes `rawStream` (video-only container from serveRaw) into an
  /// annotated, compensated container for `caps`.  When `targetWidth` /
  /// `targetHeight` are nonzero, frames are also resampled to that
  /// resolution -- the data-shaping role of the Fig. 1 proxy for clients
  /// with smaller screens (smaller frames also shrink the stream and the
  /// client's decode workload).
  [[nodiscard]] std::vector<std::uint8_t> transcode(
      std::span<const std::uint8_t> rawStream, const ClientCapabilities& caps,
      int targetWidth = 0, int targetHeight = 0) const;

  /// Fan-out (Fig. 1 proxy serving N subscribed clients of ONE source
  /// stream, e.g. a videoconference): decode + causal scene detection +
  /// planning run ONCE, then each client gets only its device-specific
  /// compensation + encode + mux.  Clients that negotiated identical
  /// capability bytes share a single rendered stream (grouped by the
  /// node's CapsTable; uniqueRenders counts the distinct groups), so fleet
  /// cost scales with device diversity, not audience size.  Each returned
  /// stream is byte-identical to a standalone
  /// transcode(rawStream, clients[i], ...) call.
  [[nodiscard]] FanoutResult transcodeFanout(
      std::span<const std::uint8_t> rawStream,
      std::span<const ClientCapabilities> clients, int targetWidth = 0,
      int targetHeight = 0) const;

  /// Registers proxy instruments in `registry` and starts recording:
  ///   anno_proxy_transcodes_total, anno_proxy_frames_reannotated_total,
  ///   anno_proxy_scenes_reannotated_total, anno_proxy_transcode_seconds,
  ///   anno_proxy_fanouts_total, anno_proxy_fanout_clients_total,
  ///   anno_proxy_fanout_shared_renders_total (clients served from another
  ///   client's identical render).
  /// Every transcode() run is one per-client re-annotation of the source
  /// stream -- the fan-out cost signal the ROADMAP's shared-engine-pass
  /// item wants to drive down.  Detached by default (zero recording cost).
  void attachTelemetry(telemetry::Registry& registry);
  void detachTelemetry() noexcept;

  /// Starts emitting trace spans (cat "proxy"): `transcode` and `fanout`
  /// around each run, carrying clip name, frame and scene counts.  The
  /// engine pass inside additionally emits its scene spans into the same
  /// recorder, stamped with the media clock per frame.  Same null-object
  /// contract as attachTelemetry.
  void attachTrace(telemetry::TraceRecorder& trace) noexcept;
  void detachTrace() noexcept;

 private:
  struct Telemetry {
    telemetry::Counter* transcodes = nullptr;
    telemetry::Counter* framesReannotated = nullptr;
    telemetry::Counter* scenesReannotated = nullptr;
    telemetry::Histogram* transcodeSeconds = nullptr;
    telemetry::Counter* fanouts = nullptr;
    telemetry::Counter* fanoutClients = nullptr;
    telemetry::Counter* fanoutSharedRenders = nullptr;
  };

  /// One decoded + causally annotated source: everything client-independent.
  struct AnnotatedSource {
    media::VideoClip base;        ///< decoded (and, if requested, resized)
    core::AnnotationTrack track;  ///< the single shared engine pass's output
  };

  /// Runs the shared half of a transcode: demux, decode, optional
  /// resampling, profile, annotate.  Exactly one engine pass.
  [[nodiscard]] AnnotatedSource annotateSource(
      std::span<const std::uint8_t> rawStream, int targetWidth,
      int targetHeight) const;

  /// Runs the per-client half: encodeForClient (the server's policy), mux.
  [[nodiscard]] std::vector<std::uint8_t> renderForClient(
      const AnnotatedSource& source, const ClientCapabilities& caps) const;

  core::AnnotatorConfig annotatorCfg_;
  media::CodecConfig codecCfg_;
  Telemetry metrics_;
  telemetry::TraceRecorder* trace_ = nullptr;
  mutable CapsTable capsTable_;  ///< thread-safe; fan-outs are const
};

}  // namespace anno::stream
