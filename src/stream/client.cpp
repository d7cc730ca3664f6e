#include "stream/client.h"

#include <utility>

#include "compensate/compensate.h"
#include "media/histogram.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace anno::stream {

ClientSession::ClientSession(ClientConfig cfg, NetworkPath path)
    : cfg_(std::move(cfg)), path_(std::move(path)) {}

void ClientSession::attachTelemetry(telemetry::Registry& registry) {
  metrics_.streamsReceived = &registry.counter(
      "anno_client_streams_received_total", {},
      "Muxed streams handed to receive()");
  metrics_.streamsUndecodable = &registry.counter(
      "anno_client_streams_undecodable_total", {},
      "Streams whose container or video section was unplayable (ok == false)");
  metrics_.framesShown = &registry.counter(
      "anno_client_frames_shown_total", {},
      "Frames decoded for playback across received streams");
  metrics_.backlightSwitches = &registry.counter(
      "anno_client_backlight_switches_total", {},
      "Backlight level changes programmed during playback (flicker proxy)");
  metrics_.annotationFallbacks = &registry.counter(
      "anno_client_annotation_fallback_total", {},
      "Sessions that fell back (at least partly) to full backlight");
  metrics_.trackMismatches = &registry.counter(
      "anno_client_track_mismatch_total", {},
      "Streams whose annotations were present but unusable for this "
      "negotiation (quality index out of range or frame-count mismatch)");
  metrics_.repairedScenes = &registry.counter(
      "anno_client_repaired_scenes_total", {},
      "Full-backlight repair scenes synthesized for damaged annotation spans");
  metrics_.damagedFrames = &registry.counter(
      "anno_client_damaged_frames_total", {},
      "Frames whose annotations were lost to damage");
  metrics_.slewClampedFrames = &registry.counter(
      "anno_client_slew_clamped_frames_total", {},
      "Frames whose backlight level the slew-rate limiter had to raise");
}

void ClientSession::detachTelemetry() noexcept { metrics_ = Telemetry{}; }

void ClientSession::attachTrace(telemetry::TraceRecorder& trace) noexcept {
  trace_ = &trace;
}

void ClientSession::detachTrace() noexcept { trace_ = nullptr; }

ClientCapabilities ClientSession::capabilities() const {
  ClientCapabilities caps{cfg_.device.name, cfg_.device.transfer,
                          cfg_.qualityIndex};
  caps.minBacklightLevel = cfg_.minBacklightLevel;
  return caps;
}

ReceivedStream ClientSession::receive(
    std::span<const std::uint8_t> muxedBytes) const {
  telemetry::inc(metrics_.streamsReceived);
  telemetry::TraceSpan traceSpan(
      trace_, "receive", "client",
      {{"stream_bytes", static_cast<double>(muxedBytes.size())}});
  ReceivedStream out;
  out.streamBytes = muxedBytes.size();
  out.network = path_.transfer(muxedBytes.size());

  DemuxedStream demuxed;
  try {
    demuxed = demux(muxedBytes);
    out.video = media::decodeClip(demuxed.video);
  } catch (const std::exception& e) {
    // Container or video section unrecoverable: nothing to play.  Still no
    // exception -- a streaming client must survive arbitrary bytes.
    out.error = e.what();
    telemetry::inc(metrics_.streamsUndecodable);
    telemetry::traceInstant(
        trace_, "undecodable", "client", {}, "error",
        trace_ != nullptr ? trace_->intern(out.error) : nullptr);
    return out;
  }
  out.ok = true;
  out.complexity = std::move(demuxed.complexity);
  out.sketches = std::move(demuxed.sketches);
  out.damage = demuxed.annotationDamage;

  const auto frameCount = static_cast<std::uint32_t>(out.video.frames.size());
  const bool trackUsable =
      demuxed.annotations.has_value() &&
      cfg_.qualityIndex < demuxed.annotations->qualityLevels.size() &&
      demuxed.annotations->frameCount == frameCount;
  if (demuxed.annotations.has_value() && !trackUsable) {
    telemetry::inc(metrics_.trackMismatches);
    telemetry::traceInstant(trace_, "track_mismatch", "client");
  }
  if (trackUsable) {
    out.track = std::move(*demuxed.annotations);
    out.annotationFallback = !out.damage.intact();
    out.schedule = core::buildSchedule(out.track, cfg_.qualityIndex,
                                       cfg_.device, cfg_.minBacklightLevel);
  } else {
    // No annotations, a damaged-beyond-repair track, or a negotiation
    // mismatch (quality index / frame count): the client cannot invent safe
    // backlight levels, so it runs the non-annotated baseline.
    out.annotationFallback = true;
    out.schedule = core::fullBacklightSchedule(frameCount);
  }
  if (out.annotationFallback) {
    // Repair/fallback transitions are not scene-merged like an intact
    // schedule; bound the per-frame delta so they cannot flicker.
    out.schedule = core::limitSlewRate(out.schedule, kMaxBacklightDeltaPerFrame,
                                       &out.slewClampedFrames);
    telemetry::inc(metrics_.annotationFallbacks);
    telemetry::traceInstant(trace_, "annotation_fallback", "client");
    if (out.slewClampedFrames > 0) {
      telemetry::traceInstant(
          trace_, "slew_clamp", "client",
          {{"frames", static_cast<double>(out.slewClampedFrames)}});
    }
  }
  // Surface what the lenient decode repaired instead of discarding it: how
  // much of the track was synthesized, and how much playback that covers.
  telemetry::inc(metrics_.repairedScenes, out.damage.repairedSpans.size());
  telemetry::inc(metrics_.damagedFrames, out.damage.damagedFrames);
  telemetry::inc(metrics_.slewClampedFrames, out.slewClampedFrames);
  telemetry::inc(metrics_.framesShown, frameCount);
  telemetry::inc(metrics_.backlightSwitches, out.schedule.switchCount());

  if (trace_ != nullptr) {
    // The semantic event vocabulary SessionTimeline reconstructs from
    // (DESIGN.md §11): session identity, the backlight plan as switch
    // instants on the media clock, and per-frame clipped-pixel samples
    // (an O(pixels) scan paid only when a recorder is attached).
    const double quality =
        trackUsable && cfg_.qualityIndex < out.track.qualityLevels.size()
            ? out.track.qualityLevels[cfg_.qualityIndex]
            : 0.0;
    trace_->metadata("session", "client",
                     {{"frames", static_cast<double>(frameCount)},
                      {"fps", out.video.fps},
                      {"quality", quality}},
                     "clip", trace_->intern(out.video.name));
    if (trackUsable) {
      trace_->metadata(
          "backend", "client",
          {{"kind", static_cast<double>(out.track.backendKind)},
           {"spatial_scale", out.track.spatialScale}},
          "name",
          trace_->intern(compensate::backendName(out.track.backendKind)));
    }
    trace_->metadata("device", "client",
                     {{"min_backlight",
                       static_cast<double>(cfg_.minBacklightLevel)}},
                     "name", trace_->intern(cfg_.device.name));
    const double frameSeconds =
        out.video.fps > 0.0 ? 1.0 / out.video.fps : 0.0;
    for (const core::BacklightCommand& cmd : out.schedule.commands) {
      trace_->setMediaTime(static_cast<double>(cmd.frame) * frameSeconds);
      trace_->instant("backlight_switch", "client",
                      {{"frame", static_cast<double>(cmd.frame)},
                       {"level", static_cast<double>(cmd.level)},
                       {"gain_k", cmd.gainK}});
    }
    for (std::uint32_t f = 0; f < frameCount; ++f) {
      trace_->setMediaTime(static_cast<double>(f) * frameSeconds);
      // Max-channel histogram + O(256) threshold query: exactly the value
      // the old per-pixel clipsWhenScaled walk produced, one SIMD-friendly
      // byte pass instead of a double predicate per pixel.
      trace_->counter("clipped_fraction", "client",
                      compensate::clippedFraction(
                          media::Histogram::ofMaxChannel(out.video.frames[f]),
                          1.0));
    }
    trace_->clearMediaTime();
    traceSpan.end(
        {{"frames", static_cast<double>(frameCount)},
         {"switches", static_cast<double>(out.schedule.switchCount())},
         {"fallback", out.annotationFallback ? 1.0 : 0.0}},
        "clip", trace_->intern(out.video.name));
  }
  return out;
}

}  // namespace anno::stream
