#include "stream/proxy.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "stream/mux.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace anno::stream {

ProxyNode::ProxyNode(core::AnnotatorConfig annotatorCfg,
                     media::CodecConfig codecCfg)
    : annotatorCfg_(std::move(annotatorCfg)), codecCfg_(codecCfg) {}

void ProxyNode::attachTelemetry(telemetry::Registry& registry) {
  metrics_.transcodes = &registry.counter(
      "anno_proxy_transcodes_total", {},
      "Raw streams annotated + compensated on the fly");
  metrics_.framesReannotated = &registry.counter(
      "anno_proxy_frames_reannotated_total", {},
      "Frames pushed through the causal annotator during transcodes");
  metrics_.scenesReannotated = &registry.counter(
      "anno_proxy_scenes_reannotated_total", {},
      "Scenes the causal annotator closed during transcodes");
  metrics_.transcodeSeconds = &registry.histogram(
      "anno_proxy_transcode_seconds", telemetry::secondsBuckets(), {},
      "Wall time of one transcode (decode + annotate + compensate + mux)");
  metrics_.fanouts = &registry.counter(
      "anno_proxy_fanouts_total", {},
      "Fan-out runs (one shared engine pass serving N clients)");
  metrics_.fanoutClients = &registry.counter(
      "anno_proxy_fanout_clients_total", {},
      "Client streams produced across fan-out runs");
  metrics_.fanoutSharedRenders = &registry.counter(
      "anno_proxy_fanout_shared_renders_total", {},
      "Fan-out clients served from another client's identical render");
}

void ProxyNode::detachTelemetry() noexcept { metrics_ = Telemetry{}; }

void ProxyNode::attachTrace(telemetry::TraceRecorder& trace) noexcept {
  trace_ = &trace;
  annotatorCfg_.trace = &trace;  // the causal annotator shares the recorder
}

void ProxyNode::detachTrace() noexcept {
  trace_ = nullptr;
  annotatorCfg_.trace = nullptr;
}

ProxyNode::AnnotatedSource ProxyNode::annotateSource(
    std::span<const std::uint8_t> rawStream, int targetWidth,
    int targetHeight) const {
  if ((targetWidth == 0) != (targetHeight == 0)) {
    throw std::invalid_argument(
        "ProxyNode: specify both target dimensions or neither");
  }
  AnnotatedSource out;
  out.base = media::decodeClip(demux(rawStream).video);
  if (targetWidth > 0) {
    // Luminance statistics are resolution-invariant, so the resampled
    // frames annotate like the full-size ones (tested).
    for (media::Image& frame : out.base.frames) {
      frame = media::resizeBilinear(frame, targetWidth, targetHeight);
    }
  }
  out.track = core::annotate(out.base.name, out.base.fps,
                             media::profileClip(out.base), annotatorCfg_);
  telemetry::inc(metrics_.framesReannotated, out.base.frames.size());
  telemetry::inc(metrics_.scenesReannotated, out.track.scenes.size());
  return out;
}

std::vector<std::uint8_t> ProxyNode::renderForClient(
    const AnnotatedSource& source, const ClientCapabilities& caps) const {
  return mux(encodeForClient(source.base, source.track, caps, codecCfg_),
             &source.track);
}

std::vector<std::uint8_t> ProxyNode::transcode(
    std::span<const std::uint8_t> rawStream, const ClientCapabilities& caps,
    int targetWidth, int targetHeight) const {
  telemetry::inc(metrics_.transcodes);
  telemetry::Span transcodeSpan(metrics_.transcodeSeconds);
  telemetry::TraceSpan traceSpan(trace_, "transcode", "proxy");
  checkQualityIndex("ProxyNode::transcode", caps.qualityIndex,
                    annotatorCfg_.qualityLevels.size());
  const AnnotatedSource source =
      annotateSource(rawStream, targetWidth, targetHeight);
  std::vector<std::uint8_t> bytes = renderForClient(source, caps);
  traceSpan.end(
      {{"frames", static_cast<double>(source.base.frames.size())},
       {"scenes", static_cast<double>(source.track.scenes.size())},
       {"backend", static_cast<double>(source.track.backendKind)}},
      "clip",
      trace_ != nullptr ? trace_->intern(source.base.name) : nullptr);
  return bytes;
}

FanoutResult ProxyNode::transcodeFanout(
    std::span<const std::uint8_t> rawStream,
    std::span<const ClientCapabilities> clients, int targetWidth,
    int targetHeight) const {
  telemetry::inc(metrics_.fanouts);
  telemetry::inc(metrics_.fanoutClients, clients.size());
  telemetry::Span transcodeSpan(metrics_.transcodeSeconds);
  telemetry::TraceSpan traceSpan(trace_, "fanout", "proxy");
  // Validate every subscriber before paying for the shared pass.
  for (const ClientCapabilities& caps : clients) {
    checkQualityIndex("ProxyNode::transcodeFanout", caps.qualityIndex,
                      annotatorCfg_.qualityLevels.size());
  }
  FanoutResult result;
  result.streams.resize(clients.size());
  if (clients.empty()) {
    traceSpan.end({{"clients", 0.0}});
    return result;
  }
  const AnnotatedSource source =
      annotateSource(rawStream, targetWidth, targetHeight);
  result.enginePasses = 1;
  result.frames = source.base.frames.size();
  result.scenes = source.track.scenes.size();
  // Group subscribers by interned capabilities (equal ids == equal
  // negotiation bytes): identical devices share one rendered stream, so
  // per-client work scales with device diversity, not audience size.
  std::map<CapsId, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    groups[capsTable_.intern(clients[i])].push_back(i);
  }
  for (const auto& [capsId, indices] : groups) {
    std::vector<std::uint8_t> bytes =
        renderForClient(source, clients[indices.front()]);
    for (std::size_t j = 1; j < indices.size(); ++j) {
      result.streams[indices[j]] = bytes;
    }
    result.streams[indices.front()] = std::move(bytes);
    telemetry::inc(metrics_.fanoutSharedRenders, indices.size() - 1);
  }
  result.uniqueRenders = groups.size();
  traceSpan.end(
      {{"clients", static_cast<double>(clients.size())},
       {"unique_renders", static_cast<double>(result.uniqueRenders)},
       {"frames", static_cast<double>(result.frames)},
       {"scenes", static_cast<double>(result.scenes)},
       {"backend", static_cast<double>(source.track.backendKind)}},
      "clip",
      trace_ != nullptr ? trace_->intern(source.base.name) : nullptr);
  return result;
}

}  // namespace anno::stream
