#include "stream/proxy.h"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "compensate/backend.h"
#include "stream/mux.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace anno::stream {

namespace {

std::string proxyQualityRangeMessage(const char* who, std::size_t requested,
                                     std::size_t available) {
  return std::string(who) + ": quality index " + std::to_string(requested) +
         " out of range: " + std::to_string(available) +
         " level(s) offered, valid indices [0, " +
         std::to_string(available == 0 ? 0 : available - 1) + "]";
}

}  // namespace

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

void ProxyNode::checkQualityIndex(const char* who,
                                  std::size_t requested) const {
  if (requested >= annotatorCfg_.qualityLevels.size()) {
    throw std::out_of_range(proxyQualityRangeMessage(
        who, requested, annotatorCfg_.qualityLevels.size()));
  }
}

ProxyNode::AnnotatedSource ProxyNode::annotateSource(
    std::span<const std::uint8_t> rawStream, int targetWidth,
    int targetHeight) const {
  const DemuxedStream in = demux(rawStream);
  if ((targetWidth == 0) != (targetHeight == 0)) {
    throw std::invalid_argument(
        "ProxyNode: specify both target dimensions or neither");
  }
  const bool resize = targetWidth > 0;

  AnnotatedSource out;
  out.track.clipName = in.video.name;
  out.track.fps = in.video.fps;
  out.track.frameCount = static_cast<std::uint32_t>(in.video.frames.size());
  out.track.granularity = annotatorCfg_.granularity;
  out.track.qualityLevels = annotatorCfg_.qualityLevels;
  out.track.backendKind = annotatorCfg_.backend.kind;
  out.track.spatialScale =
      annotatorCfg_.backend.kind == compensate::BackendKind::kSpatialScaling
          ? annotatorCfg_.backend.spatialScale
          : 1.0;
  out.base.name = in.video.name;
  out.base.fps = in.video.fps;
  out.base.frames.reserve(in.video.frames.size());

  // Decode incrementally, annotate causally -- the client-independent half
  // of a transcode, run exactly once no matter how many clients subscribe.
  OnlineAnnotator annotator(annotatorCfg_);
  std::vector<media::Image> decoded;
  decoded.reserve(resize ? in.video.frames.size() : 0);
  const auto emitScene = [&out](const core::SceneAnnotation& scene) {
    out.track.scenes.push_back(scene);
  };
  const double frameSeconds = in.video.fps > 0.0 ? 1.0 / in.video.fps : 0.0;
  std::size_t frameIndex = 0;
  for (const media::EncodedFrame& ef : in.video.frames) {
    telemetry::traceSetMediaTime(
        trace_, static_cast<double>(frameIndex++) * frameSeconds);
    const media::Image* ref =
        resize ? (decoded.empty() ? nullptr : &decoded.back())
               : (out.base.frames.empty() ? nullptr : &out.base.frames.back());
    media::Image frame =
        media::decodeFrame(ef, in.video.width, in.video.height, ref);
    if (resize) {
      // Keep the full-size frame as the P-frame reference; annotate and
      // forward the resampled one (luminance statistics are resolution-
      // invariant, so annotations remain valid -- tested).
      decoded.push_back(frame);
      media::Image scaled =
          media::resizeBilinear(frame, targetWidth, targetHeight);
      if (auto scene = annotator.push(media::profileFrame(scaled))) {
        emitScene(*scene);
      }
      out.base.frames.push_back(std::move(scaled));
      continue;
    }
    out.base.frames.push_back(std::move(frame));
    if (auto scene = annotator.push(media::profileFrame(out.base.frames.back()))) {
      emitScene(*scene);
    }
  }
  if (auto scene = annotator.flush()) emitScene(*scene);
  telemetry::traceClearMediaTime(trace_);
  telemetry::inc(metrics_.framesReannotated, out.base.frames.size());
  telemetry::inc(metrics_.scenesReannotated, out.track.scenes.size());
  core::validateTrack(out.track);
  return out;
}

std::vector<std::uint8_t> ProxyNode::renderForClient(
    const AnnotatedSource& source, const ClientCapabilities& caps) const {
  // Like the server: emissive clients must not receive brightened pixels.
  const media::EncodedClip encoded =
      caps.technology == DisplayTechnology::kBacklitLcd
          ? media::encodeClip(
                core::compensateClip(source.base, source.track,
                                     caps.qualityIndex,
                                     deviceFromCapabilities(caps),
                                     caps.minBacklightLevel),
                codecCfg_)
          : media::encodeClip(source.base, codecCfg_);
  return mux(encoded, &source.track);
}

std::vector<std::uint8_t> ProxyNode::transcode(
    std::span<const std::uint8_t> rawStream, const ClientCapabilities& caps,
    int targetWidth, int targetHeight) const {
  telemetry::inc(metrics_.transcodes);
  telemetry::Span transcodeSpan(metrics_.transcodeSeconds);
  telemetry::TraceSpan traceSpan(trace_, "transcode", "proxy");
  checkQualityIndex("ProxyNode::transcode", caps.qualityIndex);
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
    checkQualityIndex("ProxyNode::transcodeFanout", caps.qualityIndex);
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
  // Group subscribers by their exact negotiation bytes: identical devices
  // share one rendered stream, so per-client work scales with device
  // diversity, not audience size.  The key holds the bytes as a
  // std::string (same unsigned lexicographic order): a byte-vector key
  // trips a GCC 12 -Wstringop-overread false positive at -O3.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::vector<std::uint8_t> caps = encodeCapabilities(clients[i]);
    groups[std::string(caps.begin(), caps.end())].push_back(i);
  }
  for (const auto& [capsBytes, indices] : groups) {
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
