#include "stream/loss.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace anno::stream {

namespace {

/// Module-level instrument block, published atomically on attach so
/// concurrent delivery calls either see the whole block or none of it.
struct LossTelemetry {
  telemetry::Counter* videoPacketsLost = nullptr;
  telemetry::Counter* concealedFrames = nullptr;
  telemetry::Counter* annoPacketsLost = nullptr;
  telemetry::Counter* retransmits = nullptr;
  telemetry::Counter* nackRounds = nullptr;
  telemetry::Counter* erasures = nullptr;
};

std::atomic<const LossTelemetry*> g_lossTelemetry{nullptr};

const LossTelemetry* lossTelemetry() noexcept {
  return g_lossTelemetry.load(std::memory_order_acquire);
}

std::atomic<telemetry::TraceRecorder*> g_lossTrace{nullptr};

telemetry::TraceRecorder* lossTrace() noexcept {
  return g_lossTrace.load(std::memory_order_acquire);
}

}  // namespace

void attachLossTelemetry(telemetry::Registry& registry) {
  static LossTelemetry block;
  block.videoPacketsLost = &registry.counter(
      "anno_loss_video_packets_lost_total", {},
      "Video packets dropped by the lossy channel");
  block.concealedFrames = &registry.counter(
      "anno_loss_concealed_frames_total", {},
      "Frames concealed (repeated) because of loss or a broken P chain");
  block.annoPacketsLost = &registry.counter(
      "anno_loss_anno_packets_lost_total", {},
      "Annotation packet transmissions lost (any attempt, incl. retries)");
  block.retransmits = &registry.counter(
      "anno_loss_retransmits_total", {},
      "NACK-triggered annotation packet retransmissions");
  block.nackRounds = &registry.counter(
      "anno_loss_nack_rounds_total", {},
      "RTT rounds spent recovering annotation tracks via NACK");
  block.erasures = &registry.counter(
      "anno_loss_erasures_total", {},
      "Unrecovered annotation packet erasures (zero-filled spans handed to "
      "the lenient decoder for repair)");
  g_lossTelemetry.store(&block, std::memory_order_release);
}

void detachLossTelemetry() noexcept {
  g_lossTelemetry.store(nullptr, std::memory_order_release);
}

void attachLossTrace(telemetry::TraceRecorder& trace) noexcept {
  g_lossTrace.store(&trace, std::memory_order_release);
}

void detachLossTrace() noexcept {
  g_lossTrace.store(nullptr, std::memory_order_release);
}

std::vector<FrameDelivery> deliverFrames(const media::EncodedClip& clip,
                                         const Link& link,
                                         const LossyChannel& channel) {
  if (channel.packetLossProbability < 0.0 ||
      channel.packetLossProbability >= 1.0) {
    throw std::invalid_argument("deliverFrames: loss probability in [0,1)");
  }
  media::SplitMix64 rng(channel.seed);
  std::vector<FrameDelivery> deliveries;
  deliveries.reserve(clip.frames.size());
  for (const media::EncodedFrame& f : clip.frames) {
    FrameDelivery d;
    d.packetsSent = transferOverLink(link, f.sizeBytes()).packetCount;
    for (std::size_t p = 0; p < d.packetsSent; ++p) {
      if (rng.uniform() < channel.packetLossProbability) ++d.packetsLost;
    }
    d.intact = d.packetsLost == 0;
    deliveries.push_back(d);
  }
  if (const LossTelemetry* m = lossTelemetry()) {
    std::size_t lost = 0;
    for (const FrameDelivery& d : deliveries) lost += d.packetsLost;
    telemetry::inc(m->videoPacketsLost, lost);
  }
  return deliveries;
}

ConcealedPlayback decodeWithConcealment(
    const media::EncodedClip& clip,
    const std::vector<FrameDelivery>& deliveries) {
  if (deliveries.size() != clip.frames.size()) {
    throw std::invalid_argument(
        "decodeWithConcealment: delivery count != frame count");
  }
  if (clip.frames.empty()) {
    throw std::invalid_argument("decodeWithConcealment: empty clip");
  }
  ConcealedPlayback out;
  out.video.name = clip.name;
  out.video.fps = clip.fps;
  out.video.frames.reserve(clip.frames.size());

  // The decoder holds the last correctly decoded frame's planes, which P
  // frames chain off; `chainBroken` marks that decoding must wait for the
  // next intact I frame (the next scene cut or GOP start).  Concealment
  // shows the last displayed frame meanwhile.
  media::FrameDecoder decoder(clip.width, clip.height);
  bool haveReference = false;
  bool chainBroken = false;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const media::EncodedFrame& f = clip.frames[i];
    const bool decodable =
        deliveries[i].intact &&
        (f.intra || (haveReference && !chainBroken));
    if (decodable) {
      out.video.frames.push_back(decoder.decode(f));
      haveReference = true;
      chainBroken = false;
      ++out.intactFrames;
      continue;
    }
    // Frame unusable: break the P chain until the next intact I frame.
    chainBroken = true;
    ++out.concealedFrames;
    if (haveReference) {
      out.video.frames.push_back(out.video.frames.back());
    } else {
      // Nothing ever decoded: show black.
      out.video.frames.push_back(media::Image(clip.width, clip.height));
    }
  }
  if (const LossTelemetry* m = lossTelemetry()) {
    telemetry::inc(m->concealedFrames, out.concealedFrames);
  }
  return out;
}

AnnotationDelivery deliverAnnotationTrack(
    std::span<const std::uint8_t> trackBytes, const Link& link,
    const AnnotationDeliveryConfig& cfg) {
  if (cfg.channel.packetLossProbability < 0.0 ||
      cfg.channel.packetLossProbability >= 1.0) {
    throw std::invalid_argument(
        "deliverAnnotationTrack: loss probability in [0,1)");
  }
  AnnotationDelivery out;
  out.bytes.assign(trackBytes.begin(), trackBytes.end());
  if (trackBytes.empty()) {
    out.complete = true;
    return out;
  }

  const std::size_t payloadPerPacket =
      link.mtuBytes > kPacketHeaderBytes ? link.mtuBytes - kPacketHeaderBytes
                                         : 1;
  out.packetCount =
      (trackBytes.size() + payloadPerPacket - 1) / payloadPerPacket;

  // Base serialization + latency for the whole track on this hop.
  out.deliverySeconds = transferOverLink(link, trackBytes.size()).durationSeconds;

  media::SplitMix64 rng(cfg.channel.seed);
  const double secondsPerPacket =
      (static_cast<double>(payloadPerPacket + kPacketHeaderBytes) * 8.0) /
      link.bandwidthBitsPerSec;

  telemetry::TraceRecorder* const trace = lossTrace();
  std::size_t maxRoundsUsed = 0;
  for (std::size_t p = 0; p < out.packetCount; ++p) {
    ++out.packetsSent;
    bool arrived = rng.uniform() >= cfg.channel.packetLossProbability;
    if (!arrived) ++out.packetsLost;
    std::size_t rounds = 0;
    while (!arrived && cfg.nackEnabled && rounds < kMaxAnnotationRetransmits) {
      ++rounds;
      ++out.packetsSent;
      ++out.retransmits;
      out.deliverySeconds += secondsPerPacket;
      telemetry::traceInstant(trace, "nack_round", "loss",
                              {{"packet", static_cast<double>(p)},
                               {"round", static_cast<double>(rounds)}});
      arrived = rng.uniform() >= cfg.channel.packetLossProbability;
      if (!arrived) ++out.packetsLost;
    }
    maxRoundsUsed = std::max(maxRoundsUsed, rounds);
    if (!arrived) {
      // Unrecovered: known-length erasure (zero-filled, framing preserved).
      const std::size_t offset = p * payloadPerPacket;
      const std::size_t len =
          std::min(payloadPerPacket, trackBytes.size() - offset);
      std::fill_n(out.bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                  len, std::uint8_t{0});
      out.erasedSpans.emplace_back(offset, len);
      telemetry::traceInstant(trace, "erasure", "loss",
                              {{"offset", static_cast<double>(offset)},
                               {"length", static_cast<double>(len)}});
    }
  }
  // NACK rounds overlap across packets (the client NACKs every missing
  // sequence number at once), so recovery costs max-rounds RTTs, not
  // per-packet RTTs.
  out.nackRounds = maxRoundsUsed;
  out.deliverySeconds += static_cast<double>(maxRoundsUsed) * kNackRttSeconds;
  out.complete = out.erasedSpans.empty();
  if (const LossTelemetry* m = lossTelemetry()) {
    telemetry::inc(m->annoPacketsLost, out.packetsLost);
    telemetry::inc(m->retransmits, out.retransmits);
    telemetry::inc(m->nackRounds, out.nackRounds);
    telemetry::inc(m->erasures, out.erasedSpans.size());
  }
  telemetry::traceInstant(
      trace, "anno_delivery", "loss",
      {{"packets", static_cast<double>(out.packetCount)},
       {"retransmits", static_cast<double>(out.retransmits)},
       {"rounds", static_cast<double>(out.nackRounds)}});
  return out;
}

}  // namespace anno::stream
