#include "soak/harness.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "concurrency/thread_pool.h"
#include "core/anno_codec.h"
#include "core/annotate.h"
#include "core/engine_metrics.h"
#include "fault/inject.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "power/power.h"
#include "stream/client.h"
#include "stream/loss.h"
#include "stream/mux.h"
#include "stream/proxy.h"
#include "stream/server.h"
#include "stream/session_sim.h"

namespace anno::soak {

void runCannedWorkload(const HarnessOptions& opts) {
  const bool allArms = !opts.singleSession;
  if (opts.registry != nullptr) {
    core::attachCodecTelemetry(*opts.registry);
    concurrency::attachPoolTelemetry(*opts.registry);
    stream::attachLossTelemetry(*opts.registry);
    fault::attachFaultTelemetry(*opts.registry);
  }
  if (opts.trace != nullptr) {
    concurrency::attachPoolTrace(*opts.trace);
    stream::attachLossTrace(*opts.trace);
  }

  std::optional<core::EngineTelemetry> engineObserver;
  core::AnnotatorConfig annotatorCfg;
  annotatorCfg.threads = opts.threads;
  if (opts.registry != nullptr) {
    engineObserver.emplace(*opts.registry);
    annotatorCfg.observer = &*engineObserver;
  }
  annotatorCfg.trace = opts.trace;

  // Server ingest: the primary clip always; the proxy's second clip only
  // when the workload wants a two-clip catalog.
  stream::MediaServer server(annotatorCfg);
  if (opts.registry != nullptr) server.attachTelemetry(*opts.registry);
  if (opts.trace != nullptr) server.attachTrace(*opts.trace);
  media::VideoClip movie =
      media::generatePaperClip(media::PaperClip::kTheMovie, 0.06, 64, 48);
  const std::string movieName = movie.name;
  const media::VideoClip original = movie;
  std::vector<media::VideoClip> ingest;
  ingest.push_back(std::move(movie));
  std::string proxyClipName = movieName;
  if (allArms) {
    media::VideoClip cartoon =
        media::generatePaperClip(media::PaperClip::kShrek2, 0.06, 64, 48);
    proxyClipName = cartoon.name;
    ingest.push_back(std::move(cartoon));
  }
  server.addClips(std::move(ingest));

  const power::MobileDevicePower pda = power::makeIpaq5555Power();
  stream::ClientConfig clientCfg{pda.displayDevice(), /*qualityIndex=*/1,
                                 /*minBacklightLevel=*/10};
  stream::ClientSession client(clientCfg, stream::makeReferencePath());
  if (opts.registry != nullptr) client.attachTelemetry(*opts.registry);
  if (opts.trace != nullptr) client.attachTrace(*opts.trace);

  // Server path, twice with identical negotiation: miss then cache hit.
  const auto served = server.serve(movieName, client.capabilities());
  (void)server.serve(movieName, client.capabilities());
  (void)client.receive(served);

  // Proxy path: a raw (legacy) stream re-annotated on the fly.
  stream::ProxyNode proxy(annotatorCfg);
  if (opts.registry != nullptr) proxy.attachTelemetry(*opts.registry);
  if (opts.trace != nullptr) proxy.attachTrace(*opts.trace);
  const auto transcoded =
      proxy.transcode(server.serveRaw(proxyClipName), client.capabilities());
  if (allArms) (void)client.receive(transcoded);

  // The track the lossy annotation hop carries: per-frame granularity spans
  // dozens of tiny-MTU packets (the interesting erasure case); the default
  // per-scene track keeps single-clip traces lean.
  const std::vector<std::uint8_t> hopTrackBytes = [&] {
    if (!allArms) {
      return core::encodeTrack(server.entry(movieName).track);
    }
    core::AnnotatorConfig perFrameCfg = annotatorCfg;
    perFrameCfg.granularity = core::Granularity::kPerFrame;
    return core::encodeTrack(core::annotateClip(original, perFrameCfg));
  }();

  fault::InjectorConfig faultCfg;
  faultCfg.maxMutations = 6;
  if (allArms) {
    // Damaged streams: every mutated buffer into the client, which must
    // degrade (fallback, repairs, slew clamps, or ok == false), never throw.
    fault::runCorpus(served, /*masterSeed=*/0x51, /*count=*/8, faultCfg,
                     [&client](std::span<const std::uint8_t> mutated,
                               const fault::InjectionPlan&,
                               const fault::InjectionReport&) {
                       (void)client.receive(mutated);
                     });

    // Annotation-targeted damage: bit flips in the track's back half damage
    // SOME scene-group chunks while the header and earlier groups survive,
    // reliably exercising the client's partial-repair path (full-backlight
    // spans next to real scenes, slew clamps at the boundaries).
    core::AnnotatorConfig perFrameCfg = annotatorCfg;
    perFrameCfg.granularity = core::Granularity::kPerFrame;
    const core::AnnotationTrack perFrameTrack =
        core::annotateClip(original, perFrameCfg);
    const std::vector<std::uint8_t> perFrameBytes =
        core::encodeTrack(perFrameTrack);
    std::vector<std::uint8_t> bytes =
        stream::mux(media::encodeClip(original), &perFrameTrack);
    const auto trackPos =
        std::search(bytes.begin(), bytes.end(), perFrameBytes.begin(),
                    perFrameBytes.end());
    if (trackPos != bytes.end()) {
      const auto base = static_cast<std::size_t>(trackPos - bytes.begin());
      fault::InjectionPlan annoPlan;
      annoPlan.seed = 0xA110;
      for (std::size_t i = 5; i <= 7; ++i) {
        fault::Mutation m;
        m.kind = fault::MutationKind::kBitFlip;
        m.offset = base + (i * perFrameBytes.size()) / 8;
        m.value = 2;
        annoPlan.mutations.push_back(m);
      }
      bytes = fault::applyPlan(bytes, annoPlan);
    }
    (void)client.receive(bytes);

    // A client asking for a quality level the track does not carry must
    // fall back (annotations present but unusable).
    stream::ClientConfig mismatchCfg = clientCfg;
    mismatchCfg.qualityIndex = 9;
    stream::ClientSession mismatchClient(mismatchCfg,
                                         stream::makeReferencePath());
    if (opts.registry != nullptr) mismatchClient.attachTelemetry(*opts.registry);
    (void)mismatchClient.receive(served);

    // Packetized video delivery + concealment over a lossy 802.11b hop.
    const media::EncodedClip encoded = media::encodeClip(original);
    const stream::Link wireless{"802.11b", 11e6, 0.002, 1500};
    const stream::LossyChannel channel{/*packetLossProbability=*/0.08,
                                       /*seed=*/0x7};
    const auto deliveries = stream::deliverFrames(encoded, wireless, channel);
    (void)stream::decodeWithConcealment(encoded, deliveries);
  }

  // Annotation track over a tiny-MTU hop: erasures without NACK (the lost
  // bytes exercise the lenient decoder's repairs), then recovery with NACK.
  const stream::Link tinyMtu{"802.11b-frag", 11e6, 0.002,
                             /*mtuBytes=*/stream::kPacketHeaderBytes + 24};
  stream::AnnotationDeliveryConfig lossyCfg;
  lossyCfg.channel = {/*packetLossProbability=*/0.30, /*seed=*/0x11};
  if (allArms) {
    const auto erased =
        stream::deliverAnnotationTrack(hopTrackBytes, tinyMtu, lossyCfg);
    (void)core::decodeTrackLenient(erased.bytes);
  }
  lossyCfg.nackEnabled = true;
  (void)stream::deliverAnnotationTrack(hopTrackBytes, tinyMtu, lossyCfg);

  if (allArms) {
    // Corpus over the encoded track: every mutated buffer must decode
    // leniently (the fault suite's contract).
    fault::runCorpus(hopTrackBytes, /*masterSeed=*/0xC0FFEE, /*count=*/8,
                     faultCfg,
                     [](std::span<const std::uint8_t> mutated,
                        const fault::InjectionPlan&,
                        const fault::InjectionReport&) {
                       (void)core::decodeTrackLenient(mutated);
                     });
  }

  // Playback over a link carrying ~60% of the stream bitrate, so the
  // session provably stalls (rebuffer spans + buffer_seconds samples).
  const media::EncodedClip encoded = media::encodeClip(original);
  const stream::Link wifi = stream::makeReferencePath().lastHop();
  const double bitrate = static_cast<double>(encoded.totalBytes()) * 8.0 /
                         original.durationSeconds();
  stream::SessionSimConfig simCfg;
  simCfg.startupBufferSeconds = 0.25;
  simCfg.bufferCapacitySeconds = 1.0;
  simCfg.trace = opts.trace;
  (void)stream::simulateSession(
      encoded, wifi, stream::BandwidthTrace::constant(bitrate * 0.6), simCfg);

  if (opts.registry != nullptr) {
    core::detachCodecTelemetry();
    concurrency::detachPoolTelemetry();
    stream::detachLossTelemetry();
    fault::detachFaultTelemetry();
  }
  if (opts.trace != nullptr) {
    concurrency::detachPoolTrace();
    stream::detachLossTrace();
  }
}

}  // namespace anno::soak
