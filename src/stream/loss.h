// Lossy-channel model and client-side error concealment.
//
// The paper's wireless hop (802.11b to a PDA) drops packets in practice;
// a lost packet kills its frame, and with inter (P) coding the damage
// propagates until the next I frame.  The client conceals by repeating the
// last good frame.  This module quantifies the robustness-vs-compression
// trade GOP length makes -- context for choosing the codec settings the
// annotation stream rides on (cf. the authors' later error-resilient
// encoding work, PBPAIR/EAVE).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "media/codec.h"
#include "media/rng.h"
#include "stream/net.h"

namespace anno::telemetry {
class Registry;
class TraceRecorder;
}

namespace anno::stream {

/// Registers loss/NACK instruments in `registry` and starts recording from
/// every delivery/concealment call in the process (the functions in this
/// header are free functions, so attachment is module-level):
///   anno_loss_video_packets_lost_total, anno_loss_concealed_frames_total,
///   anno_loss_anno_packets_lost_total, anno_loss_retransmits_total,
///   anno_loss_nack_rounds_total, anno_loss_erasures_total.
/// Detached by default; detach restores zero recording cost.
void attachLossTelemetry(telemetry::Registry& registry);
void detachLossTelemetry() noexcept;

/// Starts emitting trace events (cat "loss") from every
/// deliverAnnotationTrack call in the process: one `nack_round` instant per
/// RTT spent recovering, one `erasure` instant per unrecovered span, and an
/// `anno_delivery` summary instant (packets/retransmits/rounds).  Module-
/// level like attachLossTelemetry (these are free functions); the recorder
/// must outlive attachment.  Detach restores zero recording cost.
void attachLossTrace(telemetry::TraceRecorder& trace) noexcept;
void detachLossTrace() noexcept;

/// Bernoulli packet-loss channel (independent losses, deterministic seed).
struct LossyChannel {
  double packetLossProbability = 0.0;
  std::uint64_t seed = 0x105;
};

/// Delivery outcome for one frame.
struct FrameDelivery {
  bool intact = true;        ///< all packets arrived
  std::size_t packetsSent = 0;
  std::size_t packetsLost = 0;
};

/// Simulates packetized delivery of each encoded frame over `link` through
/// `channel`.  A frame is intact only if every one of its packets arrives.
[[nodiscard]] std::vector<FrameDelivery> deliverFrames(
    const media::EncodedClip& clip, const Link& link,
    const LossyChannel& channel);

/// Decodes what arrived, with concealment: a damaged frame -- or any
/// P frame whose reference chain is broken -- repeats the previous
/// displayed frame; a fresh I frame resynchronizes.
/// Returns the displayed sequence (same frame count as the clip) plus the
/// count of frames that had to be concealed.
struct ConcealedPlayback {
  media::VideoClip video;
  std::size_t concealedFrames = 0;
  std::size_t intactFrames = 0;
};

[[nodiscard]] ConcealedPlayback decodeWithConcealment(
    const media::EncodedClip& clip,
    const std::vector<FrameDelivery>& deliveries);

// ---------------------------------------------------------------------------
// Annotation-packet delivery with optional NACK/retransmit.
//
// The annotation track is hundreds of bytes -- a handful of packets -- so
// unlike video it is cheaply recoverable: the client NACKs a missing packet
// and the server retransmits it within one RTT.  Without NACK, a lost packet
// becomes a known-length erasure (the client knows the sequence numbers that
// never arrived), which the resilient ANN1 framing turns into per-chunk
// damage that decodeTrackLenient repairs with full-backlight spans.
// ---------------------------------------------------------------------------

/// Per-packet NACK retry budget.
inline constexpr std::size_t kMaxAnnotationRetransmits = 8;
/// One NACK round trip (detect + resend).
inline constexpr double kNackRttSeconds = 0.05;

/// Delivery policy for the annotation track.
struct AnnotationDeliveryConfig {
  LossyChannel channel;       ///< loss process for annotation packets
  bool nackEnabled = false;   ///< retransmit lost packets
};

/// Outcome of delivering one serialized annotation track.
struct AnnotationDelivery {
  /// Received payload, same length as the input: packets that never arrived
  /// are zero-filled erasures (sequence numbers make the holes known), so
  /// downstream framing stays byte-aligned and CRC catches the damage.
  std::vector<std::uint8_t> bytes;
  bool complete = false;          ///< every packet eventually arrived
  std::size_t packetCount = 0;    ///< distinct packets in the track
  std::size_t packetsSent = 0;    ///< transmissions incl. retransmits
  std::size_t packetsLost = 0;    ///< lost transmissions (any attempt)
  std::size_t retransmits = 0;    ///< NACK-triggered resends
  std::size_t nackRounds = 0;     ///< RTTs spent recovering
  double deliverySeconds = 0.0;   ///< serialization + latency + NACK RTTs
  /// Byte ranges erased by unrecovered packets: [offset, offset+length).
  std::vector<std::pair<std::size_t, std::size_t>> erasedSpans;
};

/// Packetizes `trackBytes` onto `link` (MTU minus header per packet) through
/// `channel`, optionally recovering losses via NACK/retransmit.  With NACK
/// and p <= 2% loss, the track is whole after at most a round or two -- the
/// schedule the client builds is then bit-identical to lossless delivery.
/// Deterministic for a given (channel seed, config).
[[nodiscard]] AnnotationDelivery deliverAnnotationTrack(
    std::span<const std::uint8_t> trackBytes, const Link& link,
    const AnnotationDeliveryConfig& cfg);

}  // namespace anno::stream
