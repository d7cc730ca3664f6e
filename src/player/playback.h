// Playback engine: drives frames through a backlight policy, renders the
// panel, tracks quality against a full-backlight reference, and integrates
// component power -- the software analogue of the paper's instrumented iPAQ
// running the modified Berkeley MPEG player.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "media/video.h"
#include "player/policy.h"
#include "power/power.h"
#include "quality/metrics.h"

namespace anno::player {

/// Engine knobs.
struct PlaybackConfig {
  /// Evaluate perceived quality every Nth frame (panel render + histograms
  /// are the expensive part; 1 = every frame).
  int qualityEvalStride = 4;
  /// Ambient illumination during playback (0 = dark room, the paper's
  /// measurement setup).
  double ambientRel = 0.0;
  /// The client is receiving the stream while playing (NIC in receive).
  bool streamingWhilePlaying = true;
};

/// Everything the experiments read out of one playback run.
struct PlaybackReport {
  std::string policyName;
  double durationSeconds = 0.0;

  // Energy.
  double backlightEnergyJ = 0.0;
  double backlightEnergyFullJ = 0.0;  ///< same playback at level 255
  double totalEnergyJ = 0.0;
  double totalEnergyFullJ = 0.0;
  [[nodiscard]] double backlightSavings() const noexcept {
    return backlightEnergyFullJ > 0.0
               ? 1.0 - backlightEnergyJ / backlightEnergyFullJ
               : 0.0;
  }
  [[nodiscard]] double totalSavings() const noexcept {
    return totalEnergyFullJ > 0.0 ? 1.0 - totalEnergyJ / totalEnergyFullJ
                                  : 0.0;
  }

  // Flicker.  Each switch keeps the backlight in transition for the
  // device's response time (paper Sec. 2: CCFL ~tens of ms, LED ~ms --
  // why per-frame adaptation flickers visibly on CCFL devices).
  std::size_t backlightSwitches = 0;
  double transitionSeconds = 0.0;

  // Quality (perceived panel output vs full-backlight original).
  double meanEmd = 0.0;        ///< histogram earth-mover distance
  double meanPsnrDb = 0.0;     ///< PSNR of perceived images
  double meanSsim = 1.0;       ///< structural similarity of perceived images
  double worstEmd = 0.0;
  std::size_t qualityEvalCount = 0;

  // Per-frame traces (Fig. 6 inputs; frameTotalPowerW also feeds the DAQ
  // "measured" experiments).
  std::vector<std::uint8_t> frameBacklightLevel;
  std::vector<double> frameBacklightPowerW;
  std::vector<double> frameTotalPowerW;
  std::vector<std::uint8_t> frameMaxLuma;  ///< of the ORIGINAL frames
};

/// Plays `received` (what the client got -- possibly server-compensated)
/// against `reference` (the original clip at full backlight) under `policy`.
/// Both clips must have the same frame count/geometry.
[[nodiscard]] PlaybackReport play(const media::VideoClip& reference,
                                  const media::VideoClip& received,
                                  BacklightPolicy& policy,
                                  const power::MobileDevicePower& devicePower,
                                  const PlaybackConfig& cfg = {});

}  // namespace anno::player
