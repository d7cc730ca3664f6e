#include "soak/traffic_mix.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <stdexcept>
#include <utility>

#include "media/rng.h"

namespace anno::soak {

namespace {

/// Weighted index pick: cumulative scan over `weights` (sums are tiny --
/// a handful of classes -- so no prefix table needed).
template <typename T>
std::uint32_t pickWeighted(const std::vector<T>& items, double draw) {
  double total = 0.0;
  for (const T& item : items) total += item.weight;
  double x = draw * total;
  for (std::size_t i = 0; i < items.size(); ++i) {
    x -= items[i].weight;
    if (x < 0.0) return static_cast<std::uint32_t>(i);
  }
  return static_cast<std::uint32_t>(items.size() - 1);
}

}  // namespace

std::vector<DeviceClass> defaultDeviceClasses() {
  std::vector<DeviceClass> classes;
  {
    DeviceClass c;  // the paper's measurement target on home WLAN
    c.name = "ipaq5555-wlan";
    c.device = display::KnownDevice::kIpaq5555;
    c.qualityIndex = 1;
    c.meanBitsPerSec = 6e6;
    c.weight = 4.0;
    classes.push_back(std::move(c));
  }
  {
    DeviceClass c;  // older front-lit PDA, slower link, deeper dimming
    c.name = "ipaq3650-legacy";
    c.device = display::KnownDevice::kIpaq3650;
    c.qualityIndex = 2;
    c.meanBitsPerSec = 3e6;
    c.startupBufferSeconds = 0.5;
    c.weight = 2.0;
    classes.push_back(std::move(c));
  }
  {
    DeviceClass c;  // battery-saver profile: brighter floor, top quality cut
    c.name = "zaurus-saver";
    c.device = display::KnownDevice::kZaurusSl5600;
    c.qualityIndex = 3;
    c.minBacklightLevel = 20;
    c.meanBitsPerSec = 4e6;
    c.weight = 2.0;
    classes.push_back(std::move(c));
  }
  {
    DeviceClass c;  // commute: link periodically collapses -> rebuffering
    c.name = "ipaq5555-commute";
    c.device = display::KnownDevice::kIpaq5555;
    c.qualityIndex = 0;
    c.meanBitsPerSec = 2.5e6;
    c.bandwidthJitter = 0.4;
    c.periodicDips = true;
    c.startupBufferSeconds = 0.4;
    c.weight = 1.0;
    classes.push_back(std::move(c));
  }
  return classes;
}

std::vector<ContentProfile> defaultContentProfiles(std::size_t count) {
  const std::vector<media::PaperClip> sources = media::allPaperClips();
  std::vector<ContentProfile> profiles;
  profiles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ContentProfile p;
    p.source = sources[i % sources.size()];
    // Wraps get a longer cut of the same trailer (distinct catalog entry,
    // distinct duration); the scale spread keeps session lifetimes diverse.
    p.durationScale = 0.008 + 0.004 * static_cast<double>(i / sources.size())
                      + 0.001 * static_cast<double>(i % 3);
    p.name = media::paperClipName(p.source) + "-soak" + std::to_string(i);
    // Popularity is head-heavy: the first few titles draw most sessions
    // (what makes an annotation cache earn its keep on a real catalog).
    p.weight = 1.0 / (1.0 + 0.35 * static_cast<double>(i));
    profiles.push_back(std::move(p));
  }
  return profiles;
}

std::vector<core::AnnotatorConfig> makeTenantConfigs(std::size_t count) {
  std::vector<core::AnnotatorConfig> tenants;
  tenants.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::AnnotatorConfig cfg;
    switch (i % 10) {
      case 0: break;  // the server default
      case 1: cfg.granularity = core::Granularity::kPerFrame; break;
      case 2: cfg.detector = core::SceneDetector::kHistogramEmd; break;
      case 3: cfg.backend.kind = compensate::BackendKind::kHebs; break;
      case 4: cfg.qualityLevels = {0.0, 0.1, 0.2, 0.3}; break;
      case 5: cfg.protectCredits = true; break;
      case 6: cfg.sceneDetect.changeThreshold = 0.15; break;
      case 7:
        cfg.detector = core::SceneDetector::kHistogramEmd;
        cfg.granularity = core::Granularity::kPerFrame;
        break;
      case 8:
        // Four levels minimum: device classes index up to quality 3.
        cfg.granularity = core::Granularity::kPerFrame;
        cfg.qualityLevels = {0.0, 0.05, 0.15, 0.3};
        break;
      case 9:
        cfg.protectCredits = true;
        cfg.detector = core::SceneDetector::kHistogramEmd;
        break;
    }
    // Past ten, perturb the ACTIVE detector's threshold so fingerprints
    // stay distinct (inactive knobs are cosmetic to the fingerprint).
    if (i >= 10) {
      const double nudge = 0.001 * static_cast<double>(i);
      if (cfg.detector == core::SceneDetector::kHistogramEmd) {
        cfg.histogramDetect.emdThreshold += nudge;
      } else {
        cfg.sceneDetect.changeThreshold += nudge;
      }
    }
    tenants.push_back(std::move(cfg));
  }
  return tenants;
}

double diurnalWeight(double hourOfDay) {
  const double phase =
      2.0 * std::numbers::pi * (hourOfDay - kDiurnalPeakHour) / 24.0;
  const double raised = 0.5 * (1.0 + std::cos(phase));
  return kDiurnalTroughFraction + (1.0 - kDiurnalTroughFraction) * raised;
}

std::size_t TrafficMix::uniqueAnnotationKeys() const {
  std::set<std::pair<std::uint32_t, std::uint64_t>> keys;
  for (const SessionPlan& s : sessions) {
    keys.insert({s.contentProfile, tenants[s.tenant].fingerprint()});
  }
  return keys.size();
}

TrafficMix generateTrafficMix(TrafficMixConfig cfg) {
  if (cfg.sessions == 0) {
    throw std::invalid_argument("generateTrafficMix: sessions must be > 0");
  }
  if (cfg.tickSeconds <= 0.0 || cfg.daySeconds < cfg.tickSeconds) {
    throw std::invalid_argument(
        "generateTrafficMix: need 0 < tickSeconds <= daySeconds");
  }
  if (cfg.tenantCount == 0) {
    throw std::invalid_argument("generateTrafficMix: tenantCount must be > 0");
  }
  if (cfg.deviceClasses.empty()) cfg.deviceClasses = defaultDeviceClasses();
  if (cfg.contentProfiles.empty()) {
    cfg.contentProfiles = defaultContentProfiles(10);
  }

  TrafficMix mix;
  mix.tenants = makeTenantConfigs(cfg.tenantCount);
  mix.ticks =
      static_cast<std::uint64_t>(std::ceil(cfg.daySeconds / cfg.tickSeconds));
  mix.arrivalsPerHour.assign(24, 0);

  // Per-tick arrival weights along the diurnal curve, normalized to land
  // exactly cfg.sessions arrivals via error diffusion (deterministic; no
  // rounding drift can gain or lose a session).
  std::vector<double> tickWeight(mix.ticks);
  double totalWeight = 0.0;
  for (std::uint64_t t = 0; t < mix.ticks; ++t) {
    const double hour = (static_cast<double>(t) * cfg.tickSeconds /
                         cfg.daySeconds) * 24.0;
    tickWeight[t] = diurnalWeight(hour);
    totalWeight += tickWeight[t];
  }

  media::SplitMix64 rng(cfg.seed ^ 0x50A4C0DEULL);
  mix.sessions.reserve(cfg.sessions);
  double carry = 0.0;
  std::size_t planned = 0;
  for (std::uint64_t t = 0; t < mix.ticks && planned < cfg.sessions; ++t) {
    carry += static_cast<double>(cfg.sessions) * tickWeight[t] / totalWeight;
    std::size_t here = static_cast<std::size_t>(carry);
    carry -= static_cast<double>(here);
    if (t + 1 == mix.ticks) here = cfg.sessions - planned;  // flush the tail
    here = std::min(here, cfg.sessions - planned);
    for (std::size_t n = 0; n < here; ++n) {
      SessionPlan plan;
      plan.arrivalTick = t;
      plan.deviceClass = pickWeighted(cfg.deviceClasses, rng.uniform());
      plan.contentProfile = pickWeighted(cfg.contentProfiles, rng.uniform());
      plan.tenant = static_cast<std::uint32_t>(rng.below(cfg.tenantCount));
      const DeviceClass& dc = cfg.deviceClasses[plan.deviceClass];
      plan.bandwidthScale =
          rng.uniform(1.0 - dc.bandwidthJitter, 1.0 + dc.bandwidthJitter);
      if (rng.uniform() < kFaultFraction) {
        plan.faultSeed = rng.next() | 1;  // nonzero by construction
      }
      if (rng.uniform() < kLeaveFraction) {
        // Leave somewhere inside a typical lifetime (a few virtual seconds).
        plan.leaveAfterTicks = 2 + rng.below(40);
      }
      mix.sessions.push_back(plan);
      const std::size_t hour = std::min<std::size_t>(
          23, static_cast<std::size_t>(
                  (static_cast<double>(t) * cfg.tickSeconds / cfg.daySeconds) *
                  24.0));
      ++mix.arrivalsPerHour[hour];
      ++planned;
    }
  }

  mix.config = std::move(cfg);
  return mix;
}

}  // namespace anno::soak
