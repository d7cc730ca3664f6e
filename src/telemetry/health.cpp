#include "telemetry/health.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace anno::telemetry {

const char* healthSignalKindName(HealthSignalKind kind) noexcept {
  switch (kind) {
    case HealthSignalKind::kGauge: return "gauge";
    case HealthSignalKind::kCounterRate: return "counter_rate";
    case HealthSignalKind::kCounterRatio: return "counter_ratio";
    case HealthSignalKind::kGaugeRatio: return "gauge_ratio";
    case HealthSignalKind::kHistogramQuantile: return "histogram_quantile";
    case HealthSignalKind::kDirect: return "direct";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config cfg) : cfg_(cfg) {
  if (cfg_.rotateTicks == 0) cfg_.rotateTicks = 1;
  gens_[0] = std::make_unique<TraceRecorder>(cfg_.trace);
  gens_[1] = std::make_unique<TraceRecorder>(cfg_.trace);
}

void FlightRecorder::onTick(std::uint64_t tick) {
  if (tick < lastRotateTick_ + cfg_.rotateTicks) return;
  lastRotateTick_ = tick;
  // Retire the older generation; the freshly-rotated-out one becomes
  // "previous".  Safe because emitters run on this same driver thread.
  const std::size_t old = 1 - cur_;
  gens_[old] = std::make_unique<TraceRecorder>(cfg_.trace);
  cur_ = old;
}

void FlightRecorder::onEvent(const HealthEvent& event) {
  TraceRecorder* rec = recorder();
  rec->instant(event.fired ? "slo_fired" : "slo_cleared", "health",
               {{"tick", static_cast<double>(event.tick)},
                {"fast", event.fastValue},
                {"slow", event.slowValue}},
               "rule", rec->intern(event.rule));
  if (!event.fired) return;
  ++triggers_;
  if (captures_.size() >= cfg_.maxCaptures) return;
  captures_.push_back(Capture{event, mergedSnapshot()});
}

TraceSnapshot FlightRecorder::mergedSnapshot() const {
  // Previous generation first, then the current one shifted past it on both
  // the tid and wall axes, so the merged timeline reads oldest-to-newest and
  // the two generations' thread tracks never collide.
  TraceSnapshot prev = snapshotTrace(*gens_[1 - cur_]);
  TraceSnapshot curr = snapshotTrace(*gens_[cur_]);

  std::uint32_t maxTid = 0;
  std::int64_t maxWall = 0;
  for (const auto& ev : prev.events) {
    maxTid = std::max(maxTid, ev.tid);
    maxWall = std::max(maxWall, ev.wallNanos);
  }
  for (const auto& [tid, name] : prev.threads) maxTid = std::max(maxTid, tid);

  TraceSnapshot merged = std::move(prev);
  merged.events.reserve(merged.events.size() + curr.events.size());
  for (auto& ev : curr.events) {
    ev.tid += maxTid;
    ev.wallNanos += maxWall + 1;
    merged.events.push_back(std::move(ev));
  }
  for (auto& [tid, name] : curr.threads) {
    merged.threads.emplace_back(tid + maxTid, std::move(name));
  }
  merged.droppedEvents += curr.droppedEvents;
  return merged;
}

// ---------------------------------------------------------------------------
// HealthMonitor
// ---------------------------------------------------------------------------

HealthMonitor::HealthMonitor(HealthConfig cfg, const Registry* registry)
    : cfg_(std::move(cfg)), registry_(registry) {
  if (!(cfg_.tickSeconds > 0.0)) {
    throw std::invalid_argument("HealthMonitor: tickSeconds must be > 0");
  }

  std::unordered_map<std::string, std::size_t> byName;
  series_.reserve(cfg_.signals.size());
  for (const HealthSignal& sig : cfg_.signals) {
    if (sig.name.empty()) {
      throw std::invalid_argument("HealthSignal: name must be non-empty");
    }
    if (!byName.emplace(sig.name, series_.size()).second) {
      throw std::invalid_argument("HealthSignal " + sig.name + ": duplicate");
    }
    const bool needsMetric = sig.kind != HealthSignalKind::kDirect;
    if (needsMetric && sig.metric.empty()) {
      throw std::invalid_argument("HealthSignal " + sig.name +
                                  ": kind needs a source metric");
    }
    if (sig.kind == HealthSignalKind::kCounterRatio &&
        sig.denominatorMetrics.empty()) {
      throw std::invalid_argument("HealthSignal " + sig.name +
                                  ": counter ratio needs denominators");
    }
    if (sig.kind == HealthSignalKind::kGaugeRatio &&
        sig.denominatorMetric.empty()) {
      throw std::invalid_argument("HealthSignal " + sig.name +
                                  ": gauge ratio needs a denominator");
    }
    Series s;
    s.cfg = sig;
    if (sig.kind == HealthSignalKind::kDirect) {
      s.resolved = true;
      s.firstResolvedTick = 0;
    }
    series_.push_back(std::move(s));
  }

  rules_.reserve(cfg_.rules.size());
  for (const SloRule& rule : cfg_.rules) {
    const auto it = byName.find(rule.signal);
    if (it == byName.end()) {
      throw std::invalid_argument("SloRule " + rule.name +
                                  ": unknown signal " + rule.signal);
    }
    RuleRuntime rt{SloRuleEngine(rule), it->second};
    Series& s = series_[it->second];
    s.cap = std::max<std::size_t>(s.cap, rule.slowWindowTicks + 1);
    rules_.push_back(std::move(rt));
  }

  for (Series& s : series_) {
    s.ring.assign(s.cap, 0.0);
    if (s.cfg.kind == HealthSignalKind::kCounterRatio ||
        s.cfg.kind == HealthSignalKind::kGaugeRatio) {
      s.denomRing.assign(s.cap, 0.0);
    }
    if (s.cfg.kind == HealthSignalKind::kHistogramQuantile) {
      s.bucketRing.assign(s.cap, {});
    }
  }
}

void HealthMonitor::setSignal(const std::string& name, double value) {
  for (Series& s : series_) {
    if (s.cfg.name != name) continue;
    if (s.cfg.kind != HealthSignalKind::kDirect) {
      throw std::invalid_argument("HealthMonitor: signal " + name +
                                  " is not kDirect");
    }
    s.direct = value;
    return;
  }
  throw std::invalid_argument("HealthMonitor: unknown signal " + name);
}

void HealthMonitor::resolve(Series& s) {
  if (s.resolved || registry_ == nullptr) return;
  switch (s.cfg.kind) {
    case HealthSignalKind::kDirect:
      return;  // resolved at construction
    case HealthSignalKind::kCounterRate: {
      s.num = registry_->findCounter(s.cfg.metric, s.cfg.labels);
      s.resolved = s.num != nullptr;
      return;
    }
    case HealthSignalKind::kCounterRatio: {
      const Counter* num = registry_->findCounter(s.cfg.metric, s.cfg.labels);
      if (num == nullptr) return;
      std::vector<const Counter*> denoms;
      denoms.reserve(s.cfg.denominatorMetrics.size());
      for (const std::string& d : s.cfg.denominatorMetrics) {
        const Counter* c = registry_->findCounter(d, s.cfg.labels);
        if (c == nullptr) return;  // all or nothing
        denoms.push_back(c);
      }
      s.num = num;
      s.denoms = std::move(denoms);
      s.resolved = true;
      return;
    }
    case HealthSignalKind::kGauge: {
      s.gauge = registry_->findGauge(s.cfg.metric, s.cfg.labels);
      s.resolved = s.gauge != nullptr;
      return;
    }
    case HealthSignalKind::kGaugeRatio: {
      const Gauge* num = registry_->findGauge(s.cfg.metric, s.cfg.labels);
      const Gauge* den =
          registry_->findGauge(s.cfg.denominatorMetric, s.cfg.labels);
      if (num == nullptr || den == nullptr) return;
      s.gauge = num;
      s.denomGauge = den;
      s.resolved = true;
      return;
    }
    case HealthSignalKind::kHistogramQuantile: {
      s.hist = registry_->findHistogram(s.cfg.metric, s.cfg.labels);
      s.resolved = s.hist != nullptr;
      return;
    }
  }
}

void HealthMonitor::sample(Series& s, std::uint64_t tick) {
  if (!s.resolved) {
    resolve(s);
    if (s.resolved && s.firstResolvedTick == UINT64_MAX) {
      s.firstResolvedTick = tick;
    }
  }
  const std::size_t i = tick % s.cap;
  switch (s.cfg.kind) {
    case HealthSignalKind::kDirect:
      s.ring[i] = s.direct;
      return;
    case HealthSignalKind::kCounterRate:
      s.ring[i] =
          s.resolved ? static_cast<double>(s.num->value()) : 0.0;
      return;
    case HealthSignalKind::kCounterRatio: {
      if (!s.resolved) {
        s.ring[i] = 0.0;
        s.denomRing[i] = 0.0;
        return;
      }
      s.ring[i] = static_cast<double>(s.num->value());
      double den = 0.0;
      for (const Counter* c : s.denoms) den += static_cast<double>(c->value());
      s.denomRing[i] = den;
      return;
    }
    case HealthSignalKind::kGauge:
      s.ring[i] = s.resolved ? static_cast<double>(s.gauge->value()) : 0.0;
      return;
    case HealthSignalKind::kGaugeRatio:
      s.ring[i] = s.resolved ? static_cast<double>(s.gauge->value()) : 0.0;
      s.denomRing[i] =
          s.resolved ? static_cast<double>(s.denomGauge->value()) : 0.0;
      return;
    case HealthSignalKind::kHistogramQuantile: {
      if (!s.resolved) {
        s.bucketRing[i].clear();
        return;
      }
      const std::size_t buckets = s.hist->bounds().size() + 1;
      std::vector<std::uint64_t>& cum = s.bucketRing[i];
      cum.resize(buckets);
      for (std::size_t b = 0; b < buckets; ++b) cum[b] = s.hist->bucketCount(b);
      return;
    }
  }
}

SloWindowValue HealthMonitor::windowValue(const Series& s, std::uint64_t window,
                                          std::uint64_t tick) const {
  SloWindowValue out;
  window = std::min<std::uint64_t>(window, s.cap - 1);
  if (window == 0) return out;

  const bool cumulative = s.cfg.kind == HealthSignalKind::kCounterRate ||
                          s.cfg.kind == HealthSignalKind::kCounterRatio ||
                          s.cfg.kind == HealthSignalKind::kHistogramQuantile;
  if (cumulative) {
    // Window delta between the sample at tick-window and the one at tick;
    // both ends must postdate handle resolution or the delta fabricates a
    // zeros-to-live jump.
    if (tick < window || s.firstResolvedTick > tick - window) return out;
    const std::size_t a = (tick - window) % s.cap;
    const std::size_t b = tick % s.cap;
    switch (s.cfg.kind) {
      case HealthSignalKind::kCounterRate: {
        const double delta = s.ring[b] - s.ring[a];
        out.value = delta / (static_cast<double>(window) * cfg_.tickSeconds);
        out.weight = delta;
        break;
      }
      case HealthSignalKind::kCounterRatio: {
        const double numDelta = s.ring[b] - s.ring[a];
        const double denDelta = s.denomRing[b] - s.denomRing[a];
        out.value = denDelta > 0.0 ? numDelta / denDelta : 0.0;
        out.weight = denDelta;
        break;
      }
      case HealthSignalKind::kHistogramQuantile: {
        const std::vector<std::uint64_t>& cb = s.bucketRing[b];
        if (cb.empty()) return out;
        const std::vector<std::uint64_t>& ca = s.bucketRing[a];
        std::vector<std::uint64_t> delta(cb.size());
        std::uint64_t total = 0;
        for (std::size_t k = 0; k < cb.size(); ++k) {
          // Pre-resolution slots hold no counts: treat them as zeros.
          const std::uint64_t before = k < ca.size() ? ca[k] : 0;
          delta[k] = cb[k] - before;
          total += delta[k];
        }
        out.value =
            quantileFromBucketCounts(s.hist->bounds(), delta, s.cfg.quantile);
        out.weight = static_cast<double>(total);
        break;
      }
      default: break;
    }
  } else {
    // Instantaneous kinds: aggregate the last `window` samples.
    if (tick + 1 < window || s.firstResolvedTick > tick + 1 - window) {
      return out;
    }
    // The window is at most two contiguous runs of the ring: [start, cap)
    // then [0, rest).  Summing them in that order adds the samples oldest
    // first, so the floating-point sum does not depend on the wrap point.
    const std::size_t start = (tick + 1 - window) % s.cap;
    const std::size_t first = std::min<std::size_t>(window, s.cap - start);
    const std::size_t rest = window - first;
    const auto windowSum = [&](const std::vector<double>& ring) {
      double sum = 0.0;
      for (std::size_t i = start; i < start + first; ++i) sum += ring[i];
      for (std::size_t i = 0; i < rest; ++i) sum += ring[i];
      return sum;
    };
    const double sum = windowSum(s.ring);
    if (s.cfg.kind == HealthSignalKind::kGaugeRatio) {
      const double denomSum = windowSum(s.denomRing);
      out.value = denomSum > 0.0 ? sum / denomSum : 0.0;
      out.weight = denomSum;
    } else {
      out.value = sum / static_cast<double>(window);
      out.weight = static_cast<double>(window);
    }
  }
  out.value *= s.cfg.scale;
  out.ready = true;
  return out;
}

void HealthMonitor::observe() {
  const std::uint64_t tick = ticks_;
  for (Series& s : series_) sample(s, tick);
  for (RuleRuntime& rt : rules_) {
    const Series& s = series_[rt.seriesIndex];
    const SloRule& rule = rt.engine.rule();
    const SloWindowValue fast = windowValue(s, rule.fastWindowTicks, tick);
    const SloWindowValue slow = windowValue(s, rule.slowWindowTicks, tick);
    if (std::optional<HealthEvent> ev = rt.engine.evaluate(tick, fast, slow)) {
      events_.push_back(*ev);
      if (flight_ != nullptr) flight_->onEvent(*ev);
    }
  }
  ++ticks_;
}

std::vector<HealthRuleStatus> HealthMonitor::ruleStatuses() const {
  std::vector<HealthRuleStatus> out;
  out.reserve(rules_.size());
  for (const RuleRuntime& rt : rules_) {
    out.push_back(HealthRuleStatus{rt.engine.rule(), rt.engine.status()});
  }
  return out;
}

SloWindowValue HealthMonitor::signalWindow(const std::string& name,
                                           std::uint64_t windowTicks) const {
  if (ticks_ == 0) return {};
  for (const Series& s : series_) {
    if (s.cfg.name == name) return windowValue(s, windowTicks, ticks_ - 1);
  }
  throw std::invalid_argument("HealthMonitor: unknown signal " + name);
}

}  // namespace anno::telemetry
