#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "servebench.h"
#include "telemetry/trace.h"

namespace servebench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

double FastestSamples::quantile(double q) const {
  if (best_.empty()) return 0.0;
  std::vector<double> sorted = best_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

const char* stageName(Stage stage) noexcept {
  switch (stage) {
    case Stage::kAddClips: return "stream.server.add_clips";
    case Stage::kMixGen: return "soak.mix_gen";
    case Stage::kProfile: return "media.profile";
    case Stage::kEngine: return "core.engine";
    case Stage::kTrackEncode: return "core.anno_track_encode";
    case Stage::kLookup: return "core.track_cache.lookup";
    case Stage::kCapsEncode: return "stream.server.caps_encode";
    case Stage::kCompensate: return "compensate";
    case Stage::kEncode: return "media.encode";
    case Stage::kComplexity: return "power.complexity";
    case Stage::kMux: return "stream.mux";
    case Stage::kServe: return "stream.server.serve";
    case Stage::kJoin: return "stream.scheduler.join";
    case Stage::kLeave: return "stream.scheduler.leave";
    case Stage::kTick: return "stream.scheduler.tick";
    case Stage::kFanout: return "stream.proxy.fanout";
    case Stage::kReceive: return "stream.client.receive";
    case Stage::kDemux: return "stream.demux";
    case Stage::kDecode: return "media.decode";
    case Stage::kSchedule: return "stream.client.schedule";
    case Stage::kInject: return "fault.inject";
    case Stage::kCount: break;
  }
  return "unknown";
}

bool isServingCall(Stage stage) noexcept {
  switch (stage) {
    case Stage::kAddClips:
    case Stage::kMixGen:
    case Stage::kLookup:
    case Stage::kServe:
    case Stage::kJoin:
    case Stage::kLeave:
    case Stage::kTick:
    case Stage::kFanout:
    case Stage::kReceive:
    case Stage::kInject:
      return true;
    default:
      return false;
  }
}

Ledger::Scope::Scope(Ledger& ledger, Stage stage, std::uint64_t sessionId,
                     double units)
    : ledger_(ledger), stage_(stage), units_(units), startNs_(threadCpuNs()) {
  if (ledger_.tracing_) {
    ledger_.childNs_.push_back(0.0);
    if (ledger_.trace_ != nullptr) {
      ledger_.trace_->spanBegin(
          stageName(stage_), "servebench",
          {{"session", static_cast<double>(sessionId)}});
    }
  }
}

double Ledger::Scope::stop() {
  if (elapsedNs_ >= 0.0) return elapsedNs_;
  elapsedNs_ = threadCpuNs() - startNs_;
  const bool serving = isServingCall(stage_);
  if (!ledger_.tracing_) {
    if (serving) ledger_.servingNs_[0] += elapsedNs_;
    return elapsedNs_;
  }
  if (ledger_.trace_ != nullptr) {
    ledger_.trace_->spanEnd(stageName(stage_), "servebench");
  }
  // The serving-call baseline of a traced iteration includes both span
  // emits: that is what tracing costs the loop.
  if (serving) {
    ledger_.servingNs_[1] += threadCpuNs() - startNs_;
  }
  const double childNs = ledger_.childNs_.back();
  ledger_.childNs_.pop_back();
  StageTotals& t = ledger_.totals_[static_cast<std::size_t>(stage_)];
  t.totalNs += elapsedNs_;
  t.selfNs += elapsedNs_ - childNs;
  t.units += units_;
  ++t.calls;
  if (!ledger_.childNs_.empty()) ledger_.childNs_.back() += elapsedNs_;
  return elapsedNs_;
}

namespace {

/// Every per-layer metric, in report order, with its unit.  BENCHMARK.json
/// lists the same names; the smoke test checks the two agree.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"media.encode_ns_per_frame", "ns"},
    {"media.encode_bytes_per_frame", "bytes"},
    {"media.decode_ns_per_frame", "ns"},
    {"media.profile_ns_per_frame", "ns"},
    {"core.engine_ns_per_frame", "ns"},
    {"compensate.ns_per_frame", "ns"},
    {"power.complexity_us", "us"},
    {"stream.mux_us", "us"},
    {"stream.demux_us", "us"},
    {"stream.server.serve_miss_ms", "ms"},
    {"stream.server.serve_hit_us", "us"},
    {"stream.server.memo_hit_rate", "ratio"},
    {"stream.server.caps_encode_us", "us"},
    {"stream.server.miss_unexplained_frac", "ratio"},
    {"media.encode_share_of_serving", "ratio"},
    {"core.track_cache.lookup_us", "us"},
    {"core.track_cache.hit_rate", "ratio"},
    {"core.track_cache.fills", "count"},
    {"core.track_cache.single_flight_waits", "count"},
    {"core.anno_track_bytes", "bytes"},
    {"stream.scheduler.tick_us", "us"},
    {"stream.scheduler.ns_per_session_tick", "ns"},
    {"stream.scheduler.ticks", "count"},
    {"stream.proxy.fanout_ms", "ms"},
    {"stream.proxy.ns_per_client", "ns"},
    {"stream.proxy.unique_renders", "count"},
    {"stream.client.receive_ns_per_frame", "ns"},
    {"stream.client.schedule_us", "us"},
    {"stream.client.fallbacks", "count"},
    {"stream.client.undecodable", "count"},
    {"fault.inject_us", "us"},
    {"fault.decode_ok_frac", "ratio"},
    {"soak.mix_gen_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

double perCall(const StageTotals& t, double scale) {
  return t.calls > 0 ? t.totalNs / static_cast<double>(t.calls) / scale : 0.0;
}

double selfPerUnit(const StageTotals& t) {
  return t.units > 0.0 ? t.selfNs / t.units : 0.0;
}

}  // namespace

void appendPerLayer(const Ledger& ledger, const TracedRun& run,
                    const std::vector<Metric>& extra, Result& result) {
  const auto at = [&ledger](Stage s) -> const StageTotals& {
    return ledger.totals(s);
  };
  std::map<std::string, double> values;
  values["media.encode_ns_per_frame"] = selfPerUnit(at(Stage::kEncode));
  values["media.decode_ns_per_frame"] = selfPerUnit(at(Stage::kDecode));
  values["media.profile_ns_per_frame"] = selfPerUnit(at(Stage::kProfile));
  values["core.engine_ns_per_frame"] = selfPerUnit(at(Stage::kEngine));
  values["compensate.ns_per_frame"] = selfPerUnit(at(Stage::kCompensate));
  values["power.complexity_us"] = perCall(at(Stage::kComplexity), 1e3);
  values["stream.mux_us"] = perCall(at(Stage::kMux), 1e3);
  values["stream.demux_us"] = perCall(at(Stage::kDemux), 1e3);
  // A traced run serves each predicted memo miss directly (after replaying
  // its layers), so kServe holds exactly the misses and every join hits.
  const StageTotals& serve = at(Stage::kServe);
  const StageTotals& join = at(Stage::kJoin);
  values["stream.server.serve_miss_ms"] = perCall(serve, 1e6);
  values["stream.server.serve_hit_us"] = perCall(join, 1e3);
  values["stream.server.memo_hit_rate"] =
      join.calls > 0 ? 1.0 - static_cast<double>(serve.calls) /
                                 static_cast<double>(join.calls)
                     : 0.0;
  values["stream.server.caps_encode_us"] =
      perCall(at(Stage::kCapsEncode), 1e3);
  if (serve.calls > 0) {
    // What a miss does inside serve(): one capabilities encode, one
    // TrackCache lookup, compensate, encode, complexity, mux.
    const double explained =
        at(Stage::kCompensate).totalNs + at(Stage::kEncode).totalNs +
        at(Stage::kComplexity).totalNs + at(Stage::kMux).totalNs +
        static_cast<double>(serve.calls) *
            (perCall(at(Stage::kCapsEncode), 1.0) +
             perCall(at(Stage::kLookup), 1.0));
    values["stream.server.miss_unexplained_frac"] =
        1.0 - explained / serve.totalNs;
  }
  double servingSideNs = 0.0;
  for (Stage s : {Stage::kServe, Stage::kJoin, Stage::kLeave, Stage::kTick,
                  Stage::kLookup, Stage::kFanout}) {
    servingSideNs += at(s).totalNs;
  }
  values["media.encode_share_of_serving"] =
      servingSideNs > 0.0 ? at(Stage::kEncode).selfNs / servingSideNs : 0.0;
  values["core.track_cache.lookup_us"] = perCall(at(Stage::kLookup), 1e3);
  const StageTotals& trackEncode = at(Stage::kTrackEncode);
  values["core.anno_track_bytes"] =
      trackEncode.calls > 0
          ? trackEncode.units / static_cast<double>(trackEncode.calls)
          : 0.0;
  const StageTotals& tick = at(Stage::kTick);
  values["stream.scheduler.tick_us"] = perCall(tick, 1e3);
  values["stream.scheduler.ns_per_session_tick"] =
      tick.units > 0.0 ? tick.totalNs / tick.units : 0.0;
  values["stream.scheduler.ticks"] =
      run.iterations > 0 ? static_cast<double>(tick.calls) /
                               static_cast<double>(run.iterations)
                         : 0.0;
  const StageTotals& fanout = at(Stage::kFanout);
  values["stream.proxy.fanout_ms"] = perCall(fanout, 1e6);
  values["stream.proxy.ns_per_client"] =
      fanout.units > 0.0 ? fanout.totalNs / fanout.units : 0.0;
  values["stream.client.receive_ns_per_frame"] =
      selfPerUnit(at(Stage::kReceive));
  values["stream.client.schedule_us"] = perCall(at(Stage::kSchedule), 1e3);
  values["fault.inject_us"] = perCall(at(Stage::kInject), 1e3);
  values["soak.mix_gen_ms"] = perCall(at(Stage::kMixGen), 1e6);
  // Serving-call time per iteration, traced vs untraced: what the spans
  // (and nothing else a traced iteration adds) cost the real calls.
  if (run.iterations > 0 && run.untracedIterations > 0) {
    const double traced = ledger.servingNs(true) /
                          static_cast<double>(run.iterations);
    const double untraced = ledger.servingNs(false) /
                            static_cast<double>(run.untracedIterations);
    values["trace.overhead_frac"] = untraced > 0.0 ? traced / untraced - 1.0
                                                   : 0.0;
  }
  for (const Metric& m : extra) values[m.name] = m.value;

  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = values.find(lm.name);
    result.perLayer.push_back(
        {lm.name, lm.unit, it != values.end() ? it->second : 0.0});
  }
  // Self time of every stage as a share of the traced CPU time; what no stage
  // covers is the benchmark's own work (input copies, checks, bookkeeping).
  double covered = 0.0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    const auto s = static_cast<Stage>(i);
    covered += at(s).selfNs;
    result.perLayer.push_back(
        {std::string(stageName(s)) + "_share", "ratio",
         run.cpuNs > 0.0 ? at(s).selfNs / run.cpuNs : 0.0});
  }
  result.perLayer.push_back(
      {"bench_share", "ratio",
       run.cpuNs > 0.0 ? 1.0 - covered / run.cpuNs : 0.0});
}

void writeTraceArtifacts(const Options& opts,
                         const anno::telemetry::TraceRecorder& trace,
                         const Ledger& ledger, const TracedRun& run) {
  const std::string stem = opts.outDir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed);
  const anno::telemetry::TraceSnapshot snap =
      anno::telemetry::snapshotTrace(trace);
  {
    std::ofstream out(stem + ".perfetto.json", std::ios::binary);
    out << anno::telemetry::toChromeTraceJson(snap);
  }
  std::string table;
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %10s %12s %12s %8s\n", "stage",
                "calls", "total_ms", "self_ms", "share");
  table += line;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    const auto s = static_cast<Stage>(i);
    const StageTotals& t = ledger.totals(s);
    if (t.calls == 0) continue;
    std::snprintf(line, sizeof line, "%-28s %10llu %12.3f %12.3f %8.4f\n",
                  stageName(s), static_cast<unsigned long long>(t.calls),
                  t.totalNs / 1e6, t.selfNs / 1e6,
                  run.cpuNs > 0.0 ? t.selfNs / run.cpuNs : 0.0);
    table += line;
  }
  std::snprintf(line, sizeof line,
                "traced thread CPU %.3f ms over %llu traced iterations; %llu "
                "trace events recorded, %llu dropped\n",
                run.cpuNs / 1e6,
                static_cast<unsigned long long>(run.iterations),
                static_cast<unsigned long long>(trace.recordedEvents()),
                static_cast<unsigned long long>(snap.droppedEvents));
  table += line;
  std::ofstream(stem + ".selftime.txt", std::ios::binary) << table;
  std::fputs(table.c_str(), stdout);
  std::printf("wrote %s.perfetto.json and %s.selftime.txt\n", stem.c_str(),
              stem.c_str());
}

}  // namespace servebench
