// Telemetry core: registry semantics, instrument behaviour, exporters, and
// the engine-observer determinism contract (counter values derived from
// annotation are exact functions of the content -- bit-identical for any
// thread count).  These tests carry the `telemetry` ctest label so the
// sanitized configurations can target them:
//   cmake -B build-tsan -DANNO_SANITIZE=thread && ctest -L telemetry
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/annotate.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "golden_clips.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace anno {
namespace {

using telemetry::InstrumentKind;
using telemetry::Labels;
using telemetry::Registry;
using telemetry::Snapshot;

TEST(Registry, CounterRegistrationDedupes) {
  Registry reg;
  telemetry::Counter& a = reg.counter("anno_test_total", {}, "help");
  telemetry::Counter& b = reg.counter("anno_test_total", {}, "help");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.instrumentCount(), 1u);
}

TEST(Registry, LabelSetsAreDistinctInstruments) {
  Registry reg;
  telemetry::Counter& a =
      reg.counter("anno_test_total", {{"kind", "a"}}, "help");
  telemetry::Counter& b =
      reg.counter("anno_test_total", {{"kind", "b"}}, "help");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(reg.instrumentCount(), 2u);
}

TEST(Registry, LabelOrderIsCanonicalized) {
  Registry reg;
  telemetry::Counter& a =
      reg.counter("anno_test_total", {{"x", "1"}, {"y", "2"}}, "");
  telemetry::Counter& b =
      reg.counter("anno_test_total", {{"y", "2"}, {"x", "1"}}, "");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  (void)reg.counter("anno_test_metric", {}, "");
  EXPECT_THROW((void)reg.gauge("anno_test_metric", {}, ""),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("anno_test_metric",
                                   telemetry::secondsBuckets(), {}, ""),
               std::invalid_argument);
}

TEST(Registry, InvalidNameThrows) {
  Registry reg;
  EXPECT_THROW((void)reg.counter("", {}, ""), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("0starts_with_digit", {}, ""),
               std::invalid_argument);
  EXPECT_THROW((void)reg.counter("has-dash", {}, ""), std::invalid_argument);
}

TEST(Registry, DuplicateLabelKeyThrows) {
  Registry reg;
  EXPECT_THROW(
      (void)reg.counter("anno_test_total", {{"k", "1"}, {"k", "2"}}, ""),
      std::invalid_argument);
}

TEST(Registry, HistogramBoundsMustAscend) {
  Registry reg;
  EXPECT_THROW((void)reg.histogram("anno_test_h", {}, {}, ""),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("anno_test_h", {2.0, 1.0}, {}, ""),
               std::invalid_argument);
  (void)reg.histogram("anno_test_h", {1.0, 2.0}, {}, "");
  EXPECT_THROW((void)reg.histogram("anno_test_h", {1.0, 3.0}, {}, ""),
               std::invalid_argument);
}

TEST(Instruments, CounterAccumulates) {
  Registry reg;
  telemetry::Counter& c = reg.counter("anno_test_total", {}, "");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Instruments, GaugeSetAddUpdateMax) {
  Registry reg;
  telemetry::Gauge& g = reg.gauge("anno_test_gauge", {}, "");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.updateMax(100);
  EXPECT_EQ(g.value(), 100);
  g.updateMax(50);  // lower: no change
  EXPECT_EQ(g.value(), 100);
}

TEST(Instruments, HistogramBucketsCountAndSum) {
  Registry reg;
  telemetry::Histogram& h =
      reg.histogram("anno_test_h", {1.0, 10.0}, {}, "");
  h.observe(0.5);   // bucket 0 (le 1)
  h.observe(5.0);   // bucket 1 (le 10)
  h.observe(50.0);  // +Inf bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
  const Snapshot snap = telemetry::scrape(reg);
  ASSERT_EQ(snap.instruments.size(), 1u);
  const std::vector<std::uint64_t> expected = {1, 1, 1};
  EXPECT_EQ(snap.instruments[0].histogram.counts, expected);
}

TEST(Instruments, BucketLaddersAscend) {
  for (const auto& ladder :
       {telemetry::secondsBuckets(), telemetry::countBuckets(),
        telemetry::magnitudeBuckets()}) {
    ASSERT_FALSE(ladder.empty());
    for (std::size_t i = 1; i < ladder.size(); ++i) {
      EXPECT_LT(ladder[i - 1], ladder[i]);
    }
  }
}

TEST(Instruments, NullSafeHelpersAreNoOps) {
  telemetry::inc(nullptr);
  telemetry::inc(nullptr, 5);
  telemetry::set(nullptr, 1);
  telemetry::add(nullptr, 1);
  telemetry::updateMax(nullptr, 1);
  telemetry::observe(nullptr, 1.0);
  telemetry::Span span(nullptr);  // no sink: no clock read, no record
  span.stop();
}

TEST(Instruments, SpanRecordsOnceIntoHistogram) {
  Registry reg;
  telemetry::Histogram& h =
      reg.histogram("anno_test_span_seconds", telemetry::secondsBuckets(),
                    {}, "");
  {
    telemetry::Span span(&h);
    span.stop();
    span.stop();  // idempotent
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
  {
    telemetry::Span span(&h);  // records on destruction
  }
  EXPECT_EQ(h.count(), 2u);
}

TEST(Exporters, SnapshotSortedAndCounterValueLookup) {
  Registry reg;
  reg.counter("anno_z_total", {}, "").inc(1);
  reg.counter("anno_a_total", {{"k", "v"}}, "").inc(2);
  reg.counter("anno_a_total", {}, "").inc(3);
  const Snapshot snap = telemetry::scrape(reg);
  ASSERT_EQ(snap.instruments.size(), 3u);
  EXPECT_EQ(snap.instruments[0].name, "anno_a_total");
  EXPECT_TRUE(snap.instruments[0].labels.empty());
  EXPECT_EQ(snap.instruments[1].name, "anno_a_total");
  EXPECT_EQ(snap.instruments[2].name, "anno_z_total");
  EXPECT_EQ(snap.counterValue("anno_a_total"), 3u);
  EXPECT_EQ(snap.counterValue("anno_a_total", {{"k", "v"}}), 2u);
  EXPECT_EQ(snap.counterValue("anno_missing_total"), 0u);
}

TEST(Exporters, PrometheusTextFormat) {
  Registry reg;
  reg.counter("anno_test_total", {{"kind", "x"}}, "A counter").inc(7);
  reg.gauge("anno_test_gauge", {}, "A gauge").set(-4);
  telemetry::Histogram& h =
      reg.histogram("anno_test_h", {1.0, 10.0}, {}, "A histogram");
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  const std::string text = telemetry::toPrometheusText(telemetry::scrape(reg));
  EXPECT_NE(text.find("# HELP anno_test_total A counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE anno_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("anno_test_total{kind=\"x\"} 7"), std::string::npos);
  EXPECT_NE(text.find("anno_test_gauge -4"), std::string::npos);
  // Cumulative le buckets plus the implicit +Inf, _sum and _count series.
  EXPECT_NE(text.find("anno_test_h_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("anno_test_h_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("anno_test_h_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("anno_test_h_sum 55.5"), std::string::npos);
  EXPECT_NE(text.find("anno_test_h_count 3"), std::string::npos);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  Registry reg;
  reg.counter("anno_test_total", {{"path", "a\\b\"c\nd"}}, "").inc(1);
  const std::string text = telemetry::toPrometheusText(telemetry::scrape(reg));
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST(Exporters, LabelEscapingCoversAllControlCharacters) {
  // Tabs, carriage returns and other sub-0x20 bytes used to pass through
  // both escapers raw, producing broken exposition lines; they must come
  // out as escapes now, in BOTH formats (the helpers are shared with the
  // trace exporter).
  Registry reg;
  reg.counter("anno_test_total", {{"path", "a\tb\rc\x01" "d"}}, "").inc(1);
  const Snapshot snap = telemetry::scrape(reg);

  const std::string prom = telemetry::toPrometheusText(snap);
  EXPECT_NE(prom.find("path=\"a\\tb\\rc\\u0001d\""), std::string::npos);
  const std::string json = telemetry::toJson(snap);
  EXPECT_NE(json.find("\"path\": \"a\\tb\\rc\\u0001d\""), std::string::npos);
  for (const std::string& text : {prom, json}) {
    for (const char c : text) {
      if (c != '\n') {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
      }
    }
  }
}

TEST(Exporters, JsonContainsEveryInstrument) {
  Registry reg;
  reg.counter("anno_test_total", {{"kind", "x"}}, "").inc(7);
  reg.gauge("anno_test_gauge", {}, "").set(-4);
  reg.histogram("anno_test_h", {1.0}, {}, "").observe(0.5);
  const std::string json = telemetry::toJson(telemetry::scrape(reg));
  EXPECT_EQ(json.find("# "), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"anno_test_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"anno_test_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"anno_test_h\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine observer: every counter is an exact function of the content.
// ---------------------------------------------------------------------------

Labels reasonLabel(core::CutReason reason) {
  return {{"reason", core::cutReasonName(reason)}};
}

/// Annotates `clip` with an attached EngineTelemetry and returns the scrape.
Snapshot observeAnnotation(const media::VideoClip& clip,
                           core::AnnotatorConfig cfg, unsigned threads,
                           core::AnnotationTrack* trackOut = nullptr) {
  Registry reg;
  core::EngineTelemetry observer(reg);
  cfg.observer = &observer;
  cfg.threads = threads;
  core::AnnotationTrack track = core::annotateClip(clip, cfg);
  if (trackOut != nullptr) *trackOut = std::move(track);
  return telemetry::scrape(reg);
}

TEST(EngineObserver, CountersMatchTrackExactly) {
  const media::VideoClip clip = engine_golden::goldenCatwomanClip();
  core::AnnotationTrack track;
  const Snapshot snap = observeAnnotation(clip, {}, 1, &track);
  EXPECT_EQ(snap.counterValue("anno_engine_scenes_closed_total"),
            track.scenes.size());
  EXPECT_EQ(snap.counterValue("anno_engine_frames_total"), track.frameCount);
  // Every closed scene has exactly one cut reason.
  std::uint64_t reasons = 0;
  for (std::size_t r = 0; r < core::kCutReasonCount; ++r) {
    reasons += snap.counterValue(
        "anno_engine_scene_cuts_total",
        reasonLabel(static_cast<core::CutReason>(r)));
  }
  EXPECT_EQ(reasons, track.scenes.size());
  // The final scene always closes at end of stream.
  EXPECT_EQ(snap.counterValue("anno_engine_scene_cuts_total",
                              reasonLabel(core::CutReason::kEndOfStream)),
            1u);
}

TEST(EngineObserver, FramesPerSceneHistogramMatchesTrack) {
  const media::VideoClip clip = engine_golden::goldenMixedCreditsClip();
  core::AnnotationTrack track;
  const Snapshot snap = observeAnnotation(clip, {}, 1, &track);
  for (const telemetry::InstrumentSnapshot& ins : snap.instruments) {
    if (ins.name != "anno_engine_frames_per_scene") continue;
    EXPECT_EQ(ins.histogram.count, track.scenes.size());
    std::uint64_t frames = 0;
    for (const core::SceneAnnotation& s : track.scenes) {
      frames += s.span.frameCount;
    }
    EXPECT_DOUBLE_EQ(ins.histogram.sum, static_cast<double>(frames));
    return;
  }
  FAIL() << "anno_engine_frames_per_scene not found";
}

TEST(EngineObserver, CreditsCapCounted) {
  const media::VideoClip clip = engine_golden::goldenMixedCreditsClip();
  core::AnnotatorConfig cfg;
  cfg.protectCredits = true;
  const Snapshot snap = observeAnnotation(clip, cfg, 1);
  EXPECT_GT(snap.counterValue("anno_engine_credits_capped_total"), 0u);
  // Without protection the counter never moves.
  const Snapshot unprotected = observeAnnotation(clip, {}, 1);
  EXPECT_EQ(unprotected.counterValue("anno_engine_credits_capped_total"), 0u);
}

TEST(EngineObserver, EmdDetectorAttributesEmdCuts) {
  const media::VideoClip clip = engine_golden::goldenMixedCreditsClip();
  core::AnnotatorConfig cfg;
  cfg.detector = core::SceneDetector::kHistogramEmd;
  const Snapshot snap = observeAnnotation(clip, cfg, 1);
  EXPECT_GT(snap.counterValue("anno_engine_scene_cuts_total",
                              reasonLabel(core::CutReason::kHistogramEmd)),
            0u);
}

TEST(EngineObserver, PerFrameGranularityCountsPerFrameCuts) {
  const media::VideoClip clip = engine_golden::goldenCatwomanClip();
  core::AnnotatorConfig cfg;
  cfg.granularity = core::Granularity::kPerFrame;
  core::AnnotationTrack track;
  const Snapshot snap = observeAnnotation(clip, cfg, 1, &track);
  EXPECT_EQ(snap.counterValue("anno_engine_scene_cuts_total",
                              reasonLabel(core::CutReason::kPerFrame)),
            track.scenes.size() - 1);
}

/// The determinism contract: semantic counters are bit-identical for any
/// thread count (the engine push loop is serial per clip; profiling fans
/// out).  Wall-time histograms are the one exemption.
TEST(EngineObserver, CountersBitIdenticalAcrossThreadCounts) {
  for (const media::VideoClip& clip :
       {engine_golden::goldenCatwomanClip(),
        engine_golden::goldenMixedCreditsClip()}) {
    const Snapshot base = observeAnnotation(clip, {}, 1);
    for (unsigned threads : {2u, 8u}) {
      const Snapshot other = observeAnnotation(clip, {}, threads);
      ASSERT_EQ(base.instruments.size(), other.instruments.size());
      for (std::size_t i = 0; i < base.instruments.size(); ++i) {
        const telemetry::InstrumentSnapshot& a = base.instruments[i];
        const telemetry::InstrumentSnapshot& b = other.instruments[i];
        ASSERT_EQ(a.name, b.name);
        ASSERT_EQ(a.labels, b.labels);
        if (a.name == "anno_engine_plan_seconds") {
          EXPECT_EQ(a.histogram.count, b.histogram.count) << a.name;
          continue;  // durations differ; the event count may not
        }
        EXPECT_EQ(a.counterValue, b.counterValue) << a.name;
        EXPECT_EQ(a.histogram.counts, b.histogram.counts) << a.name;
        EXPECT_EQ(a.histogram.count, b.histogram.count) << a.name;
        EXPECT_DOUBLE_EQ(a.histogram.sum, b.histogram.sum) << a.name;
      }
    }
  }
}

/// Null observer = zero cost AND bit-identical output (the annotation
/// result must not depend on whether anyone is watching).
TEST(EngineObserver, ObservedAndUnobservedTracksIdentical) {
  const media::VideoClip clip = engine_golden::goldenMixedCreditsClip();
  core::AnnotatorConfig cfg;
  const core::AnnotationTrack plain = core::annotateClip(clip, cfg);
  Registry reg;
  core::EngineTelemetry observer(reg);
  cfg.observer = &observer;
  const core::AnnotationTrack observed = core::annotateClip(clip, cfg);
  ASSERT_EQ(plain.scenes.size(), observed.scenes.size());
  for (std::size_t i = 0; i < plain.scenes.size(); ++i) {
    EXPECT_EQ(plain.scenes[i].span.firstFrame,
              observed.scenes[i].span.firstFrame);
    EXPECT_EQ(plain.scenes[i].span.frameCount,
              observed.scenes[i].span.frameCount);
    EXPECT_EQ(plain.scenes[i].safeLuma, observed.scenes[i].safeLuma);
  }
}

}  // namespace
}  // namespace anno
