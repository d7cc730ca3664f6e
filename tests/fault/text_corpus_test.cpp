// Seeded mutation corpora over the two text formats read from outside the
// process: offline trace dumps (telemetry::parseTraceDump) and device
// profile files (display::parseDeviceProfile).  Both parsers document one
// failure mode, std::runtime_error, so every mutant either throws exactly
// that or parses to a value the matching writer reproduces.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "display/device.h"
#include "display/profile_io.h"
#include "fault/inject.h"
#include "telemetry/trace.h"

#ifndef ANNO_FAULT_CORPUS_SEED
#define ANNO_FAULT_CORPUS_SEED 0xF4017ULL
#endif
#ifndef ANNO_FAULT_CORPUS_SIZE
#define ANNO_FAULT_CORPUS_SIZE 10000
#endif

namespace anno {
namespace {

std::span<const std::uint8_t> asBytes(const std::string& text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

std::string asText(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// A fixed snapshot (no wall clock read), so the corpus is the same bytes on
/// every run: every record kind, escaped strings, args and the NaN sentinel.
telemetry::TraceSnapshot corpusSnapshot() {
  using telemetry::TraceEventType;
  telemetry::TraceSnapshot snap;
  snap.droppedEvents = 3;
  snap.threads = {{1, "main"}, {2, "pool\tworker"}};
  telemetry::TraceSnapshotEvent begin;
  begin.name = "fanout";
  begin.cat = "proxy";
  begin.type = TraceEventType::kSpanBegin;
  begin.tid = 1;
  begin.wallNanos = 1000;
  snap.events.push_back(begin);
  telemetry::TraceSnapshotEvent scene;
  scene.name = "scene";
  scene.cat = "engine";
  scene.tid = 2;
  scene.wallNanos = 1500;
  scene.mediaSeconds = 0.4;
  scene.args = {{"frames", 12.0}, {"luma", 201.5}};
  scene.strKey = "clip";
  scene.strValue = "the\\movie\n";
  snap.events.push_back(scene);
  telemetry::TraceSnapshotEvent counter;
  counter.name = "queue";
  counter.cat = "server";
  counter.type = TraceEventType::kCounter;
  counter.tid = 1;
  counter.wallNanos = 1750;
  counter.value = -2.25;
  snap.events.push_back(counter);
  telemetry::TraceSnapshotEvent end = begin;
  end.type = TraceEventType::kSpanEnd;
  end.wallNanos = 2000;
  end.args = {{"clients", 12.0}};
  snap.events.push_back(end);
  return snap;
}

TEST(TextCorpus, TraceDumpMutantsThrowOrReserialize) {
  const std::string base = telemetry::serializeTraceDump(corpusSnapshot());
  ASSERT_EQ(telemetry::parseTraceDump(base), corpusSnapshot());
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  fault::runCorpus(
      asBytes(base), ANNO_FAULT_CORPUS_SEED ^ 0x7ACEULL,
      ANNO_FAULT_CORPUS_SIZE, {},
      [&](std::span<const std::uint8_t> mutated, const fault::InjectionPlan&,
          const fault::InjectionReport& report) {
        telemetry::TraceSnapshot parsed;
        try {
          parsed = telemetry::parseTraceDump(asText(mutated));
        } catch (const std::runtime_error&) {
          ++rejected;
          ASSERT_FALSE(report.identity()) << "rejected an unmutated dump";
          return;
        }
        ++accepted;
        // Whatever parses is a fixed point of the text form (compared as
        // text: a mutated "nan" value is not equal to itself as a double).
        const std::string again = telemetry::serializeTraceDump(parsed);
        ASSERT_EQ(telemetry::serializeTraceDump(
                      telemetry::parseTraceDump(again)),
                  again);
      });
  EXPECT_EQ(accepted + rejected,
            static_cast<std::size_t>(ANNO_FAULT_CORPUS_SIZE));
  EXPECT_GT(rejected, 0u) << "the corpus must bite";
  EXPECT_GT(accepted, 0u);
}

TEST(TextCorpus, DeviceProfileMutantsThrowOrParseSanely) {
  const std::string base = display::formatDeviceProfile(
      display::makeDevice(display::KnownDevice::kIpaq5555));
  ASSERT_EQ(display::parseDeviceProfile(base).name, "ipaq5555");
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  fault::runCorpus(
      asBytes(base), ANNO_FAULT_CORPUS_SEED ^ 0xDE71ULL,
      ANNO_FAULT_CORPUS_SIZE, {},
      [&](std::span<const std::uint8_t> mutated, const fault::InjectionPlan&,
          const fault::InjectionReport& report) {
        display::DeviceModel device;
        try {
          device = display::parseDeviceProfile(asText(mutated));
        } catch (const std::runtime_error&) {
          ++rejected;
          ASSERT_FALSE(report.identity()) << "rejected an unmutated profile";
          return;
        }
        ++accepted;
        // A usable transfer curve: monotone in [0, 1], top at 1.
        double previous = 0.0;
        for (int level = 0; level < 256; ++level) {
          const double v = device.transfer.relLuminance(level);
          ASSERT_GE(v, previous) << "level " << level;
          previous = v;
        }
        ASSERT_EQ(previous, 1.0);
        const std::string again = display::formatDeviceProfile(device);
        ASSERT_EQ(display::formatDeviceProfile(
                      display::parseDeviceProfile(again)),
                  again);
      });
  EXPECT_EQ(accepted + rejected,
            static_cast<std::size_t>(ANNO_FAULT_CORPUS_SIZE));
  EXPECT_GT(rejected, 0u) << "the corpus must bite";
  EXPECT_GT(accepted, 0u);
}

TEST(TextCorpus, PathologicalInputsThrow) {
  // An arg count of 2^63: 11 + 2 * nargs wraps to 11, the field count of an
  // event without args, and the parser must not then read 2^63 arg pairs.
  EXPECT_THROW(
      (void)telemetry::parseTraceDump("ANNOTRACE 1\n"
                                      "e\t2\t1\t0\tnan\t0\tx\ty\t\t\t"
                                      "9223372036854775808\n"),
      std::runtime_error);
  // A transfer LUT whose top is zero has no shape to normalize: the
  // documented line diagnostic, not TransferFunction's invalid_argument.
  std::string flat = "annolight-device 1\nname flat\ntransfer";
  for (int level = 0; level < 256; ++level) flat += " 0";
  try {
    (void)display::parseDeviceProfile(flat + "\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace anno
