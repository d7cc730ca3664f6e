// metrics_dump: runs a representative end-to-end workload with every
// telemetry hook attached and prints the resulting registry in both
// exposition formats (Prometheus text, then JSON).
//
// Doubles as the determinism check the telemetry contract promises: the
// same workload runs at 1, 2 and 8 annotator threads into fresh registries,
// and every semantic counter must be bit-identical across thread counts.
// Scheduling-dependent instruments (anno_pool_*, which depend on how work
// races onto the queue) and wall-time histograms (*_seconds) are exempt --
// everything else differing is a bug and exits nonzero.
//
// Run: ./build/tools/metrics_dump [--format prom|json] [--out FILE]
//   --format prom|json   emit only that exposition format (default: both)
//   --out FILE           write the exposition to FILE instead of stdout
//                        (the determinism verdict stays on stdout)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "soak/harness.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

using namespace anno;

namespace {

/// One full system pass: server ingest + serve (twice, for a cache hit),
/// proxy transcode, intact + fault-damaged client receptions, lossy video
/// and annotation delivery with and without NACK, and a fault corpus over
/// the encoded annotation track.  Everything records into `registry`.
/// The workload itself is the shared canned harness (soak/harness.h) with
/// every arm -- the same pass tools/fleet_soak smoke-tests.
void runWorkload(telemetry::Registry& registry, unsigned threads) {
  soak::HarnessOptions opts;
  opts.threads = threads;
  opts.registry = &registry;
  soak::runCannedWorkload(opts);
}

/// Scheduling-dependent instruments excluded from the cross-thread-count
/// comparison: pool counters (how work lands on the queue is a race) and
/// wall-time histograms (durations are not deterministic; their event
/// *counts* still are, but the bucket spread is not).
bool exemptFromDeterminism(const std::string& name) {
  if (name.rfind("anno_pool_", 0) == 0) return true;
  const std::string suffix = "_seconds";
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Compares two snapshots over the non-exempt instruments; prints every
/// mismatch and returns whether they agreed.
bool semanticallyEqual(const telemetry::Snapshot& a,
                       const telemetry::Snapshot& b, unsigned threadsA,
                       unsigned threadsB) {
  bool equal = true;
  auto describe = [](const telemetry::InstrumentSnapshot& s) {
    std::string id = s.name;
    for (const auto& [k, v] : s.labels) id += "{" + k + "=" + v + "}";
    return id;
  };
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.instruments.size() || ib < b.instruments.size()) {
    // Snapshots are sorted by (name, labels); walk them in lockstep.
    const auto* sa = ia < a.instruments.size() ? &a.instruments[ia] : nullptr;
    const auto* sb = ib < b.instruments.size() ? &b.instruments[ib] : nullptr;
    if (sa != nullptr && exemptFromDeterminism(sa->name)) { ++ia; continue; }
    if (sb != nullptr && exemptFromDeterminism(sb->name)) { ++ib; continue; }
    if (sa == nullptr || sb == nullptr ||
        describe(*sa) != describe(*sb)) {
      std::printf("DETERMINISM MISMATCH: instrument sets differ (%s vs %s)\n",
                  sa != nullptr ? describe(*sa).c_str() : "<end>",
                  sb != nullptr ? describe(*sb).c_str() : "<end>");
      return false;
    }
    bool same = sa->kind == sb->kind;
    if (same) {
      switch (sa->kind) {
        case telemetry::InstrumentKind::kCounter:
          same = sa->counterValue == sb->counterValue;
          break;
        case telemetry::InstrumentKind::kGauge:
          same = sa->gaugeValue == sb->gaugeValue;
          break;
        case telemetry::InstrumentKind::kHistogram:
          same = sa->histogram.counts == sb->histogram.counts &&
                 sa->histogram.count == sb->histogram.count &&
                 sa->histogram.sum == sb->histogram.sum;
          break;
      }
    }
    if (!same) {
      std::printf("DETERMINISM MISMATCH: %s differs between threads=%u "
                  "and threads=%u\n",
                  describe(*sa).c_str(), threadsA, threadsB);
      equal = false;
    }
    ++ia;
    ++ib;
  }
  return equal;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Format { kBoth, kProm, kJson };
  Format format = Format::kBoth;
  std::string outPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--format") == 0 && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "prom") {
        format = Format::kProm;
      } else if (value == "json") {
        format = Format::kJson;
      } else {
        std::fprintf(stderr, "metrics_dump: unknown format '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: metrics_dump [--format prom|json] [--out FILE]\n");
      return 2;
    }
  }

  // Determinism sweep: fresh registry per thread count, semantic counters
  // must agree bit-for-bit.
  const unsigned sweep[] = {1, 2, 8};
  std::vector<telemetry::Snapshot> snapshots;
  for (unsigned threads : sweep) {
    telemetry::Registry registry;
    runWorkload(registry, threads);
    snapshots.push_back(telemetry::scrape(registry));
  }
  bool deterministic = true;
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    deterministic &= semanticallyEqual(snapshots[0], snapshots[i], sweep[0],
                                       sweep[i]);
  }

  // Exposition formats from the threads=2 run (pool metrics non-zero there:
  // threads=1 is the serial fast path and never builds a pool).
  std::string exposition;
  if (format == Format::kBoth || format == Format::kProm) {
    exposition += telemetry::toPrometheusText(snapshots[1]) + "\n";
  }
  if (format == Format::kBoth || format == Format::kJson) {
    exposition += telemetry::toJson(snapshots[1]) + "\n";
  }
  if (outPath.empty()) {
    std::printf("%s", exposition.c_str());
  } else {
    std::ofstream out(outPath, std::ios::binary);
    out << exposition;
    out.close();
    if (!out) {
      std::fprintf(stderr, "metrics_dump: cannot write %s\n", outPath.c_str());
      return 2;
    }
    std::printf("# wrote %zu bytes to %s\n", exposition.size(),
                outPath.c_str());
  }
  std::printf("# determinism across threads {1,2,8}: %s\n",
              deterministic ? "ok" : "FAILED");
  return deterministic ? 0 : 1;
}
