// trace_report: captures an end-to-end traced session and renders every
// export the tracing subsystem offers.
//
// Default mode runs a canned server -> proxy -> client workload (one clip
// annotated at the server, re-annotated by the proxy, received by a thin
// client, its annotation track recovered over a lossy hop, and its playback
// simulated over a dipping wireless link) with ONE TraceRecorder attached
// to every layer, then writes:
//   <outdir>/trace_report.perfetto.json   Chrome trace-event JSON; load it
//                                         at ui.perfetto.dev
//   <outdir>/trace_report.dump            replayable plain-text capture
//   <outdir>/trace_report.timeline.json   reconstructed power/QoS timeline
//   <outdir>/trace_report.timeline.csv    per-frame rows of the same
//
// Doubles as the tracing determinism check: the workload runs at 1, 2 and
// 8 annotator threads into fresh recorders, and the per-(cat,name) event
// counts must be identical across thread counts.  Pool task spans (cat
// "pool") are exempt -- which thread claims which chunk is a race by
// design -- everything else differing is a bug and exits nonzero.
//
// Replay mode skips the workload and rebuilds the reports offline from a
// previous capture:
//   trace_report --replay trace_report.dump [--outdir DIR]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "power/power.h"
#include "soak/harness.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"

using namespace anno;

namespace {

/// One full traced pass: every layer of Fig. 1 feeds the same recorder.
/// The shared canned harness (soak/harness.h) narrowed to a single-clip,
/// single-session timeline: the proxy re-annotates the SAME clip (its
/// transcode span and deduplicated scene spans land in the trace without a
/// second clip), the client receives only the server stream, and the lossy
/// annotation hop carries the per-scene track with NACK recovery.  The
/// playback simulation provably stalls once for rebuffer spans.
void runTracedWorkload(telemetry::TraceRecorder& trace, unsigned threads) {
  soak::HarnessOptions opts;
  opts.threads = threads;
  opts.trace = &trace;
  opts.singleSession = true;
  soak::runCannedWorkload(opts);
}

/// Event counts keyed by (cat, name), excluding the scheduling-dependent
/// pool track -- the semantic shape of a capture.
std::map<std::pair<std::string, std::string>, std::size_t> semanticCounts(
    const telemetry::TraceSnapshot& snapshot) {
  std::map<std::pair<std::string, std::string>, std::size_t> counts;
  for (const telemetry::TraceSnapshotEvent& ev : snapshot.events) {
    if (ev.cat == "pool") continue;
    ++counts[{ev.cat, ev.name}];
  }
  return counts;
}

bool checkDeterminism(
    const std::map<std::pair<std::string, std::string>, std::size_t>& a,
    const std::map<std::pair<std::string, std::string>, std::size_t>& b,
    unsigned threadsA, unsigned threadsB) {
  bool equal = true;
  for (const auto& [key, count] : a) {
    const auto it = b.find(key);
    const std::size_t other = it != b.end() ? it->second : 0;
    if (count != other) {
      std::printf(
          "DETERMINISM MISMATCH: %s/%s: %zu events at threads=%u, %zu at "
          "threads=%u\n",
          key.first.c_str(), key.second.c_str(), count, threadsA, other,
          threadsB);
      equal = false;
    }
  }
  for (const auto& [key, count] : b) {
    if (a.find(key) == a.end()) {
      std::printf(
          "DETERMINISM MISMATCH: %s/%s: absent at threads=%u, %zu at "
          "threads=%u\n",
          key.first.c_str(), key.second.c_str(), threadsA, count, threadsB);
      equal = false;
    }
  }
  return equal;
}

bool writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  if (!out) {
    std::fprintf(stderr, "trace_report: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), contents.size());
  return true;
}

/// Renders every report from one snapshot into `outdir`.
bool writeReports(const telemetry::TraceSnapshot& snapshot,
                  const std::string& outdir) {
  const std::string base = outdir + "/trace_report";
  bool ok = writeFile(base + ".perfetto.json",
                      telemetry::toChromeTraceJson(snapshot));
  ok = writeFile(base + ".dump", telemetry::serializeTraceDump(snapshot)) && ok;
  const telemetry::SessionTimeline timeline =
      telemetry::reconstructTimeline(snapshot, power::makeIpaq5555Power());
  ok = writeFile(base + ".timeline.json", timeline.toJson()) && ok;
  ok = writeFile(base + ".timeline.csv", timeline.toCsv()) && ok;
  std::printf(
      "timeline: %s on %s, %lld frames @ %.3g fps, %zu scenes, "
      "backlight savings %.1f%%, device savings %.1f%%, %lld stalls "
      "(%.2fs)\n",
      timeline.clip.c_str(), timeline.device.c_str(),
      static_cast<long long>(timeline.frames), timeline.fps,
      timeline.scenes.size(), 100.0 * timeline.backlightSavingsFraction,
      100.0 * timeline.deviceSavingsFraction,
      static_cast<long long>(timeline.stallEvents), timeline.stallSeconds);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string outdir = ".";
  std::string replayPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--outdir") == 0 && i + 1 < argc) {
      outdir = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replayPath = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: trace_report [--outdir DIR] [--replay DUMP]\n");
      return 2;
    }
  }

  if (!replayPath.empty()) {
    std::ifstream in(replayPath, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "trace_report: cannot read %s\n",
                   replayPath.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const telemetry::TraceSnapshot snapshot =
        telemetry::parseTraceDump(buf.str());
    std::printf("replaying %s: %zu events, %llu dropped\n",
                replayPath.c_str(), snapshot.events.size(),
                static_cast<unsigned long long>(snapshot.droppedEvents));
    return writeReports(snapshot, outdir) ? 0 : 1;
  }

  // Determinism sweep: fresh recorder per thread count; semantic event
  // counts must agree.
  const unsigned sweep[] = {1, 2, 8};
  std::vector<telemetry::TraceSnapshot> snapshots;
  for (unsigned threads : sweep) {
    telemetry::TraceRecorder trace;
    runTracedWorkload(trace, threads);
    snapshots.push_back(telemetry::snapshotTrace(trace));
    std::printf("threads=%u: %zu events recorded, %llu dropped\n", threads,
                snapshots.back().events.size(),
                static_cast<unsigned long long>(
                    snapshots.back().droppedEvents));
  }
  bool deterministic = true;
  const auto reference = semanticCounts(snapshots[0]);
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    deterministic &= checkDeterminism(reference, semanticCounts(snapshots[i]),
                                      sweep[0], sweep[i]);
  }

  // Reports from the threads=2 capture (it exercises the pool tracks too);
  // the dump must replay to the exact same snapshot.
  const telemetry::TraceSnapshot& chosen = snapshots[1];
  const bool roundTrip =
      telemetry::parseTraceDump(telemetry::serializeTraceDump(chosen)) ==
      chosen;
  const bool wrote = writeReports(chosen, outdir);
  std::printf("dump round-trip: %s\n", roundTrip ? "ok" : "FAILED");
  std::printf("determinism across threads {1,2,8}: %s\n",
              deterministic ? "ok" : "FAILED");
  return deterministic && roundTrip && wrote ? 0 : 1;
}
