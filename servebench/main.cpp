// servebench: one serving benchmark for the annotation stack.
//
//   servebench --workload fleet_join|diurnal_soak|proxy_live --seed N
//              --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//
// Prints a host/build stamp, the workload's metrics as a table, and, as the
// last line of stdout, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics (and writes a Perfetto trace and
// a self-time table under --out-dir).  Exits 1 when any correctness check
// failed, 2 on bad arguments or an exception.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "media/kernels/kernels.h"
#include "servebench.h"

namespace {

using servebench::Metric;
using servebench::Options;
using servebench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: servebench --workload fleet_join|diurnal_soak|"
               "proxy_live --seed N --seconds S --trace 0|1 [--tiny] "
               "[--out-dir DIR]\n");
  return 2;
}

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void printStamp(const Options& opts, unsigned nproc) {
  std::printf(
      "stamp: {\"workload\": \"%s\", \"seed\": %llu, \"held_out_seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"tiny\": %d, \"nproc\": %u, "
      "\"ingest_threads\": %u, \"delivery_threads\": 1, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"kernel_level\": \"%s\"}\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      static_cast<unsigned long long>(servebench::kHeldOutSeed), opts.seconds,
      opts.trace ? 1 : 0, opts.tiny ? 1 : 0, nproc, opts.ingestThreads,
      compilerId().c_str(), SERVEBENCH_BUILD_TYPE,
      anno::media::kernels::levelName(anno::media::kernels::activeLevel()));
}

void printResult(const Result& r, const std::vector<Metric>& metrics) {
  std::printf("\n%-44s %22s %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-44s %22.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-44s %22.6f %s  (%llu failed / %llu attempted)\n",
              "error_rate",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              "ratio", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += i == 0 ? "" : ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--tiny") == 0) {
      opts.tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage();
    if (std::strcmp(arg, "--workload") == 0) {
      opts.workload = v;
      haveWorkload = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      opts.seconds = std::atof(v);
    } else if (std::strcmp(arg, "--trace") == 0) {
      opts.trace = std::atoi(v) != 0;
    } else if (std::strcmp(arg, "--out-dir") == 0) {
      opts.outDir = v;
    } else {
      return usage();
    }
  }
  if (!haveWorkload || !(opts.seconds > 0.0)) return usage();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opts.ingestThreads = std::min(nproc, 4u);
  printStamp(opts, nproc);

  Result result;
  try {
    if (opts.workload == "fleet_join") {
      result = servebench::runFleetJoin(opts);
    } else if (opts.workload == "diurnal_soak") {
      result = servebench::runDiurnalSoak(opts);
    } else if (opts.workload == "proxy_live") {
      result = servebench::runProxyLive(opts);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s threw: %s\n", opts.workload.c_str(),
                 e.what());
    return 2;
  }
  const std::vector<Metric>& metrics =
      opts.trace ? result.perLayer : result.endToEnd;
  for (const Metric& m : metrics) {
    result.check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  printResult(result, metrics);
  return result.failed == 0 ? 0 : 1;
}
