#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace anno::telemetry {

std::string formatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that still round-trips visually:
  // %.17g is exact but ugly; prefer %g when it encodes the same value.
  char shortBuf[64];
  std::snprintf(shortBuf, sizeof shortBuf, "%g", v);
  double back = 0.0;
  std::sscanf(shortBuf, "%lf", &back);
  return back == v ? shortBuf : buf;
}

std::string escapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string escapeJson(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Renders `{k="v",...}` (empty string for no labels); `extra` appends one
/// more pair (the histogram `le` label).
std::string labelBlock(const Labels& labels, const std::string& extraKey = "",
                       const std::string& extraValue = "") {
  if (labels.empty() && extraKey.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escapeLabelValue(v) + "\"";
  }
  if (!extraKey.empty()) {
    if (!first) out += ",";
    out += extraKey + "=\"" + escapeLabelValue(extraValue) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

double quantileFromBucketCounts(const std::vector<double>& bounds,
                                const std::vector<std::uint64_t>& counts,
                                double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cumBefore = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double inBucket = static_cast<double>(counts[i]);
    if (inBucket > 0.0 && cumBefore + inBucket >= rank) {
      if (i >= bounds.size()) return bounds.back();  // +Inf bucket
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * ((rank - cumBefore) / inBucket);
    }
    cumBefore += inBucket;
  }
  return bounds.back();
}

double histogramQuantile(const HistogramSnapshot& histogram, double q) {
  return quantileFromBucketCounts(histogram.bounds, histogram.counts, q);
}

std::uint64_t Snapshot::counterValue(const std::string& name,
                                     const Labels& labels) const {
  Labels canon = labels;
  std::sort(canon.begin(), canon.end());
  for (const InstrumentSnapshot& inst : instruments) {
    if (inst.kind == InstrumentKind::kCounter && inst.name == name &&
        inst.labels == canon) {
      return inst.counterValue;
    }
  }
  return 0;
}

Snapshot scrape(const Registry& registry) {
  Snapshot snap;
  {
    const std::lock_guard<std::mutex> lock(registry.mu_);
    snap.instruments.reserve(registry.instruments_.size());
    for (const auto& instPtr : registry.instruments_) {
      const Registry::Instrument& inst = *instPtr;
      InstrumentSnapshot out;
      out.name = inst.name;
      out.labels = inst.labels;
      out.help = inst.help;
      out.kind = inst.kind;
      switch (inst.kind) {
        case InstrumentKind::kCounter:
          out.counterValue = inst.counter->value();
          break;
        case InstrumentKind::kGauge:
          out.gaugeValue = inst.gauge->value();
          break;
        case InstrumentKind::kHistogram: {
          const Histogram& h = *inst.histogram;
          out.histogram.bounds = h.bounds();
          out.histogram.counts.reserve(h.bounds().size() + 1);
          for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
            out.histogram.counts.push_back(h.bucketCount(i));
          }
          out.histogram.count = h.count();
          out.histogram.sum = h.sum();
          break;
        }
      }
      snap.instruments.push_back(std::move(out));
    }
  }
  std::sort(snap.instruments.begin(), snap.instruments.end(),
            [](const InstrumentSnapshot& a, const InstrumentSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

Snapshot scrape() { return scrape(Registry::global()); }

std::string toPrometheusText(const Snapshot& snapshot) {
  std::string out;
  std::string lastFamily;
  for (const InstrumentSnapshot& inst : snapshot.instruments) {
    if (inst.name != lastFamily) {
      lastFamily = inst.name;
      if (!inst.help.empty()) {
        // HELP text follows the exposition-format escaping rules for
        // comments: a raw newline here would truncate the line and turn
        // the remainder into garbage series.
        std::string help;
        help.reserve(inst.help.size());
        for (char c : inst.help) {
          if (c == '\\') help += "\\\\";
          else if (c == '\n') help += "\\n";
          else help += c;
        }
        out += "# HELP " + inst.name + " " + help + "\n";
      }
      out += "# TYPE " + inst.name + " ";
      out += instrumentKindName(inst.kind);
      out += "\n";
    }
    char num[64];
    switch (inst.kind) {
      case InstrumentKind::kCounter:
        std::snprintf(num, sizeof num, " %" PRIu64 "\n", inst.counterValue);
        out += inst.name + labelBlock(inst.labels) + num;
        break;
      case InstrumentKind::kGauge:
        std::snprintf(num, sizeof num, " %" PRId64 "\n", inst.gaugeValue);
        out += inst.name + labelBlock(inst.labels) + num;
        break;
      case InstrumentKind::kHistogram: {
        const HistogramSnapshot& h = inst.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += h.counts[i];
          std::snprintf(num, sizeof num, " %" PRIu64 "\n", cumulative);
          out += inst.name + "_bucket" +
                 labelBlock(inst.labels, "le", formatDouble(h.bounds[i])) +
                 num;
        }
        cumulative += h.counts.back();
        std::snprintf(num, sizeof num, " %" PRIu64 "\n", cumulative);
        out += inst.name + "_bucket" + labelBlock(inst.labels, "le", "+Inf") +
               num;
        out += inst.name + "_sum" + labelBlock(inst.labels) + " " +
               formatDouble(h.sum) + "\n";
        std::snprintf(num, sizeof num, " %" PRIu64 "\n", h.count);
        out += inst.name + "_count" + labelBlock(inst.labels) + num;
        break;
      }
    }
  }
  return out;
}

std::string toJson(const Snapshot& snapshot) {
  std::string out = "{\n  \"instruments\": [";
  bool firstInst = true;
  for (const InstrumentSnapshot& inst : snapshot.instruments) {
    out += firstInst ? "\n" : ",\n";
    firstInst = false;
    out += "    {\"name\": \"" + escapeJson(inst.name) + "\", \"kind\": \"";
    out += instrumentKindName(inst.kind);
    out += "\", \"labels\": {";
    bool firstLabel = true;
    for (const auto& [k, v] : inst.labels) {
      if (!firstLabel) out += ", ";
      firstLabel = false;
      out += '"';
      out += escapeJson(k);
      out += "\": \"";
      out += escapeJson(v);
      out += '"';
    }
    out += "}";
    char num[96];
    switch (inst.kind) {
      case InstrumentKind::kCounter:
        std::snprintf(num, sizeof num, ", \"value\": %" PRIu64,
                      inst.counterValue);
        out += num;
        break;
      case InstrumentKind::kGauge:
        std::snprintf(num, sizeof num, ", \"value\": %" PRId64,
                      inst.gaugeValue);
        out += num;
        break;
      case InstrumentKind::kHistogram: {
        const HistogramSnapshot& h = inst.histogram;
        std::snprintf(num, sizeof num, ", \"count\": %" PRIu64 ", \"sum\": ",
                      h.count);
        out += num;
        out += formatDouble(h.sum);
        out += ", \"p50\": ";
        out += formatDouble(histogramQuantile(h, 0.50));
        out += ", \"p90\": ";
        out += formatDouble(histogramQuantile(h, 0.90));
        out += ", \"p99\": ";
        out += formatDouble(histogramQuantile(h, 0.99));
        out += ", \"buckets\": [";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          if (i > 0) out += ", ";
          out += "{\"le\": ";
          out += i < h.bounds.size() ? formatDouble(h.bounds[i])
                                     : std::string("\"+Inf\"");
          std::snprintf(num, sizeof num, ", \"count\": %" PRIu64 "}",
                        h.counts[i]);
          out += num;
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace anno::telemetry
