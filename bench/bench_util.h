// Shared helpers for the figure-regeneration benches: fixed-width table
// printing, the standard experiment configuration and the JSON artifact
// writer.
//
// Every bench prints (a) a header naming the paper figure it regenerates,
// (b) the rows/series of that figure, and (c) a CSV block that can be piped
// into any plotting tool.  Bench parameters (clip scale, resolution) are
// smaller than the paper's 320x240 / 30s-3min clips so the whole suite runs
// in seconds; savings percentages are resolution-independent.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/export.h"

namespace anno::bench {

/// Standard knobs used by the playback benches.
struct BenchParams {
  double clipScale = 0.20;  ///< fraction of the paper clip duration
  int width = 96;
  int height = 72;
};

inline void printHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void printRule(int width = 62) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Simple aligned table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void addRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> w(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c) w[c] = header_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < w.size(); ++c) {
        w[c] = std::max(w[c], row[c].size());
      }
    }
    const auto printRow = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(w[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    printRow(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < w.size(); ++c) total += w[c] + 2;
    printRule(static_cast<int>(total));
    for (const auto& row : rows_) printRow(row);
  }

  /// CSV block (machine-readable companion to the pretty table).
  void printCsv(const std::string& tag) const {
    std::printf("\n[csv:%s]\n", tag.c_str());
    const auto printRow = [](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf("%s%s", c ? "," : "", row[c].c_str());
      }
      std::printf("\n");
    };
    printRow(header_);
    for (const auto& row : rows_) printRow(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

inline std::string pct(double fraction, int decimals = 1) {
  return fmt(100.0 * fraction, decimals);
}

/// Where a bench's BENCH_*.json artifact lands: $ANNO_BENCH_JSON_DIR if
/// set, else the repo root baked in at configure time
/// (ANNO_BENCH_JSON_DEFAULT_DIR), else the working directory.  One
/// location regardless of where the binary is invoked from, so the perf
/// trajectory files can be tracked in-tree.
inline std::string jsonPath(const std::string& filename) {
  const char* dir = std::getenv("ANNO_BENCH_JSON_DIR");
#ifdef ANNO_BENCH_JSON_DEFAULT_DIR
  if (dir == nullptr || *dir == '\0') dir = ANNO_BENCH_JSON_DEFAULT_DIR;
#endif
  if (dir == nullptr || *dir == '\0') return filename;
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  return path + filename;
}

/// The one writer of the bench JSON artifacts (BENCH_*.json,
/// PARETO_backends.json): a root object filled in order.  field() adds an
/// object member, element() an array element; object()/array() open a
/// container (named inside an object, unnamed inside an array) and end()
/// closes the innermost one.  Two-space indent, strings through
/// telemetry::escapeJson, every double "%.6g" (non-finite as null).
class JsonReport {
 public:
  JsonReport& object(const std::string& key = {}) { return open(key, '{'); }
  JsonReport& array(const std::string& key = {}) { return open(key, '['); }
  JsonReport& end() {
    const char close = closers_.back();
    closers_.pop_back();
    if (!empty_) newline();
    out_ += close;
    empty_ = false;
    return *this;
  }
  template <typename T>
  JsonReport& field(const std::string& key, const T& value) {
    return put(key, render(value));
  }
  template <typename T>
  JsonReport& element(const T& value) { return put({}, render(value)); }

  /// Closes whatever is still open, writes the document to
  /// jsonPath(filename) and prints "wrote <path>".
  void write(const std::string& filename) {
    while (!closers_.empty()) end();
    const std::string path = jsonPath(filename);
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr && std::fprintf(f, "%s\n", out_.c_str()) > 0;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    std::fprintf(ok ? stdout : stderr, "%s %s\n",
                 ok ? "wrote" : "cannot write", path.c_str());
  }

 private:
  template <typename T>
  static std::string render(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(v));
      return std::isfinite(v) ? buf : "null";
    } else {
      return '"' + telemetry::escapeJson(v) + '"';  // any string type
    }
  }

  /// Appends one member (`key` non-empty) or element (`key` empty).
  JsonReport& put(const std::string& key, const std::string& text) {
    if (!empty_) out_ += ',';
    newline();
    if (!key.empty()) out_ += render(key) + ": ";
    out_ += text;
    empty_ = false;
    return *this;
  }

  JsonReport& open(const std::string& key, char bracket) {
    put(key, std::string(1, bracket));
    closers_ += static_cast<char>(bracket + 2);  // '{' -> '}', '[' -> ']'
    empty_ = true;
    return *this;
  }

  void newline() {
    out_ += '\n';
    out_.append(2 * closers_.size(), ' ');
  }

  std::string out_ = "{";
  std::string closers_ = "}";  ///< one closing bracket per open container
  bool empty_ = true;          ///< innermost container has no entry yet
};

}  // namespace anno::bench
