// Minimal file output: binary PPM/PGM writers (for eyeballing frames and
// camera snapshots) and CSV table writing (for regenerating the paper's
// figures in any plotting tool).
#pragma once

#include <string>
#include <vector>

#include "media/image.h"

namespace anno::media {

/// Writes a binary PPM (P6).  Throws std::runtime_error on I/O failure.
void writePpm(const Image& img, const std::string& path);

/// Writes a binary PGM (P5).
void writePgm(const GrayImage& img, const std::string& path);

/// Simple CSV writer: header row then data rows; values are rendered with
/// full precision.  Used by every bench to dump figure data.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void addRow(const std::vector<std::string>& row);
  void addRow(const std::vector<double>& row);

  /// Renders the full table.
  [[nodiscard]] std::string str() const;

  /// Writes the table to a file.  Throws std::runtime_error on failure.
  void save(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace anno::media
