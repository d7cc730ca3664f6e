#include "media/io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace anno::media {
namespace {

void writeFile(const std::string& path, const std::string& header,
               const void* data, std::size_t size) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f << header;
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!f) throw std::runtime_error("write failed: " + path);
}

}  // namespace

void writePpm(const Image& img, const std::string& path) {
  if (img.empty()) throw std::invalid_argument("writePpm: empty image");
  std::ostringstream header;
  header << "P6\n" << img.width() << ' ' << img.height() << "\n255\n";
  static_assert(sizeof(Rgb8) == 3, "Rgb8 must be packed for PPM output");
  writeFile(path, header.str(), img.pixels().data(),
            img.pixelCount() * sizeof(Rgb8));
}

void writePgm(const GrayImage& img, const std::string& path) {
  if (img.empty()) throw std::invalid_argument("writePgm: empty image");
  std::ostringstream header;
  header << "P5\n" << img.width() << ' ' << img.height() << "\n255\n";
  writeFile(path, header.str(), img.pixels().data(), img.pixelCount());
}

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("CsvWriter: header must be non-empty");
  }
}

void CsvWriter::addRow(const std::vector<std::string>& row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("CsvWriter: row width != header width");
  }
  rows_.push_back(row);
}

void CsvWriter::addRow(const std::vector<double>& row) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) {
    std::ostringstream os;
    os << v;
    cells.push_back(os.str());
  }
  addRow(cells);
}

std::string CsvWriter::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    os << (i ? "," : "") << header_[i];
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << (i ? "," : "") << row[i];
    }
    os << '\n';
  }
  return os.str();
}

void CsvWriter::save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f << str();
  if (!f) throw std::runtime_error("write failed: " + path);
}

}  // namespace anno::media
