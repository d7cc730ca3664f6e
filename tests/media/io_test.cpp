#include "media/io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "media/rng.h"

namespace anno::media {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("annolight_io_test_" +
            std::to_string(std::random_device{}()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  static std::string readAll(const std::string& file) {
    std::ifstream f(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), {}};
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, PpmRoundtrip) {
  SplitMix64 rng(1);
  Image img(13, 7);
  for (Rgb8& p : img.pixels()) {
    p = Rgb8{static_cast<std::uint8_t>(rng.below(256)),
             static_cast<std::uint8_t>(rng.below(256)),
             static_cast<std::uint8_t>(rng.below(256))};
  }
  writePpm(img, path("a.ppm"));
  const std::string header = "P6\n13 7\n255\n";
  const std::string bytes = readAll(path("a.ppm"));
  ASSERT_EQ(bytes.size(), header.size() + img.pixelCount() * 3);
  EXPECT_EQ(bytes.substr(0, header.size()), header);
  EXPECT_EQ(std::memcmp(bytes.data() + header.size(), img.pixels().data(),
                        img.pixelCount() * 3),
            0);
}

TEST_F(IoTest, PgmRoundtrip) {
  SplitMix64 rng(2);
  GrayImage img(9, 11);
  for (std::uint8_t& p : img.pixels()) {
    p = static_cast<std::uint8_t>(rng.below(256));
  }
  writePgm(img, path("a.pgm"));
  const std::string header = "P5\n9 11\n255\n";
  const std::string bytes = readAll(path("a.pgm"));
  ASSERT_EQ(bytes.size(), header.size() + img.pixelCount());
  EXPECT_EQ(bytes.substr(0, header.size()), header);
  EXPECT_EQ(std::memcmp(bytes.data() + header.size(), img.pixels().data(),
                        img.pixelCount()),
            0);
}

TEST_F(IoTest, WriteEmptyThrows) {
  EXPECT_THROW(writePpm(Image{}, path("x.ppm")), std::invalid_argument);
  EXPECT_THROW(writePgm(GrayImage{}, path("x.pgm")), std::invalid_argument);
}

TEST_F(IoTest, CsvRendering) {
  CsvWriter csv({"clip", "q", "savings"});
  csv.addRow(std::vector<std::string>{"themovie", "0.05", "0.62"});
  csv.addRow(std::vector<double>{1.0, 0.1, 0.5});
  const std::string s = csv.str();
  EXPECT_EQ(s, "clip,q,savings\nthemovie,0.05,0.62\n1,0.1,0.5\n");
}

TEST_F(IoTest, CsvValidation) {
  EXPECT_THROW(CsvWriter({}), std::invalid_argument);
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.addRow(std::vector<std::string>{"1"}),
               std::invalid_argument);
}

TEST_F(IoTest, CsvSaveWritesFile) {
  CsvWriter csv({"x"});
  csv.addRow(std::vector<double>{42.0});
  csv.save(path("t.csv"));
  EXPECT_TRUE(std::filesystem::exists(path("t.csv")));
}

}  // namespace
}  // namespace anno::media
