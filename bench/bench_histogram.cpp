// Figure 3: "Image histogram properties" -- the average point and dynamic
// range of representative frames, plus how compensation + backlight dimming
// transform the histogram (shift of the average, change of the range).
#include "bench_util.h"
#include "compensate/compensate.h"
#include "compensate/planner.h"
#include "display/panel.h"
#include "media/clipgen.h"
#include "media/histogram.h"

using namespace anno;

namespace {

media::Image sceneFrame(std::uint8_t bg, std::uint8_t spread, double hlFrac,
                        std::uint64_t seed) {
  media::SceneSpec scene;
  scene.backgroundLuma = bg;
  scene.backgroundSpread = spread;
  scene.highlightFraction = hlFrac;
  scene.highlightLuma = 250;
  return media::renderSceneFrame(scene, 128, 96, 0.0, media::SplitMix64(seed));
}

}  // namespace

int main() {
  bench::printHeader("Figure 3: image histogram properties");
  struct Case {
    const char* name;
    media::Image frame;
  };
  const std::vector<Case> cases = {
      {"dark_scene", sceneFrame(50, 20, 0.0, 1)},
      {"dark_with_highlights", sceneFrame(55, 25, 0.006, 2)},
      {"medium_scene", sceneFrame(120, 45, 0.002, 3)},
      {"bright_scene", sceneFrame(200, 35, 0.08, 4)},
  };

  bench::Table table({"frame", "avg_point", "dyn_range", "low", "high",
                      "frac_above_200"});
  for (const Case& c : cases) {
    const media::Histogram h = media::Histogram::ofImage(c.frame);
    table.addRow({c.name, bench::fmt(h.averagePoint(), 1),
                  std::to_string(h.dynamicRange()),
                  std::to_string(h.lowPoint()),
                  std::to_string(h.highPoint()),
                  bench::fmt(h.fractionAbove(200), 4)});
  }
  table.print();

  std::printf("\nEffect of compensation (dark_with_highlights, 10%% clip):\n");
  const display::DeviceModel device =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  const media::Image& frame = cases[1].frame;
  const media::Histogram before = media::Histogram::ofImage(frame);
  const compensate::CompensationPlan plan =
      compensate::planForHistogram(device, before, 0.10);
  const media::Image comp = compensate::contrastEnhance(frame, plan.gainK);
  const media::Histogram after = media::Histogram::ofImage(comp);
  std::printf(
      "  gain k=%.2f backlight=%d: avg %.1f -> %.1f, range %d -> %d\n",
      plan.gainK, plan.backlightLevel, before.averagePoint(),
      after.averagePoint(), before.dynamicRange(), after.dynamicRange());
  std::printf("\nPixel-value histogram (before | after compensation):\n%s\n%s",
              before.asciiPlot(8, 60).c_str(), after.asciiPlot(8, 60).c_str());
  table.printCsv("fig3_histogram_properties");

  bench::JsonReport json;
  json.array("frames");
  for (const Case& c : cases) {
    const media::Histogram h = media::Histogram::ofImage(c.frame);
    json.object()
        .field("frame", c.name)
        .field("avg_point", h.averagePoint())
        .field("dyn_range", h.dynamicRange())
        .field("low", h.lowPoint()).field("high", h.highPoint())
        .field("frac_above_200", h.fractionAbove(200)).end();
  }
  json.end().object("compensation")
      .field("gain_k", plan.gainK)
      .field("backlight_level", plan.backlightLevel)
      .field("avg_before", before.averagePoint())
      .field("avg_after", after.averagePoint())
      .field("range_before", before.dynamicRange())
      .field("range_after", after.dynamicRange())
      .write("BENCH_histogram.json");
  return 0;
}
