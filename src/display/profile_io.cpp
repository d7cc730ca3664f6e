#include "display/profile_io.h"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace anno::display {
namespace {

PanelType parsePanelType(const std::string& s) {
  if (s == "reflective") return PanelType::kReflective;
  if (s == "transmissive") return PanelType::kTransmissive;
  if (s == "transflective") return PanelType::kTransflective;
  throw std::runtime_error("device profile: unknown panel type '" + s + "'");
}

BacklightType parseBacklightType(const std::string& s) {
  if (s == "CCFL") return BacklightType::kCcfl;
  if (s == "LED") return BacklightType::kLed;
  throw std::runtime_error("device profile: unknown backlight type '" + s +
                           "'");
}

}  // namespace

std::string formatDeviceProfile(const DeviceModel& device) {
  std::ostringstream os;
  os << "annolight-device 1\n";
  os << "name " << device.name << "\n";
  os << "panel " << toString(device.panel.type) << "\n";
  os << "transmittance " << device.panel.transmittance << "\n";
  os << "reflectance " << device.panel.reflectance << "\n";
  os << "backlight " << toString(device.backlight.type) << "\n";
  os << "max_watts " << device.backlight.maxPowerWatts << "\n";
  os << "floor_watts " << device.backlight.floorPowerWatts << "\n";
  os << "response_ms " << device.backlight.responseTimeMs << "\n";
  os << "transfer";
  for (int level = 0; level < 256; ++level) {
    os << ' ' << device.transfer.relLuminance(level);
  }
  os << "\n";
  return os.str();
}

DeviceModel parseDeviceProfile(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  DeviceModel device;
  bool sawHeader = false;
  bool sawTransfer = false;
  bool sawName = false;
  int lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line
    const auto fail = [&](const std::string& what) -> std::runtime_error {
      return std::runtime_error("device profile line " +
                                std::to_string(lineNo) + ": " + what);
    };
    if (!sawHeader) {
      int version = 0;
      if (key != "annolight-device" || !(ls >> version) || version != 1) {
        throw fail("expected 'annolight-device 1' header");
      }
      sawHeader = true;
      continue;
    }
    if (key == "name") {
      if (!(ls >> device.name)) throw fail("missing name");
      sawName = true;
    } else if (key == "panel") {
      std::string v;
      if (!(ls >> v)) throw fail("missing panel type");
      try {
        device.panel.type = parsePanelType(v);
      } catch (const std::runtime_error& e) {
        throw fail(e.what());
      }
    } else if (key == "transmittance") {
      if (!(ls >> device.panel.transmittance) ||
          device.panel.transmittance <= 0.0) {
        throw fail("bad transmittance");
      }
    } else if (key == "reflectance") {
      if (!(ls >> device.panel.reflectance) ||
          device.panel.reflectance < 0.0) {
        throw fail("bad reflectance");
      }
    } else if (key == "backlight") {
      std::string v;
      if (!(ls >> v)) throw fail("missing backlight type");
      try {
        device.backlight.type = parseBacklightType(v);
      } catch (const std::runtime_error& e) {
        throw fail(e.what());
      }
    } else if (key == "max_watts") {
      if (!(ls >> device.backlight.maxPowerWatts) ||
          device.backlight.maxPowerWatts <= 0.0) {
        throw fail("bad max_watts");
      }
    } else if (key == "floor_watts") {
      if (!(ls >> device.backlight.floorPowerWatts) ||
          device.backlight.floorPowerWatts < 0.0) {
        throw fail("bad floor_watts");
      }
    } else if (key == "response_ms") {
      if (!(ls >> device.backlight.responseTimeMs) ||
          device.backlight.responseTimeMs < 0.0) {
        throw fail("bad response_ms");
      }
    } else if (key == "transfer") {
      std::array<double, 256> lut{};
      for (int level = 0; level < 256; ++level) {
        if (!(ls >> lut[level])) {
          throw fail("transfer needs 256 values, stopped at " +
                     std::to_string(level));
        }
      }
      try {
        device.transfer = TransferFunction::fromLut(lut);
      } catch (const std::invalid_argument& e) {
        throw fail(e.what());
      }
      sawTransfer = true;
    } else {
      throw fail("unknown key '" + key + "'");
    }
  }
  if (!sawHeader) throw std::runtime_error("device profile: empty input");
  if (!sawName) throw std::runtime_error("device profile: missing name");
  if (!sawTransfer) {
    throw std::runtime_error("device profile: missing transfer LUT");
  }
  return device;
}

void saveDeviceProfile(const DeviceModel& device, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f << formatDeviceProfile(device);
  if (!f) throw std::runtime_error("write failed: " + path);
}

DeviceModel loadDeviceProfile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open: " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return parseDeviceProfile(os.str());
}

}  // namespace anno::display
