// Annotation-driven DVFS (the paper's Sec. 3 application: "frequency/
// voltage scaling can be applied before decoding is finished, because the
// annotated information is available early from the data stream").
//
// GOP-coded clips alternate heavy I frames with cheap P frames.  Annotated
// DVFS knows each frame's decode workload ahead of time and picks the
// lowest feasible operating point; reactive DVFS predicts from the previous
// frame and blows deadlines at every P->I transition; race-to-idle burns
// the top OPP always.
#include "bench_util.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "power/dvfs.h"

using namespace anno;

int main() {
  bench::printHeader(
      "Sec. 3 application: annotation-driven CPU DVFS (XScale PXA255)");
  const power::DvfsCpu cpu = power::DvfsCpu::xscalePxa255();
  // Work model scaled so a (bench-sized) I frame needs close to the frame
  // deadline at the top OPP -- the software-MPEG reality of the paper's
  // 400 MHz PDA playing at its limit.
  power::DecodeWorkModel work;
  work.cyclesPerByte = 6000.0;
  work.cyclesPerPixel = 500.0;

  bench::Table table(
      {"clip", "policy", "cpu_energy_J", "avg_freq_MHz", "missed_deadlines",
       "savings_vs_race_pct"});
  for (media::PaperClip clipId :
       {media::PaperClip::kTheMovie, media::PaperClip::kIceAge,
        media::PaperClip::kOfficeXp}) {
    const media::VideoClip clip =
        media::generatePaperClip(clipId, 0.10, 96, 72);
    const media::EncodedClip enc = media::encodeClip(clip, {75, 12});
    const power::ComplexityTrack track =
        power::ComplexityTrack::fromEncodedClip(enc, work);

    const power::DvfsResult race =
        power::scheduleRaceToIdle(cpu, track, clip.fps);
    const power::DvfsResult annotated =
        power::scheduleAnnotated(cpu, track, clip.fps);
    const power::DvfsResult reactive =
        power::scheduleReactive(cpu, track, clip.fps);

    const auto addRow = [&](const char* name, const power::DvfsResult& r) {
      table.addRow({clip.name, name, bench::fmt(r.energyJoules, 3),
                    bench::fmt(r.averageFreqMHz, 0),
                    std::to_string(r.missedDeadlines),
                    bench::pct(r.savingsVs(race))});
    };
    addRow("race-to-idle", race);
    addRow("reactive", reactive);
    addRow("annotated", annotated);
  }
  table.print();
  std::printf(
      "\nAnnotation track cost: the per-frame workload annotation adds ~1-2\n"
      "bytes/frame (delta-varint) to the stream.  Reading: annotated DVFS\n"
      "matches or beats reactive on energy with ZERO deadline misses --\n"
      "reactive mispredicts every P->I transition, the same failure mode\n"
      "the paper describes for history-based backlight prediction.\n");
  table.printCsv("dvfs_annotations");
  return 0;
}
