// stream::SessionScheduler: per-session state machine, service policies,
// join/leave mid-stream, determinism, and end-to-end decode validation.
#include "stream/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/track_cache.h"
#include "media/clipgen.h"
#include "stream/client.h"
#include "telemetry/metrics.h"

namespace anno::stream {
namespace {

ClientCapabilities ipaqCaps(std::size_t quality = 2) {
  const display::DeviceModel d =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  return ClientCapabilities{d.name, d.transfer, quality};
}

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.addClip(
        media::generatePaperClip(media::PaperClip::kCatwoman, 0.02, 32, 24));
    server_.addClip(
        media::generatePaperClip(media::PaperClip::kOfficeXp, 0.02, 32, 24));
  }

  FleetSessionConfig fastSession(const std::string& clip = "catwoman") {
    FleetSessionConfig cfg;
    cfg.clipName = clip;
    cfg.caps = ipaqCaps();
    cfg.bandwidth = BandwidthTrace::constant(8e6);  // ample
    return cfg;
  }

  MediaServer server_;
};

TEST_F(SchedulerTest, SingleSessionPlaysToCompletion) {
  SessionScheduler sched(server_);
  const std::uint64_t id = sched.join(fastSession());
  const std::uint64_t ticks = sched.run();
  EXPECT_GT(ticks, 0u);
  EXPECT_TRUE(sched.allSessionsTerminal());
  const SessionReport r = sched.report(id);
  EXPECT_EQ(r.phase, SessionPhase::kCompleted);
  EXPECT_GT(r.startupDelaySeconds, 0.0);
  EXPECT_GT(r.playedSeconds, 0.0);
  EXPECT_EQ(r.bytesDelivered, r.streamBytes);
  const FleetStats stats = sched.stats();
  EXPECT_EQ(stats.sessionsJoined, 1u);
  EXPECT_EQ(stats.sessionsCompleted, 1u);
  EXPECT_EQ(stats.activeSessions, 0u);
}

TEST_F(SchedulerTest, StateMachineVisitsBufferingThenPlaying) {
  SessionScheduler::Config cfg;
  cfg.tickSeconds = 0.05;
  SessionScheduler sched(server_, cfg);
  FleetSessionConfig session = fastSession();
  session.bandwidth = BandwidthTrace::constant(2e5);  // slow enough to watch
  session.startupBufferSeconds = 0.5;
  const std::uint64_t id = sched.join(session);
  EXPECT_EQ(sched.report(id).phase, SessionPhase::kBuffering);
  bool sawPlaying = false;
  for (int i = 0; i < 100000 && !sched.allSessionsTerminal(); ++i) {
    sched.tick();
    if (sched.allSessionsTerminal()) break;
    if (sched.report(id).phase == SessionPhase::kPlaying) sawPlaying = true;
  }
  EXPECT_TRUE(sawPlaying);
  EXPECT_EQ(sched.report(id).phase, SessionPhase::kCompleted);
}

TEST_F(SchedulerTest, UndersizedLinkCausesStalls) {
  // A link slower than the content bitrate guarantees playback outruns
  // delivery once started, whatever the clip's exact size.
  const std::size_t streamBytes = server_.serve("catwoman", ipaqCaps()).size();
  const CatalogEntry& e = server_.entry("catwoman");
  const double duration =
      static_cast<double>(e.original.frames.size()) / e.original.fps;
  const double contentBitsPerSec =
      static_cast<double>(streamBytes) * 8.0 / duration;
  SessionScheduler::Config cfg;
  cfg.tickSeconds = 0.05;
  SessionScheduler sched(server_, cfg);
  FleetSessionConfig session = fastSession();
  session.bandwidth = BandwidthTrace::constant(contentBitsPerSec * 0.5);
  session.startupBufferSeconds = 0.2;
  session.bufferCapacitySeconds = 0.5;
  const std::uint64_t id = sched.join(session);
  sched.run(200000);
  const SessionReport r = sched.report(id);
  ASSERT_EQ(r.phase, SessionPhase::kCompleted);
  EXPECT_GT(r.stalls, 0u) << "undersized link must cause a rebuffer";
  EXPECT_GT(r.stallSeconds, 0.0);
}

TEST_F(SchedulerTest, LeaveMidStreamIsCleanAndTerminal) {
  SessionScheduler sched(server_);
  const std::uint64_t stayer = sched.join(fastSession());
  FleetSessionConfig slow = fastSession("officexp");
  slow.bandwidth = BandwidthTrace::constant(1e4);  // several ticks to deliver
  const std::uint64_t leaver = sched.join(slow);
  sched.tick();
  EXPECT_TRUE(sched.leave(leaver));
  EXPECT_FALSE(sched.leave(leaver)) << "second leave must be a no-op";
  EXPECT_FALSE(sched.leave(99999)) << "unknown id must be a no-op";
  const SessionReport left = sched.report(leaver);
  EXPECT_EQ(left.phase, SessionPhase::kLeft);
  EXPECT_LT(left.bytesDelivered, left.streamBytes);
  sched.run();
  EXPECT_EQ(sched.report(stayer).phase, SessionPhase::kCompleted);
  EXPECT_EQ(sched.report(leaver).phase, SessionPhase::kLeft)
      << "leave is terminal; the report is preserved";
  const FleetStats stats = sched.stats();
  EXPECT_EQ(stats.sessionsLeft, 1u);
  EXPECT_EQ(stats.sessionsCompleted, 1u);
  EXPECT_EQ(stats.peakConcurrentSessions, 2u);
}

TEST_F(SchedulerTest, RoundRobinBudgetServesEveryoneEventually) {
  SessionScheduler::Config cfg;
  cfg.policy = SchedulePolicy::kRoundRobin;
  cfg.serviceBudgetPerTick = 1;  // severe egress constraint
  SessionScheduler sched(server_, cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(sched.join(fastSession()));
  sched.run(200000);
  for (std::uint64_t id : ids) {
    EXPECT_EQ(sched.report(id).phase, SessionPhase::kCompleted) << id;
  }
}

TEST_F(SchedulerTest, DeadlinePolicyServesMostUrgentFirst) {
  SessionScheduler::Config cfg;
  cfg.policy = SchedulePolicy::kDeadline;
  cfg.serviceBudgetPerTick = 1;
  SessionScheduler sched(server_, cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(sched.join(fastSession()));
  sched.run(200000);
  for (std::uint64_t id : ids) {
    EXPECT_EQ(sched.report(id).phase, SessionPhase::kCompleted) << id;
  }
}

TEST_F(SchedulerTest, DeadlineTieBreakServesAscendingIds) {
  // Pins the deadline policy's exact service order through the heap
  // selection: identical sessions all start at equal urgency, so ties must
  // fall to ascending id -- after k budget-1 ticks, exactly the k lowest
  // ids have received bytes.  (A selection that picked the right SET but
  // permuted the order would fail on the first tick.)
  SessionScheduler::Config cfg;
  cfg.policy = SchedulePolicy::kDeadline;
  cfg.serviceBudgetPerTick = 1;
  SessionScheduler sched(server_, cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(sched.join(fastSession()));
  for (std::size_t served = 1; served <= ids.size(); ++served) {
    sched.tick();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(sched.report(ids[i]).bytesDelivered > 0, i < served)
          << "after tick " << served << ", session index " << i;
    }
  }
}

TEST_F(SchedulerTest, DeadlineServesLargestStartupDeficitFirst) {
  // Urgency order beats id order: the session with the deeper startup
  // deficit must win the only service slot even though it joined later.
  SessionScheduler::Config cfg;
  cfg.policy = SchedulePolicy::kDeadline;
  cfg.serviceBudgetPerTick = 1;
  SessionScheduler sched(server_, cfg);
  FleetSessionConfig shallow = fastSession();
  shallow.startupBufferSeconds = 0.2;
  FleetSessionConfig deep = fastSession("officexp");
  deep.startupBufferSeconds = 1.5;
  const std::uint64_t first = sched.join(shallow);  // lower id, less urgent
  const std::uint64_t second = sched.join(deep);    // higher id, more urgent
  sched.tick();
  EXPECT_EQ(sched.report(first).bytesDelivered, 0u);
  EXPECT_GT(sched.report(second).bytesDelivered, 0u);
}

TEST_F(SchedulerTest, RunsAreDeterministic) {
  const auto runOnce = [this](SchedulePolicy policy) {
    SessionScheduler::Config cfg;
    cfg.policy = policy;
    cfg.serviceBudgetPerTick = 2;
    SessionScheduler sched(server_, cfg);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 5; ++i) {
      FleetSessionConfig s = fastSession(i % 2 == 0 ? "catwoman" : "officexp");
      s.bandwidth = BandwidthTrace::randomWalk(1e6, 0.5, 42 + i, 0.5, 30.0);
      ids.push_back(sched.join(s));
    }
    sched.run(200000);
    std::vector<SessionReport> reports;
    for (std::uint64_t id : ids) reports.push_back(sched.report(id));
    return reports;
  };
  for (SchedulePolicy policy :
       {SchedulePolicy::kRoundRobin, SchedulePolicy::kDeadline}) {
    const auto a = runOnce(policy);
    const auto b = runOnce(policy);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].phase, b[i].phase) << i;
      EXPECT_DOUBLE_EQ(a[i].startupDelaySeconds, b[i].startupDelaySeconds) << i;
      EXPECT_DOUBLE_EQ(a[i].playedSeconds, b[i].playedSeconds) << i;
      EXPECT_DOUBLE_EQ(a[i].stallSeconds, b[i].stallSeconds) << i;
      EXPECT_EQ(a[i].bytesDelivered, b[i].bytesDelivered) << i;
    }
  }
}

TEST_F(SchedulerTest, DecodeOnCompleteValidatesEndToEnd) {
  SessionScheduler sched(server_);
  const FleetSessionConfig session = fastSession();
  const std::uint64_t id = sched.join(session);
  sched.run();
  const SessionReport r = sched.report(id);
  ASSERT_EQ(r.phase, SessionPhase::kCompleted);
  // A real client decodes the bytes the fleet session streamed.
  const std::vector<std::uint8_t> served =
      server_.serve(session.clipName, session.caps);
  EXPECT_EQ(r.streamBytes, served.size());
  ClientConfig clientCfg;
  clientCfg.device = deviceFromCapabilities(session.caps);
  clientCfg.qualityIndex = session.caps.qualityIndex;
  clientCfg.minBacklightLevel = session.caps.minBacklightLevel;
  const ClientSession client(clientCfg, makeReferencePath());
  EXPECT_TRUE(client.receive(served).ok)
      << "fleet-streamed bytes must decode cleanly";
}

TEST_F(SchedulerTest, IdenticalSessionsShareOneStream) {
  core::TrackCache cache;
  server_.attachTrackCache(cache);
  SessionScheduler sched(server_);
  for (int i = 0; i < 16; ++i) (void)sched.join(fastSession());
  EXPECT_EQ(sched.stats().uniqueStreams, 1u)
      << "16 identical sessions must materialize one stream";
  sched.run();
  EXPECT_EQ(sched.stats().sessionsCompleted, 16u);
  server_.detachTrackCache();
}

TEST_F(SchedulerTest, TenantSessionsResolveThroughTrackCache) {
  core::TrackCache cache;
  server_.attachTrackCache(cache);
  SessionScheduler sched(server_);
  core::AnnotatorConfig tenant;
  tenant.granularity = core::Granularity::kPerFrame;
  for (int i = 0; i < 8; ++i) {
    FleetSessionConfig s = fastSession();
    s.tenantCfg = tenant;
    (void)sched.join(s);
  }
  EXPECT_EQ(cache.stats().fills, 1u)
      << "8 same-tenant sessions cost one engine pass";
  EXPECT_EQ(sched.stats().uniqueStreams, 1u);
  sched.run();
  EXPECT_EQ(sched.stats().sessionsCompleted, 8u);
  server_.detachTrackCache();
}

TEST_F(SchedulerTest, ReingestedClipServesTheNewContent) {
  // Streams are keyed on the catalog entry's cacheId (one per ingest
  // revision), not the clip name: a session joined after a re-ingest must
  // stream the new content.
  SessionScheduler sched(server_);
  const std::uint64_t before = sched.join(fastSession());
  server_.addClip(
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.04, 32, 24));
  const std::uint64_t after = sched.join(fastSession());
  const std::size_t freshBytes = server_.serve("catwoman", ipaqCaps()).size();
  EXPECT_NE(sched.report(before).streamBytes, freshBytes)
      << "the replacement must change the stream for this test to bite";
  EXPECT_EQ(sched.report(after).streamBytes, freshBytes)
      << "a session joined after re-ingest must stream the new content";
  EXPECT_EQ(sched.stats().uniqueStreams, 2u)
      << "a re-ingested clip is a new stream";
  sched.run();
  EXPECT_EQ(sched.report(before).bytesDelivered,
            sched.report(before).streamBytes)
      << "the earlier session keeps streaming the bytes it joined with";
}

TEST_F(SchedulerTest, UnrelatedIngestKeepsCachedStreams) {
  SessionScheduler sched(server_);
  (void)sched.join(fastSession());
  const core::CacheStats first = server_.streamCache().stats();
  server_.addClip(
      media::generatePaperClip(media::PaperClip::kShrek2, 0.02, 32, 24));
  (void)sched.join(fastSession());
  const core::CacheStats second = server_.streamCache().stats();
  EXPECT_EQ(second.hits, first.hits + 1)
      << "ingesting another clip must not evict catwoman's stream";
  EXPECT_EQ(second.misses, first.misses);
}

/// What a budgeted fleet run leaves: every session's final report, and the
/// stream cache's total and largest entry charge at the end.
struct BudgetedFleet {
  std::vector<SessionReport> reports;
  std::size_t cachedBytes = 0;
  std::size_t largestStream = 0;
};

/// A fleet over 4 clips x 4 annotation plans x 3 qualities = 48 distinct
/// streams, each joined by two back-to-back sessions, in two waves so the
/// second wave re-requests streams the first wave lost to eviction.
/// `budget` (0 = the server default) is applied to the stream cache before
/// the first join and checked after every tick.
BudgetedFleet runBudgetedFleet(std::size_t budget) {
  MediaServer server;
  for (media::PaperClip clip :
       {media::PaperClip::kCatwoman, media::PaperClip::kOfficeXp,
        media::PaperClip::kShrek2, media::PaperClip::kIRobot}) {
    server.addClip(media::generatePaperClip(clip, 0.02, 32, 24));
  }
  if (budget != 0) server.streamCache().setByteBudget(budget);
  std::vector<std::optional<core::AnnotatorConfig>> plans(4);
  plans[1].emplace().granularity = core::Granularity::kPerFrame;
  plans[2].emplace().qualityLevels = {0.0, 0.1, 0.2};
  plans[3].emplace().protectCredits = true;
  SessionScheduler sched(server);
  std::vector<std::uint64_t> ids;
  const auto checkBudget = [&] {
    if (budget != 0) {
      ASSERT_LE(server.streamCache().stats().bytes, budget);
    }
  };
  for (int wave = 0; wave < 2; ++wave) {
    for (const std::string& clip : server.catalog()) {
      for (const auto& plan : plans) {
        for (std::size_t quality = 0; quality < 3; ++quality) {
          FleetSessionConfig s;
          s.clipName = clip;
          s.caps = ipaqCaps(quality);
          s.tenantCfg = plan;
          s.bandwidth = BandwidthTrace::constant(2e5);
          ids.push_back(sched.join(s));
          ids.push_back(sched.join(s));
        }
      }
    }
    for (int i = 0; i < 3; ++i) {
      sched.tick();
      checkBudget();
    }
  }
  while (!sched.allSessionsTerminal()) {
    sched.tick();
    checkBudget();
  }
  EXPECT_EQ(sched.stats().uniqueStreams, 48u);
  if (budget != 0) {
    const core::CacheStats cs = server.streamCache().stats();
    EXPECT_GT(cs.evictions, 0u) << "the budget must actually bind";
    EXPECT_GT(cs.misses, 48u) << "evicted streams are re-served on demand";
    EXPECT_GE(cs.hits, 96u) << "a fresh fill survives its shard's eviction";
  }
  BudgetedFleet out;
  for (std::uint64_t id : ids) out.reports.push_back(sched.report(id));
  for (const auto& e : server.streamCache().entries()) {
    out.cachedBytes += e.bytes;
    out.largestStream = std::max(out.largestStream, e.bytes);
  }
  return out;
}

TEST(SchedulerStreamCache, BoundedBudgetKeepsReportsIdentical) {
  const BudgetedFleet unbounded = runBudgetedFleet(0);
  // The budget is sized from the unbounded run, halfway between the
  // smallest budget whose shard slices hold the largest stream (so a
  // back-to-back second join hits) and the 48 streams' total (which must
  // exceed it, so some shard evicts whatever the shard spread).
  const std::size_t budget =
      (kStreamCacheShards * unbounded.largestStream + unbounded.cachedBytes) /
      2;
  ASSERT_GE(budget / kStreamCacheShards, unbounded.largestStream)
      << "every shard slice must hold the largest stream";
  ASSERT_GT(unbounded.cachedBytes, budget)
      << "the streams must not fit the budget";
  const BudgetedFleet squeezed = runBudgetedFleet(budget);
  ASSERT_EQ(unbounded.reports.size(), squeezed.reports.size());
  for (std::size_t i = 0; i < unbounded.reports.size(); ++i) {
    EXPECT_EQ(unbounded.reports[i], squeezed.reports[i])
        << "session index " << i;
  }
}

TEST_F(SchedulerTest, UnknownClipAndBadQualityThrowAtJoin) {
  SessionScheduler sched(server_);
  FleetSessionConfig bad = fastSession("nope");
  EXPECT_THROW((void)sched.join(bad), std::out_of_range);
  FleetSessionConfig badQuality = fastSession();
  badQuality.caps.qualityIndex = 99;
  EXPECT_THROW((void)sched.join(badQuality), std::out_of_range);
  EXPECT_EQ(sched.stats().sessionsJoined, 0u);
}

TEST_F(SchedulerTest, TelemetryGaugesFollowTheFleet) {
  telemetry::Registry registry;
  SessionScheduler sched(server_);
  sched.attachTelemetry(registry);
  (void)sched.join(fastSession());
  (void)sched.join(fastSession("officexp"));
  EXPECT_EQ(registry.counter("anno_fleet_sessions_joined_total").value(), 2u);
  EXPECT_EQ(registry.gauge("anno_fleet_sessions_active").value(), 2);
  sched.run();
  EXPECT_EQ(registry.counter("anno_fleet_sessions_completed_total").value(),
            2u);
  EXPECT_EQ(registry.gauge("anno_fleet_sessions_active").value(), 0);
  EXPECT_GT(registry.counter("anno_fleet_bytes_delivered_total").value(), 0u);
}

}  // namespace
}  // namespace anno::stream
