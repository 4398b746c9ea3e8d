//===- tests/test_memsys.cpp - Cache hierarchy unit tests -------------------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//

#include "memsys/Cache.h"
#include "obs/Report.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace sprof;

namespace {

MemoryConfig tinyConfig() {
  MemoryConfig C;
  C.Levels = {
      {"L1", 1024, 2, 64, 2},   // 8 sets
      {"L2", 8192, 4, 64, 9},   // 32 sets
      {"L3", 65536, 4, 64, 24}, // 256 sets
  };
  C.MemoryLatency = 160;
  return C;
}

} // namespace

TEST(CacheLevel, ProbeMissThenHit) {
  CacheLevel L(CacheLevelConfig{"L1", 1024, 2, 64, 2});
  uint64_t Ready = 0;
  EXPECT_FALSE(L.probe(100, Ready));
  L.fill(100, 5);
  ASSERT_TRUE(L.probe(100, Ready));
  EXPECT_EQ(Ready, 5u);
}

TEST(CacheLevel, LruEviction) {
  // 2-way: fill three lines into the same set, the least recently used
  // falls out.
  CacheLevel L(CacheLevelConfig{"L1", 1024, 2, 64, 2});
  const uint64_t NumSets = 8;
  uint64_t A = 0, B = NumSets, C = 2 * NumSets; // same set (set 0)
  uint64_t Ready = 0;
  L.fill(A, 0);
  L.fill(B, 0);
  ASSERT_TRUE(L.probe(A, Ready)); // A most recently used
  L.fill(C, 0);                   // evicts B
  EXPECT_TRUE(L.probe(A, Ready));
  EXPECT_FALSE(L.probe(B, Ready));
  EXPECT_TRUE(L.probe(C, Ready));
}

TEST(MemoryHierarchy, MissFillsAllLevelsThenHitsL1) {
  MemoryHierarchy MH(tinyConfig());
  uint64_t Lat = MH.demandAccess(0x1000, 0);
  EXPECT_EQ(Lat, 160u);
  Lat = MH.demandAccess(0x1008, 200); // same line
  EXPECT_EQ(Lat, 2u);
  EXPECT_EQ(MH.stats().Levels[0].Hits, 1u);
  EXPECT_EQ(MH.stats().Levels[2].Misses, 1u);
}

TEST(MemoryHierarchy, L2HitAfterL1Eviction) {
  MemoryHierarchy MH(tinyConfig());
  // Fill line X, then stream enough lines through its L1 set to evict it
  // from L1 while it stays in L2 (L2 has 4 ways over 32 sets).
  MH.demandAccess(0, 0);
  // L1: 8 sets, 2 ways -> lines 8 and 16 map to set 0 as well.
  MH.demandAccess(8 * 64, 0);
  MH.demandAccess(16 * 64, 0);
  uint64_t Lat = MH.demandAccess(0, 1000);
  EXPECT_EQ(Lat, 9u); // L2 hit
}

TEST(MemoryHierarchy, PrefetchHidesMissLatency) {
  MemoryHierarchy MH(tinyConfig());
  MH.prefetch(0x4000, 0);
  // Long after the fill completes: a full L1 hit.
  uint64_t Lat = MH.demandAccess(0x4000, 1000);
  EXPECT_EQ(Lat, 2u);
  EXPECT_EQ(MH.stats().PrefetchesIssued, 1u);
  EXPECT_EQ(MH.stats().LatePrefetchHits, 0u);
}

TEST(MemoryHierarchy, LatePrefetchStallsPartially) {
  MemoryHierarchy MH(tinyConfig());
  MH.prefetch(0x4000, 0); // ready at 160
  uint64_t Lat = MH.demandAccess(0x4000, 100);
  EXPECT_EQ(Lat, 60u); // 160 - 100
  EXPECT_EQ(MH.stats().LatePrefetchHits, 1u);
}

TEST(MemoryHierarchy, RedundantPrefetchDetected) {
  MemoryHierarchy MH(tinyConfig());
  MH.demandAccess(0x4000, 0);
  MH.prefetch(0x4000, 10);
  EXPECT_EQ(MH.stats().PrefetchesRedundant, 1u);
}

TEST(MemoryHierarchy, StreamingBeyondCapacityAlwaysMisses) {
  MemoryHierarchy MH(tinyConfig());
  // Two sequential sweeps over 2x the L3 capacity: LRU keeps evicting the
  // lines we are about to need, so the second sweep misses as well.
  const uint64_t Lines = 2 * 65536 / 64;
  for (int Sweep = 0; Sweep != 2; ++Sweep)
    for (uint64_t L = 0; L != Lines; ++L)
      MH.demandAccess(L * 64, 0);
  EXPECT_EQ(MH.stats().Levels[2].Misses, 2 * Lines);
}

TEST(MemoryHierarchy, DefaultConfigIsItanium) {
  MemoryConfig C;
  ASSERT_EQ(C.Levels.size(), 3u);
  EXPECT_EQ(C.Levels[0].SizeBytes, 16u * 1024);
  EXPECT_EQ(C.Levels[0].Associativity, 4u);
  EXPECT_EQ(C.Levels[1].SizeBytes, 96u * 1024);
  EXPECT_EQ(C.Levels[1].Associativity, 6u);
  EXPECT_EQ(C.Levels[2].SizeBytes, 2u * 1024 * 1024);
  EXPECT_EQ(C.Levels[2].Associativity, 4u);
}

TEST(MemoryHierarchy, PrefetchUsefulnessAccounting) {
  MemoryHierarchy MH{MemoryConfig()};
  // Useful prefetch: prefetched, then demanded.
  MH.prefetch(0x10000, 0);
  MH.demandAccess(0x10000, 1000);
  EXPECT_EQ(MH.stats().PrefetchesUseful, 1u);
  EXPECT_EQ(MH.stats().PrefetchesUnused, 0u);
  // Second touch of the same line is a plain hit, not another "useful".
  MH.demandAccess(0x10000, 2000);
  EXPECT_EQ(MH.stats().PrefetchesUseful, 1u);
}

TEST(MemoryHierarchy, UnusedPrefetchCountedOnEviction) {
  MemoryConfig Small;
  Small.Levels = {{"L1", 1024, 2, 64, 2}}; // 8 sets, 2 ways
  MemoryHierarchy MH(Small);
  // Prefetch a line into set 0, then push two demand lines through the
  // same set: the prefetched line is evicted without use.
  MH.prefetch(0, 0);
  MH.demandAccess(8 * 64, 10);
  MH.demandAccess(16 * 64, 20);
  MH.demandAccess(24 * 64, 30);
  EXPECT_EQ(MH.stats().PrefetchesUnused, 1u);
  EXPECT_EQ(MH.stats().PrefetchesUseful, 0u);
}

// -- Prefetch-outcome attribution ------------------------------------------

TEST(Attribution, ClassifiesAllFourOutcomesPerSite) {
  MemoryConfig Small;
  Small.Levels = {{"L1", 1024, 2, 64, 2}}; // 8 sets, 2 ways
  Small.MemoryLatency = 160;
  MemoryHierarchy MH(Small);
  MH.enableAttribution(4);

  // Site 0: useful -- prefetch, demand long after the fill completes.
  MH.prefetch(0x4000, 0, /*SiteId=*/0);
  MH.demandAccess(0x4000, 1000, /*SiteId=*/0);
  // Site 1: late -- demand arrives while the fill is in flight.
  MH.prefetch(0x8000, 0, /*SiteId=*/1);
  MH.demandAccess(0x8000, 100, /*SiteId=*/1);
  // Site 2: redundant -- the line is already in L1 from site 0's use.
  MH.prefetch(0x4000, 2000, /*SiteId=*/2);
  // Site 3: early -- prefetched into set 0, then evicted by demand traffic.
  MH.prefetch(0, 0, /*SiteId=*/3);
  MH.demandAccess(8 * 64, 10);
  MH.demandAccess(16 * 64, 20);
  MH.demandAccess(24 * 64, 30);

  MH.finalizeAttribution();
  const AttributionData &A = MH.attribution();
  ASSERT_TRUE(A.Enabled);
  ASSERT_TRUE(A.Finalized);
  EXPECT_EQ(A.PerSite[0].Useful, 1u);
  EXPECT_EQ(A.PerSite[1].Late, 1u);
  EXPECT_EQ(A.PerSite[2].Redundant, 1u);
  EXPECT_EQ(A.PerSite[3].Early, 1u);
  EXPECT_EQ(A.Total.issued(), MH.stats().PrefetchesIssued);
}

TEST(Attribution, FinalizeDrainsResidentLinesIntoEarly) {
  MemoryHierarchy MH{MemoryConfig()};
  MH.enableAttribution(1);
  MH.prefetch(0x1000, 0, 0);
  MH.prefetch(0x2000, 0, 0); // both still resident, never demanded
  MH.finalizeAttribution();
  MH.finalizeAttribution(); // idempotent
  const AttributionData &A = MH.attribution();
  EXPECT_EQ(A.PerSite[0].Early, 2u);
  EXPECT_EQ(A.Total.issued(), 2u);
  // The drain is attribution-only bookkeeping; the eviction-based
  // pollution counter is untouched.
  EXPECT_EQ(MH.stats().PrefetchesUnused, 0u);
}

TEST(Attribution, SiteMissStatsAndUnattributedBucket) {
  MemoryConfig Small;
  Small.Levels = {{"L1", 1024, 2, 64, 2}};
  Small.MemoryLatency = 160;
  MemoryHierarchy MH(Small);
  MH.enableAttribution(2);

  MH.demandAccess(0x1000, 0, /*SiteId=*/0);   // full miss
  MH.demandAccess(0x1000, 500, /*SiteId=*/0); // L1 hit
  MH.demandAccess(0x2000, 0, /*SiteId=*/1);   // full miss
  MH.demandAccess(0x3000, 0, NoSiteId);       // unattributed full miss
  MH.demandAccess(0x4000, 0, /*SiteId=*/99);  // out of range -> unattributed

  MH.finalizeAttribution();
  const AttributionData &A = MH.attribution();
  ASSERT_EQ(A.SiteMiss.size(), 3u);
  EXPECT_EQ(A.SiteMiss[0].Accesses, 2u);
  EXPECT_EQ(A.SiteMiss[0].L1Misses, 1u);
  EXPECT_EQ(A.SiteMiss[0].FullMisses, 1u);
  EXPECT_EQ(A.SiteMiss[0].StallCycles, 160u + 2u);
  EXPECT_EQ(A.SiteMiss[1].Accesses, 1u);
  EXPECT_EQ(A.SiteMiss[2].Accesses, 2u); // NoSiteId + out-of-range
  EXPECT_EQ(A.SiteMiss[2].FullMisses, 2u);

  uint64_t Accesses = 0;
  for (const SiteMissStats &SM : A.SiteMiss)
    Accesses += SM.Accesses;
  EXPECT_EQ(Accesses, MH.stats().DemandAccesses);
}

TEST(Attribution, DisabledAttributionChangesNothing) {
  // Same traffic with and without attribution: identical MemoryStats.
  auto Drive = [](MemoryHierarchy &MH) {
    MH.prefetch(0, 0, 0);
    MH.demandAccess(0, 100, 0);
    MH.demandAccess(8 * 64, 10, 1);
    MH.prefetch(0x9000, 50, 1);
    MH.demandAccess(0x9000, 60, NoSiteId);
  };
  MemoryHierarchy Plain{MemoryConfig()};
  MemoryHierarchy Attributed{MemoryConfig()};
  Attributed.enableAttribution(8);
  Drive(Plain);
  Drive(Attributed);
  Attributed.finalizeAttribution();

  const MemoryStats &SP = Plain.stats();
  const MemoryStats &SA = Attributed.stats();
  EXPECT_EQ(SP.DemandAccesses, SA.DemandAccesses);
  EXPECT_EQ(SP.StallCycles, SA.StallCycles);
  EXPECT_EQ(SP.PrefetchesIssued, SA.PrefetchesIssued);
  EXPECT_EQ(SP.PrefetchesUseful, SA.PrefetchesUseful);
  EXPECT_EQ(SP.PrefetchesRedundant, SA.PrefetchesRedundant);
  EXPECT_EQ(SP.LatePrefetchHits, SA.LatePrefetchHits);
  for (size_t L = 0; L != SP.Levels.size(); ++L) {
    EXPECT_EQ(SP.Levels[L].Hits, SA.Levels[L].Hits);
    EXPECT_EQ(SP.Levels[L].Misses, SA.Levels[L].Misses);
  }
  EXPECT_FALSE(Plain.attribution().Enabled);
  EXPECT_EQ(Attributed.attribution().Total.issued(), SA.PrefetchesIssued);
}

// -- Fast-path encoding invariants ----------------------------------------

TEST(CacheLevel, NumSetsRoundsUpToPowerOfTwo) {
  // 768B / (64B * 2 ways) = 6 raw sets -> rounded up to 8 so set selection
  // is a mask; a power-of-two config keeps its exact count.
  CacheLevel NonPow2(CacheLevelConfig{"L", 768, 2, 64, 2});
  EXPECT_EQ(NonPow2.numSets(), 8u);
  CacheLevel Pow2(CacheLevelConfig{"L", 1024, 2, 64, 2});
  EXPECT_EQ(Pow2.numSets(), 8u);
}

TEST(CacheLevel, ProbeMruAgreesWithProbeAndSkipsMarkedLines) {
  CacheLevel L(CacheLevelConfig{"L1", 1024, 2, 64, 2});
  uint64_t Ready = 0;
  // Unknown line: fast probe declines (it cannot distinguish "miss" from
  // "not the MRU way").
  EXPECT_FALSE(L.probeMru(100, Ready));
  L.fill(100, 5);
  ASSERT_TRUE(L.probeMru(100, Ready));
  EXPECT_EQ(Ready, 5u);
  // A prefetch-marked line must fail the fast path so the full probe can
  // observe (and clear) the first demand touch for attribution.
  L.fill(108, 9, /*Prefetched=*/true, /*PrefetchSite=*/3);
  EXPECT_FALSE(L.probeMru(108, Ready));
  bool WasUnused = false;
  uint32_t Site = NoSiteId;
  ASSERT_TRUE(L.probe(108, Ready, &WasUnused, &Site));
  EXPECT_TRUE(WasUnused);
  EXPECT_EQ(Site, 3u);
  // Mark cleared by that probe: the fast path accepts the line now.
  EXPECT_TRUE(L.probeMru(108, Ready));
}

// -- fill() refresh-path semantics (see the doc comment on fill) ----------

TEST(CacheLevel, FillRefreshMergesEarliestReadyAndKeepsMarkAndSite) {
  CacheLevel L(CacheLevelConfig{"L1", 1024, 2, 64, 2});
  // Prefetched fill, then two refresh fills of the same line: the earliest
  // ready time wins (a later one never pushes the line back), and the
  // original prefetch keeps ownership of the line's outcome -- mark and
  // site survive, whatever the refresh passes for them.
  L.fill(100, /*ReadyTime=*/100, /*Prefetched=*/true, /*PrefetchSite=*/7);
  L.fill(100, 50);
  L.fill(100, 80);
  uint64_t Ready = 0;
  bool WasUnused = false;
  uint32_t Site = NoSiteId;
  ASSERT_TRUE(L.probe(100, Ready, &WasUnused, &Site));
  EXPECT_EQ(Ready, 50u);
  EXPECT_TRUE(WasUnused);
  EXPECT_EQ(Site, 7u);
}

TEST(CacheLevel, FillRefreshBumpsLruRecency) {
  CacheLevel L(CacheLevelConfig{"L1", 1024, 2, 64, 2});
  const uint64_t NumSets = 8;
  uint64_t A = 0, B = NumSets, C = 2 * NumSets; // same set
  L.fill(A, 0);
  L.fill(B, 0);
  L.fill(A, 0); // refresh: A becomes most recently used
  L.fill(C, 0); // so the victim is B, not A
  uint64_t Ready = 0;
  EXPECT_TRUE(L.probe(A, Ready));
  EXPECT_FALSE(L.probe(B, Ready));
  EXPECT_TRUE(L.probe(C, Ready));
}

TEST(MemoryHierarchy, PrefetchFullMissDoubleFillKeepsAccounting) {
  // A full-miss prefetch reaches fill()'s refresh path: the first fill
  // pass covers every level (Hit == Levels.size() makes both loop bounds
  // identical), then the completion pass re-fills them all through the
  // refresh scan. Pin the net effect: the double fill is idempotent --
  // one issued prefetch, the line ready at Now + MemoryLatency, the L1
  // copy still marked and attributed to the issuing site.
  MemoryHierarchy MH(tinyConfig());
  MH.enableAttribution(4);
  MH.prefetch(0, /*Now=*/0, /*SiteId=*/2);
  EXPECT_EQ(MH.stats().PrefetchesIssued, 1u);
  // Demand use while the fill is in flight: a late prefetch, attributed to
  // the issuing site, stalling for the remaining cycles only.
  uint64_t Lat = MH.demandAccess(0, /*Now=*/10, /*SiteId=*/1);
  EXPECT_EQ(Lat, 150u); // 160 - 10 residual
  EXPECT_EQ(MH.stats().LatePrefetchHits, 1u);
  MH.finalizeAttribution();
  EXPECT_EQ(MH.attribution().PerSite[2].Late, 1u);
  EXPECT_EQ(MH.attribution().Total.issued(), 1u);
}

namespace {

/// One access of a replayed stream.
struct StreamAccess {
  uint64_t Addr;
  bool Prefetch = false;
};

/// A seeded demand stream over a hot set, an L2-sized set and a
/// memory-sized one, so every level of tinyConfig() serves some loads.
std::vector<StreamAccess> demandStream(uint64_t Seed, size_t Length) {
  Rng R(Seed);
  std::vector<StreamAccess> Stream;
  for (size_t I = 0; I != Length; ++I) {
    const uint64_t Pick = R.below(100);
    Stream.push_back({Pick < 50   ? R.below(16) * 64
                      : Pick < 85 ? 0x10000 + R.below(256) * 64
                                  : 0x100000 + R.below(8192) * 64});
  }
  return Stream;
}

/// What one schedule of a stream saw: each demand access's latency and the
/// latency of the level that served it (read off the hit counts), and the
/// final statistics and attribution.
struct ScheduledRun {
  std::vector<uint64_t> Latencies;
  std::vector<uint64_t> ServingLatencies;
  std::string Stats;
  std::string Attribution;
};

/// Feeds \p Stream to a fresh hierarchy of \p Model under the
/// interpreter's stall convention: each access issues a seeded random gap
/// in [MinGap, MaxGap] after the previous one (LoadBaseCost and the work
/// between loads), and a load stalls for the part of its latency beyond
/// Hidden, the flat latency the pipeline hides (TimingModel::
/// FlatLoadLatency, here the smallest HitLatency of every config used).
/// Access I comes from load site I % 7 of 6 attributed sites, so the
/// unattributed bucket collects some too.
ScheduledRun runScheduled(const std::vector<StreamAccess> &Stream,
                          uint64_t GapSeed, uint64_t MinGap, uint64_t MaxGap,
                          const MemoryConfig &Config = tinyConfig(),
                          CacheModel Model = CacheModel::Timed) {
  constexpr uint64_t Hidden = 2;
  MemoryHierarchy MH(Config, Model);
  MH.enableAttribution(6);
  Rng Gaps(GapSeed);
  ScheduledRun Run;
  uint64_t Now = 0;
  for (size_t I = 0; I != Stream.size(); ++I) {
    const StreamAccess &A = Stream[I];
    const uint32_t Site = static_cast<uint32_t>(I % 7);
    Now += MinGap + Gaps.below(MaxGap - MinGap + 1);
    if (A.Prefetch) {
      MH.prefetch(A.Addr, Now, Site);
      continue;
    }
    const MemoryStats Before = MH.stats();
    const uint64_t Latency = MH.demandAccess(A.Addr, Now, Site);
    uint64_t Serving = Config.MemoryLatency;
    for (size_t L = 0; L != Config.Levels.size(); ++L)
      if (MH.stats().Levels[L].Hits != Before.Levels[L].Hits)
        Serving = Config.Levels[L].HitLatency;
    Run.Latencies.push_back(Latency);
    Run.ServingLatencies.push_back(Serving);
    Now += Latency > Hidden ? Latency - Hidden : 0;
  }
  MH.finalizeAttribution();
  Run.Stats = memoryStatsToJson(MH.stats()).str(0);
  Run.Attribution = attributionToJson(MH.attribution()).str(0);
  return Run;
}

} // namespace

// Without prefetches, a demand access's latency is its serving level's
// HitLatency (or the MemoryLatency), whatever the clock reads, as long as
// the stalled pipeline hides no more than the L1 hit latency: two issue-gap
// schedules of one stream, one as tight as the stall convention allows
// and one loose, see the same latencies and statistics. Pipeline::
// runProfiles relies on this to take a profile run's stalls from its
// un-instrumented program's run.
TEST(MemoryHierarchy, PrefetchFreeLatencyIsTheServingLevels) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    const std::vector<StreamAccess> Stream = demandStream(Seed, 40000);
    const ScheduledRun Tight = runScheduled(Stream, 2 * Seed, 0, 1);
    const ScheduledRun Loose = runScheduled(Stream, 2 * Seed + 1, 0, 300);
    EXPECT_EQ(Tight.Latencies, Tight.ServingLatencies);
    EXPECT_EQ(Loose.Latencies, Loose.ServingLatencies);
    EXPECT_EQ(Tight.Latencies, Loose.Latencies);
    EXPECT_EQ(Tight.Stats, Loose.Stats);
    // Every level and memory served some load.
    for (uint64_t Latency : {2u, 9u, 24u, 160u})
      EXPECT_NE(std::count(Tight.Latencies.begin(), Tight.Latencies.end(),
                           Latency),
                0)
          << "latency " << Latency;
  }

  // One prefetch breaks it: its line is demanded while the fill is in
  // flight on the tight schedule and after it on the loose one, so that
  // load's latency depends on the clock.
  std::vector<StreamAccess> Stream = demandStream(1, 2000);
  const size_t Demand = 1000;
  Stream.insert(Stream.begin() + Demand, {{0x900000, true}, {0x900000}});
  const ScheduledRun Tight = runScheduled(Stream, 5, 0, 1);
  const ScheduledRun Loose = runScheduled(Stream, 6, 200, 300);
  EXPECT_EQ(Loose.Latencies[Demand], 2u);
  EXPECT_GT(Tight.Latencies[Demand], 2u);
  EXPECT_NE(Tight.Latencies[Demand], Tight.ServingLatencies[Demand]);
  EXPECT_NE(Tight.Stats, Loose.Stats);
}

// The clock-free representation is the timed one on every prefetch-free
// run: the same per-access latencies, MemoryStats and per-site demand-miss
// attribution, on tight and loose schedules, for the shipped geometry, a
// level whose set count is rounded up to a power of two (3 sets of 4
// ways), and a one-level hierarchy.
TEST(ClockFreeHierarchy, MatchesTimedModelOnPrefetchFreeStreams) {
  MemoryConfig OddSets = tinyConfig();
  OddSets.Levels[1] = {"L2", 3 * 4 * 64, 4, 64, 9};
  MemoryConfig OneLevel = tinyConfig();
  OneLevel.Levels.resize(1);
  const std::pair<const char *, MemoryConfig> Configs[] = {
      {"tiny", tinyConfig()},
      {"odd-sets", OddSets},
      {"one-level", OneLevel},
      {"itanium", MemoryConfig()}};
  for (const auto &[Name, Config] : Configs)
    for (uint64_t Seed : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << Name << " seed " << Seed);
      const std::vector<StreamAccess> Stream = demandStream(Seed, 20000);
      for (auto [MinGap, MaxGap] : {std::pair<uint64_t, uint64_t>{0, 1},
                                    std::pair<uint64_t, uint64_t>{0, 300}}) {
        const ScheduledRun Timed =
            runScheduled(Stream, Seed, MinGap, MaxGap, Config);
        const ScheduledRun Free = runScheduled(Stream, Seed, MinGap, MaxGap,
                                               Config, CacheModel::ClockFree);
        EXPECT_EQ(Free.Latencies, Timed.Latencies);
        EXPECT_EQ(Free.Latencies, Free.ServingLatencies);
        EXPECT_EQ(Free.Stats, Timed.Stats);
        EXPECT_EQ(Free.Attribution, Timed.Attribution);
        // Something missed every level, so the victim choice mattered.
        EXPECT_NE(std::count(Free.Latencies.begin(), Free.Latencies.end(),
                             Config.MemoryLatency),
                  0);
      }
    }
}

// A clock-free hierarchy models prefetch-free runs only: a prefetch, direct
// or through the stream entry point, is a caller's bug.
TEST(ClockFreeHierarchy, PrefetchThrows) {
  MemoryHierarchy MH(tinyConfig(), CacheModel::ClockFree);
  EXPECT_THROW(MH.prefetch(0x1000, 0), std::logic_error);
  AccessEvent E;
  E.Kind = AccessKind::Prefetch;
  E.Address = 0x1000;
  EXPECT_THROW(MH.access(E, 0), std::logic_error);
  EXPECT_EQ(MH.demandAccess(0x1000, 0), 160u);
}

// With attribution on, finalizeAttribution has no prefetch marks to drain
// and no timed lanes to walk: it finalizes, twice, without touching the
// demand-miss attribution.
TEST(ClockFreeHierarchy, FinalizeAttributionIsSafe) {
  MemoryHierarchy MH(tinyConfig(), CacheModel::ClockFree);
  MH.enableAttribution(2);
  MH.demandAccess(0x1000, 0, 1);
  MH.demandAccess(0x1000, 200, 1);
  MH.finalizeAttribution();
  MH.finalizeAttribution();
  const AttributionData &A = MH.attribution();
  EXPECT_TRUE(A.Finalized);
  EXPECT_EQ(A.Total.issued(), 0u);
  EXPECT_EQ(A.SiteMiss[1].Accesses, 2u);
  EXPECT_EQ(A.SiteMiss[1].FullMisses, 1u);
  EXPECT_EQ(A.SiteMiss[1].StallCycles, 162u);
}
