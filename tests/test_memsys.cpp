//===- tests/test_memsys.cpp - Cache hierarchy unit tests -------------------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//

#include "memsys/Cache.h"
#include "obs/Report.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <deque>

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

/// Drives a K-clock hierarchy and K lone one-clock hierarchies with one
/// random stream of demand loads and prefetches, clock I issuing each
/// access at its own cycle Now[I]. The clocks advance by different random
/// issue costs plus each load's own stall, so they drift apart the way a
/// method's and its sample- variant's clocks do. The addresses mix a hot
/// set, an L2-sized set and a memory-sized one, and prefetches run ahead
/// of their uses, so lines are often still in flight when demanded.
void expectClocksMatchLoneHierarchies(uint64_t Seed) {
  constexpr unsigned K = MemoryHierarchy::MaxClocks;
  SCOPED_TRACE(::testing::Message() << "seed " << Seed);
  MemoryHierarchy Shared(tinyConfig(), K);
  std::deque<MemoryHierarchy> Lone;
  for (unsigned I = 0; I != K; ++I)
    Lone.emplace_back(tinyConfig());

  Rng R(Seed);
  uint64_t Now[K] = {};
  uint64_t Latency[K];
  uint64_t InFlightHits = 0;
  for (unsigned Event = 0; Event != 40000; ++Event) {
    for (unsigned I = 0; I != K; ++I)
      Now[I] += 1 + R.below(2 + 3 * I);
    const uint64_t Pick = R.below(100);
    uint64_t Addr = Pick < 50   ? R.below(16) * 64
                    : Pick < 85 ? 0x10000 + R.below(256) * 64
                                : 0x100000 + R.below(8192) * 64;
    if (R.below(4) == 0) {
      // Prefetch a line a few lines ahead, as inserted prefetches do.
      Addr += 64 * (1 + R.below(4));
      Shared.prefetchClocks(Addr, Now);
      for (unsigned I = 0; I != K; ++I)
        Lone[I].prefetch(Addr, Now[I]);
      continue;
    }
    Shared.demandAccessClocks(Addr, Now, Latency);
    for (unsigned I = 0; I != K; ++I) {
      const uint64_t Expected = Lone[I].demandAccess(Addr, Now[I]);
      ASSERT_EQ(Latency[I], Expected) << "clock " << I << ", event " << Event;
      if (Expected != 2 && Expected != 9 && Expected != 24 && Expected != 160)
        ++InFlightHits;
      Now[I] += Expected > 2 ? Expected - 2 : 0;
    }
  }
  for (unsigned I = 0; I != K; ++I)
    EXPECT_EQ(memoryStatsToJson(Shared.clockStats(I)).str(0),
              memoryStatsToJson(Lone[I].stats()).str(0))
        << "clock " << I;

  // The stream reached the paths that tell the clocks apart.
  EXPECT_GT(InFlightHits, 0u);
  for (unsigned I = 0; I != K; ++I) {
    EXPECT_GT(Lone[I].stats().LatePrefetchHits, 0u);
    EXPECT_GT(Lone[I].stats().PrefetchesRedundant, 0u);
    EXPECT_GT(Lone[I].stats().PrefetchesUnused, 0u);
  }
  EXPECT_NE(Lone[0].stats().StallCycles, Lone[K - 1].stats().StallCycles);
}

} // namespace

// A K-clock hierarchy simulates tags, LRU and prefetch marks once and
// keeps each clock's ready stamps apart: every clock's latencies and
// statistics equal those of a lone hierarchy fed the same stream at that
// clock's cycles.
TEST(MemoryHierarchy, ClocksMatchLoneHierarchies) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u})
    expectClocksMatchLoneHierarchies(Seed);
}

// A one-clock hierarchy's clockStats(0) is its stats().
TEST(MemoryHierarchy, OneClockStatsAreTheStats) {
  MemoryHierarchy MH(tinyConfig());
  MH.demandAccess(0x1000, 0);
  MH.prefetch(0x2000, 5);
  MH.demandAccess(0x2000, 20);
  EXPECT_EQ(MH.clocks(), 1u);
  EXPECT_EQ(memoryStatsToJson(MH.clockStats(0)).str(0),
            memoryStatsToJson(MH.stats()).str(0));
}
