//===- tests/test_profile.cpp - LFU + strideProf runtime tests --------------===//
//
// Part of the StrideProf project test suite. Includes direct encodings of
// the paper's Figure 4 examples (stride value and stride difference
// profiles; phased vs alternated sequences).
//
//===----------------------------------------------------------------------===//

#include "LinearScanLfu.h"

#include "analysis/LoopInfo.h"
#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "obs/Obs.h"
#include "obs/Report.h"
#include "profile/LfuValueProfiler.h"
#include "profile/ProfileData.h"
#include "profile/StrideProfiler.h"
#include "stream/AccessStream.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace sprof;

namespace {

LfuConfig exactLfu() {
  LfuConfig C;
  C.CoarsenShift = 0;
  return C;
}

StrideProfilerConfig exactConfig() {
  StrideProfilerConfig C;
  C.Lfu.CoarsenShift = 0;
  C.AddrCoarsenShift = 0;
  return C;
}

/// Feeds an address sequence whose successive differences are \p Strides,
/// starting at \p Base.
void feedStrides(StrideProfiler &P, uint32_t Site,
                 const std::vector<int64_t> &Strides,
                 uint64_t Base = 0x100000) {
  uint64_t Addr = Base;
  P.profile(Site, Addr);
  for (int64_t S : Strides) {
    Addr = static_cast<uint64_t>(static_cast<int64_t>(Addr) + S);
    P.profile(Site, Addr);
  }
}

} // namespace

TEST(Lfu, CountsRepeatedValues) {
  LfuValueProfiler L(exactLfu());
  for (int I = 0; I != 10; ++I)
    L.add(128);
  for (int I = 0; I != 3; ++I)
    L.add(64);
  std::vector<ValueCount> Top = L.topValues();
  ASSERT_GE(Top.size(), 2u);
  EXPECT_EQ(Top[0].Value, 128);
  EXPECT_EQ(Top[0].Count, 10u);
  EXPECT_EQ(Top[1].Value, 64);
  EXPECT_EQ(Top[1].Count, 3u);
}

TEST(Lfu, LfuReplacementEvictsColdEntries) {
  LfuConfig C = exactLfu();
  C.TempSize = 2;
  C.FinalSize = 2;
  C.MergeInterval = 1000000; // never merge during the test
  LfuValueProfiler L(C);
  L.add(1);
  L.add(1);
  L.add(2);
  // Temp is {1:2, 2:1}; adding 3 must evict the LFU entry (2).
  L.add(3);
  std::vector<ValueCount> Top = L.topValues();
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].Value, 1);
  EXPECT_EQ(Top[1].Value, 3);
}

TEST(Lfu, MergePreservesHighFrequencyValues) {
  LfuConfig C = exactLfu();
  C.TempSize = 4;
  C.FinalSize = 2;
  C.MergeInterval = 8;
  LfuValueProfiler L(C);
  for (int I = 0; I != 40; ++I)
    L.add(100);
  for (int I = 0; I != 25; ++I)
    L.add(200);
  for (int I = 0; I != 3; ++I)
    L.add(I * 8 + 1000); // noise
  std::vector<ValueCount> Top = L.topValues();
  ASSERT_GE(Top.size(), 1u);
  EXPECT_EQ(Top[0].Value, 100);
  EXPECT_GE(L.numMerges(), 1u);
  // The dominant value's count survives merging (within one merge window).
  EXPECT_GE(Top[0].Count, 33u);
}

TEST(Lfu, CoarseningMergesNearbyValues) {
  LfuConfig C = exactLfu();
  C.CoarsenShift = 4; // paper's is_same_value: same 16-byte bucket
  LfuValueProfiler L(C);
  L.add(128);
  L.add(130); // same bucket as 128
  L.add(143); // same bucket as 128
  L.add(160); // different bucket
  std::vector<ValueCount> Top = L.topValues();
  ASSERT_GE(Top.size(), 2u);
  EXPECT_EQ(Top[0].Count, 3u);
  EXPECT_EQ(Top[0].Value, 128); // first representative wins
}

TEST(Lfu, WorkGrowsWithTrackedValues) {
  LfuValueProfiler L(exactLfu());
  unsigned FirstWork = L.add(1);
  for (int I = 2; I <= 8; ++I)
    L.add(I * 16);
  unsigned LaterWork = L.add(9 * 16);
  EXPECT_GT(LaterWork, FirstWork);
}

// Figure 4 (a)+(b): the phased stride sequence. Strides
// 2,2,2,2,100,100,100,100,1 have top1=2 (freq 4... the figure counts the
// initial occurrence too; with our first-address handling the 9 listed
// strides are what the profiler sees).
TEST(StrideProfiler, Figure4PhasedSequence) {
  StrideProfiler P(1, exactConfig());
  feedStrides(P, 0, {2, 2, 2, 2, 100, 100, 100, 100, 1});
  const StrideSiteData &D = P.site(0);
  EXPECT_EQ(D.totalStrides(), 9u);
  EXPECT_EQ(D.NumZeroStride, 0u);
  // Differences: 0,0,0,98,0,0,0,-99 -> six zero diffs.
  EXPECT_EQ(D.NumZeroDiff, 6u);

  StrideProfile SP = StrideProfile::fromProfiler(P);
  const StrideSiteSummary &S = SP.site(0);
  ASSERT_GE(S.TopStrides.size(), 2u);
  EXPECT_EQ(S.TopStrides[0].Value, 2);
  EXPECT_EQ(S.TopStrides[0].Count, 4u);
  EXPECT_EQ(S.TopStrides[1].Value, 100);
  EXPECT_EQ(S.TopStrides[1].Count, 4u);
}

// Figure 4 (c): the alternated sequence has the same stride value profile
// but almost no zero differences.
TEST(StrideProfiler, Figure4AlternatedSequence) {
  StrideProfiler P(1, exactConfig());
  feedStrides(P, 0, {2, 100, 2, 100, 2, 100, 2, 100, 1});
  const StrideSiteData &D = P.site(0);
  EXPECT_EQ(D.totalStrides(), 9u);
  EXPECT_EQ(D.NumZeroDiff, 0u);

  StrideProfile SP = StrideProfile::fromProfiler(P);
  const StrideSiteSummary &S = SP.site(0);
  ASSERT_GE(S.TopStrides.size(), 2u);
  EXPECT_EQ(S.TopStrides[0].Value, 2);
  EXPECT_EQ(S.TopStrides[1].Value, 100);
}

TEST(StrideProfiler, ZeroStridesBypassLfu) {
  StrideProfiler P(1, exactConfig());
  uint64_t Addr = 0x2000;
  P.profile(0, Addr);
  for (int I = 0; I != 5; ++I)
    P.profile(0, Addr); // same address: zero stride
  EXPECT_EQ(P.site(0).NumZeroStride, 5u);
  EXPECT_EQ(P.totalLfuCalls(), 0u);
}

TEST(StrideProfiler, AddressCoarseningTreatsNearAddressesAsSame) {
  StrideProfilerConfig C = exactConfig();
  C.AddrCoarsenShift = 4;
  StrideProfiler P(1, C);
  P.profile(0, 0x2000);
  P.profile(0, 0x2008); // within the same 16-byte bucket
  EXPECT_EQ(P.site(0).NumZeroStride, 1u);
  EXPECT_EQ(P.totalLfuCalls(), 0u);
}

TEST(StrideProfiler, FineSamplingScalesStrides) {
  StrideProfilerConfig C = exactConfig();
  C.Sampling.Enabled = true;
  C.Sampling.FineInterval = 4;
  C.Sampling.ChunkSkip = 0; // chunk phase: profile everything
  C.Sampling.ChunkProfile = 1000000;
  StrideProfiler P(1, C);
  // Constant stride 16; fine sampling sees every 4th address => stride 64.
  uint64_t Addr = 0x8000;
  for (int I = 0; I != 200; ++I) {
    P.profile(0, Addr);
    Addr += 16;
  }
  StrideProfile SP = StrideProfile::fromProfiler(P);
  ASSERT_FALSE(SP.site(0).TopStrides.empty());
  // fromProfiler divides by F, recovering the original stride.
  EXPECT_EQ(SP.site(0).TopStrides[0].Value, 16);
  EXPECT_LT(P.totalProcessed(), 60u); // ~1/4 of 200
}

TEST(StrideProfiler, ChunkSamplingSkipsThenProfiles) {
  StrideProfilerConfig C = exactConfig();
  C.Sampling.Enabled = true;
  C.Sampling.FineInterval = 1;
  C.Sampling.ChunkSkip = 100;
  C.Sampling.ChunkProfile = 50;
  StrideProfiler P(1, C);
  uint64_t Addr = 0;
  for (int I = 0; I != 300; ++I) {
    P.profile(0, Addr);
    Addr += 8;
  }
  // 300 refs: skip 100, profile 50, flip consumes 1, skip 100, profile 49.
  EXPECT_EQ(P.totalInvocations(), 300u);
  EXPECT_EQ(P.totalProcessed(), 99u);
}

TEST(StrideProfiler, CostGrowsOnLfuPath) {
  StrideProfiler P(2, exactConfig());
  // Site 0: zero strides only (cheap path).
  P.profile(0, 0x1000);
  uint64_t CheapCost = P.profile(0, 0x1000);
  // Site 1: distinct strides (LFU path).
  P.profile(1, 0x1000);
  P.profile(1, 0x2000);
  uint64_t LfuCost = P.profile(1, 0x4000);
  EXPECT_GT(LfuCost, CheapCost);
}

TEST(ProfileData, RoundTripSerialization) {
  StrideProfiler P(3, exactConfig());
  feedStrides(P, 0, {128, 128, 128, 64});
  feedStrides(P, 2, {32, 32, 32, 32, 32});

  StrideProfile SP = StrideProfile::fromProfiler(P);
  EdgeProfile EP(2);
  EP.setFrequency(0, Edge{1, 0}, 980);
  EP.setFrequency(0, Edge{1, 1}, 20);
  EP.setFrequency(1, Edge{0, 0}, 5);

  std::stringstream SS;
  writeProfiles(EP, SP, SS);

  EdgeProfile EP2;
  StrideProfile SP2;
  ASSERT_TRUE(readProfiles(SS, 2, 3, EP2, SP2));
  EXPECT_EQ(EP2.frequency(0, Edge{1, 0}), 980u);
  EXPECT_EQ(EP2.frequency(0, Edge{1, 1}), 20u);
  EXPECT_EQ(EP2.frequency(1, Edge{0, 0}), 5u);
  EXPECT_EQ(SP2.site(0).TotalStrides, SP.site(0).TotalStrides);
  ASSERT_EQ(SP2.site(0).TopStrides.size(), SP.site(0).TopStrides.size());
  EXPECT_EQ(SP2.site(0).TopStrides[0].Value,
            SP.site(0).TopStrides[0].Value);
  EXPECT_EQ(SP2.site(2).top1Stride(), 32);
  EXPECT_EQ(SP2.site(1).TotalStrides, 0u);
}

TEST(ProfileData, ReadRejectsMalformedInput) {
  std::stringstream SS("bogus line\n");
  EdgeProfile EP;
  StrideProfile SP;
  EXPECT_FALSE(readProfiles(SS, 1, 1, EP, SP));
}

namespace {

// Compares every observable of site \p S in two profilers that should have
// processed the same event stream for it.
void expectSitesEqual(const StrideSiteData &X, const StrideSiteData &Y,
                      uint32_t S) {
  EXPECT_EQ(X.PrevAddress, Y.PrevAddress) << "site " << S;
  EXPECT_EQ(X.HasPrevAddress, Y.HasPrevAddress) << "site " << S;
  EXPECT_EQ(X.PrevStride, Y.PrevStride) << "site " << S;
  EXPECT_EQ(X.HasPrevStride, Y.HasPrevStride) << "site " << S;
  EXPECT_EQ(X.NumZeroStride, Y.NumZeroStride) << "site " << S;
  EXPECT_EQ(X.NumNonZeroStride, Y.NumNonZeroStride) << "site " << S;
  EXPECT_EQ(X.NumZeroDiff, Y.NumZeroDiff) << "site " << S;
  EXPECT_EQ(X.NumberToSkip, Y.NumberToSkip) << "site " << S;
  EXPECT_EQ(X.LastChunkEpoch, Y.LastChunkEpoch) << "site " << S;
  EXPECT_EQ(X.PrevGlobalRef, Y.PrevGlobalRef) << "site " << S;
  EXPECT_EQ(X.RefGapSum, Y.RefGapSum) << "site " << S;
  EXPECT_EQ(X.RefGapCount, Y.RefGapCount) << "site " << S;
  EXPECT_EQ(X.Invocations, Y.Invocations) << "site " << S;
  EXPECT_EQ(X.Processed, Y.Processed) << "site " << S;
  EXPECT_EQ(X.LfuCalls, Y.LfuCalls) << "site " << S;
  std::vector<ValueCount> TX = X.Lfu.topValues();
  std::vector<ValueCount> TY = Y.Lfu.topValues();
  ASSERT_EQ(TX.size(), TY.size()) << "site " << S;
  for (size_t I = 0; I < TX.size(); ++I) {
    EXPECT_EQ(TX[I].Value, TY[I].Value) << "site " << S << " top " << I;
    EXPECT_EQ(TX[I].Count, TY[I].Count) << "site " << S << " top " << I;
  }
}

// Compares every observable of two profilers that should have processed the
// same event stream (one per-event, one batched).
void expectProfilersEqual(const StrideProfiler &A, const StrideProfiler &B) {
  ASSERT_EQ(A.numSites(), B.numSites());
  EXPECT_EQ(A.totalInvocations(), B.totalInvocations());
  EXPECT_EQ(A.totalProcessed(), B.totalProcessed());
  EXPECT_EQ(A.totalLfuCalls(), B.totalLfuCalls());
  for (uint32_t S = 0; S < A.numSites(); ++S)
    expectSitesEqual(A.site(S), B.site(S), S);
}

// Builds a deterministic multi-site event stream whose per-site address
// sequences mix constant strides, phase changes, and repeats.
std::vector<StrideEvent> makeEventStream(uint32_t NumSites, size_t N) {
  std::vector<StrideEvent> Events;
  Events.reserve(N);
  std::vector<uint64_t> Addr(NumSites);
  for (uint32_t S = 0; S < NumSites; ++S)
    Addr[S] = 0x10000 * (S + 1);
  for (size_t I = 0; I < N; ++I) {
    uint32_t S = static_cast<uint32_t>((I * 7 + I / 5) % NumSites);
    // Vary the stride per phase so the LFU path is exercised.
    uint64_t Step = (I / 40 % 3 == 0) ? 8 : (I / 40 % 3 == 1) ? 0 : 24;
    Addr[S] += Step;
    Events.push_back(StrideEvent{Addr[S], I, S});
  }
  return Events;
}

void runBatchDifferential(StrideProfilerConfig Config, uint32_t NumSites,
                          size_t N) {
  std::vector<StrideEvent> Events = makeEventStream(NumSites, N);

  StrideProfiler PerEvent(NumSites, Config);
  StrideProfiler Batched(NumSites, Config);

  uint64_t CostA = 0;
  for (const StrideEvent &E : Events)
    CostA += PerEvent.profile(E.SiteId, E.Address, E.GlobalRefIndex);

  // Odd, co-prime block sizes so batch boundaries land at every possible
  // offset within the chunk skip/profile phases, including mid-flip.
  uint64_t CostB = 0;
  static const size_t Blocks[] = {1, 3, 7, 5, 11, 2, 9};
  size_t I = 0, B = 0;
  while (I < Events.size()) {
    size_t Len = std::min(Blocks[B % (sizeof(Blocks) / sizeof(Blocks[0]))],
                          Events.size() - I);
    CostB += Batched.profileBatch(Events.data() + I, Len);
    I += Len;
    ++B;
  }

  EXPECT_EQ(CostA, CostB);
  expectProfilersEqual(PerEvent, Batched);
}

} // namespace

TEST(StrideProfiler, BatchMatchesPerEventUnsampled) {
  runBatchDifferential(exactConfig(), 5, 400);
}

TEST(StrideProfiler, BatchMatchesPerEventAcrossChunkFlips) {
  StrideProfilerConfig Config = exactConfig();
  Config.Sampling.Enabled = true;
  // Tiny chunk phases (skip 10, profile 4) so the stream crosses dozens of
  // phase flips, with batch boundaries straddling them.
  Config.Sampling.ChunkSkip = 10;
  Config.Sampling.ChunkProfile = 4;
  Config.Sampling.FineInterval = 3;
  runBatchDifferential(Config, 5, 400);
}

TEST(StrideProfiler, BatchMatchesPerEventSingleEventBlocks) {
  StrideProfilerConfig Config = exactConfig();
  Config.Sampling.Enabled = true;
  Config.Sampling.ChunkSkip = 3;
  Config.Sampling.ChunkProfile = 2;
  Config.Sampling.FineInterval = 2;
  std::vector<StrideEvent> Events = makeEventStream(3, 97);

  StrideProfiler PerEvent(3, Config);
  StrideProfiler Batched(3, Config);
  uint64_t CostA = 0, CostB = 0;
  for (const StrideEvent &E : Events) {
    CostA += PerEvent.profile(E.SiteId, E.Address, E.GlobalRefIndex);
    CostB += Batched.profileBatch(&E, 1);
  }
  EXPECT_EQ(CostA, CostB);
  expectProfilersEqual(PerEvent, Batched);
}

TEST(StrideProfiler, WorksWithoutObsSession) {
  // Never calls attachObs: all telemetry writes must land in the
  // statically-allocated dummy sinks, not crash on null.
  StrideProfiler P(2, exactConfig());
  feedStrides(P, 0, {8, 8, 8, 0, 0, 16});
  feedStrides(P, 1, {4, 4});
  EXPECT_GT(P.totalInvocations(), 0u);
  EXPECT_EQ(P.site(0).totalStrides(), 6u);
  // Detaching after attaching also falls back to the dummies.
  P.attachObs(nullptr);
  feedStrides(P, 0, {8}, 0x200000);
  // The new base plus one step form two more strides on top of the six.
  EXPECT_EQ(P.site(0).totalStrides(), 8u);
}

TEST(Lfu, TopValuesSnapshotIsRepeatableAndNonDestructive) {
  LfuValueProfiler P(exactLfu());
  for (int I = 0; I < 50; ++I)
    P.add(I % 5 * 100);
  std::vector<ValueCount> First = P.topValues();
  std::vector<ValueCount> Second = P.topValues();
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I].Value, Second[I].Value);
    EXPECT_EQ(First[I].Count, Second[I].Count);
  }
  // The snapshot's scratch reuse must not disturb the live buffers:
  // adding more values and re-snapshotting still yields correct counts.
  for (int I = 0; I < 50; ++I)
    P.add(0);
  std::vector<ValueCount> Third = P.topValues();
  ASSERT_FALSE(Third.empty());
  EXPECT_EQ(Third[0].Value, 0);
  EXPECT_EQ(Third[0].Count, 60u);
}

TEST(Lfu, WorksWithoutObsSinks) {
  LfuValueProfiler P(exactLfu());
  // Enough adds to cross the MergeInterval so the merge-counter write also
  // exercises the dummy sink, not just the per-add work histogram.
  for (int I = 0; I < 3000; ++I)
    P.add(I % 7);
  EXPECT_EQ(P.totalAdded(), 3000u);
  EXPECT_GT(P.numMerges(), 0u);
  P.attachObs(nullptr);
  P.add(42);
  EXPECT_EQ(P.totalAdded(), 3001u);
}

//===----------------------------------------------------------------------===//
// profileIndexed: the positionally-addressed entry point ParallelReplay
// shards on
//===----------------------------------------------------------------------===//

namespace {

/// One reference of a deterministic interleaved multi-site stream.
struct SyntheticRef {
  uint32_t Site;
  uint64_t Addr;
  uint64_t Ref;
};

/// Pseudo-random (LCG-driven) interleaving of \p NumSites sites: mixed
/// constant / negative / zero strides with phase noise, plus occasional
/// unknown (zero) global-ref indices -- the delta-encoder and sampler
/// stress shape.
std::vector<SyntheticRef> syntheticRefs(size_t N, uint32_t NumSites,
                                        uint64_t Seed) {
  std::vector<uint64_t> Addr(NumSites);
  for (uint32_t S = 0; S != NumSites; ++S)
    Addr[S] = 0x10000 + S * 0x1000;
  std::vector<SyntheticRef> Out;
  Out.reserve(N);
  uint64_t X = Seed;
  for (size_t I = 0; I != N; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t S = static_cast<uint32_t>((X >> 33) % NumSites);
    int64_t Stride = S % 3 == 0 ? 64 : (S % 3 == 1 ? -32 : 0);
    if ((X >> 21) % 5 == 0)
      Stride += 16; // phase noise
    Addr[S] = static_cast<uint64_t>(static_cast<int64_t>(Addr[S]) + Stride);
    Out.push_back({S, Addr[S], (X >> 13) % 7 == 0 ? 0 : I + 1});
  }
  return Out;
}

/// The position-ordered references of \p Refs that \p Mine accepts, each
/// with its 0-based position among all of \p Refs -- a shard's loads as
/// ParallelReplay gathers them. \p SiteMajor regroups them site by site
/// (program order within each site), an order profileIndexed also takes.
template <typename Pred>
std::vector<IndexedLoad> shardLoads(const std::vector<SyntheticRef> &Refs,
                                    Pred Mine, bool SiteMajor = false) {
  std::vector<IndexedLoad> Out;
  for (uint64_t I = 0; I != Refs.size(); ++I)
    if (Mine(Refs[I].Site))
      Out.push_back({Refs[I].Addr, Refs[I].Ref, I, Refs[I].Site});
  if (SiteMajor)
    std::stable_sort(Out.begin(), Out.end(),
                     [](const IndexedLoad &A, const IndexedLoad &B) {
                       return A.SiteId < B.SiteId;
                     });
  return Out;
}

/// Feeds \p Loads to \p P through profileIndexed in blocks of \p Block
/// loads (the last one short). \returns the summed cost.
uint64_t profileInBlocks(StrideProfiler &P,
                         const std::vector<IndexedLoad> &Loads, size_t Block) {
  uint64_t Cost = 0;
  for (size_t I = 0; I < Loads.size(); I += Block)
    Cost += P.profileIndexed(Loads.data() + I,
                             std::min(Block, Loads.size() - I));
  return Cost;
}

} // namespace

// The determinism contract (docs/TRACE.md): feeding each site its
// references in program order with their original 0-based load indexes
// through profileIndexed(), across any site partition and in blocks of any
// size, reproduces a serial profile() sweep bit for bit -- per-site state,
// totals, and summed cost. Chunk phases are deliberately tiny so the run
// crosses many epoch flips, and the degenerate ChunkSkip == 0 /
// ChunkProfile == 0 configs are covered too. Block sizes around the chunk
// cycle put block boundaries on both sides of the flips, and a site-major
// feed makes the position jump backwards between sites.
TEST(StrideProfiler, ProfileIndexedShardedBySiteMatchesSerialSweep) {
  struct SampleCase {
    bool Enabled;
    uint64_t Skip, Prof;
    uint32_t Fine;
    const char *Tag;
  };
  const SampleCase Cases[] = {
      {false, 0, 0, 1, "unsampled"},
      {true, 37, 11, 3, "sampled-37-11"},
      {true, 0, 13, 2, "sampled-skip0"},
      {true, 24, 0, 2, "sampled-profile0"},
  };
  const uint32_t NumSites = 9;
  const std::vector<SyntheticRef> Refs = syntheticRefs(20000, NumSites, 42);

  for (const SampleCase &SC : Cases) {
    SCOPED_TRACE(SC.Tag);
    StrideProfilerConfig C = exactConfig();
    C.Sampling.Enabled = SC.Enabled;
    C.Sampling.ChunkSkip = SC.Skip;
    C.Sampling.ChunkProfile = SC.Prof;
    C.Sampling.FineInterval = SC.Fine;
    const size_t Cycle = static_cast<size_t>(SC.Skip + SC.Prof + 1);

    StrideProfiler Serial(NumSites, C);
    uint64_t SerialCost = 0;
    for (const SyntheticRef &R : Refs)
      SerialCost += Serial.profile(R.Site, R.Addr, R.Ref);
    const std::string SerialJson =
        strideProfileToJson(StrideProfile::fromProfiler(Serial)).str();

    // Several shard counts, each with a different (hash-randomized) site
    // partition; Round varies the partition so splits are not always the
    // plain modulo one.
    for (unsigned Round = 0; Round != 3; ++Round) {
      for (unsigned Shards : {1u, 2u, 4u}) {
        std::vector<unsigned> ShardOf(NumSites);
        for (uint32_t S = 0; S != NumSites; ++S)
          ShardOf[S] = static_cast<unsigned>(
              (S * 2654435761u + Round * 97u) % Shards);
        for (const bool SiteMajor : {false, true}) {
          for (const size_t Block :
               {size_t(1), size_t(7), Cycle - 1, Cycle, Cycle + 1,
                Refs.size()}) {
            if (Block == 0)
              continue;
            SCOPED_TRACE("round " + std::to_string(Round) + " shards " +
                         std::to_string(Shards) + " block " +
                         std::to_string(Block) +
                         (SiteMajor ? " site-major" : ""));
            uint64_t Cost = 0, Inv = 0, Proc = 0, Lfu = 0;
            StrideProfile Merged(NumSites);
            for (unsigned W = 0; W != Shards; ++W) {
              StrideProfiler P(NumSites, C);
              Cost += profileInBlocks(
                  P,
                  shardLoads(
                      Refs, [&](uint32_t S) { return ShardOf[S] == W; },
                      SiteMajor),
                  Block);
              Inv += P.totalInvocations();
              Proc += P.totalProcessed();
              Lfu += P.totalLfuCalls();
              mergeStrideProfile(Merged, StrideProfile::fromProfiler(P));
            }
            EXPECT_EQ(Cost, SerialCost);
            EXPECT_EQ(Inv, Serial.totalInvocations());
            EXPECT_EQ(Proc, Serial.totalProcessed());
            EXPECT_EQ(Lfu, Serial.totalLfuCalls());
            EXPECT_EQ(strideProfileToJson(Merged).str(), SerialJson);
          }
        }
      }
    }
  }
}

// The same contract at the method level: for every profiling method's
// sampling configuration, a randomized site split folded through
// mergeStrideProfile equals the unsharded profile.
TEST(StrideProfiler, ShardedMergeMatchesUnshardedForAllMethods) {
  const uint32_t NumSites = 6;
  const std::vector<SyntheticRef> Refs = syntheticRefs(8000, NumSites, 7);
  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    StrideProfilerConfig C; // default (paper) config, like the pipeline uses
    C.Sampling.Enabled = methodUsesSampling(Method);

    StrideProfiler Serial(NumSites, C);
    for (const SyntheticRef &R : Refs)
      Serial.profile(R.Site, R.Addr, R.Ref);

    StrideProfile Merged(NumSites);
    const unsigned Shards = 3;
    for (unsigned W = 0; W != Shards; ++W) {
      StrideProfiler P(NumSites, C);
      profileInBlocks(P,
                      shardLoads(Refs,
                                 [&](uint32_t S) {
                                   return (S * 2654435761u) % Shards == W;
                                 }),
                      256);
      mergeStrideProfile(Merged, StrideProfile::fromProfiler(P));
    }
    EXPECT_EQ(strideProfileToJson(Merged).str(),
              strideProfileToJson(StrideProfile::fromProfiler(Serial)).str());
  }
}

//===----------------------------------------------------------------------===//
// mergeStrideProfile: the commutative-fold algebra
//===----------------------------------------------------------------------===//

// Value-level algebra over *overlapping* profiles (disjoint-site folds are
// covered above): commutative and associative once canonicalized with
// truncateTopStrides, and an exact identity when folding into an empty
// profile.
TEST(ProfileData, MergeIsCommutativeAssociativeAndLossless) {
  const uint32_t NumSites = 7;
  auto Build = [&](uint64_t Seed, size_t N, bool Sampling) {
    StrideProfilerConfig C = exactConfig();
    C.Sampling.Enabled = Sampling;
    C.Sampling.ChunkSkip = 50;
    C.Sampling.ChunkProfile = 20;
    StrideProfiler P(NumSites, C);
    for (const SyntheticRef &R : syntheticRefs(N, NumSites, Seed))
      P.profile(R.Site, R.Addr, R.Ref);
    return StrideProfile::fromProfiler(P);
  };
  auto Canon = [](StrideProfile SP) {
    truncateTopStrides(SP, 1u << 20);
    return strideProfileToJson(SP).str();
  };

  for (bool Sampling : {false, true}) {
    SCOPED_TRACE(Sampling ? "sampled" : "unsampled");
    const StrideProfile A = Build(1, 4000, Sampling);
    const StrideProfile B = Build(2, 3000, Sampling);
    const StrideProfile C = Build(3, 2000, Sampling);

    // Commutative: A+B == B+A.
    StrideProfile AB = A;
    mergeStrideProfile(AB, B);
    StrideProfile BA = B;
    mergeStrideProfile(BA, A);
    EXPECT_EQ(Canon(AB), Canon(BA));

    // Associative: (A+B)+C == A+(B+C).
    StrideProfile AB_C = AB;
    mergeStrideProfile(AB_C, C);
    StrideProfile BC = B;
    mergeStrideProfile(BC, C);
    StrideProfile A_BC = A;
    mergeStrideProfile(A_BC, BC);
    EXPECT_EQ(Canon(AB_C), Canon(A_BC));

    // Scalar sums really add up.
    for (uint32_t S = 0; S != NumSites; ++S)
      EXPECT_EQ(AB_C.site(S).TotalStrides, A.site(S).TotalStrides +
                                               B.site(S).TotalStrides +
                                               C.site(S).TotalStrides);

    // Identity: an empty destination receives a verbatim ordered copy --
    // no canonicalization needed for byte equality.
    StrideProfile E(NumSites);
    mergeStrideProfile(E, A);
    EXPECT_EQ(strideProfileToJson(E).str(), strideProfileToJson(A).str());
  }
}

//===----------------------------------------------------------------------===//
// LfuOracle: the O(1) LFU kernel against the linear-scan routine it replaced
//===----------------------------------------------------------------------===//

namespace {

/// Feeds \p Values to the kernel and to the linear-scan oracle, expecting
/// the same work on every add and the same merge count, add count and top
/// values at checkpoints.
void expectMatchesOracle(const LfuConfig &C,
                         const std::vector<int64_t> &Values) {
  LfuValueProfiler L(C);
  test::LinearScanLfu Oracle(C);
  auto ExpectSameState = [&](size_t At) {
    SCOPED_TRACE("after add " + std::to_string(At));
    EXPECT_EQ(L.numMerges(), Oracle.numMerges());
    EXPECT_EQ(L.totalAdded(), Oracle.totalAdded());
    const std::vector<ValueCount> Got = L.topValues();
    const std::vector<ValueCount> Want = Oracle.topValues();
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_EQ(Got[I].Value, Want[I].Value) << "rank " << I;
      EXPECT_EQ(Got[I].Count, Want[I].Count) << "rank " << I;
    }
  };
  for (size_t I = 0; I != Values.size(); ++I) {
    const unsigned Work = L.add(Values[I]);
    const unsigned OracleWork = Oracle.add(Values[I]);
    ASSERT_EQ(Work, OracleWork) << "add " << I << " value " << Values[I];
    if (I % 97 == 96)
      ExpectSameState(I);
  }
  ExpectSameState(Values.size());
}

/// Keys whose fingerprints are all equal, so the kernel's fingerprint
/// match must fall through to the full-key check.
std::vector<int64_t> collidingKeys(size_t Count, uint64_t Seed) {
  Rng R(Seed);
  const uint8_t Target = LfuValueProfiler::fingerprint(
      static_cast<int64_t>(R.below(1u << 20)));
  std::vector<int64_t> Keys;
  for (int64_t K = 0; Keys.size() != Count; ++K)
    if (LfuValueProfiler::fingerprint(K) == Target)
      Keys.push_back(K);
  return Keys;
}

/// The stream shapes the oracle comparison runs, for temp size \p T and
/// coarsening shift \p Shift.
std::vector<std::vector<int64_t>> oracleStreams(unsigned T, unsigned Shift,
                                                uint64_t Seed) {
  constexpr size_t Len = 3000;
  Rng R(Seed);
  std::vector<std::vector<int64_t>> Streams(5);
  for (size_t I = 0; I != Len; ++I) {
    const int64_t Step = int64_t(1) << 8;
    // All distinct, negative values included.
    Streams[0].push_back((static_cast<int64_t>(I) - 1500) * Step);
    // Round-robin over one value more than the temp buffer holds: every
    // add misses once the buffer is full.
    Streams[1].push_back(static_cast<int64_t>(I % (T + 1)) * Step);
    // A dominant value plus noise.
    Streams[2].push_back(R.chancePercent(65)
                             ? 4096
                             : R.range(-1000, 1000) * 16 + 8192);
    // Values equal only under coarsening: a few 16-byte buckets, random
    // low bits.
    Streams[3].push_back(R.range(0, T + T / 2) * 16 + R.range(0, 15));
  }
  // Keys with one fingerprint, shifted back into values; more keys than
  // slots so collisions meet hits, misses and replacements.
  const std::vector<int64_t> Keys = collidingKeys(T + 3, Seed);
  for (size_t I = 0; I != Len; ++I) {
    const int64_t Key = Keys[R.chancePercent(50) ? R.below(2)
                                                 : R.below(Keys.size())];
    Streams[4].push_back(Key * (int64_t(1) << Shift) +
                         R.range(0, (int64_t(1) << Shift) - 1));
  }
  return Streams;
}

} // namespace

TEST(LfuOracle, KernelMatchesLinearScanAddByAdd) {
  Rng R(0x0AC1E);
  const unsigned MergeIntervals[] = {1, 7, 1024, 1000000};
  for (unsigned G = 0; G != 24; ++G) {
    LfuConfig C;
    C.TempSize = static_cast<unsigned>(R.range(1, 64));
    C.FinalSize = static_cast<unsigned>(R.range(1, 24));
    C.MergeInterval = MergeIntervals[G % 4];
    C.CoarsenShift = (G / 4) % 2 ? 4 : 0;
    const std::vector<std::vector<int64_t>> Streams =
        oracleStreams(C.TempSize, C.CoarsenShift, 0x5EED + G);
    for (size_t S = 0; S != Streams.size(); ++S) {
      SCOPED_TRACE("temp " + std::to_string(C.TempSize) + " final " +
                   std::to_string(C.FinalSize) + " merge " +
                   std::to_string(C.MergeInterval) + " shift " +
                   std::to_string(C.CoarsenShift) + " stream " +
                   std::to_string(S));
      expectMatchesOracle(C, Streams[S]);
      if (HasFatalFailure())
        return;
    }
  }
}

TEST(LfuOracle, EdgeGeometriesMatchLinearScan) {
  // The extremes of the supported range, each stream shape.
  for (unsigned T : {1u, 8u, 9u, 63u, LfuValueProfiler::MaxTempSize})
    for (unsigned Merge : {1u, 7u, 1000000u}) {
      LfuConfig C;
      C.TempSize = T;
      C.FinalSize = 1;
      C.MergeInterval = Merge;
      C.CoarsenShift = 4;
      for (const std::vector<int64_t> &Stream : oracleStreams(T, 4, T))
        expectMatchesOracle(C, Stream);
    }
}

TEST(LfuOracle, FingerprintCollisionsAreResolvedByTheFullKey) {
  // Every key shares one fingerprint: a lookup sees a candidate in every
  // occupied slot and must take the one whose key matches.
  const std::vector<int64_t> Keys = collidingKeys(20, 7);
  LfuConfig C = exactLfu();
  C.TempSize = 16;
  C.MergeInterval = 1000000;
  LfuValueProfiler L(C);
  for (unsigned I = 0; I != 16; ++I)
    EXPECT_EQ(L.add(Keys[I]), I) << "insert " << I;
  for (unsigned I = 0; I != 16; ++I)
    EXPECT_EQ(L.add(Keys[I]), I + 1) << "hit " << I;
  // A colliding key not in temp misses: a full scan plus a replacement.
  EXPECT_EQ(L.add(Keys[16]), 32u);
}

//===----------------------------------------------------------------------===//
// Invalid profiler geometry is rejected at construction
//===----------------------------------------------------------------------===//

TEST(LfuGeometryCheck, RejectsInvalidTempAndFinalSizes) {
  LfuConfig C;
  C.TempSize = 0;
  EXPECT_THROW(LfuValueProfiler{C}, std::invalid_argument);
  C.TempSize = LfuValueProfiler::MaxTempSize + 1;
  EXPECT_THROW(LfuValueProfiler{C}, std::invalid_argument);
  C.TempSize = LfuValueProfiler::MaxTempSize;
  EXPECT_NO_THROW(LfuValueProfiler{C});
  C.TempSize = 16;
  C.FinalSize = 0;
  EXPECT_THROW(LfuValueProfiler{C}, std::invalid_argument);
}

TEST(LfuGeometryCheck, StrideProfilerRejectsInvalidConfigs) {
  StrideProfilerConfig C;
  C.Lfu.TempSize = 0;
  EXPECT_THROW(StrideProfiler(4, C), std::invalid_argument);
  // Also with no sites to build an LFU for.
  EXPECT_THROW(StrideProfiler(0, C), std::invalid_argument);
  C = StrideProfilerConfig();
  C.Lfu.FinalSize = 0;
  EXPECT_THROW(StrideProfiler(4, C), std::invalid_argument);
  C = StrideProfilerConfig();
  C.Sampling.FineInterval = 0;
  EXPECT_THROW(StrideProfiler(4, C), std::invalid_argument);
  C.Sampling.FineInterval = 1;
  EXPECT_NO_THROW(StrideProfiler(4, C));
}

//===----------------------------------------------------------------------===//
// StrideOracle: strideProf against an exact per-site stride histogram
//===----------------------------------------------------------------------===//

namespace {

/// One site's exact stride statistics, in the manner of the LoadStride
/// profiler (SNIPPETS.md snippet 1): every stride counted, none sampled or
/// evicted, under strideProf's definitions -- addresses equal under
/// AddrCoarsenShift are a zero stride and do not move the previous
/// address; strides are keyed by value >> Lfu.CoarsenShift, each key
/// represented by its first stride. Also charges each reference the cost
/// model's cycles, with the LFU work taken from the linear-scan routine.
struct ExactSite {
  explicit ExactSite(const StrideProfilerConfig &C) : Lfu(C.Lfu) {}

  test::LinearScanLfu Lfu;
  uint64_t Cost = 0;
  bool HasPrevAddress = false;
  uint64_t PrevAddress = 0;
  bool HasPrevStride = false;
  int64_t PrevStride = 0;
  uint64_t ZeroStride = 0;
  uint64_t ZeroDiff = 0;
  uint64_t NonZero = 0;
  /// Coarsened key -> (first stride, count).
  std::map<int64_t, ValueCount> Strides;

  void add(uint64_t Address, const StrideProfilerConfig &C) {
    const StrideCostModel &M = C.Costs;
    if (!HasPrevAddress) {
      HasPrevAddress = true;
      PrevAddress = Address;
      Cost += M.CallOverhead + M.ZeroStrideCost;
      return;
    }
    if ((Address >> C.AddrCoarsenShift) ==
        (PrevAddress >> C.AddrCoarsenShift)) {
      ++ZeroStride;
      Cost += M.CallOverhead + M.ZeroStrideCost;
      return;
    }
    const int64_t Stride =
        static_cast<int64_t>(Address) - static_cast<int64_t>(PrevAddress);
    if (HasPrevStride && Stride == PrevStride)
      ++ZeroDiff;
    HasPrevStride = true;
    PrevStride = Stride;
    PrevAddress = Address;
    ++NonZero;
    ValueCount &VC = Strides[Stride >> C.Lfu.CoarsenShift];
    if (VC.Count++ == 0)
      VC.Value = Stride;
    Cost += M.CallOverhead + M.CoreCost + M.LfuBaseCost +
            uint64_t(M.LfuPerWorkCost) * Lfu.add(Stride);
  }

  /// The exact top \p N: descending count, ties by ascending stride.
  std::vector<ValueCount> top(size_t N) const {
    std::vector<ValueCount> Out;
    for (const auto &[Key, VC] : Strides)
      Out.push_back(VC);
    std::sort(Out.begin(), Out.end(),
              [](const ValueCount &A, const ValueCount &B) {
                if (A.Count != B.Count)
                  return A.Count > B.Count;
                return A.Value < B.Value;
              });
    if (Out.size() > N)
      Out.resize(N);
    return Out;
  }

  /// Every exact statistic and the cost, one line.
  std::string text() const {
    std::ostringstream OS;
    OS << "zero " << ZeroStride << " zerodiff " << ZeroDiff << " nonzero "
       << NonZero << " cost " << Cost << " strides";
    for (const auto &[Key, VC] : Strides)
      OS << " " << VC.Value << ":" << VC.Count;
    return OS.str();
  }
};

/// The exact per-site statistics of \p Events under \p C.
std::vector<ExactSite> exactSites(const std::vector<AccessEvent> &Events,
                                  uint32_t NumSites,
                                  const StrideProfilerConfig &C) {
  std::vector<ExactSite> Exact(NumSites, ExactSite(C));
  for (const AccessEvent &E : Events)
    Exact[E.SiteId].add(E.Address, C);
  return Exact;
}

/// One instrumented train run of \p W under \p Method with a \p PC
/// profiler attached: its trap stream, its RunStats and that profiler.
struct TrapRun {
  std::vector<AccessEvent> Events;
  RunStats Stats;
  std::unique_ptr<StrideProfiler> Profiler;
};

TrapRun trapRun(const Workload &W, ProfilingMethod Method,
                const StrideProfilerConfig &PC) {
  Program P = W.build({DataSet::Train});
  instrumentModule(P.M, Method, InstrumentConfig());
  TrapRun R;
  R.Profiler = std::make_unique<StrideProfiler>(P.M.NumLoadSites, PC);
  CollectSink Events;
  Interpreter I(P.M, std::move(P.Memory));
  I.attachProfiler(R.Profiler.get());
  I.attachEventSink(&Events);
  R.Stats = I.run();
  R.Events = Events.take();
  return R;
}

/// The test name of a case over suite workload \p Info.param.
std::string workloadCaseName(const ::testing::TestParamInfo<int> &Info) {
  std::string Name =
      makeSpecIntSuite()[static_cast<size_t>(Info.param)]->info().Name;
  std::replace_if(Name.begin(), Name.end(),
                  [](char C) { return !std::isalnum(C); }, '_');
  return Name;
}

/// The in-loop flag of each of \p W's train-input load sites: the sites
/// naive-loop instruments.
std::vector<uint8_t> inLoopSites(const Workload &W) {
  const std::vector<bool> InLoop =
      loadSitesInLoop(W.build({DataSet::Train}).M);
  return {InLoop.begin(), InLoop.end()};
}

} // namespace

// One case per workload, so test sharding spreads them.
class StrideOracle : public ::testing::TestWithParam<int> {};

TEST_P(StrideOracle, NaiveAllProfilesMatchExactHistogramsAndCosts) {
  const std::unique_ptr<Workload> W =
      std::move(makeSpecIntSuite()[static_cast<size_t>(GetParam())]);
  StrideProfilerConfig PC;
  PC.Sampling.Enabled = false;
  const TrapRun All = trapRun(*W, ProfilingMethod::NaiveAll, PC);
  ASSERT_TRUE(All.Stats.Completed);
  const StrideProfiler &Profiler = *All.Profiler;
  const uint32_t NumSites = Profiler.numSites();

  const std::vector<ExactSite> Exact = exactSites(All.Events, NumSites, PC);
  uint64_t ExactCost = 0;
  for (const ExactSite &X : Exact)
    ExactCost += X.Cost;
  EXPECT_EQ(All.Stats.RuntimeCycles, ExactCost);

  // Naive-loop's trap stream is naive-all's in-loop slice, so its exact
  // histograms are naive-all's restricted to the in-loop sites, and the
  // other sites see nothing: the ground a naive-loop profile read off the
  // naive-all profiler's in-loop sites stands on.
  const TrapRun Loop = trapRun(*W, ProfilingMethod::NaiveLoop, PC);
  ASSERT_TRUE(Loop.Stats.Completed);
  const std::vector<uint8_t> InLoop = inLoopSites(*W);
  ASSERT_EQ(InLoop.size(), NumSites);
  const std::vector<ExactSite> LoopExact =
      exactSites(Loop.Events, NumSites, PC);
  uint64_t LoopCost = 0;
  size_t InLoopSites = 0;
  for (uint32_t S = 0; S != NumSites; ++S) {
    SCOPED_TRACE("naive-loop site " + std::to_string(S));
    EXPECT_EQ(LoopExact[S].text(),
              InLoop[S] ? Exact[S].text() : ExactSite(PC).text());
    LoopCost += LoopExact[S].Cost;
    InLoopSites += InLoop[S];
  }
  EXPECT_EQ(Loop.Stats.RuntimeCycles, LoopCost);
  // The workload has sites of both kinds, so the restriction is not
  // vacuous.
  EXPECT_GT(InLoopSites, 0u);
  EXPECT_LT(InLoopSites, NumSites);

  size_t TopChecked = 0;
  for (uint32_t S = 0; S != NumSites; ++S) {
    SCOPED_TRACE("site " + std::to_string(S));
    const StrideSiteData &D = Profiler.site(S);
    const ExactSite &X = Exact[S];
    EXPECT_EQ(D.NumZeroStride, X.ZeroStride);
    EXPECT_EQ(D.NumZeroDiff, X.ZeroDiff);
    EXPECT_EQ(D.totalStrides(), X.ZeroStride + X.NonZero);
    // With no more distinct strides than the final buffer keeps, the LFU
    // never evicts one, so its top values are exact.
    if (X.Strides.size() > PC.Lfu.FinalSize)
      continue;
    const std::vector<ValueCount> Got = D.Lfu.topValues();
    const std::vector<ValueCount> Want = X.top(PC.Lfu.FinalSize);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t R = 0; R != Got.size(); ++R) {
      EXPECT_EQ(Got[R].Value, Want[R].Value) << "rank " << R;
      EXPECT_EQ(Got[R].Count, Want[R].Count) << "rank " << R;
    }
    ++TopChecked;
  }
  // Not vacuous: some site has more distinct strides than the final buffer
  // keeps, and on every workload but 186.crafty some site has fewer.
  EXPECT_LT(TopChecked, NumSites);
  EXPECT_EQ(TopChecked == 0, W->info().Name == "186.crafty");
}

INSTANTIATE_TEST_SUITE_P(Suite, StrideOracle, ::testing::Range(0, 12),
                         workloadCaseName);

//===----------------------------------------------------------------------===//
// Site subset: a profiler's restriction to a subset of its sites
//===----------------------------------------------------------------------===//

namespace {

/// The strideprof.* and lfu.* metrics of \p Session, one per line: what a
/// StrideProfiler records there.
std::string strideMetricsText(ObsSession &Session) {
  auto Keep = [](const std::string &Name) {
    return Name.rfind("strideprof.", 0) == 0 || Name.rfind("lfu.", 0) == 0;
  };
  std::ostringstream OS;
  const MetricsRegistry &Reg = Session.registry();
  for (const auto &[Name, C] : Reg.counters())
    if (Keep(Name))
      OS << "counter " << Name << " " << C.value() << "\n";
  for (const auto &[Name, H] : Reg.histograms()) {
    if (!Keep(Name))
      continue;
    OS << "histogram " << Name << " " << H.count() << " " << H.sum() << " "
       << H.min() << " " << H.max();
    for (uint64_t B : H.bucketCounts())
      OS << " " << B;
    OS << "\n";
  }
  return OS.str();
}

/// Every field of every site summary of \p P, one site per line.
std::string summaryText(const StrideProfile &P) {
  std::ostringstream OS;
  for (uint32_t Id = 0; Id != P.numSites(); ++Id) {
    const StrideSiteSummary &S = P.site(Id);
    OS << S.SiteId << ": " << S.TotalStrides << " " << S.NumZeroStride << " "
       << S.NumZeroDiff << " " << S.RefGapSum << " " << S.RefGapCount;
    for (const ValueCount &VC : S.TopStrides)
      OS << " " << VC.Value << ":" << VC.Count;
    OS << "\n";
  }
  return OS.str();
}

ObsConfig metricsOnly() {
  ObsConfig C;
  C.Enabled = true;
  C.CollectTrace = false;
  return C;
}

/// Feeds \p Events to \p P, through profile() per event when \p Block is
/// 0 and through profileBatch() in blocks of \p Block otherwise.
/// \returns the summed cost.
uint64_t feed(StrideProfiler &P, const std::vector<AccessEvent> &Events,
              size_t Block) {
  uint64_t Cost = 0;
  if (Block == 0) {
    for (const AccessEvent &E : Events)
      Cost += P.profile(E.SiteId, E.Address, E.GlobalRefIndex);
    return Cost;
  }
  for (size_t I = 0; I < Events.size(); I += Block)
    Cost += P.profileBatch(Events.data() + I,
                           std::min(Block, Events.size() - I));
  return Cost;
}

} // namespace

// On each workload's naive-all trap stream, a profiler whose site subset is
// the in-loop sites reports, for the subset, exactly what a lone profiler
// fed only the in-loop events reports (naive-loop's run): site data, totals,
// cost, profile and every strideprof.* and lfu.* metric. Its own accounting
// stays a plain profiler's. Per event and at batch sizes that straddle the
// engines' 256-event ring.
class SubsetAcrossSuite : public ::testing::TestWithParam<int> {};

TEST_P(SubsetAcrossSuite, MatchesALoneProfilerOfTheSubsetsEvents) {
  const std::unique_ptr<Workload> W =
      std::move(makeSpecIntSuite()[static_cast<size_t>(GetParam())]);
  const StrideProfilerConfig PC;
  const TrapRun All = trapRun(*W, ProfilingMethod::NaiveAll, PC);
  ASSERT_TRUE(All.Stats.Completed);
  const uint32_t NumSites = All.Profiler->numSites();
  const std::vector<uint8_t> InLoop = inLoopSites(*W);
  ASSERT_EQ(InLoop.size(), NumSites);
  std::vector<AccessEvent> InLoopEvents;
  for (const AccessEvent &E : All.Events)
    if (InLoop[E.SiteId])
      InLoopEvents.push_back(E);
  ASSERT_FALSE(InLoopEvents.empty());

  ObsSession LoneObs(metricsOnly()), WholeObs(metricsOnly());
  StrideProfiler Lone(NumSites, PC), Whole(NumSites, PC);
  Lone.attachObs(&LoneObs);
  Whole.attachObs(&WholeObs);
  const uint64_t LoneCost = feed(Lone, InLoopEvents, 0);
  const uint64_t WholeCost = feed(Whole, All.Events, 0);
  const std::string LoneProfile =
      summaryText(StrideProfile::fromProfiler(Lone));

  for (size_t Block : {0u, 1u, 3u, 256u, 257u}) {
    SCOPED_TRACE("block " + std::to_string(Block));
    ObsSession Own(metricsOnly()), Sub(metricsOnly());
    StrideProfiler P(NumSites, PC, InLoop);
    P.attachObs(&Own);
    const uint64_t Cost = feed(P, All.Events, Block);

    const StrideProfiler::RunTotals T = P.harvestSubset(&Sub);
    EXPECT_EQ(T.Invocations, Lone.totalInvocations());
    EXPECT_EQ(T.Processed, Lone.totalProcessed());
    EXPECT_EQ(T.LfuCalls, Lone.totalLfuCalls());
    EXPECT_EQ(T.Cost, LoneCost);
    EXPECT_EQ(strideMetricsText(Sub), strideMetricsText(LoneObs));
    for (uint32_t S = 0; S != NumSites; ++S)
      if (InLoop[S])
        expectSitesEqual(P.site(S), Lone.site(S), S);
    EXPECT_EQ(summaryText(StrideProfile::fromProfiler(P, /*SubsetOnly=*/true)),
              LoneProfile);

    EXPECT_EQ(Cost, WholeCost);
    expectProfilersEqual(P, Whole);
    EXPECT_EQ(strideMetricsText(Own), strideMetricsText(WholeObs));
    if (HasFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, SubsetAcrossSuite, ::testing::Range(0, 12),
                         workloadCaseName);

TEST(StrideProfiler, SubsetNeedsSamplingOffAndOneFlagPerSite) {
  const std::vector<uint8_t> Subset = {1, 0, 1};
  StrideProfilerConfig C;
  C.Sampling.Enabled = true;
  EXPECT_THROW(StrideProfiler(3, C, Subset), std::invalid_argument);
  C.Sampling.Enabled = false;
  EXPECT_THROW(StrideProfiler(4, C, Subset), std::invalid_argument);
  StrideProfiler P(3, C, Subset);
  EXPECT_TRUE(P.inSubset(0));
  EXPECT_FALSE(P.inSubset(1));
  // Site-sharded replay's entry point does not account a subset.
  const IndexedLoad L{0x1000, 1, 0, 0};
  EXPECT_THROW(P.profileIndexed(&L, 1), std::logic_error);
  // Without a subset, its totals are all zero.
  StrideProfiler Plain(3, C);
  Plain.profile(0, 0x1000);
  EXPECT_EQ(Plain.harvestSubset().Invocations, 0u);
  EXPECT_EQ(Plain.harvestSubset().Cost, 0u);
}
