//===- tests/test_profilestore.cpp - ProfileStore serialization tests -------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProfileStore round-trip bit-identity, order-independent shard merging,
/// malformed-file rejection, and the save -> load -> feedback equivalence
/// the sharded-profile workflow depends on.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "profile/ProfileStore.h"
#include "profile/StrideProfiler.h"
#include "stream/TraceFile.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace sprof;
using namespace sprof::test;

namespace {

// A small synthetic store populated through the real profiler, so the
// serialized tables have realistic shapes. Salt perturbs counts and
// strides so different shards do not collapse to identical tables.
ProfileStore makeStore(uint32_t NumSites, uint64_t Salt,
                       ProfileMeta Meta = {"test.synthetic", "edge-check",
                                           "train"}) {
  StrideProfilerConfig C;
  StrideProfiler P(NumSites, C);
  for (uint32_t Site = 0; Site != NumSites; ++Site) {
    uint64_t Addr = 0x1000 + Salt * 8;
    uint64_t Stride = 16 * (1 + ((Site + Salt) & 3));
    for (unsigned I = 0; I != 40; ++I) {
      P.profile(Site, Addr);
      Addr += (I % 7 == 6) ? Stride + 8 * Salt : Stride;
    }
  }
  EdgeProfile Edges(2);
  for (uint32_t F = 0; F != 2; ++F) {
    Edges.setEntryCount(F, 10 + Salt);
    for (uint32_t B = 0; B != 4; ++B)
      Edges.setFrequency(F, Edge{B, 0}, (B + 1) * 5 + Salt);
  }
  return ProfileStore(std::move(Meta), std::move(Edges),
                      StrideProfile::fromProfiler(P));
}

// The chase workload from TestHelpers wrapped as a Workload, so Pipeline
// can drive it end to end.
class ChaseWorkload : public Workload {
public:
  WorkloadInfo info() const override {
    return {"test.chase", "c", "pointer chase"};
  }
  Program build(const BuildRequest &Req) const override {
    Program P;
    uint32_t DataSite = 0, NextSite = 0;
    P.M = makeChaseModule(DataSite, NextSite);
    // The list length depends on the data set and the (mixed) seed, so
    // replicas with different seed offsets produce different profiles.
    uint64_t Seed = Req.seed(0x51dee);
    uint64_t Count = (Req.DS == DataSet::Train ? 192 : 256) + (Seed & 31);
    fillChaseList(P.Memory, Count, 64);
    return P;
  }
};

TEST(ProfileStore, RoundTripBitIdentity) {
  ProfileStore Store = makeStore(12, 3);
  std::string Text = Store.toString();

  ProfileStore Loaded;
  std::string Error;
  ASSERT_TRUE(ProfileStore::loadString(Text, Loaded, &Error)) << Error;

  // Serialize-load-serialize is a fixed point: the reloaded store writes
  // the same bytes.
  EXPECT_EQ(Loaded.toString(), Text);
  EXPECT_EQ(Loaded.meta().Workload, "test.synthetic");
  EXPECT_EQ(Loaded.meta().Method, "edge-check");
  EXPECT_EQ(Loaded.meta().DataSet, "train");
  EXPECT_EQ(Loaded.numFunctions(), Store.numFunctions());
  EXPECT_EQ(Loaded.numSites(), Store.numSites());

  for (uint32_t S = 0; S != Store.numSites(); ++S) {
    const StrideSiteSummary &A = Store.strides().site(S);
    const StrideSiteSummary &B = Loaded.strides().site(S);
    EXPECT_EQ(A.TotalStrides, B.TotalStrides);
    EXPECT_EQ(A.NumZeroStride, B.NumZeroStride);
    EXPECT_EQ(A.RefGapSum, B.RefGapSum);
    ASSERT_EQ(A.TopStrides.size(), B.TopStrides.size());
    for (size_t I = 0; I != A.TopStrides.size(); ++I) {
      EXPECT_EQ(A.TopStrides[I].Value, B.TopStrides[I].Value);
      EXPECT_EQ(A.TopStrides[I].Count, B.TopStrides[I].Count);
    }
  }
  for (uint32_t F = 0; F != 2; ++F) {
    EXPECT_EQ(Loaded.edges().entryCount(F), Store.edges().entryCount(F));
    for (uint32_t B = 0; B != 4; ++B)
      EXPECT_EQ(Loaded.edges().frequency(F, Edge{B, 0}),
                Store.edges().frequency(F, Edge{B, 0}));
  }
}

TEST(ProfileStore, FileRoundTrip) {
  ProfileStore Store = makeStore(6, 1);
  std::string Path = testing::TempDir() + "sprof_store_test.profile";
  ASSERT_TRUE(Store.saveFile(Path));

  ProfileStore Loaded;
  std::string Error;
  ASSERT_TRUE(ProfileStore::loadFile(Path, Loaded, &Error)) << Error;
  EXPECT_EQ(Loaded.toString(), Store.toString());
}

TEST(ProfileStore, MergeSumsCounts) {
  ProfileStore A = makeStore(8, 1);
  ProfileStore B = makeStore(8, 2);
  uint64_t TotalA = A.strides().site(0).TotalStrides;
  uint64_t TotalB = B.strides().site(0).TotalStrides;
  uint64_t FreqA = A.edges().frequency(0, Edge{1, 0});
  uint64_t FreqB = B.edges().frequency(0, Edge{1, 0});

  std::string Error;
  ASSERT_TRUE(A.merge(B, &Error)) << Error;
  EXPECT_EQ(A.strides().site(0).TotalStrides, TotalA + TotalB);
  EXPECT_EQ(A.edges().frequency(0, Edge{1, 0}), FreqA + FreqB);
  // Shards agreed on method/dataset provenance, so it survives.
  EXPECT_EQ(A.meta().Method, "edge-check");
  EXPECT_EQ(A.meta().DataSet, "train");
}

TEST(ProfileStore, MergeDeterministicUnderShardPermutation) {
  std::vector<ProfileStore> Shards;
  for (uint64_t Salt = 0; Salt != 4; ++Salt)
    Shards.push_back(makeStore(10, Salt));

  std::vector<size_t> Order(Shards.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::string Canonical;
  do {
    std::vector<const ProfileStore *> Ptrs;
    for (size_t I : Order)
      Ptrs.push_back(&Shards[I]);
    ProfileStore Merged;
    std::string Error;
    ASSERT_TRUE(ProfileStore::mergeShards(Ptrs, 4, Merged, &Error)) << Error;
    std::string Text = Merged.toString();
    if (Canonical.empty())
      Canonical = Text;
    else
      EXPECT_EQ(Text, Canonical);
  } while (std::next_permutation(Order.begin(), Order.end()));
}

TEST(ProfileStore, MergeDegradesMismatchedProvenanceInAnyOrder) {
  // One shard collected with a different method: the merged store must
  // drop the method tag, and must do so whichever shard comes first.
  ProfileStore A = makeStore(4, 0, {"w", "edge-check", "train"});
  ProfileStore B = makeStore(4, 1, {"w", "block-check", "train"});

  ProfileStore AB = A, BA = B;
  ASSERT_TRUE(AB.merge(B));
  ASSERT_TRUE(BA.merge(A));
  EXPECT_EQ(AB.meta().Method, "");
  EXPECT_EQ(BA.meta().Method, "");
  EXPECT_EQ(AB.meta().DataSet, "train");

  // Raw merge unions TopStrides in discovery order; the canonical
  // truncation pass sorts them, after which the two orders serialize
  // identically (this is what mergeShards does).
  AB.truncateTopStrides(4);
  BA.truncateTopStrides(4);
  EXPECT_EQ(AB.toString(), BA.toString());
}

TEST(ProfileStore, MergeRejectsMismatchedShards) {
  ProfileStore A = makeStore(4, 0, {"w1", "m", "d"});
  ProfileStore B = makeStore(4, 1, {"w2", "m", "d"});
  std::string Error;
  EXPECT_FALSE(A.merge(B, &Error));
  EXPECT_NE(Error.find("workload mismatch"), std::string::npos) << Error;

  ProfileStore C = makeStore(4, 0, {"w1", "m", "d"});
  ProfileStore D = makeStore(6, 0, {"w1", "m", "d"});
  EXPECT_FALSE(C.merge(D, &Error));
  EXPECT_NE(Error.find("shape mismatch"), std::string::npos) << Error;

  std::string NoShards;
  ProfileStore Out;
  EXPECT_FALSE(ProfileStore::mergeShards({}, 4, Out, &NoShards));
  EXPECT_FALSE(NoShards.empty());
}

TEST(ProfileStore, LoadRejectsMalformedFiles) {
  ProfileStore Ignored;
  std::string Error;

  // Wrong schema line.
  EXPECT_FALSE(
      ProfileStore::loadString("sprof.profile/99\nshape 0 0\n", Ignored,
                               &Error));
  EXPECT_NE(Error.find("sprof.profile/1"), std::string::npos) << Error;

  // Header never reaches a shape line.
  EXPECT_FALSE(ProfileStore::loadString(
      std::string(ProfileFileSchemaV1) + "\nworkload w\n", Ignored, &Error));
  EXPECT_NE(Error.find("shape"), std::string::npos) << Error;

  // Unknown header key.
  EXPECT_FALSE(ProfileStore::loadString(
      std::string(ProfileFileSchemaV1) + "\nbogus 1\nshape 0 0\n", Ignored,
      &Error));
  EXPECT_NE(Error.find("unknown header"), std::string::npos) << Error;

  // Shape line with missing fields.
  EXPECT_FALSE(ProfileStore::loadString(
      std::string(ProfileFileSchemaV1) + "\nshape 2\n", Ignored, &Error));
  EXPECT_NE(Error.find("shape"), std::string::npos) << Error;

  // Valid header, malformed bodies: unknown record kind, ids outside the
  // declared shape, and a corrupt stride pair.
  std::string Hdr = std::string(ProfileFileSchemaV1) + "\nshape 2 4\n";
  EXPECT_FALSE(ProfileStore::loadString(Hdr + "bogus 1 2\n", Ignored,
                                        &Error));
  EXPECT_FALSE(ProfileStore::loadString(
      Hdr + "site 9 total 1 zero 0 zerodiff 0 gap 0 0 top\n", Ignored,
      &Error));
  EXPECT_FALSE(
      ProfileStore::loadString(Hdr + "edge 5 0 0 1\n", Ignored, &Error));
  EXPECT_FALSE(ProfileStore::loadString(
      Hdr + "site 0 total 1 zero 0 zerodiff 0 gap 0 0 top 8x:3\n", Ignored,
      &Error));

  // Empty input.
  EXPECT_FALSE(ProfileStore::loadString("", Ignored, &Error));
}

// The shape line sizes both profiles before any entry is read, so counts
// above the bounds are an error, not an allocation the input never backs.
TEST(ProfileStore, OversizedShapeIsRejectedBeforeAllocating) {
  auto Load = [](const std::string &Shape, std::string &Error) {
    ProfileStore Out;
    return ProfileStore::loadString(
        std::string(ProfileFileSchemaV1) + "\nshape " + Shape + "\n", Out,
        &Error);
  };
  const std::string MaxFuncs = std::to_string(ProfileMaxFunctions);
  const std::string MaxSites = std::to_string(TraceMaxSites);
  for (const std::string &Shape :
       {std::string("2 4000000000"), std::string("100000000000 2"),
        std::to_string(ProfileMaxFunctions + 1) + " 2",
        "2 " + std::to_string(TraceMaxSites + 1)}) {
    SCOPED_TRACE(Shape);
    std::string Error;
    EXPECT_FALSE(Load(Shape, Error));
    EXPECT_NE(Error.find("shape line declares more than " + MaxFuncs +
                         " functions or " + MaxSites + " sites"),
              std::string::npos)
        << Error;
  }
  // The bounds themselves are accepted.
  std::string Error;
  EXPECT_TRUE(Load(MaxFuncs + " " + MaxSites, Error)) << Error;
}

TEST(ProfileStore, SaveLoadFeedbackEquivalence) {
  // A profile that went through serialization must drive feedback to the
  // exact same decisions, classes, and timed run as the in-memory one.
  ChaseWorkload W;
  PipelineConfig Config;
  // The chase list is a few hundred nodes, far below the paper's FT=2000;
  // drop the threshold so its sites actually classify and prefetch.
  Config.Classifier.FrequencyThreshold = 16;
  Pipeline P(W, Config);

  ProfileRunResult PR =
      P.runProfile(ProfilingMethod::NaiveAll, DataSet::Train,
                   /*WithMemorySystem=*/false);

  ProfileStore Store({W.info().Name, "naive-all", "train"}, PR.Edges,
                     PR.Strides);
  ProfileStore Loaded;
  std::string Error;
  ASSERT_TRUE(ProfileStore::loadString(Store.toString(), Loaded, &Error))
      << Error;

  TimedRunResult Direct = P.runPrefetched(DataSet::Ref, PR.Edges, PR.Strides);
  TimedRunResult Stored =
      P.runPrefetched(DataSet::Ref, Loaded.edges(), Loaded.strides());

  EXPECT_EQ(Stored.Feedback.SiteClass, Direct.Feedback.SiteClass);
  EXPECT_EQ(Stored.Feedback.SiteInLoop, Direct.Feedback.SiteInLoop);
  EXPECT_EQ(Stored.Feedback.Decisions.size(),
            Direct.Feedback.Decisions.size());
  EXPECT_EQ(Stored.Prefetches.SsstPrefetches,
            Direct.Prefetches.SsstPrefetches);
  EXPECT_EQ(Stored.Prefetches.InstructionsAdded,
            Direct.Prefetches.InstructionsAdded);
  EXPECT_EQ(Stored.Stats.Cycles, Direct.Stats.Cycles);
  EXPECT_EQ(Stored.Stats.Instructions, Direct.Stats.Instructions);

  // The run actually prefetched something, so the comparison is not
  // vacuous.
  EXPECT_GT(Direct.Prefetches.SsstPrefetches +
                Direct.Prefetches.PmstPrefetches +
                Direct.Prefetches.WsstPrefetches,
            0u);
}

} // namespace
