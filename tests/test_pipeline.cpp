//===- tests/test_pipeline.cpp - End-to-end pipeline tests ------------------===//
//
// Part of the StrideProf project test suite: integration tests running the
// full instrument -> profile -> feedback -> prefetch -> measure pipeline
// over the synthetic workloads.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace sprof;

TEST(Workloads, AllBuildWellFormedPrograms) {
  for (const auto &W : makeSpecIntSuite()) {
    for (DataSet DS : {DataSet::Train, DataSet::Ref}) {
      Program P = W->build(DS);
      std::vector<std::string> Errors = verifyModule(P.M);
      EXPECT_TRUE(Errors.empty())
          << W->info().Name << "/" << dataSetName(DS) << ": "
          << (Errors.empty() ? "" : Errors.front());
      EXPECT_GT(P.M.NumLoadSites, 0u) << W->info().Name;
    }
  }
}

TEST(Workloads, BuildsAreDeterministic) {
  auto W = makeMcfLike();
  Program A = W->build(DataSet::Train);
  Program B = W->build(DataSet::Train);
  Interpreter IA(A.M, std::move(A.Memory));
  Interpreter IB(B.M, std::move(B.Memory));
  RunStats SA = IA.run();
  RunStats SB = IB.run();
  EXPECT_EQ(SA.ExitValue, SB.ExitValue);
  EXPECT_EQ(SA.Instructions, SB.Instructions);
}

TEST(Workloads, TrainAndRefDiffer) {
  auto W = makeParserLike();
  Program T = W->build(DataSet::Train);
  Program R = W->build(DataSet::Ref);
  Interpreter IT(T.M, std::move(T.Memory));
  Interpreter IR(R.M, std::move(R.Memory));
  EXPECT_LT(IT.run().Instructions, IR.run().Instructions);
}

TEST(Workloads, SuiteHasTwelveFigure15Entries) {
  auto Suite = makeSpecIntSuite();
  ASSERT_EQ(Suite.size(), 12u);
  EXPECT_EQ(Suite[0]->info().Name, "164.gzip");
  EXPECT_EQ(Suite[3]->info().Name, "181.mcf");
  EXPECT_EQ(Suite[11]->info().Name, "300.twolf");
  EXPECT_EQ(Suite[6]->info().Lang, "C++"); // eon
  EXPECT_NE(makeWorkloadByName("254.gap"), nullptr);
  EXPECT_EQ(makeWorkloadByName("999.none"), nullptr);
}

TEST(Pipeline, ProfileRunProducesEdgeAndStrideProfiles) {
  auto W = makeMcfLike();
  Pipeline P(*W);
  ProfileRunResult R = P.runProfile(ProfilingMethod::EdgeCheck,
                                    DataSet::Train,
                                    /*WithMemorySystem=*/false);
  EXPECT_TRUE(R.Stats.Completed);
  EXPECT_GT(R.StrideProcessed, 0u);

  // Some site must carry a strong 128-byte stride (the arc chain).
  bool Found128 = false;
  for (uint32_t S = 0; S != R.Strides.numSites(); ++S) {
    const StrideSiteSummary &Sum = R.Strides.site(S);
    if (Sum.TotalStrides > 1000 && !Sum.TopStrides.empty() &&
        Sum.TopStrides[0].Value == 128 &&
        Sum.top1Freq() * 10 > Sum.TotalStrides * 9)
      Found128 = true;
  }
  EXPECT_TRUE(Found128);
}

TEST(Pipeline, McfGetsLargeSpeedup) {
  auto W = makeMcfLike();
  Pipeline P(*W);
  ProfileRunResult R = P.runProfile(ProfilingMethod::EdgeCheck,
                                    DataSet::Train, false);
  double S = P.speedup(DataSet::Train, R.Edges, R.Strides);
  EXPECT_GT(S, 1.15);
}

TEST(Pipeline, GapGetsPmstSpeedup) {
  auto W = makeGapLike();
  Pipeline P(*W);
  ProfileRunResult R = P.runProfile(ProfilingMethod::EdgeCheck,
                                    DataSet::Train, false);
  TimedRunResult T = P.runPrefetched(DataSet::Train, R.Edges, R.Strides);
  EXPECT_GT(T.Prefetches.PmstPrefetches, 0u);
  RunStats Base = P.runBaseline(DataSet::Train);
  EXPECT_GT(static_cast<double>(Base.Cycles) /
                static_cast<double>(T.Stats.Cycles),
            1.02);
}

TEST(Pipeline, StrideFreeWorkloadIsNotSlowedDown) {
  // crafty must not regress: prefetching decisions should be absent or
  // harmless.
  auto W = makeCraftyLike();
  Pipeline P(*W);
  ProfileRunResult R = P.runProfile(ProfilingMethod::EdgeCheck,
                                    DataSet::Train, false);
  double S = P.speedup(DataSet::Train, R.Edges, R.Strides);
  EXPECT_GT(S, 0.97);
  EXPECT_LT(S, 1.03);
}

TEST(Pipeline, NaiveAllAlsoPrefetchesOutLoopLoads) {
  auto W = makeParserLike();
  Pipeline P(*W);
  ProfileRunResult A = P.runProfile(ProfilingMethod::EdgeCheck,
                                    DataSet::Train, false);
  ProfileRunResult B = P.runProfile(ProfilingMethod::NaiveAll,
                                    DataSet::Train, false);
  TimedRunResult TA = P.runPrefetched(DataSet::Train, A.Edges, A.Strides);
  TimedRunResult TB = P.runPrefetched(DataSet::Train, B.Edges, B.Strides);
  EXPECT_EQ(TA.Prefetches.OutLoopPrefetches, 0u);
  EXPECT_GT(TB.Prefetches.OutLoopPrefetches, 0u);
}

TEST(Pipeline, ProfilingOverheadOrdering) {
  // naive-all > naive-loop > edge-check in instrumented-run cycles, and
  // sampling reduces each (Figure 20's ordering).
  auto W = makeParserLike();
  Pipeline P(*W);
  auto Cycles = [&](ProfilingMethod M) {
    return P.runProfile(M, DataSet::Train).Stats.Cycles;
  };
  uint64_t EdgeOnly = Cycles(ProfilingMethod::EdgeOnly);
  uint64_t EdgeCheck = Cycles(ProfilingMethod::EdgeCheck);
  uint64_t NaiveLoop = Cycles(ProfilingMethod::NaiveLoop);
  uint64_t NaiveAll = Cycles(ProfilingMethod::NaiveAll);
  uint64_t SampleEdgeCheck = Cycles(ProfilingMethod::SampleEdgeCheck);
  EXPECT_GT(EdgeCheck, EdgeOnly);
  EXPECT_GT(NaiveLoop, EdgeCheck);
  EXPECT_GT(NaiveAll, NaiveLoop);
  EXPECT_LT(SampleEdgeCheck, EdgeCheck);
}

TEST(Pipeline, SampledProfilesStillFindDominantStrides) {
  auto W = makeMcfLike();
  Pipeline P(*W);
  ProfileRunResult R = P.runProfile(ProfilingMethod::SampleEdgeCheck,
                                    DataSet::Train, false);
  bool Found128 = false;
  for (uint32_t S = 0; S != R.Strides.numSites(); ++S) {
    const StrideSiteSummary &Sum = R.Strides.site(S);
    if (!Sum.TopStrides.empty() && Sum.TopStrides[0].Value == 128 &&
        Sum.TotalStrides > 50)
      Found128 = true;
  }
  EXPECT_TRUE(Found128);
}

namespace {

/// Forwards to another workload, counting its builds.
class CountingWorkload final : public Workload {
public:
  explicit CountingWorkload(const Workload &Inner) : Inner(Inner) {}
  WorkloadInfo info() const override { return Inner.info(); }
  Program build(const BuildRequest &Req) const override {
    ++Builds;
    return Inner.build(Req);
  }

  const Workload &Inner;
  mutable unsigned Builds = 0;
};

} // namespace

// A memsys-on profile run builds its program once. One that cannot take
// its stall from the un-instrumented run -- under the Reference engine, or
// with a flat load latency above a level's hit latency -- learns so before
// it builds anything; one that can runs the stall run and its execution on
// that one build; and a group that runs each method alone shares it too.
TEST(Pipeline, MemsysProfileRunsBuildOnce) {
  const std::unique_ptr<Workload> W = makeMcfLike();
  PipelineConfig Reference;
  Reference.Interp.Exec = InterpreterConfig::Engine::Reference;
  PipelineConfig SlowFlat;
  SlowFlat.Timing.FlatLoadLatency = SlowFlat.Memory.Levels[0].HitLatency + 1;
  const std::vector<ProfilingMethod> Pair = {ProfilingMethod::NaiveLoop,
                                             ProfilingMethod::NaiveAll};
  for (const PipelineConfig &C : {PipelineConfig(), Reference, SlowFlat})
    for (size_t N : {1u, 2u}) {
      CountingWorkload Counted(*W);
      const std::vector<ProfileRunResult> R =
          Pipeline(Counted, C).runProfiles({Pair.data(), N}, DataSet::Train,
                                           {}, /*WithMemorySystem=*/true);
      ASSERT_EQ(R.size(), N);
      EXPECT_NE(R[0].Stats.Mem.DemandAccesses, 0u);
      EXPECT_EQ(Counted.Builds, 1u) << N << " methods";
    }
}
