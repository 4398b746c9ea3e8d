//===- tests/test_semantics.cpp - Transformation semantics preservation -----===//
//
// Part of the StrideProf project test suite: parameterized sweeps over the
// whole workload suite asserting that profiling instrumentation and
// prefetch insertion never change program results -- the fundamental
// contract of both transformations.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "prefetch/PrefetchInsertion.h"
#include "profile/StrideProfiler.h"

#include <gtest/gtest.h>

using namespace sprof;

namespace {

/// Workload factories, indexable for TEST_P.
std::unique_ptr<Workload> workloadByIndex(int I) {
  auto Suite = makeSpecIntSuite();
  return std::move(Suite[static_cast<size_t>(I)]);
}

int64_t runChecksum(const Module &M, const SimMemory &Mem,
                    StrideProfiler *Profiler = nullptr) {
  Interpreter I(M, Mem);
  if (Profiler)
    I.attachProfiler(Profiler);
  RunStats S = I.run();
  EXPECT_TRUE(S.Completed);
  EXPECT_GT(S.Instructions, 0u);
  return S.ExitValue;
}

} // namespace

class WorkloadSweep : public ::testing::TestWithParam<int> {};

// Instrumentation must not change the program's result, for any method.
TEST_P(WorkloadSweep, InstrumentationPreservesSemantics) {
  auto W = workloadByIndex(GetParam());
  Program Base = W->build(DataSet::Train);
  int64_t Expected = runChecksum(Base.M, Base.Memory);
  ASSERT_NE(Expected, 0) << "workload checksum degenerate";

  for (ProfilingMethod M : allProfilingMethods()) {
    Program Prog = W->build(DataSet::Train);
    instrumentModule(Prog.M, M);
    ASSERT_TRUE(isWellFormed(Prog.M))
        << W->info().Name << " / " << profilingMethodName(M);
    StrideProfilerConfig PC;
    PC.Sampling.Enabled = methodUsesSampling(M);
    StrideProfiler P(Prog.M.NumLoadSites, PC);
    EXPECT_EQ(runChecksum(Prog.M, Prog.Memory, &P), Expected)
        << W->info().Name << " / " << profilingMethodName(M);
  }
}

// Prefetch insertion must not change the program's result either, and the
// transformed module must verify.
TEST_P(WorkloadSweep, PrefetchingPreservesSemantics) {
  auto W = workloadByIndex(GetParam());
  Pipeline P(*W);
  Program Base = W->build(DataSet::Train);
  int64_t Expected = runChecksum(Base.M, Base.Memory);

  ProfileRunResult Prof = P.runProfile(ProfilingMethod::NaiveAll,
                                       DataSet::Train,
                                       /*WithMemorySystem=*/false);
  Program Prog = W->build(DataSet::Train);
  ClassifierConfig Cfg;
  Cfg.EnableWsstPrefetch = true; // exercise all three sequences
  FeedbackResult FB = runFeedback(Prog.M, Prof.Edges, Prof.Strides, Cfg);
  insertPrefetches(Prog.M, FB);
  ASSERT_TRUE(isWellFormed(Prog.M)) << W->info().Name;
  EXPECT_EQ(runChecksum(Prog.M, Prog.Memory), Expected) << W->info().Name;
}

// Dependent prefetching (speculative loads) must also be semantics-free.
TEST_P(WorkloadSweep, DependentPrefetchingPreservesSemantics) {
  auto W = workloadByIndex(GetParam());
  Pipeline P(*W);
  Program Base = W->build(DataSet::Train);
  int64_t Expected = runChecksum(Base.M, Base.Memory);

  ProfileRunResult Prof = P.runProfile(ProfilingMethod::EdgeCheck,
                                       DataSet::Train,
                                       /*WithMemorySystem=*/false);
  Program Prog = W->build(DataSet::Train);
  ClassifierConfig Cfg;
  Cfg.EnableDependentPrefetch = true;
  FeedbackResult FB = runFeedback(Prog.M, Prof.Edges, Prof.Strides, Cfg);
  insertPrefetches(Prog.M, FB);
  ASSERT_TRUE(isWellFormed(Prog.M)) << W->info().Name;
  EXPECT_EQ(runChecksum(Prog.M, Prog.Memory), Expected) << W->info().Name;
}

// Identical builds are bit-identical in behaviour: run twice and compare
// instruction counts, load counts, and checksums.
TEST_P(WorkloadSweep, BuildsAreDeterministic) {
  auto W = workloadByIndex(GetParam());
  Program A = W->build(DataSet::Ref);
  Program B = W->build(DataSet::Ref);
  Interpreter IA(A.M, std::move(A.Memory));
  Interpreter IB(B.M, std::move(B.Memory));
  RunStats SA = IA.run();
  RunStats SB = IB.run();
  EXPECT_EQ(SA.ExitValue, SB.ExitValue);
  EXPECT_EQ(SA.Instructions, SB.Instructions);
  EXPECT_EQ(SA.LoadRefs, SB.LoadRefs);
}

// Prefetching never slows a benchmark down by more than noise -- the
// paper's selectivity claim (prefetching only where profitable).
TEST_P(WorkloadSweep, PrefetchingNeverHurts) {
  auto W = workloadByIndex(GetParam());
  Pipeline P(*W);
  ProfileRunResult R = P.runProfile(ProfilingMethod::EdgeCheck,
                                    DataSet::Train, false);
  double S = P.speedup(DataSet::Train, R.Edges, R.Strides);
  EXPECT_GT(S, 0.99) << W->info().Name;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadSweep, ::testing::Range(0, 12),
    [](const ::testing::TestParamInfo<int> &Info) {
      auto Suite = makeSpecIntSuite();
      std::string Name = Suite[static_cast<size_t>(Info.param)]->info().Name;
      // gtest names must be alphanumeric.
      std::string Clean;
      for (char C : Name)
        if (std::isalnum(static_cast<unsigned char>(C)))
          Clean += C;
      return Clean;
    });
