//===- tests/test_instrument.cpp - Instrumentation pass tests ---------------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "profile/ProfileData.h"
#include "profile/StrideProfiler.h"
#include "workloads/Workload.h"

#include "TestHelpers.h"
#include <gtest/gtest.h>

#include <sstream>

using namespace sprof;

namespace {

/// Counts instructions with opcode \p Op across the module.
unsigned countOps(const Module &M, Opcode Op) {
  unsigned N = 0;
  for (const Function &F : M.Functions)
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        if (I.Op == Op)
          ++N;
  return N;
}

/// Instruments a chase module over a \p Count long list and runs it,
/// returning the profiler and interpreter state.
struct InstrumentedRun {
  Module M;
  InstrumentationResult Instr;
  RunStats Stats;
  EdgeProfile Edges;
  uint64_t StrideProcessed = 0;
};

InstrumentedRun runInstrumented(ProfilingMethod Method, uint64_t Count,
                                uint64_t Stride = 64, int64_t Passes = 0) {
  uint32_t D, N;
  InstrumentedRun R;
  R.M = Passes > 0 ? test::makePassesChaseModule(Passes, D, N)
                   : test::makeChaseModule(D, N);
  R.Instr = instrumentModule(R.M, Method);
  EXPECT_TRUE(isWellFormed(R.M));

  SimMemory Mem;
  test::fillChaseList(Mem, Count, Stride);
  StrideProfilerConfig PC;
  PC.Sampling.Enabled = methodUsesSampling(Method);
  StrideProfiler P(R.M.NumLoadSites, PC);
  Interpreter I(R.M, std::move(Mem));
  I.attachProfiler(&P);
  R.Stats = I.run();
  EXPECT_TRUE(R.Stats.Completed);

  R.Edges = EdgeProfile(R.M.Functions.size());
  for (uint32_t FI = 0; FI != R.M.Functions.size(); ++FI)
    for (const auto &[E, Ctr] : R.Instr.EdgeCounters[FI])
      R.Edges.setFrequency(FI, E, I.counters()[Ctr]);
  R.StrideProcessed = P.totalProcessed();
  return R;
}

} // namespace

TEST(Instrumentation, MethodPredicates) {
  EXPECT_TRUE(methodUsesSampling(ProfilingMethod::SampleEdgeCheck));
  EXPECT_FALSE(methodUsesSampling(ProfilingMethod::EdgeCheck));
  EXPECT_TRUE(methodProfilesOutLoop(ProfilingMethod::NaiveAll));
  EXPECT_TRUE(methodProfilesOutLoop(ProfilingMethod::SampleNaiveAll));
  EXPECT_FALSE(methodProfilesOutLoop(ProfilingMethod::EdgeCheck));
  EXPECT_EQ(baseMethod(ProfilingMethod::SampleNaiveLoop),
            ProfilingMethod::NaiveLoop);
  EXPECT_EQ(paperStrideMethods().size(), 6u);
}

TEST(Instrumentation, EdgeOnlyInsertsNoStrideCalls) {
  uint32_t D, N;
  Module M = test::makeChaseModule(D, N);
  InstrumentationResult R = instrumentModule(M, ProfilingMethod::EdgeOnly);
  EXPECT_TRUE(isWellFormed(M));
  EXPECT_EQ(countOps(M, Opcode::ProfStride), 0u);
  EXPECT_GT(countOps(M, Opcode::ProfCounterInc), 0u);
  EXPECT_TRUE(R.ProfiledSites.empty());
  // All four original edges have counters.
  EXPECT_EQ(R.EdgeCounters[0].size(), 4u);
}

TEST(Instrumentation, EdgeProfileMatchesExecution) {
  InstrumentedRun R = runInstrumented(ProfilingMethod::EdgeOnly, 10);
  const Function &F = R.M.Functions[0];
  // head(1) -> body(2) executed 10 times; body -> head 10 times;
  // entry -> head once; head -> exit once. Identify edges by block names.
  uint64_t BodyIn = 0, BackEdge = 0, EnterEdge = 0, ExitEdge = 0;
  for (const auto &[E, Ctr] : R.Instr.EdgeCounters[0]) {
    (void)Ctr;
    uint64_t Freq = R.Edges.frequency(0, E);
    const std::string &From = F.Blocks[E.From].Name;
    const std::string &To = F.Blocks[F.edgeDest(E)].Name;
    // Edge targets may have been redirected to split blocks; resolve one
    // level of split indirection.
    std::string RealTo = To;
    if (RealTo.find(".split") != std::string::npos) {
      const BasicBlock &SB = F.Blocks[F.edgeDest(E)];
      RealTo = F.Blocks[SB.successor(0)].Name;
    }
    if (From == "head" && RealTo == "body")
      BodyIn = Freq;
    else if (From == "body" && RealTo == "head")
      BackEdge = Freq;
    else if (From == "entry" && RealTo == "head")
      EnterEdge = Freq;
    else if (From == "head" && RealTo == "exit")
      ExitEdge = Freq;
  }
  EXPECT_EQ(BodyIn, 10u);
  EXPECT_EQ(BackEdge, 10u);
  EXPECT_EQ(EnterEdge, 1u);
  EXPECT_EQ(ExitEdge, 1u);
}

TEST(Instrumentation, NaiveLoopProfilesInLoopLoads) {
  uint32_t D, N;
  Module M = test::makeChaseModule(D, N);
  InstrumentationResult R = instrumentModule(M, ProfilingMethod::NaiveLoop);
  EXPECT_TRUE(isWellFormed(M));
  // Both loads are in the loop: two strideProf calls, unguarded.
  EXPECT_EQ(countOps(M, Opcode::ProfStride), 2u);
  EXPECT_EQ(R.ProfiledSites.size(), 2u);
  for (const Function &F : M.Functions)
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        if (I.Op == Opcode::ProfStride) {
          EXPECT_EQ(I.Pred, NoReg);
        }
}

TEST(Instrumentation, NaiveAllProfilesOutLoopLoads) {
  // Add an out-loop load before the loop.
  Module M;
  IRBuilder B(M);
  B.startFunction("main", 0);
  Reg P = B.movImm(0x1000);
  B.load(P, 16); // out-loop load
  Function &F = B.function();
  uint32_t Header = F.newBlock("head");
  uint32_t Body = F.newBlock("body");
  uint32_t Exit = F.newBlock("exit");
  B.jmp(Header);
  B.setBlock(Header);
  Reg C = B.cmp(Opcode::CmpNe, Operand::reg(P), Operand::imm(0));
  B.br(Operand::reg(C), Body, Exit);
  B.setBlock(Body);
  B.load(P, 0, P);
  B.jmp(Header);
  B.setBlock(Exit);
  B.halt();

  Module MLoop = M;
  instrumentModule(MLoop, ProfilingMethod::NaiveLoop);
  EXPECT_EQ(countOps(MLoop, Opcode::ProfStride), 1u);

  Module MAll = M;
  instrumentModule(MAll, ProfilingMethod::NaiveAll);
  EXPECT_EQ(countOps(MAll, Opcode::ProfStride), 2u);
}

TEST(Instrumentation, EdgeCheckGuardsWithPredicate) {
  uint32_t D, N;
  Module M = test::makeChaseModule(D, N);
  InstrumentationResult R = instrumentModule(M, ProfilingMethod::EdgeCheck);
  EXPECT_TRUE(isWellFormed(M));
  // The two loads form one equivalent set: one representative profiled.
  EXPECT_EQ(countOps(M, Opcode::ProfStride), 1u);
  EXPECT_EQ(R.ProfiledSites.size(), 1u);
  for (const Function &F : M.Functions)
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        if (I.Op == Opcode::ProfStride) {
          EXPECT_NE(I.Pred, NoReg);
        }
  // Trip-check code exists: counter reads plus a shift and compare.
  EXPECT_GT(countOps(M, Opcode::ProfCounterRead), 0u);
  EXPECT_GT(countOps(M, Opcode::Shr), 0u);
}

TEST(Instrumentation, EdgeCheckSkipsLowTripLoops) {
  // 100-iteration loop (< TT=128): the guard must keep strideProf silent
  // no matter how often the loop nest re-runs.
  InstrumentedRun R =
      runInstrumented(ProfilingMethod::EdgeCheck, 100, 64, /*Passes=*/5);
  EXPECT_EQ(R.StrideProcessed, 0u);
}

TEST(Instrumentation, EdgeCheckSkipsOnceExecutedLoopNests) {
  // Paper Section 3.2: the check methods never profile a loop nest that is
  // executed only once, because the guard is evaluated before the loop has
  // accumulated any frequency.
  InstrumentedRun R = runInstrumented(ProfilingMethod::EdgeCheck, 5000);
  EXPECT_EQ(R.StrideProcessed, 0u);
}

TEST(Instrumentation, EdgeCheckActivatesOnReentry) {
  // Three passes: the guard is off for pass 1, on for passes 2 and 3.
  InstrumentedRun R =
      runInstrumented(ProfilingMethod::EdgeCheck, 2000, 64, /*Passes=*/3);
  EXPECT_GE(R.StrideProcessed, 2 * 2000u);
  EXPECT_LT(R.StrideProcessed, 3 * 2000u);
}

TEST(Instrumentation, NaiveLoopProfilesLowTripLoops) {
  InstrumentedRun R = runInstrumented(ProfilingMethod::NaiveLoop, 100);
  // Naive-loop has no trip guard: every in-loop reference processed.
  EXPECT_EQ(R.StrideProcessed, 200u);
}

TEST(Instrumentation, NaiveLoopProfilesOnceExecutedLoopNests) {
  // This is the profile difference the paper blames for naive-loop's
  // slightly different parser/mcf results (Section 4.1).
  InstrumentedRun R = runInstrumented(ProfilingMethod::NaiveLoop, 5000);
  EXPECT_EQ(R.StrideProcessed, 2 * 5000u);
}

TEST(Instrumentation, BlockCheckMatchesEdgeCheckDecision) {
  // The paper argues block-check and edge-check produce the same stride
  // profile. Run both on the same program and compare processed counts.
  InstrumentedRun A =
      runInstrumented(ProfilingMethod::EdgeCheck, 3000, 64, /*Passes=*/3);
  InstrumentedRun B =
      runInstrumented(ProfilingMethod::BlockCheck, 3000, 64, /*Passes=*/3);
  EXPECT_TRUE(isWellFormed(B.M));
  EXPECT_GT(A.StrideProcessed, 0u);
  EXPECT_EQ(A.StrideProcessed, B.StrideProcessed);
}

TEST(Instrumentation, LoopInvariantAddressesNotProfiled) {
  // A loop load from a loop-invariant address must be skipped by
  // edge-check.
  Module M;
  IRBuilder B(M);
  B.startFunction("main", 0);
  Function &F = B.function();
  uint32_t Header = F.newBlock("head");
  uint32_t Body = F.newBlock("body");
  uint32_t Exit = F.newBlock("exit");
  Reg Base = B.movImm(0x1000);
  Reg I = B.movImm(0);
  B.jmp(Header);
  B.setBlock(Header);
  Reg C = B.cmp(Opcode::CmpLt, Operand::reg(I), Operand::imm(1000));
  B.br(Operand::reg(C), Body, Exit);
  B.setBlock(Body);
  B.load(Base, 0); // invariant address
  B.add(Operand::reg(I), Operand::imm(1), I);
  B.jmp(Header);
  B.setBlock(Exit);
  B.halt();

  InstrumentationResult R = instrumentModule(M, ProfilingMethod::EdgeCheck);
  EXPECT_EQ(countOps(M, Opcode::ProfStride), 0u);
  EXPECT_TRUE(R.ProfiledSites.empty());

  // Naive-loop, by contrast, profiles it.
  Module M2;
  IRBuilder B2(M2);
  B2.startFunction("main", 0);
  B2.halt();
  (void)M2;
}

TEST(Instrumentation, SampledMethodsShareInstrumentationShape) {
  uint32_t D, N;
  Module M1 = test::makeChaseModule(D, N);
  Module M2 = test::makeChaseModule(D, N);
  instrumentModule(M1, ProfilingMethod::EdgeCheck);
  instrumentModule(M2, ProfilingMethod::SampleEdgeCheck);
  EXPECT_EQ(countOps(M1, Opcode::ProfStride),
            countOps(M2, Opcode::ProfStride));
  EXPECT_EQ(countOps(M1, Opcode::ProfCounterInc),
            countOps(M2, Opcode::ProfCounterInc));
}

// Instrumentation never touches simulated memory: no instruction it adds
// is a Load, Store, SpecLoad or Prefetch, on any workload under any
// method. So an instrumented program issues its un-instrumented
// program's access stream, which lets Pipeline::runProfiles take a
// profile run's memory stalls from the un-instrumented run.
TEST(Instrumentation, AddsNoMemoryOps) {
  for (const std::unique_ptr<Workload> &W : makeSpecIntSuite()) {
    const Program P = W->build({DataSet::Train});
    for (ProfilingMethod Method : allProfilingMethods()) {
      SCOPED_TRACE(W->info().Name + "/" + profilingMethodName(Method));
      Module M = P.M;
      instrumentModule(M, Method);
      uint64_t Added = 0;
      for (const Function &F : M.Functions)
        for (const BasicBlock &BB : F.Blocks)
          for (const Instruction &I : BB.Insts) {
            if (!I.IsInstrumentation)
              continue;
            ++Added;
            EXPECT_TRUE(I.Op != Opcode::Load && I.Op != Opcode::Store &&
                        I.Op != Opcode::SpecLoad && I.Op != Opcode::Prefetch)
                << opcodeName(I.Op);
          }
      EXPECT_GT(Added, 0u);
    }
  }
}

// Naive-loop's instrumentation is naive-all's without the out-loop
// ProfStrides: the same printed module once those are removed, the same
// edge and entry counters, and naive-all's profiled sites filtered by
// loadSitesInLoop. Pipeline::runProfiles relies on this to profile
// naive-loop from the in-loop events of a naive-all run.
TEST(Instrumentation, NaiveLoopIsNaiveAllWithoutOutLoopStrides) {
  for (const std::unique_ptr<Workload> &W : makeSpecIntSuite()) {
    SCOPED_TRACE(W->info().Name);
    const Program P = W->build({DataSet::Train});
    const std::vector<bool> InLoop = loadSitesInLoop(P.M);
    Module All = P.M, Loop = P.M;
    const InstrumentationResult AllInstr =
        instrumentModule(All, ProfilingMethod::NaiveAll);
    const InstrumentationResult LoopInstr =
        instrumentModule(Loop, ProfilingMethod::NaiveLoop);

    size_t Removed = 0;
    for (Function &F : All.Functions)
      for (BasicBlock &BB : F.Blocks)
        Removed += std::erase_if(BB.Insts, [&](const Instruction &I) {
          return I.Op == Opcode::ProfStride && !InLoop[I.SiteId];
        });
    EXPECT_GT(Removed, 0u);
    std::ostringstream AllText, LoopText;
    All.print(AllText);
    Loop.print(LoopText);
    EXPECT_EQ(AllText.str(), LoopText.str());

    EXPECT_EQ(AllInstr.EdgeCounters, LoopInstr.EdgeCounters);
    EXPECT_EQ(AllInstr.EntryCounters, LoopInstr.EntryCounters);
    EXPECT_EQ(AllInstr.BlockCounters, LoopInstr.BlockCounters);
    std::vector<uint32_t> InLoopSites;
    for (uint32_t Site : AllInstr.ProfiledSites)
      if (InLoop[Site])
        InLoopSites.push_back(Site);
    EXPECT_EQ(InLoopSites, LoopInstr.ProfiledSites);
    EXPECT_LT(LoopInstr.ProfiledSites.size(), AllInstr.ProfiledSites.size());
  }
}
