//===- tests/test_decoded.cpp - Decoded-engine differential tests ----------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Decoded execution engine's contract is bit-identical observable
/// behaviour to the Reference engine: same RunStats (every field), same
/// per-site counts, same serialized profiles, same classifier output, and
/// same telemetry tallies, for every workload and profiling method. These
/// tests enforce the contract differentially, including the places the
/// engines are structurally most different: instruction-count truncation
/// landing between the halves of a fused superinstruction, and calls that
/// decode-time inlining turned into spliced bodies.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/RunMemo.h"
#include "instrument/Instrumentation.h"
#include "interp/DecodedProgram.h"
#include "interp/Interpreter.h"
#include "interp/ProgramCache.h"
#include "ir/IRBuilder.h"
#include "obs/Obs.h"
#include "obs/SelfProfiler.h"
#include "profile/ProfileStore.h"
#include "workloads/Builders.h"
#include "workloads/Workload.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace sprof;
using namespace sprof::test;

namespace {

PipelineConfig engineConfig(InterpreterConfig::Engine E) {
  PipelineConfig C;
  C.Interp.Exec = E;
  return C;
}

InterpreterConfig interpConfig(InterpreterConfig::Engine E) {
  InterpreterConfig C;
  C.Exec = E;
  return C;
}

std::string profileText(const Workload &W, ProfilingMethod Method,
                        const ProfileRunResult &R) {
  ProfileStore Store(
      {W.info().Name, profilingMethodName(Method), dataSetName(DataSet::Train)},
      R.Edges, R.Strides);
  return Store.toString();
}

void expectSameProfileRun(const Workload &W, ProfilingMethod Method,
                          bool WithMemorySystem) {
  SCOPED_TRACE(W.info().Name + std::string("/") +
               profilingMethodName(Method));
  Pipeline Ref(W, engineConfig(InterpreterConfig::Engine::Reference));
  Pipeline Dec(W, engineConfig(InterpreterConfig::Engine::Decoded));
  ProfileRunResult RR =
      Ref.runProfile(Method, DataSet::Train, WithMemorySystem);
  ProfileRunResult RD =
      Dec.runProfile(Method, DataSet::Train, WithMemorySystem);
  expectSameStats(RR.Stats, RD.Stats);
  EXPECT_EQ(profileText(W, Method, RR), profileText(W, Method, RD));
  EXPECT_EQ(RR.StrideInvocations, RD.StrideInvocations);
  EXPECT_EQ(RR.StrideProcessed, RD.StrideProcessed);
  EXPECT_EQ(RR.LfuCalls, RD.LfuCalls);
}

// Every workload in the suite, on a check method and a sampling method
// (the two instrumentation families with the most runtime machinery).
TEST(DecodedEngine, ProfilesMatchReferenceAcrossSuite) {
  for (const std::unique_ptr<Workload> &W : makeSpecIntSuite()) {
    expectSameProfileRun(*W, ProfilingMethod::EdgeCheck,
                         /*WithMemorySystem=*/false);
    expectSameProfileRun(*W, ProfilingMethod::SampleNaiveLoop,
                         /*WithMemorySystem=*/false);
  }
}

// Every profiling method, on the workload with the most call/indirection
// structure (mcf: pointer chase + two inlinable helpers).
TEST(DecodedEngine, ProfilesMatchReferenceAcrossMethods) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (ProfilingMethod Method : allProfilingMethods())
    expectSameProfileRun(*W, Method, /*WithMemorySystem=*/false);
}

// Cache-hierarchy timing (MemStallCycles, level hit/miss counts) through
// both engines' demandAccess paths.
TEST(DecodedEngine, MemorySystemAccountingMatches) {
  std::unique_ptr<Workload> W = makeWorkloadByName("164.gzip");
  ASSERT_NE(W, nullptr);
  expectSameProfileRun(*W, ProfilingMethod::EdgeCheck,
                       /*WithMemorySystem=*/true);
}

// Classifier output and the timed prefetched run (the feedback half of the
// pipeline) from profiles collected by either engine.
TEST(DecodedEngine, ClassifierAndTimedRunMatch) {
  for (const char *Name : {"181.mcf", "254.gap"}) {
    SCOPED_TRACE(Name);
    std::unique_ptr<Workload> W = makeWorkloadByName(Name);
    ASSERT_NE(W, nullptr);
    Pipeline Ref(*W, engineConfig(InterpreterConfig::Engine::Reference));
    Pipeline Dec(*W, engineConfig(InterpreterConfig::Engine::Decoded));

    ProfileRunResult PR = Ref.runProfile(ProfilingMethod::EdgeCheck,
                                         DataSet::Train, false);
    ProfileRunResult PD = Dec.runProfile(ProfilingMethod::EdgeCheck,
                                         DataSet::Train, false);

    TimedRunResult TR = Ref.runPrefetched(DataSet::Train, PR.Edges,
                                          PR.Strides);
    TimedRunResult TD = Dec.runPrefetched(DataSet::Train, PD.Edges,
                                          PD.Strides);
    expectSameStats(TR.Stats, TD.Stats);
    EXPECT_EQ(TR.Feedback.SiteClass, TD.Feedback.SiteClass);
    EXPECT_EQ(TR.Feedback.Decisions.size(), TD.Feedback.Decisions.size());
    EXPECT_EQ(TR.Prefetches.InstructionsAdded,
              TD.Prefetches.InstructionsAdded);
  }
}

// Baseline runs are prefetch-free, so the Decoded engine times them on the
// clock-free cache model and Reference on the timed one: every RunStats
// field agrees on every workload of the suite.
TEST(DecodedEngine, BaselineRunsMatchReferenceAcrossSuite) {
  for (const std::unique_ptr<Workload> &W : makeSpecIntSuite()) {
    SCOPED_TRACE(W->info().Name);
    Pipeline Ref(*W, engineConfig(InterpreterConfig::Engine::Reference));
    Pipeline Dec(*W, engineConfig(InterpreterConfig::Engine::Decoded));
    const RunStats RD = Dec.runBaseline(DataSet::Train);
    expectSameStats(Ref.runBaseline(DataSet::Train), RD);
    EXPECT_NE(RD.Mem.DemandAccesses, 0u);
  }
}

PipelineConfig attributedConfig(InterpreterConfig::Engine E) {
  PipelineConfig C = engineConfig(E);
  C.Memory.EnableAttribution = true;
  return C;
}

void expectSameAttribution(const AttributionData &Ref,
                           const AttributionData &Dec) {
  EXPECT_EQ(Ref.Total.Useful, Dec.Total.Useful);
  EXPECT_EQ(Ref.Total.Late, Dec.Total.Late);
  EXPECT_EQ(Ref.Total.Early, Dec.Total.Early);
  EXPECT_EQ(Ref.Total.Redundant, Dec.Total.Redundant);
  ASSERT_EQ(Ref.PerSite.size(), Dec.PerSite.size());
  for (size_t S = 0; S != Ref.PerSite.size(); ++S) {
    EXPECT_EQ(Ref.PerSite[S].Useful, Dec.PerSite[S].Useful) << "site " << S;
    EXPECT_EQ(Ref.PerSite[S].Late, Dec.PerSite[S].Late) << "site " << S;
    EXPECT_EQ(Ref.PerSite[S].Early, Dec.PerSite[S].Early) << "site " << S;
    EXPECT_EQ(Ref.PerSite[S].Redundant, Dec.PerSite[S].Redundant)
        << "site " << S;
  }
  ASSERT_EQ(Ref.SiteMiss.size(), Dec.SiteMiss.size());
  for (size_t S = 0; S != Ref.SiteMiss.size(); ++S) {
    EXPECT_EQ(Ref.SiteMiss[S].Accesses, Dec.SiteMiss[S].Accesses)
        << "site " << S;
    EXPECT_EQ(Ref.SiteMiss[S].L1Misses, Dec.SiteMiss[S].L1Misses)
        << "site " << S;
    EXPECT_EQ(Ref.SiteMiss[S].FullMisses, Dec.SiteMiss[S].FullMisses)
        << "site " << S;
    EXPECT_EQ(Ref.SiteMiss[S].StallCycles, Dec.SiteMiss[S].StallCycles)
        << "site " << S;
  }
}

// Attribution is an observer: turning it on must not move a single counter
// in either engine's accounting, and with it off the timed run stays
// bit-identical to the pre-attribution pipeline between engines.
TEST(DecodedEngine, AttributionOffLeavesTimedRunBitIdentical) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (InterpreterConfig::Engine E : {InterpreterConfig::Engine::Reference,
                                      InterpreterConfig::Engine::Decoded}) {
    SCOPED_TRACE(E == InterpreterConfig::Engine::Decoded ? "decoded"
                                                         : "reference");
    Pipeline Plain(*W, engineConfig(E));
    Pipeline Attributed(*W, attributedConfig(E));
    ProfileRunResult P =
        Plain.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train, false);
    TimedRunResult Off = Plain.runPrefetched(DataSet::Train, P.Edges,
                                             P.Strides);
    TimedRunResult On = Attributed.runPrefetched(DataSet::Train, P.Edges,
                                                 P.Strides);
    expectSameStats(Off.Stats, On.Stats);
    EXPECT_EQ(Off.Stats.Mem.PrefetchesRedundant,
              On.Stats.Mem.PrefetchesRedundant);
    EXPECT_EQ(Off.Stats.Mem.PrefetchesUnused, On.Stats.Mem.PrefetchesUnused);
    EXPECT_EQ(Off.Stats.Mem.StallCycles, On.Stats.Mem.StallCycles);
    EXPECT_FALSE(Off.Attribution.Enabled);
    EXPECT_TRUE(On.Attribution.Enabled);
    EXPECT_TRUE(On.Attribution.Finalized);
  }
}

// The attribution identity — useful + late + early + redundant equals
// prefetches issued, exactly — on every workload in the suite, and the
// per-site breakdown agrees between engines.
TEST(DecodedEngine, AttributionSumsExactlyAcrossSuite) {
  for (const std::unique_ptr<Workload> &W : makeSpecIntSuite()) {
    SCOPED_TRACE(W->info().Name);
    Pipeline Ref(*W, attributedConfig(InterpreterConfig::Engine::Reference));
    Pipeline Dec(*W, attributedConfig(InterpreterConfig::Engine::Decoded));
    ProfileRunResult PR =
        Ref.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train, false);
    ProfileRunResult PD =
        Dec.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train, false);
    TimedRunResult TR = Ref.runPrefetched(DataSet::Train, PR.Edges,
                                          PR.Strides);
    TimedRunResult TD = Dec.runPrefetched(DataSet::Train, PD.Edges,
                                          PD.Strides);
    for (const TimedRunResult *T : {&TR, &TD}) {
      ASSERT_TRUE(T->Attribution.Finalized);
      EXPECT_EQ(T->Attribution.Total.issued(),
                T->Stats.Mem.PrefetchesIssued);
      PrefetchOutcomeCounts PerSiteSum;
      for (const PrefetchOutcomeCounts &C : T->Attribution.PerSite)
        PerSiteSum += C;
      EXPECT_EQ(PerSiteSum.issued(), T->Attribution.Total.issued());
      uint64_t SiteAccesses = 0;
      for (const SiteMissStats &M : T->Attribution.SiteMiss)
        SiteAccesses += M.Accesses;
      EXPECT_EQ(SiteAccesses, T->Stats.Mem.DemandAccesses);
    }
    expectSameStats(TR.Stats, TD.Stats);
    expectSameAttribution(TR.Attribution, TD.Attribution);
  }
}

/// A loop whose body calls a two-load leaf helper: the decoder inlines the
/// call, so the spliced body, its register window, and its RetInlined all
/// sit inside the loop.
Module makeCallChaseModule() {
  Module M;
  M.Name = "chase.call";
  IRBuilder B(M);

  uint32_t Probe = B.startFunction("probe", 1);
  {
    Reg Addr = 0;
    Reg V = B.load(Addr, 8);
    Reg W = B.load(Addr, 16);
    Reg S = B.add(Operand::reg(V), Operand::reg(W));
    B.ret(Operand::reg(S));
  }

  B.startFunction("main", 0);
  M.EntryFunction = 1;
  Function &F = B.function();
  uint32_t Header = F.newBlock("head");
  uint32_t Body = F.newBlock("body");
  uint32_t Exit = F.newBlock("exit");

  Reg P = B.movImm(0x1000);
  Reg Acc = B.movImm(0);
  B.jmp(Header);

  B.setBlock(Header);
  Reg C = B.cmp(Opcode::CmpNe, Operand::reg(P), Operand::imm(0));
  B.br(Operand::reg(C), Body, Exit);

  B.setBlock(Body);
  Reg S = B.call(Probe, {Operand::reg(P)}, B.newReg());
  B.add(Operand::reg(Acc), Operand::reg(S), Acc);
  B.load(P, 0, P);
  B.jmp(Header);

  B.setBlock(Exit);
  B.ret(Operand::reg(Acc));
  return M;
}

SimMemory makeCallChaseMemory() {
  SimMemory Mem;
  uint64_t Addr = 0x1000;
  for (int I = 0; I != 40; ++I) {
    uint64_t Next = I != 39 ? Addr + 64 : 0;
    Mem.write64(Addr + 0, static_cast<int64_t>(Next));
    Mem.write64(Addr + 8, I);
    Mem.write64(Addr + 16, 2 * I + 1);
    Addr += 64;
  }
  return Mem;
}

// The engines must agree for EVERY MaxInstructions value, not just at
// natural stopping points: a truncation budget can expire between the two
// halves of a fused pair or in the middle of an inlined callee body, and
// the Decoded engine has explicit code for both boundaries.
TEST(DecodedEngine, TruncationMatchesAtEveryBoundary) {
  uint32_t DataSite = 0, NextSite = 0;
  Module Chase = makeChaseModule(DataSite, NextSite);
  SimMemory ChaseMem;
  fillChaseList(ChaseMem, 32, 64);
  Module CallChase = makeCallChaseModule();
  SimMemory CallMem = makeCallChaseMemory();

  struct Case {
    const Module *M;
    const SimMemory *Mem;
    uint64_t Limits;
  };
  for (const Case &C : {Case{&Chase, &ChaseMem, 200},
                        Case{&CallChase, &CallMem, 400}}) {
    SCOPED_TRACE(C.M->Name);
    for (uint64_t Limit = 0; Limit <= C.Limits; ++Limit) {
      Interpreter Ref(*C.M, *C.Mem, TimingModel(),
                      interpConfig(InterpreterConfig::Engine::Reference));
      Interpreter Dec(*C.M, *C.Mem, TimingModel(),
                      interpConfig(InterpreterConfig::Engine::Decoded));
      RunStats RR = Ref.run(Limit);
      RunStats RD = Dec.run(Limit);
      SCOPED_TRACE("limit=" + std::to_string(Limit));
      expectSameStats(RR, RD);
    }
  }
}

// The opcode-mix tallies both engines flush into telemetry (including the
// simulated call depth, which the Decoded engine tracks without pushing
// frames for inlined calls).
TEST(DecodedEngine, TelemetryTalliesMatch) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);

  ObsConfig OC;
  OC.Enabled = true;
  ObsSession RefObs(OC), DecObs(OC);
  for (auto E : {InterpreterConfig::Engine::Reference,
                 InterpreterConfig::Engine::Decoded}) {
    Program Prog = W->build({DataSet::Train});
    Interpreter I(Prog.M, std::move(Prog.Memory), TimingModel(),
                  interpConfig(E));
    I.attachObs(E == InterpreterConfig::Engine::Reference ? &RefObs
                                                          : &DecObs);
    I.run();
  }

  const auto &RefCounters = RefObs.registry().counters();
  const auto &DecCounters = DecObs.registry().counters();
  ASSERT_EQ(RefCounters.size(), DecCounters.size());
  for (const auto &[Name, C] : RefCounters) {
    auto It = DecCounters.find(Name);
    ASSERT_NE(It, DecCounters.end()) << Name;
    EXPECT_EQ(C.value(), It->second.value()) << Name;
  }
  EXPECT_EQ(RefObs.registry().gauge("interp.max_stack_depth").value(),
            DecObs.registry().gauge("interp.max_stack_depth").value());
}

// A loop whose body is dominated by mul -- an opcode the fusion pass never
// pairs -- so the self-profiler's top dispatch slot is known a priori.
Program makeMulHeavyProgram() {
  Program Prog;
  Prog.M.Name = "mulheavy";
  IRBuilder B(Prog.M);
  B.startFunction("main", 0);
  Reg Acc = B.movImm(1);
  emitCountedLoop(B, Operand::imm(20000), [&](IRBuilder &OB, Reg) {
    for (int I = 0; I != 8; ++I)
      OB.mul(Operand::reg(Acc), Operand::imm(3), Acc);
  });
  B.halt();
  return Prog;
}

// The engine self-profiler samples every Window-th dispatch, so its sample
// counts are a pure function of the instruction stream: two profiled runs
// agree exactly, the hottest slot on a mul-heavy loop is mul, and -- the
// non-perturbation half -- attaching the profiler leaves every simulated
// accounting field bit-identical to the unprofiled run.
TEST(DecodedEngine, SelfProfilerIsDeterministicAndNonPerturbing) {
  Program Plain = makeMulHeavyProgram();
  Interpreter PlainI(Plain.M, std::move(Plain.Memory), TimingModel(),
                     interpConfig(InterpreterConfig::Engine::Decoded));
  RunStats PlainStats = PlainI.run();

  ObsConfig OC;
  OC.Enabled = true;
  OC.SelfProfile = true;
  OC.SelfProfileWindow = 64;

  auto RunProfiled = [&OC](RunStats &Stats,
                           std::vector<EngineSelfProfiler::Entry> &Entries,
                           std::string &TopOp, uint64_t &Total) {
    ObsSession Obs(OC);
    Program Prog = makeMulHeavyProgram();
    Interpreter I(Prog.M, std::move(Prog.Memory), TimingModel(),
                  interpConfig(InterpreterConfig::Engine::Decoded));
    I.attachObs(&Obs);
    Stats = I.run();
    const EngineSelfProfiler *SP = Obs.selfProfiler();
    ASSERT_NE(SP, nullptr);
    Entries = SP->entries();
    ASSERT_FALSE(Entries.empty());
    TopOp = SP->slotName(Entries.front().Slot);
    Total = SP->totalSamples();
  };

  RunStats S1, S2;
  std::vector<EngineSelfProfiler::Entry> E1, E2;
  std::string Top1, Top2;
  uint64_t Total1 = 0, Total2 = 0;
  RunProfiled(S1, E1, Top1, Total1);
  RunProfiled(S2, E2, Top2, Total2);

  expectSameStats(PlainStats, S1);
  expectSameStats(PlainStats, S2);

  // Deterministic sampling: identical cells with identical counts (the ns
  // estimates are host-noisy and deliberately not compared).
  EXPECT_EQ(Total1, Total2);
  EXPECT_GT(Total1, 0u);
  ASSERT_EQ(E1.size(), E2.size());
  for (size_t I = 0; I != E1.size(); ++I) {
    EXPECT_EQ(E1[I].Workload, E2[I].Workload);
    EXPECT_EQ(E1[I].Phase, E2[I].Phase);
    EXPECT_EQ(E1[I].Slot, E2[I].Slot);
    EXPECT_EQ(E1[I].Samples, E2[I].Samples);
  }
  // Every 64th dispatch sampled: the totals agree with the dispatch count
  // to within one window.
  EXPECT_LE(Total1, S1.Instructions / 64 + 1);
  EXPECT_GE(Total1, S1.Instructions / 64 / 2);
  EXPECT_EQ(Top1, "mul");
  EXPECT_EQ(Top2, "mul");
}

// White-box checks of the decoded form itself: the leaf helper call is
// inlined, and the pointer-chase load carries the prefetch-hint flag the
// decode-time dataflow pass derives.
TEST(DecodedEngine, DecoderInlinesLeafCallsAndFlagsPointerLoads) {
  Module M = makeCallChaseModule();
  DecodedProgram DP(M);

  bool SawCallInlined = false, SawRetInlined = false, SawRealCall = false;
  for (const DInst &D : DP.code()) {
    if (D.DOp == static_cast<uint8_t>(FusedOp::CallInlined))
      SawCallInlined = true;
    if (D.DOp == static_cast<uint8_t>(FusedOp::RetInlined))
      SawRetInlined = true;
    if (D.DOp == static_cast<uint8_t>(Opcode::Call))
      SawRealCall = true;
  }
  EXPECT_TRUE(SawCallInlined);
  EXPECT_TRUE(SawRetInlined);
  EXPECT_FALSE(SawRealCall); // the only call site qualifies for inlining

  // The `p = p->next` load feeds the next iteration's dereferences (and
  // the helper's parameter), so its producer must carry the hint.
  bool SawFlaggedLoad = false;
  for (const DInst &D : DP.code())
    if (D.Op == Opcode::Load && D.PrefetchDst)
      SawFlaggedLoad = true;
  EXPECT_TRUE(SawFlaggedLoad);
}

// The content key: names are ignored, every operand byte matters.
TEST(DecodedEngine, ProgramCacheKeyIsContentNotName) {
  uint32_t DataSite = 0, NextSite = 0;
  Module A = makeChaseModule(DataSite, NextSite);
  Module B = makeChaseModule(DataSite, NextSite);
  B.Name = "other";
  B.Functions[0].Name = "renamed";
  EXPECT_EQ(ProgramCache::hashModule(A), ProgramCache::hashModule(B));
  Module C = makeChaseModule(DataSite, NextSite);
  C.Functions[0].Blocks[1].Insts[0].Imm ^= 1;
  EXPECT_NE(ProgramCache::hashModule(A), ProgramCache::hashModule(C));

  ProgramCache Cache(4);
  Cache.get(A);
  Cache.get(B);
  ProgramCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
}

// Concurrent lookups: decoding happens outside the cache lock, and threads
// racing to decode the same content all end up with the entry inserted
// first. Misses count insertions, so they equal the distinct contents.
TEST(ProgramCache, ConcurrentGetsShareTheFirstInsertedEntry) {
  uint32_t DataSite = 0, NextSite = 0;
  std::vector<Module> Mods;
  for (int64_t Imm = 0; Imm != 3; ++Imm) {
    Mods.push_back(makeChaseModule(DataSite, NextSite));
    Mods.back().Functions[0].Blocks[1].Insts[0].Imm += Imm;
  }

  ProgramCache Cache(8);
  constexpr unsigned Threads = 8, Gets = 40;
  std::vector<std::vector<const DecodedProgram *>> Seen(
      Threads, std::vector<const DecodedProgram *>(Mods.size(), nullptr));
  // char, not bool: workers write neighbouring elements concurrently.
  std::vector<char> Stable(Threads, 1);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I != Gets; ++I) {
        size_t MI = (T + I) % Mods.size();
        const DecodedProgram *P = Cache.get(Mods[MI]).get();
        if (Seen[T][MI] && Seen[T][MI] != P)
          Stable[T] = 0;
        Seen[T][MI] = P;
      }
    });
  for (std::thread &W : Workers)
    W.join();

  for (unsigned T = 0; T != Threads; ++T) {
    EXPECT_TRUE(Stable[T]);
    EXPECT_EQ(Seen[T], Seen[0]);
  }
  ProgramCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, Mods.size());
  EXPECT_EQ(S.Hits + S.Misses, uint64_t{Threads} * Gets);
  EXPECT_EQ(S.Evictions, 0u);
}

// add, sub and mul wrap in 64-bit two's complement (docs/IR.md) in both
// engines, including inside a fused add;add pair.
TEST(DecodedEngine, ArithmeticWrapsLikeReference) {
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  Module M;
  M.Name = "wrap";
  IRBuilder B(M);
  B.startFunction("main", 0);
  Reg RMax = B.movImm(Max);
  Reg RMin = B.movImm(Min);
  Reg MaxPlus1 = B.add(Operand::reg(RMax), Operand::imm(1));
  Reg MinMinus1 = B.sub(Operand::reg(RMin), Operand::imm(1));
  Reg MaxTimes4 = B.mul(Operand::reg(RMax), Operand::imm(4));
  Reg Sum = B.add(Operand::reg(MaxTimes4), Operand::reg(MaxPlus1));
  Reg Out = B.add(Operand::reg(Sum), Operand::reg(MinMinus1));
  B.ret(Operand::reg(Out));

  DecodedProgram DP(M);
  bool SawAddAdd = false;
  for (const DInst &D : DP.code())
    if (D.DOp == static_cast<uint8_t>(FusedOp::AddAdd))
      SawAddAdd = true;
  EXPECT_TRUE(SawAddAdd);

  // Max + 1 = Min, Min - 1 = Max, Max * 4 = -4; then -4 + Min wraps to
  // Max - 3, and (Max - 3) + Max wraps to -5.
  const int64_t Expected = -5;
  Interpreter Ref(M, SimMemory(), TimingModel(),
                  interpConfig(InterpreterConfig::Engine::Reference));
  Interpreter Dec(M, SimMemory(), TimingModel(),
                  interpConfig(InterpreterConfig::Engine::Decoded));
  RunStats RR = Ref.run();
  RunStats RD = Dec.run();
  EXPECT_TRUE(RR.Completed);
  EXPECT_EQ(RR.ExitValue, Expected);
  expectSameStats(RR, RD);
}

} // namespace

// The Decoded engine's batched stride path: a deliberately tiny ring
// (drain every 3 events) plus tiny chunk-sampling phases force drain
// boundaries to straddle chunk-phase flips thousands of times, while the
// Reference engine runs the unbatched executable spec. Every method, so
// the batch path is pinned against both sampling families and both check
// styles.
TEST(DecodedEngine, TinyStrideRingMatchesReferenceAcrossMethods) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    PipelineConfig RC = engineConfig(InterpreterConfig::Engine::Reference);
    PipelineConfig DC = engineConfig(InterpreterConfig::Engine::Decoded);
    for (PipelineConfig *C : {&RC, &DC}) {
      C->Interp.StrideBatchWindow = 3;
      C->Profiler.Sampling.ChunkSkip = 7;
      C->Profiler.Sampling.ChunkProfile = 5;
      C->Profiler.Sampling.FineInterval = 2;
    }
    Pipeline Ref(*W, RC);
    Pipeline Dec(*W, DC);
    ProfileRunResult RR = Ref.runProfile(Method, DataSet::Train, false);
    ProfileRunResult RD = Dec.runProfile(Method, DataSet::Train, false);
    expectSameStats(RR.Stats, RD.Stats);
    EXPECT_EQ(profileText(*W, Method, RR), profileText(*W, Method, RD));
    EXPECT_EQ(RR.StrideInvocations, RD.StrideInvocations);
    EXPECT_EQ(RR.StrideProcessed, RD.StrideProcessed);
    EXPECT_EQ(RR.LfuCalls, RD.LfuCalls);
  }
}

/// Expects \p Got to be \p Spec's run bit for bit: RunStats with the cache
/// statistics, profiles and strideProf counts.
void expectSameProfileResult(const Workload &W, const ProfileRunResult &Spec,
                             const ProfileRunResult &Got) {
  EXPECT_EQ(Got.Method, Spec.Method);
  EXPECT_EQ(Got.Instr.Method, Spec.Method);
  EXPECT_EQ(Got.Instr.ProfiledSites, Spec.Instr.ProfiledSites);
  expectSameStats(Spec.Stats, Got.Stats);
  EXPECT_EQ(profileText(W, Spec.Method, Spec),
            profileText(W, Spec.Method, Got));
  EXPECT_EQ(Spec.StrideInvocations, Got.StrideInvocations);
  EXPECT_EQ(Spec.StrideProcessed, Got.StrideProcessed);
  EXPECT_EQ(Spec.LfuCalls, Got.LfuCalls);
}

// Profile fan-out: one execution serving a family of methods gives each
// method exactly the run it would have had alone, on every workload, both
// inputs and both engines. The families are the edge-check pair and the
// four naive methods, whose naive-loop members read their profile off the
// naive-all profiler's in-loop sites (derived) or profile the in-loop
// slice of the naive-all execution (sliced); the family runs in two
// orders, naive-loop last and naive-loop leading, where naive-all follows
// the sampled rider. The group {naive-loop, sample-naive-all} holds no
// unsampled naive-all profiler, so its naive-loop is sliced. The lone runs
// execute on the Decoded engine only: Reference equals Decoded (pinned
// above), and Reference runs are the slow part, so on the ref input, about
// ten times the train input, Reference runs only the edge-check pair
// (sampled method first).
//
// With the cache model on, the Decoded engine runs the instrumented
// program without it and takes the stalls and cache statistics from the
// un-instrumented run (here through a per-workload run memo, as in an
// engine wave); the Reference engine executes every run directly and is
// the spec. Every method on train, lone, in its pair and in the naive
// family, and the edge-check pair on ref.
//
// Every fused method reports to its own session, whose
// pipeline.profile_derived and pipeline.profile_sliced counts name how it
// was served.
//
// One case per workload and part (the memsys-on checks, train, ref), so
// test sharding spreads them. gtest deals cases to shards round-robin, so
// cases eight apart share a shard. The order below places each case, the
// slowest first, on the shard with the least time so far, counting the
// cases that come before this suite, by case times measured under
// `ctest -j4`; a case added before it shifts every shard, so re-balance
// then.
enum class AcrossPart { Memsys, Train, Ref };

struct AcrossCase {
  int Workload;
  AcrossPart Part;
};

class RunProfilesAcrossSuite : public ::testing::TestWithParam<AcrossCase> {};

/// How runProfiles serves \p Methods[K] when its group shares one naive-all
/// execution without a cache model, or with one on the Decoded engine: a
/// naive-loop is derived where the group holds an unsampled naive-all and
/// sliced where it holds only sample-naive-all, and a sample-naive-loop is
/// sliced where the group holds either. {derived, sliced} counts.
std::pair<uint64_t, uint64_t>
fanOutCounts(const std::vector<ProfilingMethod> &Methods, size_t K) {
  auto Has = [&](ProfilingMethod M) {
    return std::find(Methods.begin(), Methods.end(), M) != Methods.end();
  };
  const bool NaiveAll = Has(ProfilingMethod::NaiveAll);
  const bool AnyAll = NaiveAll || Has(ProfilingMethod::SampleNaiveAll);
  switch (Methods[K]) {
  case ProfilingMethod::NaiveLoop:
    return {NaiveAll, AnyAll && !NaiveAll};
  case ProfilingMethod::SampleNaiveLoop:
    return {0, AnyAll};
  default:
    return {0, 0};
  }
}

uint64_t counterValue(const ObsSession &S, const std::string &Name) {
  const auto &Counters = S.registry().counters();
  const auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second.value();
}

TEST_P(RunProfilesAcrossSuite, MatchSeparateRunsAcrossInputsAndEngines) {
  const std::pair<ProfilingMethod, ProfilingMethod> Pairs[] = {
      {ProfilingMethod::NaiveAll, ProfilingMethod::SampleNaiveAll},
      {ProfilingMethod::NaiveLoop, ProfilingMethod::SampleNaiveLoop},
      {ProfilingMethod::EdgeCheck, ProfilingMethod::SampleEdgeCheck},
  };
  const std::vector<ProfilingMethod> Families[] = {
      {ProfilingMethod::NaiveAll, ProfilingMethod::SampleNaiveAll,
       ProfilingMethod::SampleNaiveLoop, ProfilingMethod::NaiveLoop},
      {ProfilingMethod::NaiveLoop, ProfilingMethod::SampleNaiveAll,
       ProfilingMethod::NaiveAll, ProfilingMethod::SampleNaiveLoop},
      {ProfilingMethod::NaiveLoop, ProfilingMethod::SampleNaiveAll},
  };
  ObsConfig MetricsOnly;
  MetricsOnly.Enabled = true;
  MetricsOnly.CollectTrace = false;
  // Runs Methods fused through P, one session per method, and checks each
  // result against Spec's and each session's fan-out counts.
  auto Fuse = [&](const Workload &W, const Pipeline &P, DataSet DS,
                  const std::vector<ProfilingMethod> &Methods,
                  const std::vector<const ProfileRunResult *> &Spec,
                  bool WithMemorySystem, const std::string &How) {
    std::vector<std::unique_ptr<ObsSession>> Sessions;
    std::vector<ObsSession *> Obs;
    for (size_t K = 0; K != Methods.size(); ++K) {
      Sessions.push_back(std::make_unique<ObsSession>(MetricsOnly));
      Obs.push_back(Sessions.back().get());
    }
    std::vector<ProfileRunResult> Fused =
        P.runProfiles(Methods, DS, Obs, WithMemorySystem);
    ASSERT_EQ(Fused.size(), Methods.size());
    for (size_t K = 0; K != Methods.size(); ++K) {
      SCOPED_TRACE(W.info().Name + "/" + dataSetName(DS) + "/" +
                   profilingMethodName(Methods[K]) + " of " +
                   profilingMethodName(Methods[0]) + "'s group " + How);
      if (WithMemorySystem) {
        EXPECT_NE(Fused[K].Stats.Mem.DemandAccesses, 0u);
      }
      expectSameProfileResult(W, *Spec[K], Fused[K]);
      const auto [Derived, Sliced] = fanOutCounts(Methods, K);
      EXPECT_EQ(counterValue(*Obs[K], "pipeline.profile_derived"), Derived);
      EXPECT_EQ(counterValue(*Obs[K], "pipeline.profile_sliced"), Sliced);
    }
  };
  auto Check = [&](const Workload &W, DataSet DS) {
    Pipeline Dec(W, engineConfig(InterpreterConfig::Engine::Decoded));
    Pipeline Ref(W, engineConfig(InterpreterConfig::Engine::Reference));
    std::map<ProfilingMethod, ProfileRunResult> Alone;
    for (auto [Base, Sampled] : Pairs)
      for (ProfilingMethod M : {Base, Sampled})
        Alone[M] = Dec.runProfile(M, DS, /*WithMemorySystem=*/false);
    auto Expect = [&](const Pipeline &P,
                      const std::vector<ProfilingMethod> &Methods) {
      std::vector<const ProfileRunResult *> Spec;
      for (ProfilingMethod M : Methods)
        Spec.push_back(&Alone.at(M));
      Fuse(W, P, DS, Methods, Spec, /*WithMemorySystem=*/false,
           &P == &Ref ? "on reference" : "on decoded");
    };
    const auto [Base, Sampled] = Pairs[2];
    for (const Pipeline *P : {&Dec, &Ref})
      Expect(*P, DS == DataSet::Train ? std::vector{Base, Sampled}
                                      : std::vector{Sampled, Base});
    for (const std::vector<ProfilingMethod> &Family : Families) {
      Expect(Dec, Family);
      if (DS == DataSet::Train)
        Expect(Ref, Family);
    }
  };
  auto CheckMemsys = [&](const Workload &W) {
    RunMemo Memo;
    Pipeline Dec(W, engineConfig(InterpreterConfig::Engine::Decoded),
                 /*External=*/nullptr, &Memo);
    Pipeline Ref(W, engineConfig(InterpreterConfig::Engine::Reference));
    auto Expect = [&](DataSet DS, const std::vector<ProfilingMethod> &Methods,
                      const std::vector<const ProfileRunResult *> &Spec) {
      Fuse(W, Dec, DS, Methods, Spec, /*WithMemorySystem=*/true,
           "with memsys");
    };
    std::map<ProfilingMethod, ProfileRunResult> Spec;
    for (ProfilingMethod M : allProfilingMethods()) {
      Spec[M] = Ref.runProfile(M, DataSet::Train, /*WithMemorySystem=*/true);
      Expect(DataSet::Train, {M}, {&Spec[M]});
    }
    for (auto [Base, Sampled] : Pairs)
      Expect(DataSet::Train, {Base, Sampled}, {&Spec[Base], &Spec[Sampled]});
    for (const std::vector<ProfilingMethod> &Family : Families) {
      std::vector<const ProfileRunResult *> FamilySpec;
      for (ProfilingMethod M : Family)
        FamilySpec.push_back(&Spec[M]);
      Expect(DataSet::Train, Family, FamilySpec);
    }
    // On ref, the pair cheapest to run under Reference: the ref input is
    // several times the train input.
    const auto [Base, Sampled] = Pairs[2];
    const ProfileRunResult RefSampled =
        Ref.runProfile(Sampled, DataSet::Ref, true);
    const ProfileRunResult RefBase = Ref.runProfile(Base, DataSet::Ref, true);
    Expect(DataSet::Ref, {Sampled, Base}, {&RefSampled, &RefBase});
  };
  const std::unique_ptr<Workload> W =
      std::move(makeSpecIntSuite()[static_cast<size_t>(GetParam().Workload)]);
  switch (GetParam().Part) {
  case AcrossPart::Memsys:
    CheckMemsys(*W);
    break;
  case AcrossPart::Train:
    Check(*W, DataSet::Train);
    break;
  case AcrossPart::Ref:
    Check(*W, DataSet::Ref);
    break;
  }
}

const AcrossCase AcrossCases[] = {
    {9, AcrossPart::Train}, // 255_vortex_train
    {11, AcrossPart::Train}, // 300_twolf_train
    {4, AcrossPart::Memsys}, // 186_crafty_memsys
    {8, AcrossPart::Memsys}, // 254_gap_memsys
    {11, AcrossPart::Memsys}, // 300_twolf_memsys
    {3, AcrossPart::Memsys}, // 181_mcf_memsys
    {1, AcrossPart::Memsys}, // 175_vpr_memsys
    {7, AcrossPart::Memsys}, // 253_perlbmk_memsys
    {7, AcrossPart::Train}, // 253_perlbmk_train
    {2, AcrossPart::Ref}, // 176_gcc_ref
    {0, AcrossPart::Memsys}, // 164_gzip_memsys
    {5, AcrossPart::Memsys}, // 197_parser_memsys
    {11, AcrossPart::Ref}, // 300_twolf_ref
    {10, AcrossPart::Memsys}, // 256_bzip2_memsys
    {6, AcrossPart::Memsys}, // 252_eon_memsys
    {2, AcrossPart::Memsys}, // 176_gcc_memsys
    {2, AcrossPart::Train}, // 176_gcc_train
    {6, AcrossPart::Ref}, // 252_eon_ref
    {10, AcrossPart::Ref}, // 256_bzip2_ref
    {0, AcrossPart::Ref}, // 164_gzip_ref
    {9, AcrossPart::Memsys}, // 255_vortex_memsys
    {3, AcrossPart::Ref}, // 181_mcf_ref
    {8, AcrossPart::Ref}, // 254_gap_ref
    {4, AcrossPart::Ref}, // 186_crafty_ref
    {5, AcrossPart::Train}, // 197_parser_train
    {5, AcrossPart::Ref}, // 197_parser_ref
    {9, AcrossPart::Ref}, // 255_vortex_ref
    {7, AcrossPart::Ref}, // 253_perlbmk_ref
    {6, AcrossPart::Train}, // 252_eon_train
    {1, AcrossPart::Ref}, // 175_vpr_ref
    {4, AcrossPart::Train}, // 186_crafty_train
    {1, AcrossPart::Train}, // 175_vpr_train
    {0, AcrossPart::Train}, // 164_gzip_train
    {8, AcrossPart::Train}, // 254_gap_train
    {3, AcrossPart::Train}, // 181_mcf_train
    {10, AcrossPart::Train}, // 256_bzip2_train
};

std::string acrossCaseName(const ::testing::TestParamInfo<AcrossCase> &Info) {
  std::string Name =
      makeSpecIntSuite()[static_cast<size_t>(Info.param.Workload)]
          ->info()
          .Name;
  std::replace_if(Name.begin(), Name.end(),
                  [](char C) { return !std::isalnum(C); }, '_');
  const char *const Parts[] = {"memsys", "train", "ref"};
  return Name + "_" + Parts[static_cast<int>(Info.param.Part)];
}

INSTANTIATE_TEST_SUITE_P(Suite, RunProfilesAcrossSuite,
                         ::testing::ValuesIn(AcrossCases), acrossCaseName);

TEST(RunProfiles, RejectsMixedBasesMissizedSessionsAndCapture) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  Pipeline P(*W);
  const std::vector<ProfilingMethod> Mixed = {ProfilingMethod::NaiveAll,
                                              ProfilingMethod::EdgeCheck};
  EXPECT_THROW(P.runProfiles(Mixed, DataSet::Train), std::invalid_argument);
  // Naive-loop and naive-all are one instrumentation family.
  const std::vector<ProfilingMethod> Naive = {ProfilingMethod::NaiveLoop,
                                              ProfilingMethod::NaiveAll};
  EXPECT_NO_THROW(P.runProfiles(Naive, DataSet::Train));

  const std::vector<ProfilingMethod> Pair = {ProfilingMethod::EdgeCheck,
                                             ProfilingMethod::SampleEdgeCheck};
  ObsSession *One[] = {nullptr};
  EXPECT_THROW(P.runProfiles(Pair, DataSet::Train, One),
               std::invalid_argument);

  PipelineConfig Capture;
  Capture.TraceCapturePath = "unwritten.sprof.trace";
  EXPECT_THROW(Pipeline(*W, Capture).runProfiles(Pair, DataSet::Train),
               std::invalid_argument);
  EXPECT_TRUE(P.runProfiles({}, DataSet::Train).empty());
}

namespace {

/// The chase list of makeChaseModule, optionally with one more op at the
/// top of the loop body touching the node \p Ahead nodes on: a Prefetch or
/// a SpecLoad.
class ChaseWithOpWorkload : public Workload {
public:
  explicit ChaseWithOpWorkload(std::optional<Opcode> Op) : Op(Op) {}
  WorkloadInfo info() const override {
    return {"test.chase.op", "c", "pointer chase with a prefetching op"};
  }
  Program build(const BuildRequest &Req) const override {
    Program P;
    uint32_t DataSite = 0, NextSite = 0;
    P.M = makeChaseModule(DataSite, NextSite);
    if (Op) {
      Function &F = P.M.Functions[0];
      for (BasicBlock &BB : F.Blocks) {
        if (BB.Name != "body")
          continue;
        Instruction I;
        I.Op = *Op;
        I.A = BB.Insts.front().A; // the node pointer
        I.Imm = 4 * 64;
        if (*Op == Opcode::SpecLoad)
          I.Dst = F.newReg();
        BB.Insts.insert(BB.Insts.begin(), I);
      }
    }
    fillChaseList(P.Memory, Req.DS == DataSet::Train ? 300 : 400, 64);
    return P;
  }

private:
  std::optional<Opcode> Op;
};

} // namespace

// Memsys-on profile runs whose stalls the un-instrumented run cannot
// stand for run directly, one method per execution with the cache model
// attached, and still equal the Reference engine bit for bit: a module
// with a Prefetch or a SpecLoad (a prefetched line's ready stamp makes a
// latency depend on the clock), and a FlatLoadLatency above the L1
// HitLatency. The plain chase derives.
TEST(RunProfiles, MemsysRunsDirectlyWhereStallsDependOnTheClock) {
  const ChaseWithOpWorkload Plain(std::nullopt), Prefetching(Opcode::Prefetch),
      Speculating(Opcode::SpecLoad);
  PipelineConfig SlowHits;
  SlowHits.Timing.FlatLoadLatency = 5;
  struct Case {
    const char *Name;
    const Workload *W;
    PipelineConfig Config;
    bool Derives;
  };
  const Case Cases[] = {{"prefetch", &Prefetching, {}, false},
                        {"spec-load", &Speculating, {}, false},
                        {"flat latency", &Plain, SlowHits, false},
                        {"plain", &Plain, {}, true}};
  const std::vector<ProfilingMethod> Pair = {ProfilingMethod::NaiveAll,
                                             ProfilingMethod::SampleNaiveAll};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    PipelineConfig RefConfig = C.Config;
    RefConfig.Interp.Exec = InterpreterConfig::Engine::Reference;
    Pipeline Ref(*C.W, RefConfig);
    ObsConfig OC;
    OC.Enabled = true;
    ObsSession Obs(OC);
    Pipeline Dec(*C.W, C.Config, &Obs);
    std::vector<ProfileRunResult> Runs =
        Dec.runProfiles(Pair, DataSet::Train, {}, /*WithMemorySystem=*/true);
    Runs.push_back(Dec.runProfile(Pair[0], DataSet::Train, true));
    ASSERT_EQ(Runs.size(), 3u);
    for (size_t K = 0; K != Runs.size(); ++K) {
      SCOPED_TRACE(K);
      expectSameProfileResult(
          *C.W, Ref.runProfile(Pair[K % 2], DataSet::Train, true), Runs[K]);
      EXPECT_NE(Runs[K].Stats.MemStallCycles, 0u);
    }
    if (C.W != &Plain) {
      EXPECT_NE(Runs[0].Stats.Mem.PrefetchesIssued, 0u);
    }
    const auto &Counters = Obs.registry().counters();
    const auto Derived = Counters.find("pipeline.profile_memsys_derived");
    EXPECT_EQ(Derived == Counters.end() ? 0 : Derived->second.value(),
              C.Derives ? 3u : 0u);
  }
}

namespace {

uint64_t counterValue(const ObsSession &Obs, const char *Name) {
  const auto &Counters = Obs.registry().counters();
  const auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second.value();
}

} // namespace

// A timed run takes the clock-free cache model only where every latency is
// its serving level's (see MemoryHierarchy). A module with a Prefetch or a
// SpecLoad, and a FlatLoadLatency of 10 against the L1's HitLatency of 2,
// keep the timed model; memsys.clock_free_runs counts the runs that did
// not, and every run equals the Reference engine's.
TEST(DecodedEngine, TimedModelServesWhereLatencyDependsOnTheClock) {
  const ChaseWithOpWorkload Plain(std::nullopt), Prefetching(Opcode::Prefetch),
      Speculating(Opcode::SpecLoad);
  PipelineConfig SlowHits;
  SlowHits.Timing.FlatLoadLatency = 10;
  struct Case {
    const char *Name;
    const Workload *W;
    PipelineConfig Config;
    bool ClockFree;
  };
  const Case Cases[] = {{"prefetch", &Prefetching, {}, false},
                        {"spec-load", &Speculating, {}, false},
                        {"flat latency", &Plain, SlowHits, false},
                        {"plain", &Plain, {}, true}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    for (DataSet DS : {DataSet::Train, DataSet::Ref}) {
      PipelineConfig RefConfig = C.Config;
      RefConfig.Interp.Exec = InterpreterConfig::Engine::Reference;
      PipelineConfig DecConfig = C.Config;
      DecConfig.Obs.Enabled = true;
      RefConfig.Obs.Enabled = true;
      Pipeline Ref(*C.W, RefConfig);
      Pipeline Dec(*C.W, DecConfig);
      const RunStats RD = Dec.runBaseline(DS);
      expectSameStats(Ref.runBaseline(DS), RD);
      if (C.W != &Plain) {
        EXPECT_NE(RD.Mem.PrefetchesIssued, 0u);
      }
      EXPECT_EQ(counterValue(*Dec.obs(), "memsys.clock_free_runs"),
                C.ClockFree ? 1u : 0u);
      EXPECT_EQ(counterValue(*Ref.obs(), "memsys.clock_free_runs"), 0u);
    }
  }

  // Prefetches inserted by feedback keep the timed model too.
  std::unique_ptr<Workload> Mcf = makeWorkloadByName("181.mcf");
  ASSERT_NE(Mcf, nullptr);
  PipelineConfig RefConfig = engineConfig(InterpreterConfig::Engine::Reference);
  PipelineConfig DecConfig;
  DecConfig.Obs.Enabled = true;
  Pipeline Ref(*Mcf, RefConfig);
  Pipeline Dec(*Mcf, DecConfig);
  const ProfileRunResult PR =
      Dec.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train, false);
  const TimedRunResult TR =
      Ref.runPrefetched(DataSet::Train, PR.Edges, PR.Strides);
  const TimedRunResult TD =
      Dec.runPrefetched(DataSet::Train, PR.Edges, PR.Strides);
  EXPECT_NE(TD.Stats.Mem.PrefetchesIssued, 0u);
  expectSameStats(TR.Stats, TD.Stats);
  EXPECT_EQ(counterValue(*Dec.obs(), "memsys.clock_free_runs"), 0u);
}
