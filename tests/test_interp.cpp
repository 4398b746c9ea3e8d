//===- tests/test_interp.cpp - Interpreter unit tests -----------------------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//

#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "workloads/Workload.h"

#include "TestHelpers.h"
#include <gtest/gtest.h>
#include <algorithm>
#include <cctype>
#include <thread>
#include <tuple>

using namespace sprof;

TEST(SimMemory, ReadsUnmappedAsZeroWithoutAllocating) {
  SimMemory M;
  EXPECT_EQ(M.read64(0xDEADBEEF), 0);
  EXPECT_EQ(M.numPages(), 0u);
  M.write64(0xDEADBEEF, 7);
  EXPECT_EQ(M.read64(0xDEADBEEF), 7);
  EXPECT_EQ(M.numPages(), 1u);
}

TEST(SimMemory, CopyIsIndependent) {
  SimMemory A;
  A.write64(0x100, 42);
  SimMemory B = A;
  B.write64(0x100, 7);
  EXPECT_EQ(A.read64(0x100), 42);
  EXPECT_EQ(B.read64(0x100), 7);
}

namespace {

/// Runs a module with no memory system attached and returns the stats.
RunStats runFlat(const Module &M, SimMemory Mem = SimMemory()) {
  Interpreter I(M, std::move(Mem));
  return I.run();
}

/// A base image with word \p I of page \p Page set to Page * 1000 + I for
/// the first 16 words of pages 0x10 and 0x11.
std::shared_ptr<const MemoryImage> makeBase() {
  SimMemory Build;
  for (uint64_t Page : {0x10, 0x11})
    for (uint64_t I = 0; I != 16; ++I)
      Build.write64(Page * SimMemory::PageBytes + I * 8,
                    static_cast<int64_t>(Page * 1000 + I));
  return SimMemory::freeze(std::move(Build));
}

constexpr uint64_t Page10 = 0x10 * SimMemory::PageBytes;

} // namespace

TEST(SimMemory, OverlayReadsGoThroughToTheBase) {
  const std::shared_ptr<const MemoryImage> Base = makeBase();
  SimMemory Overlay(Base);
  EXPECT_EQ(Overlay.read64(Page10 + 8), 0x10 * 1000 + 1);
  EXPECT_EQ(Overlay.read64(Page10 + SimMemory::PageBytes), 0x11 * 1000);
  EXPECT_EQ(Overlay.read64(0xDEAD0000), 0);
  EXPECT_EQ(Overlay.numPages(), 2u);
  EXPECT_TRUE(Overlay.ownPages().empty());
}

TEST(SimMemory, OverlayWriteCopiesThePageAndLeavesBaseAndSiblingsAlone) {
  const std::shared_ptr<const MemoryImage> Base = makeBase();
  SimMemory Writer(Base), Sibling(Base);
  EXPECT_EQ(Sibling.read64(Page10), 0x10 * 1000); // warm the sibling's TLB
  Writer.write64(Page10, -1);
  EXPECT_EQ(Writer.read64(Page10), -1);
  // The rest of the page came along with the copy.
  EXPECT_EQ(Writer.read64(Page10 + 15 * 8), 0x10 * 1000 + 15);
  EXPECT_EQ(Writer.ownPages(), std::vector<uint64_t>{0x10});
  EXPECT_EQ(Writer.numPages(), 2u);

  EXPECT_EQ(Sibling.read64(Page10), 0x10 * 1000);
  EXPECT_TRUE(Sibling.ownPages().empty());
  EXPECT_EQ(SimMemory(Base).read64(Page10), 0x10 * 1000);
  EXPECT_EQ(Base->numPages(), 2u);

  // A copy of the writer shares the base and copies the written page.
  SimMemory Copy = Writer;
  Copy.write64(Page10, -2);
  EXPECT_EQ(Writer.read64(Page10), -1);
  EXPECT_EQ(Copy.read64(Page10), -2);
  EXPECT_EQ(Copy.read64(Page10 + SimMemory::PageBytes), 0x11 * 1000);

  // Frozen, the writer's view becomes a base of its own.
  SimMemory Refrozen(SimMemory::freeze(Writer));
  EXPECT_EQ(Refrozen.read64(Page10), -1);
  EXPECT_EQ(Refrozen.read64(Page10 + SimMemory::PageBytes), 0x11 * 1000);
  EXPECT_EQ(Refrozen.numPages(), 2u);
  EXPECT_EQ(Writer.read64(Page10), -1);
}

// The last-page pointer and the table both hold the base page after the
// read; neither may serve the write.
TEST(SimMemory, WriteAfterACachedReadOfABasePageStillCopies) {
  const std::shared_ptr<const MemoryImage> Base = makeBase();
  SimMemory Overlay(Base);
  EXPECT_EQ(Overlay.read64(Page10 + 8), 0x10 * 1000 + 1);
  Overlay.write64(Page10 + 8, 7);
  EXPECT_EQ(Overlay.read64(Page10 + 8), 7);
  EXPECT_EQ(Overlay.ownPages(), std::vector<uint64_t>{0x10});
  EXPECT_EQ(SimMemory(Base).read64(Page10 + 8), 0x10 * 1000 + 1);

  // Once copied, further writes stay on the copy.
  Overlay.write64(Page10 + 16, 8);
  EXPECT_EQ(Overlay.ownPages().size(), 1u);
  EXPECT_EQ(SimMemory(Base).read64(Page10 + 16), 0x10 * 1000 + 2);
}

TEST(SimMemory, OverlayWriteToAnUnmappedPageGetsAPrivateZeroPage) {
  const std::shared_ptr<const MemoryImage> Base = makeBase();
  SimMemory Overlay(Base);
  const uint64_t Addr = 0x40 * SimMemory::PageBytes;
  Overlay.write64(Addr + 8, 5);
  EXPECT_EQ(Overlay.read64(Addr + 8), 5);
  EXPECT_EQ(Overlay.read64(Addr), 0);
  EXPECT_EQ(Overlay.ownPages(), std::vector<uint64_t>{0x40});
  EXPECT_EQ(Overlay.numPages(), 3u);
  EXPECT_EQ(Base->numPages(), 2u);
  EXPECT_EQ(SimMemory(Base).read64(Addr + 8), 0);
}

// Four threads run one program, each on its own overlay of one base, and
// write their own pages while the others read the base.
TEST(SimMemory, FourThreadsRunOneBase) {
  uint32_t DataSite = 0, NextSite = 0;
  const Module M = test::makeChaseModule(DataSite, NextSite);
  SimMemory Build;
  test::fillChaseList(Build, 512, 64);
  const std::shared_ptr<const MemoryImage> Base =
      SimMemory::freeze(std::move(Build));
  const RunStats Spec = runFlat(M, SimMemory(Base));

  constexpr unsigned Threads = 4;
  std::vector<RunStats> Stats(Threads);
  std::vector<int64_t> Seen(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      SimMemory Overlay(Base);
      // Node T's data word, on the list's page, and a page of its own.
      Overlay.write64(0x1000 + T * 64 + 8, 100 + T);
      Overlay.write64((0x100 + T) * SimMemory::PageBytes, T);
      Seen[T] = Overlay.read64(0x1000 + T * 64 + 8) +
                Overlay.read64((0x100 + T) * SimMemory::PageBytes);
      Interpreter I(M, SimMemory(Base));
      Stats[T] = I.run();
    });
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 0; T != Threads; ++T) {
    EXPECT_EQ(Seen[T], 100 + 2 * T);
    EXPECT_EQ(Stats[T].ExitValue, Spec.ExitValue);
    EXPECT_EQ(Stats[T].Instructions, Spec.Instructions);
  }
  SimMemory Reader(Base);
  for (unsigned T = 0; T != Threads; ++T)
    EXPECT_EQ(Reader.read64(0x1000 + T * 64 + 8), T);
  EXPECT_EQ(Base->numPages(), 1u);
}

namespace {

/// Engine, input, workload index: the workload varies fastest, so that
/// the slow Reference runs on ref spread over gtest's round-robin shards.
using OverlayCase = std::tuple<InterpreterConfig::Engine, DataSet, int>;

} // namespace

class SimMemoryOverlay : public ::testing::TestWithParam<OverlayCase> {};

// A run on an overlay of a shared base equals a run on the build's own
// memory: every workload, both inputs, both engines, an edge-instrumented
// module (the cache model reads addresses, not memory, so it stays off to
// keep the cases quick). The overlay copies no page it does not
// write. The suite's only stores are 164.gzip's hash-head updates, to one
// page its image does not map; that page ends up as the private run's.
TEST_P(SimMemoryOverlay, RunMatchesARunOnAPrivateBuild) {
  const auto [Exec, DS, Index] = GetParam();
  const std::unique_ptr<Workload> W =
      std::move(makeSpecIntSuite()[static_cast<size_t>(Index)]);
  Program P = W->build(DS);
  instrumentModule(P.M, ProfilingMethod::EdgeOnly);
  const std::shared_ptr<const MemoryImage> Base = SimMemory::freeze(P.Memory);

  InterpreterConfig Config;
  Config.Exec = Exec;
  Interpreter Private(P.M, std::move(P.Memory), TimingModel(), Config);
  Interpreter Overlay(P.M, SimMemory(Base), TimingModel(), Config);
  const RunStats Spec = Private.run();
  const RunStats Got = Overlay.run();
  ASSERT_TRUE(Spec.Completed);
  test::expectSameStats(Spec, Got);
  EXPECT_EQ(Private.counters(), Overlay.counters());

  const SimMemory &Written = Overlay.memory();
  const std::vector<uint64_t> Pages = Written.ownPages();
  EXPECT_EQ(Written.numPages(), Private.memory().numPages());
  if (W->info().Name == "164.gzip") {
    ASSERT_EQ(Pages.size(), 1u);
    EXPECT_EQ(Base->find(Pages[0]), nullptr);
  } else {
    EXPECT_TRUE(Pages.empty());
  }
  for (uint64_t Page : Pages)
    for (uint64_t Off = 0; Off != SimMemory::PageBytes; Off += 8) {
      const uint64_t Addr = Page * SimMemory::PageBytes + Off;
      ASSERT_EQ(Written.read64(Addr), Private.memory().read64(Addr))
          << "word " << Addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SimMemoryOverlay,
    ::testing::Combine(
        ::testing::Values(InterpreterConfig::Engine::Decoded,
                          InterpreterConfig::Engine::Reference),
        ::testing::Values(DataSet::Train, DataSet::Ref),
        ::testing::Range(0, 12)),
    [](const ::testing::TestParamInfo<OverlayCase> &Info) {
      std::string Name = makeSpecIntSuite()[static_cast<size_t>(
                                                std::get<2>(Info.param))]
                             ->info()
                             .Name;
      std::replace_if(Name.begin(), Name.end(),
                      [](char C) { return !std::isalnum(C); }, '_');
      return Name + "_" + dataSetName(std::get<1>(Info.param)) +
             (std::get<0>(Info.param) == InterpreterConfig::Engine::Decoded
                  ? "_decoded"
                  : "_reference");
    });

TEST(BumpAllocator, AlignsAndSkips) {
  BumpAllocator A(0x1000);
  uint64_t P1 = A.alloc(10, 8);
  EXPECT_EQ(P1, 0x1000u);
  uint64_t P2 = A.alloc(8, 64);
  EXPECT_EQ(P2 % 64, 0u);
  A.skip(100);
  uint64_t P3 = A.alloc(8, 8);
  EXPECT_GE(P3, P2 + 8 + 100);
}


TEST(Interpreter, ArithmeticAndExitValue) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main", 0);
  Reg A = B.movImm(6);
  Reg Bv = B.movImm(7);
  Reg C = B.mul(Operand::reg(A), Operand::reg(Bv));
  Reg D = B.add(Operand::reg(C), Operand::imm(-2));
  B.ret(Operand::reg(D));
  RunStats S = runFlat(M);
  EXPECT_TRUE(S.Completed);
  EXPECT_EQ(S.ExitValue, 40);
}

TEST(Interpreter, LoadsStoresAndSiteCounts) {
  uint32_t DataSite = 0, NextSite = 0;
  Module M = test::makeChaseModule(DataSite, NextSite);
  SimMemory Mem;
  test::fillChaseList(Mem, 10, 64);
  RunStats S = runFlat(M, std::move(Mem));
  EXPECT_TRUE(S.Completed);
  EXPECT_EQ(S.LoadRefs, 20u);
  EXPECT_EQ(S.SiteCounts[DataSite], 10u);
  EXPECT_EQ(S.SiteCounts[NextSite], 10u);
}

TEST(Interpreter, CallsAndReturns) {
  Module M;
  IRBuilder B(M);
  uint32_t Sq = B.startFunction("square", 1);
  {
    Reg X = 0;
    Reg R = B.mul(Operand::reg(X), Operand::reg(X));
    B.ret(Operand::reg(R));
  }
  B.startFunction("main", 0);
  M.EntryFunction = 1;
  Reg R = B.call(Sq, {Operand::imm(9)}, B.newReg());
  B.ret(Operand::reg(R));
  RunStats S = runFlat(M);
  EXPECT_EQ(S.ExitValue, 81);
}

TEST(Interpreter, RecursionWorks) {
  // fact(n) = n <= 1 ? 1 : n * fact(n - 1)
  Module M;
  IRBuilder B(M);
  uint32_t Fact = B.startFunction("fact", 1);
  {
    Function &F = B.function();
    uint32_t BaseBB = F.newBlock("base");
    uint32_t RecBB = F.newBlock("rec");
    Reg N = 0;
    Reg C = B.cmp(Opcode::CmpLe, Operand::reg(N), Operand::imm(1));
    B.br(Operand::reg(C), BaseBB, RecBB);
    B.setBlock(BaseBB);
    B.ret(Operand::imm(1));
    B.setBlock(RecBB);
    Reg N1 = B.sub(Operand::reg(N), Operand::imm(1));
    Reg Sub = B.call(Fact, {Operand::reg(N1)}, B.newReg());
    Reg R = B.mul(Operand::reg(N), Operand::reg(Sub));
    B.ret(Operand::reg(R));
  }
  B.startFunction("main", 0);
  M.EntryFunction = 1;
  Reg R = B.call(Fact, {Operand::imm(6)}, B.newReg());
  B.ret(Operand::reg(R));
  RunStats S = runFlat(M);
  EXPECT_EQ(S.ExitValue, 720);
}

TEST(Interpreter, PredicationSquashes) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main", 0);
  Reg PTrue = B.movImm(1);
  Reg PFalse = B.movImm(0);
  Reg V = B.movImm(5);
  // Predicated-on add executes; predicated-off add is squashed.
  Instruction I1;
  I1.Op = Opcode::Add;
  I1.Dst = V;
  I1.A = Operand::reg(V);
  I1.B = Operand::imm(10);
  I1.Pred = PTrue;
  B.insert(I1);
  Instruction I2 = I1;
  I2.B = Operand::imm(100);
  I2.Pred = PFalse;
  B.insert(I2);
  B.ret(Operand::reg(V));
  RunStats S = runFlat(M);
  EXPECT_EQ(S.ExitValue, 15);
}

TEST(Interpreter, CycleBucketsAreDisjoint) {
  uint32_t DS, NS;
  Module M = test::makeChaseModule(DS, NS);
  SimMemory Mem;
  test::fillChaseList(Mem, 100, 64);
  Interpreter I(M, std::move(Mem));
  MemoryHierarchy MH{MemoryConfig()};
  I.attachMemory(&MH);
  RunStats S = I.run();
  EXPECT_EQ(S.Cycles, S.BaseCycles + S.MemStallCycles +
                          S.InstrumentationCycles + S.RuntimeCycles);
  EXPECT_GT(S.MemStallCycles, 0u);
  EXPECT_EQ(S.InstrumentationCycles, 0u);
  EXPECT_EQ(S.RuntimeCycles, 0u);
}

TEST(Interpreter, PrefetchReducesStallCycles) {
  // Same chase twice: once plain, once with a prefetch two nodes ahead.
  for (int WithPrefetch = 0; WithPrefetch != 2; ++WithPrefetch) {
    Module M;
    IRBuilder B(M);
    B.startFunction("main", 0);
    Function &F = B.function();
    uint32_t Header = F.newBlock("head");
    uint32_t Body = F.newBlock("body");
    uint32_t Exit = F.newBlock("exit");
    Reg P = B.movImm(0x1000);
    B.jmp(Header);
    B.setBlock(Header);
    Reg C = B.cmp(Opcode::CmpNe, Operand::reg(P), Operand::imm(0));
    B.br(Operand::reg(C), Body, Exit);
    B.setBlock(Body);
    if (WithPrefetch)
      B.prefetch(P, 8 * 256); // eight strides ahead
    B.load(P, 8);
    // Busy work so the prefetch has time to complete.
    Reg W = B.movImm(1);
    for (int K = 0; K != 30; ++K)
      B.add(Operand::reg(W), Operand::imm(1), W);
    B.load(P, 0, P);
    B.jmp(Header);
    B.setBlock(Exit);
    B.halt();

    SimMemory Mem;
    test::fillChaseList(Mem, 4000, 256);
    Interpreter I(M, std::move(Mem));
    MemoryHierarchy MH{MemoryConfig()};
    I.attachMemory(&MH);
    RunStats S = I.run();
    static uint64_t PlainCycles = 0;
    if (!WithPrefetch)
      PlainCycles = S.Cycles;
    else
      EXPECT_LT(S.Cycles * 2, PlainCycles); // at least 2x faster
  }
}

TEST(Interpreter, MaxInstructionLimitStopsRunaways) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main", 0);
  Function &F = B.function();
  uint32_t LoopBB = F.newBlock("spin");
  B.jmp(LoopBB);
  B.setBlock(LoopBB);
  B.jmp(LoopBB);
  Interpreter I(M, SimMemory());
  RunStats S = I.run(/*MaxInstructions=*/1000);
  EXPECT_FALSE(S.Completed);
  EXPECT_EQ(S.Instructions, 1000u);
}

TEST(Interpreter, ProfCountersAccumulate) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main", 0);
  uint32_t Ctr = M.newCounter();
  for (int K = 0; K != 5; ++K) {
    Instruction I;
    I.Op = Opcode::ProfCounterInc;
    I.Imm = Ctr;
    I.IsInstrumentation = true;
    B.insert(I);
  }
  Instruction RD;
  RD.Op = Opcode::ProfCounterRead;
  RD.Dst = B.newReg();
  RD.Imm = Ctr;
  RD.IsInstrumentation = true;
  B.insert(RD);
  B.ret(Operand::reg(RD.Dst));
  Interpreter I(M, SimMemory());
  RunStats S = I.run();
  EXPECT_EQ(S.ExitValue, 5);
  EXPECT_EQ(I.counters()[Ctr], 5u);
  EXPECT_GT(S.InstrumentationCycles, 0u);
}
