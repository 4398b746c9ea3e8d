//===- tests/TestHelpers.h - Shared test fixtures ---------------*- C++ -*-===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//

#ifndef SPROF_TESTS_TESTHELPERS_H
#define SPROF_TESTS_TESTHELPERS_H

#include "interp/Interpreter.h"
#include "interp/SimMemory.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sprof {
namespace test {

/// Builds a module with a single "main" that chases a linked list at
/// \p Head: `while (p) { v = p->data; p = p->next; }` with next at +0 and
/// data at +8. Returns the module; the data-load and next-load site ids
/// are returned through the out-parameters.
inline Module makeChaseModule(uint32_t &DataSite, uint32_t &NextSite) {
  Module M;
  M.Name = "chase";
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
  B.load(P, 8);
  DataSite = B.lastSiteId();
  B.load(P, 0, P);
  NextSite = B.lastSiteId();
  B.jmp(Header);

  B.setBlock(Exit);
  B.halt();
  return M;
}

/// Like makeChaseModule, but the chase runs inside an outer pass loop that
/// re-enters it \p Passes times. Needed to exercise the edge-check trip
/// guard, which only activates on loop re-entry (paper Section 3.2: check
/// methods never profile a loop nest executed only once).
inline Module makePassesChaseModule(int64_t Passes, uint32_t &DataSite,
                                    uint32_t &NextSite) {
  Module M;
  M.Name = "chase.passes";
  IRBuilder B(M);
  B.startFunction("main", 0);
  Function &F = B.function();
  uint32_t OuterHead = F.newBlock("outer.head");
  uint32_t OuterBody = F.newBlock("outer.body");
  uint32_t Header = F.newBlock("head");
  uint32_t Body = F.newBlock("body");
  uint32_t Latch = F.newBlock("outer.latch");
  uint32_t Exit = F.newBlock("exit");

  Reg P = B.newReg();
  Reg K = B.movImm(0);
  B.jmp(OuterHead);

  B.setBlock(OuterHead);
  Reg C0 = B.cmp(Opcode::CmpLt, Operand::reg(K), Operand::imm(Passes));
  B.br(Operand::reg(C0), OuterBody, Exit);

  B.setBlock(OuterBody);
  B.mov(Operand::imm(0x1000), P);
  B.jmp(Header);

  B.setBlock(Header);
  Reg C = B.cmp(Opcode::CmpNe, Operand::reg(P), Operand::imm(0));
  B.br(Operand::reg(C), Body, Latch);

  B.setBlock(Body);
  B.load(P, 8);
  DataSite = B.lastSiteId();
  B.load(P, 0, P);
  NextSite = B.lastSiteId();
  B.jmp(Header);

  B.setBlock(Latch);
  B.add(Operand::reg(K), Operand::imm(1), K);
  B.jmp(OuterHead);

  B.setBlock(Exit);
  B.halt();
  return M;
}

/// Writes a linked list with constant stride into \p Mem: \p Count nodes of
/// \p Stride bytes starting at 0x1000; next at +0, data at +8.
inline void fillChaseList(SimMemory &Mem, uint64_t Count, uint64_t Stride) {
  uint64_t Addr = 0x1000;
  for (uint64_t I = 0; I != Count; ++I) {
    uint64_t Next = I + 1 != Count ? Addr + Stride : 0;
    Mem.write64(Addr + 0, static_cast<int64_t>(Next));
    Mem.write64(Addr + 8, static_cast<int64_t>(I));
    Addr += Stride;
  }
}

/// Every RunStats field, so a divergence names the broken bucket instead
/// of failing on an opaque aggregate.
inline void expectSameStats(const RunStats &Ref, const RunStats &Dec) {
  EXPECT_EQ(Ref.Completed, Dec.Completed);
  EXPECT_EQ(Ref.Instructions, Dec.Instructions);
  EXPECT_EQ(Ref.Cycles, Dec.Cycles);
  EXPECT_EQ(Ref.BaseCycles, Dec.BaseCycles);
  EXPECT_EQ(Ref.MemStallCycles, Dec.MemStallCycles);
  EXPECT_EQ(Ref.InstrumentationCycles, Dec.InstrumentationCycles);
  EXPECT_EQ(Ref.RuntimeCycles, Dec.RuntimeCycles);
  EXPECT_EQ(Ref.LoadRefs, Dec.LoadRefs);
  EXPECT_EQ(Ref.SiteCounts, Dec.SiteCounts);
  EXPECT_EQ(Ref.ExitValue, Dec.ExitValue);
  ASSERT_EQ(Ref.Mem.Levels.size(), Dec.Mem.Levels.size());
  for (size_t L = 0; L != Ref.Mem.Levels.size(); ++L) {
    EXPECT_EQ(Ref.Mem.Levels[L].Hits, Dec.Mem.Levels[L].Hits);
    EXPECT_EQ(Ref.Mem.Levels[L].Misses, Dec.Mem.Levels[L].Misses);
  }
  EXPECT_EQ(Ref.Mem.DemandAccesses, Dec.Mem.DemandAccesses);
  EXPECT_EQ(Ref.Mem.PrefetchesIssued, Dec.Mem.PrefetchesIssued);
  EXPECT_EQ(Ref.Mem.PrefetchesRedundant, Dec.Mem.PrefetchesRedundant);
  EXPECT_EQ(Ref.Mem.LatePrefetchHits, Dec.Mem.LatePrefetchHits);
  EXPECT_EQ(Ref.Mem.PrefetchesUseful, Dec.Mem.PrefetchesUseful);
  EXPECT_EQ(Ref.Mem.PrefetchesUnused, Dec.Mem.PrefetchesUnused);
  EXPECT_EQ(Ref.Mem.StallCycles, Dec.Mem.StallCycles);
}

} // namespace test
} // namespace sprof

#endif // SPROF_TESTS_TESTHELPERS_H
