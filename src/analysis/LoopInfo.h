//===- analysis/LoopInfo.h - Natural loops and loop nesting ----*- C++ -*-===//
//
// Part of the StrideProf project (see Dominators.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection (back edges whose target dominates their source),
/// the loop nesting forest, loop-entering/exiting edge queries used by the
/// edge-check instrumentation of Figure 14, irreducible-region marking
/// (loads in irreducible loops are treated as out-loop loads per Section 2),
/// and loop-invariant address detection (Section 3.2's first improvement to
/// the naive methods).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_ANALYSIS_LOOPINFO_H
#define SPROF_ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace sprof {

/// One natural loop.
struct Loop {
  /// Loop header block.
  uint32_t Header = 0;

  /// All blocks in the loop, sorted ascending (includes the header).
  std::vector<uint32_t> Blocks;

  /// Sources of back edges into the header.
  std::vector<uint32_t> Latches;

  /// Index of the innermost strictly-containing loop, or ~0u.
  uint32_t Parent = ~0u;

  /// Nesting depth, outermost = 1.
  uint32_t Depth = 1;

  bool contains(uint32_t Block) const;
};

/// Loop forest of a single function.
class LoopInfo {
public:
  /// Builds loop info for \p F; \p DT must be the forward dominator tree.
  LoopInfo(const Function &F, const DomTree &DT);

  const std::vector<Loop> &loops() const { return Loops; }

  /// Innermost loop containing \p Block, or ~0u.
  uint32_t innermostLoop(uint32_t Block) const {
    return BlockToLoop[Block];
  }

  /// True when \p Block participates in an irreducible cycle (a cycle whose
  /// entry does not dominate all of its members). The paper treats loads in
  /// irreducible loops as out-loop loads.
  bool isIrreducible(uint32_t Block) const { return Irreducible[Block]; }

  /// True when \p Block is inside a (reducible, natural) loop. This is the
  /// paper's "in-loop" predicate for loads.
  bool isInLoop(uint32_t Block) const {
    return BlockToLoop[Block] != ~0u && !Irreducible[Block];
  }

  /// Edges entering the header of \p LoopIdx from outside the loop
  /// ("pre-head" edges of Figure 13).
  std::vector<Edge> enteringEdges(uint32_t LoopIdx) const;

  /// All outgoing edges of the loop header (their frequency sum is the
  /// header frequency reconstruction of Figure 12/13).
  std::vector<Edge> headerOutEdges(uint32_t LoopIdx) const;

  /// True when register \p R has no definition inside loop \p LoopIdx, i.e.
  /// an address held in \p R is loop-invariant.
  bool isLoopInvariantReg(uint32_t LoopIdx, Reg R) const;

private:
  void findNaturalLoops(const DomTree &DT);
  void buildNesting();
  void markIrreducible(const DomTree &DT);
  void collectLoopDefs();

  const Function &F;
  std::vector<Loop> Loops;
  std::vector<uint32_t> BlockToLoop; // innermost loop per block, ~0u if none
  std::vector<uint8_t> Irreducible;  // per block
  /// Per loop: sorted list of registers defined somewhere in the loop.
  std::vector<std::vector<Reg>> LoopDefs;
};

struct Module;

/// Per load site of \p M: whether the site sits inside a (reducible) loop,
/// the paper's in-loop/out-loop split of Figures 17-19.
std::vector<bool> loadSitesInLoop(const Module &M);

} // namespace sprof

#endif // SPROF_ANALYSIS_LOOPINFO_H
