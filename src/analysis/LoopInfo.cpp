//===- analysis/LoopInfo.cpp - Natural loops and loop nesting --------------===//
//
// Part of the StrideProf project (see Dominators.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "ir/Module.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace sprof;

bool Loop::contains(uint32_t Block) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), Block);
}

LoopInfo::LoopInfo(const Function &F, const DomTree &DT) : F(F) {
  uint32_t N = static_cast<uint32_t>(F.Blocks.size());
  BlockToLoop.assign(N, ~0u);
  Irreducible.assign(N, 0);
  findNaturalLoops(DT);
  buildNesting();
  markIrreducible(DT);
  collectLoopDefs();
}

void LoopInfo::findNaturalLoops(const DomTree &DT) {
  uint32_t N = static_cast<uint32_t>(F.Blocks.size());

  // Collect back edges grouped by header.
  std::vector<std::vector<uint32_t>> LatchesOf(N);
  for (uint32_t B = 0; B != N; ++B) {
    if (!DT.isReachable(B))
      continue;
    for (uint32_t S : F.Blocks[B].successors())
      if (DT.dominates(S, B))
        LatchesOf[S].push_back(B);
  }

  // For each header, the natural loop body is every block that reaches a
  // latch without passing through the header.
  for (uint32_t H = 0; H != N; ++H) {
    if (LatchesOf[H].empty())
      continue;
    std::set<uint32_t> Body;
    Body.insert(H);
    std::vector<uint32_t> Work;
    for (uint32_t L : LatchesOf[H])
      if (Body.insert(L).second)
        Work.push_back(L);
    while (!Work.empty()) {
      uint32_t B = Work.back();
      Work.pop_back();
      for (uint32_t P : F.predecessors(B))
        if (DT.isReachable(P) && Body.insert(P).second)
          Work.push_back(P);
    }
    Loop L;
    L.Header = H;
    L.Blocks.assign(Body.begin(), Body.end());
    L.Latches = LatchesOf[H];
    Loops.push_back(std::move(L));
  }
}

void LoopInfo::buildNesting() {
  // Order loops by body size so parents (larger) can be found by scanning
  // smaller-to-larger; ties cannot nest in natural loops with distinct
  // headers sharing identical block sets, so any order works for them.
  std::vector<uint32_t> Order(Loops.size());
  for (uint32_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Loops[A].Blocks.size() < Loops[B].Blocks.size();
  });

  // Parent of L = smallest loop strictly containing L's header other than L.
  for (uint32_t OI = 0; OI != Order.size(); ++OI) {
    uint32_t LI = Order[OI];
    for (uint32_t OJ = OI + 1; OJ != Order.size(); ++OJ) {
      uint32_t PJ = Order[OJ];
      if (Loops[PJ].Blocks.size() > Loops[LI].Blocks.size() &&
          Loops[PJ].contains(Loops[LI].Header)) {
        Loops[LI].Parent = PJ;
        break;
      }
    }
  }

  // Depths.
  for (Loop &L : Loops) {
    uint32_t D = 1;
    for (uint32_t P = L.Parent; P != ~0u; P = Loops[P].Parent)
      ++D;
    L.Depth = D;
  }

  // Innermost loop per block: smallest containing loop.
  for (uint32_t OI = static_cast<uint32_t>(Order.size()); OI-- > 0;) {
    uint32_t LI = Order[OI];
    for (uint32_t B : Loops[LI].Blocks)
      BlockToLoop[B] = LI; // smaller loops assign later and win
  }
}

void LoopInfo::markIrreducible(const DomTree &DT) {
  // A CFG is irreducible iff some DFS retreating edge targets a block that
  // does not dominate the edge source. Mark every block of the strongly
  // connected component containing such an edge as irreducible.
  uint32_t N = static_cast<uint32_t>(F.Blocks.size());

  // Iterative DFS recording "open" (on-stack) status to find retreating
  // edges.
  std::vector<uint8_t> State(N, 0); // 0=new, 1=open, 2=done
  std::vector<std::pair<uint32_t, size_t>> Stack;
  std::vector<std::pair<uint32_t, uint32_t>> BadEdges;
  auto Dfs = [&](uint32_t Root) {
    if (State[Root] != 0)
      return;
    Stack.emplace_back(Root, 0);
    State[Root] = 1;
    while (!Stack.empty()) {
      auto &[Node, Next] = Stack.back();
      auto Succs = F.Blocks[Node].successors();
      if (Next < Succs.size()) {
        uint32_t S = Succs[Next++];
        if (State[S] == 0) {
          State[S] = 1;
          Stack.emplace_back(S, 0);
        } else if (State[S] == 1 && !DT.dominates(S, Node)) {
          BadEdges.emplace_back(Node, S);
        }
        continue;
      }
      State[Node] = 2;
      Stack.pop_back();
    }
  };
  Dfs(F.entryBlock());
  if (BadEdges.empty())
    return;

  // Tarjan SCC to find the cycles containing the offending edges.
  std::vector<uint32_t> SccId(N, ~0u);
  {
    std::vector<uint32_t> Index(N, ~0u), Low(N, 0);
    std::vector<uint8_t> OnStack(N, 0);
    std::vector<uint32_t> SccStack;
    uint32_t NextIndex = 0, NextScc = 0;
    // Iterative Tarjan.
    struct Frame {
      uint32_t Node;
      size_t Next;
    };
    std::vector<Frame> Frames;
    for (uint32_t Root = 0; Root != N; ++Root) {
      if (Index[Root] != ~0u)
        continue;
      Frames.push_back({Root, 0});
      Index[Root] = Low[Root] = NextIndex++;
      SccStack.push_back(Root);
      OnStack[Root] = 1;
      while (!Frames.empty()) {
        Frame &Fr = Frames.back();
        auto Succs = F.Blocks[Fr.Node].successors();
        if (Fr.Next < Succs.size()) {
          uint32_t S = Succs[Fr.Next++];
          if (Index[S] == ~0u) {
            Frames.push_back({S, 0});
            Index[S] = Low[S] = NextIndex++;
            SccStack.push_back(S);
            OnStack[S] = 1;
          } else if (OnStack[S]) {
            Low[Fr.Node] = std::min(Low[Fr.Node], Index[S]);
          }
          continue;
        }
        if (Low[Fr.Node] == Index[Fr.Node]) {
          uint32_t Member;
          do {
            Member = SccStack.back();
            SccStack.pop_back();
            OnStack[Member] = 0;
            SccId[Member] = NextScc;
          } while (Member != Fr.Node);
          ++NextScc;
        }
        uint32_t Done = Fr.Node;
        Frames.pop_back();
        if (!Frames.empty())
          Low[Frames.back().Node] =
              std::min(Low[Frames.back().Node], Low[Done]);
      }
    }
  }

  std::set<uint32_t> BadSccs;
  for (auto [U, V] : BadEdges) {
    if (SccId[U] == SccId[V])
      BadSccs.insert(SccId[U]);
  }
  for (uint32_t B = 0; B != N; ++B)
    if (BadSccs.count(SccId[B]))
      Irreducible[B] = 1;
}

void LoopInfo::collectLoopDefs() {
  LoopDefs.resize(Loops.size());
  for (uint32_t LI = 0; LI != Loops.size(); ++LI) {
    std::set<Reg> Defs;
    for (uint32_t B : Loops[LI].Blocks)
      for (const Instruction &I : F.Blocks[B].Insts)
        if (hasDest(I.Op) && I.Dst != NoReg)
          Defs.insert(I.Dst);
    LoopDefs[LI].assign(Defs.begin(), Defs.end());
  }
}

std::vector<Edge> LoopInfo::enteringEdges(uint32_t LoopIdx) const {
  assert(LoopIdx < Loops.size() && "loop index out of range");
  const Loop &L = Loops[LoopIdx];
  std::vector<Edge> Result;
  for (uint32_t B = 0, N = static_cast<uint32_t>(F.Blocks.size()); B != N;
       ++B) {
    if (L.contains(B))
      continue;
    for (unsigned S = 0, E = F.Blocks[B].numSuccessors(); S != E; ++S)
      if (F.Blocks[B].successor(S) == L.Header)
        Result.push_back(Edge{B, S});
  }
  return Result;
}

std::vector<Edge> LoopInfo::headerOutEdges(uint32_t LoopIdx) const {
  assert(LoopIdx < Loops.size() && "loop index out of range");
  const Loop &L = Loops[LoopIdx];
  std::vector<Edge> Result;
  for (unsigned S = 0, E = F.Blocks[L.Header].numSuccessors(); S != E; ++S)
    Result.push_back(Edge{L.Header, S});
  return Result;
}

bool LoopInfo::isLoopInvariantReg(uint32_t LoopIdx, Reg R) const {
  assert(LoopIdx < Loops.size() && "loop index out of range");
  return !std::binary_search(LoopDefs[LoopIdx].begin(),
                             LoopDefs[LoopIdx].end(), R);
}

std::vector<bool> sprof::loadSitesInLoop(const Module &M) {
  std::vector<SiteLocation> Sites = M.locateLoadSites();
  std::vector<bool> InLoop(M.NumLoadSites, false);
  for (uint32_t FI = 0; FI != M.Functions.size(); ++FI) {
    const Function &F = M.Functions[FI];
    DomTree DT = DomTree::forward(F);
    LoopInfo LI(F, DT);
    for (uint32_t Site = 0; Site != M.NumLoadSites; ++Site)
      if (Sites[Site].Func == FI)
        InLoop[Site] = LI.isInLoop(Sites[Site].Block);
  }
  return InLoop;
}
