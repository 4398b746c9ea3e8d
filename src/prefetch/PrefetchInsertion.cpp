//===- prefetch/PrefetchInsertion.cpp - Prefetch code generation -----------===//
//
// Part of the StrideProf project (see PrefetchInsertion.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "prefetch/PrefetchInsertion.h"

#include "obs/Obs.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <tuple>

using namespace sprof;

namespace {

unsigned log2Exact(unsigned K) {
  unsigned L = 0;
  while ((1u << L) < K)
    ++L;
  assert((1u << L) == K && "PMST distance must be a power of two");
  return L;
}

/// Builds the instruction sequence to insert before one load.
std::vector<Instruction> buildSequence(Function &F,
                                       const Instruction &LoadInst,
                                       const PrefetchDecision &D,
                                       PrefetchInsertionStats &Stats) {
  std::vector<Instruction> Code;
  Reg AddrReg = LoadInst.A.getReg();

  auto Prefetch = [&](Reg Base, int64_t Offset, Reg Pred) {
    Instruction P;
    P.Op = Opcode::Prefetch;
    P.A = Operand::reg(Base);
    P.Imm = Offset;
    P.Pred = Pred;
    // Carry the covered load's site so the memory system can attribute
    // this prefetch's outcome back to the decision that inserted it.
    P.SiteId = D.SiteId;
    Code.push_back(P);
  };

  switch (D.Kind) {
  case StrideClass::SSST: {
    // prefetch (P + K*S): single instruction, compile-time constant.
    int64_t Ahead = static_cast<int64_t>(D.Distance) * D.StrideValue;
    Prefetch(AddrReg, LoadInst.Imm + Ahead, NoReg);
    ++Stats.SsstPrefetches;
    if (!D.InLoop)
      ++Stats.OutLoopPrefetches;
    break;
  }
  case StrideClass::PMST: {
    // tmp    = P (effective address)
    // stride = tmp - prev
    // prev   = tmp
    // pf     = tmp + (stride << log2 K)
    // prefetch (pf)
    Reg Tmp = F.newReg();
    Reg Prev = F.newReg(); // starts at 0; first-iteration prefetch is wild
                           // but non-faulting, as in Figure 3d before the
                           // explicit prev_P initialization
    Reg Stride = F.newReg();
    Reg Shifted = F.newReg();
    Reg PfAddr = F.newReg();

    Instruction Ea;
    Ea.Op = Opcode::Add;
    Ea.Dst = Tmp;
    Ea.A = Operand::reg(AddrReg);
    Ea.B = Operand::imm(LoadInst.Imm);
    Code.push_back(Ea);

    Instruction Sub;
    Sub.Op = Opcode::Sub;
    Sub.Dst = Stride;
    Sub.A = Operand::reg(Tmp);
    Sub.B = Operand::reg(Prev);
    Code.push_back(Sub);

    Instruction Sav;
    Sav.Op = Opcode::Mov;
    Sav.Dst = Prev;
    Sav.A = Operand::reg(Tmp);
    Code.push_back(Sav);

    Instruction Shl;
    Shl.Op = Opcode::Shl;
    Shl.Dst = Shifted;
    Shl.A = Operand::reg(Stride);
    Shl.B = Operand::imm(log2Exact(D.Distance));
    Code.push_back(Shl);

    Instruction AddPf;
    AddPf.Op = Opcode::Add;
    AddPf.Dst = PfAddr;
    AddPf.A = Operand::reg(Tmp);
    AddPf.B = Operand::reg(Shifted);
    Code.push_back(AddPf);

    Prefetch(PfAddr, 0, NoReg);
    ++Stats.PmstPrefetches;
    break;
  }
  case StrideClass::WSST: {
    // Like PMST steps 1-2, then a conditional constant-offset prefetch:
    //   p = (stride == S);  p ? prefetch (P + K*S)
    Reg Tmp = F.newReg();
    Reg Prev = F.newReg();
    Reg Stride = F.newReg();
    Reg Pred = F.newReg();

    Instruction Ea;
    Ea.Op = Opcode::Add;
    Ea.Dst = Tmp;
    Ea.A = Operand::reg(AddrReg);
    Ea.B = Operand::imm(LoadInst.Imm);
    Code.push_back(Ea);

    Instruction Sub;
    Sub.Op = Opcode::Sub;
    Sub.Dst = Stride;
    Sub.A = Operand::reg(Tmp);
    Sub.B = Operand::reg(Prev);
    Code.push_back(Sub);

    Instruction Sav;
    Sav.Op = Opcode::Mov;
    Sav.Dst = Prev;
    Sav.A = Operand::reg(Tmp);
    Code.push_back(Sav);

    Instruction Cmp;
    Cmp.Op = Opcode::CmpEq;
    Cmp.Dst = Pred;
    Cmp.A = Operand::reg(Stride);
    Cmp.B = Operand::imm(D.StrideValue);
    Code.push_back(Cmp);

    int64_t Ahead = static_cast<int64_t>(D.Distance) * D.StrideValue;
    Prefetch(Tmp, Ahead, Pred);
    ++Stats.WsstPrefetches;
    break;
  }
  case StrideClass::None:
    assert(false && "cannot insert a prefetch for an unclassified load");
    break;
  }
  Stats.InstructionsAdded += static_cast<unsigned>(Code.size());
  return Code;
}

} // namespace

namespace {

void flushObs(ObsSession *Obs, const PrefetchInsertionStats &Stats) {
  if (!Obs)
    return;
  Obs->counter("prefetch.ssst")->inc(Stats.SsstPrefetches);
  Obs->counter("prefetch.pmst")->inc(Stats.PmstPrefetches);
  Obs->counter("prefetch.wsst")->inc(Stats.WsstPrefetches);
  Obs->counter("prefetch.out_loop")->inc(Stats.OutLoopPrefetches);
  Obs->counter("prefetch.dependent")->inc(Stats.DependentPrefetches);
  Obs->counter("prefetch.instructions_added")->inc(Stats.InstructionsAdded);
}

} // namespace

PrefetchInsertionStats
sprof::insertPrefetches(Module &M, const FeedbackResult &Feedback,
                        ObsSession *Obs) {
  TraceSpan Span(Obs, "prefetch-insert", "prefetch");
  PrefetchInsertionStats Stats = insertPrefetches(M, Feedback.Decisions);

  // Dependent prefetches are inserted in a second pass; site ids survive
  // the first pass's insertions, so re-locating is all that is needed.
  std::map<uint32_t, std::vector<const DependentPrefetchDecision *>> ByBase;
  for (const DependentPrefetchDecision &DD : Feedback.DependentDecisions)
    ByBase[DD.BaseSiteId].push_back(&DD);
  if (ByBase.empty()) {
    flushObs(Obs, Stats);
    return Stats;
  }

  std::vector<SiteLocation> Sites = M.locateLoadSites();
  // Process bases within one block from the highest instruction index down
  // so earlier insertions do not shift later targets.
  std::vector<std::pair<SiteLocation, uint32_t>> Order;
  for (const auto &[BaseSite, List] : ByBase) {
    (void)List;
    Order.emplace_back(Sites[BaseSite], BaseSite);
  }
  std::sort(Order.begin(), Order.end(),
            [](const auto &A, const auto &B) {
              // Ascending (Func, Block), then *descending* Inst: note the
              // swapped Inst operands.
              return std::tie(A.first.Func, A.first.Block, B.first.Inst) <
                     std::tie(B.first.Func, B.first.Block, A.first.Inst);
            });

  for (const auto &[Loc, BaseSite] : Order) {
    assert(Loc.isValid() && "dependent plan for a site with no load");
    Function &F = M.Functions[Loc.Func];
    BasicBlock &BB = F.Blocks[Loc.Block];
    const Instruction &Base = BB.Insts[Loc.Inst];
    assert(Base.Op == Opcode::Load && Base.SiteId == BaseSite &&
           "stale site location");

    std::vector<Instruction> Code;
    Reg Ahead = F.newReg();
    for (const DependentPrefetchDecision *DD : ByBase.at(BaseSite)) {
      if (Code.empty()) {
        // t = load.s [P + offA + K*S] -- the base pointer K strides ahead.
        Instruction Spec;
        Spec.Op = Opcode::SpecLoad;
        Spec.Dst = Ahead;
        Spec.A = Base.A;
        Spec.Imm = Base.Imm + static_cast<int64_t>(DD->Distance) *
                                  DD->BaseStride;
        Spec.SiteId = BaseSite;
        Code.push_back(Spec);
      }
      Instruction P;
      P.Op = Opcode::Prefetch;
      P.A = Operand::reg(Ahead);
      P.Imm = DD->DepOffset;
      P.SiteId = DD->DepSiteId;
      Code.push_back(P);
      ++Stats.DependentPrefetches;
    }
    Stats.InstructionsAdded += static_cast<unsigned>(Code.size());
    BB.Insts.insert(BB.Insts.begin() + Loc.Inst, Code.begin(), Code.end());
  }
  flushObs(Obs, Stats);
  return Stats;
}

PrefetchInsertionStats sprof::insertPrefetches(
    Module &M, const std::vector<PrefetchDecision> &Decisions) {
  PrefetchInsertionStats Stats;
  if (Decisions.empty())
    return Stats;

  std::map<uint32_t, const PrefetchDecision *> BySite;
  for (const PrefetchDecision &D : Decisions) {
    assert(!BySite.count(D.SiteId) && "duplicate decision for one site");
    BySite[D.SiteId] = &D;
  }

  std::vector<SiteLocation> Sites = M.locateLoadSites();

  // Group decisions per block so each block is rebuilt once.
  struct Planned {
    uint32_t InstIndex;
    const PrefetchDecision *Decision;
  };
  std::map<std::pair<uint32_t, uint32_t>, std::vector<Planned>> PerBlock;
  for (const auto &[SiteId, D] : BySite) {
    const SiteLocation &Loc = Sites[SiteId];
    assert(Loc.isValid() && "decision for a site that has no load");
    PerBlock[{Loc.Func, Loc.Block}].push_back(Planned{Loc.Inst, D});
  }

  for (auto &[FB, List] : PerBlock) {
    auto [FuncIdx, BlockIdx] = FB;
    Function &F = M.Functions[FuncIdx];
    BasicBlock &BB = F.Blocks[BlockIdx];
    std::sort(List.begin(), List.end(),
              [](const Planned &A, const Planned &B) {
                return A.InstIndex < B.InstIndex;
              });

    std::vector<Instruction> NewInsts;
    size_t Next = 0;
    for (uint32_t II = 0, IE = static_cast<uint32_t>(BB.Insts.size());
         II != IE; ++II) {
      while (Next < List.size() && List[Next].InstIndex == II) {
        std::vector<Instruction> Code =
            buildSequence(F, BB.Insts[II], *List[Next].Decision, Stats);
        NewInsts.insert(NewInsts.end(), Code.begin(), Code.end());
        ++Next;
      }
      NewInsts.push_back(BB.Insts[II]);
    }
    BB.Insts = std::move(NewInsts);
  }
  return Stats;
}
