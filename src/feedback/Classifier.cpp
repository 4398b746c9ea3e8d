//===- feedback/Classifier.cpp - Figure-5 load classification --------------===//
//
// Part of the StrideProf project (see Classifier.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "feedback/Classifier.h"

#include "obs/Obs.h"
#include "obs/Trace.h"

#include "analysis/ControlEquivalence.h"
#include "analysis/Dominators.h"
#include "analysis/EquivalentLoads.h"
#include "analysis/LoopInfo.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace sprof;

const char *sprof::strideClassName(StrideClass C) {
  switch (C) {
  case StrideClass::None:
    return "none";
  case StrideClass::SSST:
    return "SSST";
  case StrideClass::PMST:
    return "PMST";
  case StrideClass::WSST:
    return "WSST";
  }
  assert(false && "unknown stride class");
  return "<invalid>";
}

StrideClass sprof::classifyStrideSummary(const StrideSiteSummary &S,
                                         const ClassifierConfig &Config) {
  if (S.TotalStrides == 0)
    return StrideClass::None;
  double Total = static_cast<double>(S.TotalStrides);
  double Top1 = static_cast<double>(S.top1Freq());
  double Top4 = static_cast<double>(S.top4Freq());
  double ZeroDiff = static_cast<double>(S.NumZeroDiff);

  if (Top1 / Total > Config.SsstThreshold)
    return StrideClass::SSST;
  if (Top4 / Total > Config.PmstThreshold &&
      ZeroDiff / Total > Config.PmstDiffThreshold)
    return StrideClass::PMST;
  if (Top1 / Total > Config.WsstThreshold &&
      ZeroDiff / Total > Config.WsstDiffThreshold)
    return StrideClass::WSST;
  return StrideClass::None;
}

double sprof::loopTripCount(const Function &F, uint32_t FuncIdx,
                            const std::vector<Edge> &EnteringEdges,
                            const std::vector<Edge> &HeaderOutEdges,
                            const EdgeProfile &EP) {
  (void)F;
  uint64_t HeaderFreq = 0;
  for (const Edge &E : HeaderOutEdges)
    HeaderFreq += EP.frequency(FuncIdx, E);
  uint64_t EnterFreq = 0;
  for (const Edge &E : EnteringEdges)
    EnterFreq += EP.frequency(FuncIdx, E);
  if (EnterFreq == 0)
    return 0.0;
  return static_cast<double>(HeaderFreq) / static_cast<double>(EnterFreq);
}

namespace {

/// Rounds \p K down to a power of two (at least 1).
unsigned roundDownPow2(unsigned K) {
  unsigned P = 1;
  while (P * 2 <= K)
    P *= 2;
  return P;
}

} // namespace

FeedbackResult sprof::runFeedback(const Module &M, const EdgeProfile &EP,
                                  const StrideProfile &SP,
                                  const ClassifierConfig &Config,
                                  ObsSession *Obs) {
  TraceSpan Span(Obs, "classify", "feedback");
  uint64_t FreqFiltered = 0, TripFiltered = 0, GapFiltered = 0;
  FeedbackResult Result;
  Result.SiteClass.assign(M.NumLoadSites, StrideClass::None);
  Result.SiteTripCount.assign(M.NumLoadSites, 0.0);
  Result.SiteInLoop.assign(M.NumLoadSites, false);

  std::set<uint32_t> Planned; // avoid duplicate decisions per site

  // Every member of an in-loop SSST set that received prefetches, with the
  // set's stride and distance; dependent-prefetch planning keys off these
  // (the pointer-producing load is often a set member without its own
  // cover decision).
  std::map<uint32_t, std::pair<int64_t, unsigned>> SsstMembers;

  for (uint32_t FI = 0, FE = static_cast<uint32_t>(M.Functions.size());
       FI != FE; ++FI) {
    const Function &F = M.Functions[FI];
    DomTree DT = DomTree::forward(F);
    DomTree PDT = DomTree::backward(F);
    LoopInfo LI(F, DT);
    ControlEquivalence CE(F, DT, PDT);
    std::vector<EquivalentLoadSet> Sets = partitionEquivalentLoads(F, LI, CE);

    // Trip count per loop (Figure 10).
    std::vector<double> TripCount(LI.loops().size(), 0.0);
    for (uint32_t L = 0, LE = static_cast<uint32_t>(LI.loops().size());
         L != LE; ++L)
      TripCount[L] = loopTripCount(F, FI, LI.enteringEdges(L),
                                   LI.headerOutEdges(L), EP);

    for (const EquivalentLoadSet &Set : Sets) {
      for (const LoadMember &Mem : Set.Members) {
        bool InLoop = LI.isInLoop(Mem.Block);
        uint32_t LoopIdx = InLoop ? LI.innermostLoop(Mem.Block) : ~0u;
        double Trip = InLoop ? TripCount[LoopIdx] : 0.0;
        Result.SiteInLoop[Mem.SiteId] = InLoop;
        Result.SiteTripCount[Mem.SiteId] = Trip;
      }
    }

    for (const EquivalentLoadSet &Set : Sets) {
      // A set may hold several profiled members (naive methods profile all
      // loads); use the best-populated summary as the set's profile.
      const StrideSiteSummary *Best = nullptr;
      for (const LoadMember &Mem : Set.Members) {
        const StrideSiteSummary &S = SP.site(Mem.SiteId);
        if (S.TotalStrides == 0)
          continue;
        if (!Best || S.TotalStrides > Best->TotalStrides)
          Best = &S;
      }
      if (!Best)
        continue;

      bool InLoop = Set.LoopIdx != ~0u;
      double Trip = InLoop ? TripCount[Set.LoopIdx] : 0.0;

      StrideClass Class = classifyStrideSummary(*Best, Config);
      for (const LoadMember &Mem : Set.Members)
        Result.SiteClass[Mem.SiteId] = Class;
      if (Class == StrideClass::None)
        continue;

      // Figure 5 filters: load frequency and loop trip count.
      const LoadMember &Rep = Set.representative();
      uint64_t LoadFreq = EP.blockFrequency(F, FI, Rep.Block);
      if (LoadFreq <= Config.FrequencyThreshold) {
        ++FreqFiltered;
        continue;
      }
      if (InLoop &&
          Trip <= static_cast<double>(Config.TripCountThreshold)) {
        ++TripFiltered;
        continue;
      }

      // Out-loop loads: only SSST is prefetched, with a fixed distance
      // (Section 2.3).
      if (!InLoop) {
        if (!Config.EnableOutLoopPrefetch || Class != StrideClass::SSST)
          continue;
      }
      if (Class == StrideClass::WSST && !Config.EnableWsstPrefetch)
        continue;

      // Use-distance veto (Section 6 future work): prefetched data for a
      // load revisited only after many other references is likely evicted
      // before use.
      if (Config.EnableUseDistanceFilter && Best->RefGapCount > 0 &&
          Best->avgRefGap() > Config.MaxAvgRefGap) {
        ++GapFiltered;
        continue;
      }

      // Prefetch distance K = min(trip_count / TT, C), at least 1.
      unsigned K;
      if (InLoop) {
        double Raw = Trip / static_cast<double>(Config.TripCountThreshold);
        K = static_cast<unsigned>(std::max(1.0, Raw));
        K = std::min(K, Config.MaxPrefetchDistance);
      } else {
        K = Config.OutLoopPrefetchDistance;
      }
      if (Class == StrideClass::PMST)
        K = roundDownPow2(K);

      if (Class == StrideClass::SSST && InLoop)
        for (const LoadMember &Mem : Set.Members)
          SsstMembers[Mem.SiteId] = {Best->top1Stride(), K};

      // Expand to the cover loads of the set (Section 2.2).
      for (const LoadMember &Cover :
           Set.coverLoads(Config.CacheLineBytes)) {
        if (!Planned.insert(Cover.SiteId).second)
          continue;
        PrefetchDecision D;
        D.SiteId = Cover.SiteId;
        D.Kind = Class;
        D.InLoop = InLoop;
        D.StrideValue = Best->top1Stride();
        D.Distance = K;
        Result.Decisions.push_back(D);
      }
    }
  }

  if (Config.EnableDependentPrefetch) {
    // For every in-loop SSST load in a prefetched set, look for loads in
    // the same block that consume its result register before it is
    // redefined and that have no usable stride of their own: prefetch them
    // through a speculative pointer chase (Section 6, second item).
    std::vector<SiteLocation> Sites = M.locateLoadSites();
    std::set<uint32_t> DepPlanned;
    for (const auto &[BaseSite, Plan] : SsstMembers) {
      const SiteLocation &Loc = Sites[BaseSite];
      const BasicBlock &BB = M.Functions[Loc.Func].Blocks[Loc.Block];
      const Instruction &Base = BB.Insts[Loc.Inst];
      Reg Produced = Base.Dst;
      if (Produced == NoReg)
        continue;
      for (uint32_t II = Loc.Inst + 1;
           II != static_cast<uint32_t>(BB.Insts.size()); ++II) {
        const Instruction &I = BB.Insts[II];
        if (I.Op == Opcode::Load && I.A.getReg() == Produced &&
            Result.SiteClass[I.SiteId] == StrideClass::None &&
            !Planned.count(I.SiteId) && DepPlanned.insert(I.SiteId).second) {
          DependentPrefetchDecision DD;
          DD.BaseSiteId = BaseSite;
          DD.DepSiteId = I.SiteId;
          DD.BaseStride = Plan.first;
          DD.Distance = Plan.second;
          DD.DepOffset = I.Imm;
          Result.DependentDecisions.push_back(DD);
        }
        if (hasDest(I.Op) && I.Dst == Produced)
          break; // the pointer register is redefined
      }
    }
  }

  if (Obs) {
    uint64_t NumClass[4] = {0, 0, 0, 0};
    for (StrideClass C : Result.SiteClass)
      ++NumClass[static_cast<unsigned>(C)];
    Obs->counter("classify.sites")->inc(Result.SiteClass.size());
    Obs->counter("classify.none")
        ->inc(NumClass[static_cast<unsigned>(StrideClass::None)]);
    Obs->counter("classify.ssst")
        ->inc(NumClass[static_cast<unsigned>(StrideClass::SSST)]);
    Obs->counter("classify.pmst")
        ->inc(NumClass[static_cast<unsigned>(StrideClass::PMST)]);
    Obs->counter("classify.wsst")
        ->inc(NumClass[static_cast<unsigned>(StrideClass::WSST)]);
    Obs->counter("classify.freq_filtered")->inc(FreqFiltered);
    Obs->counter("classify.trip_filtered")->inc(TripFiltered);
    Obs->counter("classify.gap_filtered")->inc(GapFiltered);
    Obs->counter("classify.decisions")->inc(Result.Decisions.size());
    Obs->counter("classify.dependent_decisions")
        ->inc(Result.DependentDecisions.size());
  }
  return Result;
}
