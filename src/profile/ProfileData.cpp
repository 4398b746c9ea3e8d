//===- profile/ProfileData.cpp - Profile stores and summaries --------------===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileData.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

using namespace sprof;

void EdgeProfile::setFrequency(uint32_t Func, const Edge &E,
                               uint64_t Count) {
  assert(Func < PerFunction.size() && "function index out of range");
  PerFunction[Func][E] = Count;
}

uint64_t EdgeProfile::frequency(uint32_t Func, const Edge &E) const {
  assert(Func < PerFunction.size() && "function index out of range");
  auto It = PerFunction[Func].find(E);
  return It == PerFunction[Func].end() ? 0 : It->second;
}

void EdgeProfile::setEntryCount(uint32_t Func, uint64_t Count) {
  assert(Func < EntryCounts.size() && "function index out of range");
  EntryCounts[Func] = Count;
}

uint64_t EdgeProfile::entryCount(uint32_t Func) const {
  assert(Func < EntryCounts.size() && "function index out of range");
  return EntryCounts[Func];
}

uint64_t EdgeProfile::blockFrequency(const Function &F, uint32_t Func,
                                     uint32_t Block) const {
  const BasicBlock &BB = F.Blocks[Block];
  if (BB.numSuccessors() > 0) {
    uint64_t Sum = 0;
    for (unsigned S = 0, E = BB.numSuccessors(); S != E; ++S)
      Sum += frequency(Func, Edge{Block, S});
    return Sum;
  }
  // Exit block: sum incoming edges (plus the entry count when the entry
  // block itself is an exit, i.e. a single-block function).
  uint64_t Sum = Block == F.entryBlock() ? entryCount(Func) : 0;
  for (uint32_t P = 0, N = static_cast<uint32_t>(F.Blocks.size()); P != N;
       ++P)
    for (unsigned S = 0, E = F.Blocks[P].numSuccessors(); S != E; ++S)
      if (F.Blocks[P].successor(S) == Block)
        Sum += frequency(Func, Edge{P, S});
  return Sum;
}

void EdgeProfile::print(const Module &M, std::ostream &OS) const {
  for (uint32_t FI = 0, FE = static_cast<uint32_t>(PerFunction.size());
       FI != FE; ++FI) {
    for (const auto &[E, Count] : PerFunction[FI]) {
      const Function &F = M.Functions[FI];
      OS << F.Name << ": " << F.Blocks[E.From].Name << " ->"
         << " slot" << E.Slot << " (" << F.Blocks[F.edgeDest(E)].Name
         << "): " << Count << '\n';
    }
  }
}

uint64_t StrideSiteSummary::top4Freq() const {
  uint64_t Sum = 0;
  for (size_t I = 0, E = std::min<size_t>(4, TopStrides.size()); I != E; ++I)
    Sum += TopStrides[I].Count;
  return Sum;
}

StrideProfile::StrideProfile(uint32_t NumSites) {
  Sites.resize(NumSites);
  for (uint32_t I = 0; I != NumSites; ++I)
    Sites[I].SiteId = I;
}

StrideProfile StrideProfile::fromProfiler(const StrideProfiler &P,
                                          bool SubsetOnly) {
  StrideProfile Result(P.numSites());
  const bool Sampled = P.config().Sampling.Enabled;
  const int64_t FineF =
      Sampled ? static_cast<int64_t>(P.config().Sampling.FineInterval) : 1;
  for (uint32_t S = 0, E = P.numSites(); S != E; ++S) {
    StrideSiteSummary &Out = Result.Sites[S];
    Out.SiteId = S;
    if (SubsetOnly && !P.inSubset(S))
      continue;
    const StrideSiteData &D = P.site(S);
    Out.TotalStrides = D.totalStrides();
    Out.NumZeroStride = D.NumZeroStride;
    Out.NumZeroDiff = D.NumZeroDiff;
    Out.RefGapSum = D.RefGapSum;
    Out.RefGapCount = D.RefGapCount;
    Out.TopStrides = D.Lfu.topValues();
    // Fine sampling multiplies every observed stride by F; recover the
    // original stride values (S2 = S1 / F, Section 3.1).
    if (FineF != 1)
      for (ValueCount &VC : Out.TopStrides)
        VC.Value /= FineF;
  }
  return Result;
}

void StrideProfile::print(std::ostream &OS) const {
  for (const StrideSiteSummary &S : Sites) {
    if (S.TotalStrides == 0)
      continue;
    OS << "site " << S.SiteId << ": total=" << S.TotalStrides
       << " zero=" << S.NumZeroStride << " zerodiff=" << S.NumZeroDiff
       << " top=[";
    for (size_t I = 0; I != S.TopStrides.size(); ++I) {
      if (I)
        OS << ", ";
      OS << S.TopStrides[I].Value << ":" << S.TopStrides[I].Count;
    }
    OS << "]\n";
  }
}

void sprof::mergeStrideProfile(StrideProfile &Dst, const StrideProfile &Src) {
  assert(Dst.numSites() == Src.numSites() &&
         "merging stride profiles of different shapes");
  for (uint32_t S = 0, E = Dst.numSites(); S != E; ++S) {
    StrideSiteSummary &D = Dst.site(S);
    const StrideSiteSummary &V = Src.site(S);
    D.SiteId = S;
    D.TotalStrides += V.TotalStrides;
    D.NumZeroStride += V.NumZeroStride;
    D.NumZeroDiff += V.NumZeroDiff;
    D.RefGapSum += V.RefGapSum;
    D.RefGapCount += V.RefGapCount;
    // Union by stride value; equal strides sum their counts. Commutative
    // and associative on the value level; order-preserving on Dst (see the
    // header comment -- ParallelReplay's disjoint-site fold depends on the
    // union into an empty table being a verbatim ordered copy).
    for (const ValueCount &VC : V.TopStrides) {
      auto It = std::find_if(
          D.TopStrides.begin(), D.TopStrides.end(),
          [&](const ValueCount &DV) { return DV.Value == VC.Value; });
      if (It != D.TopStrides.end())
        It->Count += VC.Count;
      else
        D.TopStrides.push_back(VC);
    }
  }
}

void sprof::truncateTopStrides(StrideProfile &SP, unsigned TopN) {
  for (uint32_t S = 0, E = SP.numSites(); S != E; ++S) {
    std::vector<ValueCount> &Top = SP.site(S).TopStrides;
    std::sort(Top.begin(), Top.end(),
              [](const ValueCount &A, const ValueCount &B) {
                if (A.Count != B.Count)
                  return A.Count > B.Count;
                return A.Value < B.Value;
              });
    if (Top.size() > TopN)
      Top.resize(TopN);
  }
}

void sprof::writeProfiles(const EdgeProfile &EP, const StrideProfile &SP,
                          std::ostream &OS) {
  for (uint32_t FI = 0, FE = static_cast<uint32_t>(EP.numFunctions());
       FI != FE; ++FI) {
    if (EP.entryCount(FI) != 0)
      OS << "entry " << FI << ' ' << EP.entryCount(FI) << '\n';
    for (const auto &[E, Count] : EP.functionEdges(FI))
      OS << "edge " << FI << ' ' << E.From << ' ' << E.Slot << ' ' << Count
         << '\n';
  }
  for (uint32_t S = 0, E = SP.numSites(); S != E; ++S) {
    const StrideSiteSummary &Sum = SP.site(S);
    if (Sum.TotalStrides == 0 && Sum.TopStrides.empty())
      continue;
    OS << "site " << S << " total " << Sum.TotalStrides << " zero "
       << Sum.NumZeroStride << " zerodiff " << Sum.NumZeroDiff << " gap "
       << Sum.RefGapSum << ' ' << Sum.RefGapCount << " top";
    for (const ValueCount &VC : Sum.TopStrides)
      OS << ' ' << VC.Value << ':' << VC.Count;
    OS << '\n';
  }
}

bool sprof::readProfiles(std::istream &IS, size_t NumFunctions,
                         uint32_t NumSites, EdgeProfile &EP,
                         StrideProfile &SP) {
  EP = EdgeProfile(NumFunctions);
  SP = StrideProfile(NumSites);
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Kind;
    LS >> Kind;
    if (Kind == "entry") {
      uint32_t Func;
      uint64_t Count;
      if (!(LS >> Func >> Count) || Func >= NumFunctions)
        return false;
      EP.setEntryCount(Func, Count);
    } else if (Kind == "edge") {
      uint32_t Func, From;
      unsigned Slot;
      uint64_t Count;
      if (!(LS >> Func >> From >> Slot >> Count) || Func >= NumFunctions)
        return false;
      EP.setFrequency(Func, Edge{From, Slot}, Count);
    } else if (Kind == "site") {
      uint32_t Id;
      std::string Tag;
      StrideSiteSummary Sum;
      if (!(LS >> Id) || Id >= NumSites)
        return false;
      Sum.SiteId = Id;
      if (!(LS >> Tag) || Tag != "total" || !(LS >> Sum.TotalStrides))
        return false;
      if (!(LS >> Tag) || Tag != "zero" || !(LS >> Sum.NumZeroStride))
        return false;
      if (!(LS >> Tag) || Tag != "zerodiff" || !(LS >> Sum.NumZeroDiff))
        return false;
      if (!(LS >> Tag) || Tag != "gap" || !(LS >> Sum.RefGapSum) ||
          !(LS >> Sum.RefGapCount))
        return false;
      if (!(LS >> Tag) || Tag != "top")
        return false;
      std::string Pair;
      while (LS >> Pair) {
        size_t Colon = Pair.find(':');
        if (Colon == std::string::npos)
          return false;
        ValueCount VC;
        char *End = nullptr;
        std::string ValueText = Pair.substr(0, Colon);
        std::string CountText = Pair.substr(Colon + 1);
        VC.Value = std::strtoll(ValueText.c_str(), &End, 10);
        if (End == ValueText.c_str() || *End != '\0')
          return false;
        VC.Count = std::strtoull(CountText.c_str(), &End, 10);
        if (End == CountText.c_str() || *End != '\0')
          return false;
        Sum.TopStrides.push_back(VC);
      }
      SP.site(Id) = Sum;
    } else {
      return false;
    }
  }
  return true;
}
