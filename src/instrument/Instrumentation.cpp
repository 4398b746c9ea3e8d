//===- instrument/Instrumentation.cpp - Integrated profiling passes --------===//
//
// Part of the StrideProf project (see Instrumentation.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "instrument/Instrumentation.h"

#include "obs/Obs.h"
#include "obs/Trace.h"

#include "analysis/CfgEdit.h"
#include "analysis/ControlEquivalence.h"
#include "analysis/Dominators.h"
#include "analysis/EquivalentLoads.h"
#include "analysis/LoopInfo.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace sprof;

const char *sprof::profilingMethodName(ProfilingMethod Method) {
  switch (Method) {
  case ProfilingMethod::EdgeOnly:
    return "edge-only";
  case ProfilingMethod::NaiveAll:
    return "naive-all";
  case ProfilingMethod::NaiveLoop:
    return "naive-loop";
  case ProfilingMethod::BlockCheck:
    return "block-check";
  case ProfilingMethod::EdgeCheck:
    return "edge-check";
  case ProfilingMethod::SampleNaiveAll:
    return "sample-naive-all";
  case ProfilingMethod::SampleNaiveLoop:
    return "sample-naive-loop";
  case ProfilingMethod::SampleEdgeCheck:
    return "sample-edge-check";
  }
  assert(false && "unknown profiling method");
  return "<invalid>";
}

bool sprof::methodUsesSampling(ProfilingMethod Method) {
  switch (Method) {
  case ProfilingMethod::SampleNaiveAll:
  case ProfilingMethod::SampleNaiveLoop:
  case ProfilingMethod::SampleEdgeCheck:
    return true;
  default:
    return false;
  }
}

bool sprof::methodProfilesOutLoop(ProfilingMethod Method) {
  ProfilingMethod Base = baseMethod(Method);
  return Base == ProfilingMethod::NaiveAll;
}

ProfilingMethod sprof::baseMethod(ProfilingMethod Method) {
  switch (Method) {
  case ProfilingMethod::SampleNaiveAll:
    return ProfilingMethod::NaiveAll;
  case ProfilingMethod::SampleNaiveLoop:
    return ProfilingMethod::NaiveLoop;
  case ProfilingMethod::SampleEdgeCheck:
    return ProfilingMethod::EdgeCheck;
  default:
    return Method;
  }
}

ProfilingMethod sprof::instrumentationFamily(ProfilingMethod Method) {
  ProfilingMethod Base = baseMethod(Method);
  return Base == ProfilingMethod::NaiveLoop ? ProfilingMethod::NaiveAll
                                            : Base;
}

bool sprof::profilingMethodFromName(const std::string &Name,
                                    ProfilingMethod &Method) {
  for (ProfilingMethod M : allProfilingMethods())
    if (Name == profilingMethodName(M)) {
      Method = M;
      return true;
    }
  return false;
}

std::vector<ProfilingMethod> sprof::allProfilingMethods() {
  return {ProfilingMethod::EdgeOnly,        ProfilingMethod::NaiveAll,
          ProfilingMethod::NaiveLoop,       ProfilingMethod::BlockCheck,
          ProfilingMethod::EdgeCheck,       ProfilingMethod::SampleNaiveAll,
          ProfilingMethod::SampleNaiveLoop, ProfilingMethod::SampleEdgeCheck};
}

std::vector<ProfilingMethod> sprof::paperStrideMethods() {
  return {ProfilingMethod::EdgeCheck,       ProfilingMethod::NaiveLoop,
          ProfilingMethod::NaiveAll,        ProfilingMethod::SampleEdgeCheck,
          ProfilingMethod::SampleNaiveLoop, ProfilingMethod::SampleNaiveAll};
}

namespace {

/// Per-function instrumentation worker.
class FunctionInstrumenter {
public:
  FunctionInstrumenter(Module &M, uint32_t FuncIdx, ProfilingMethod Base,
                       const InstrumentConfig &Config,
                       InstrumentationResult &Result)
      : M(M), FuncIdx(FuncIdx), F(M.Functions[FuncIdx]), Base(Base),
        Config(Config), Result(Result) {}

  void run() {
    // All planning happens against the original CFG; mutations that change
    // the CFG (edge splits, preheaders) only append blocks, so captured
    // block indices stay valid.
    DomTree DT = DomTree::forward(F);
    DomTree PDT = DomTree::backward(F);
    LoopInfo LI(F, DT);
    ControlEquivalence CE(F, DT, PDT);

    planProfiledLoads(LI, CE);
    allocatePredicates();
    insertStrideCalls();

    std::vector<Edge> OriginalEdges = F.edges();

    // Capture the loop-entering and header-out edge lists now: edge
    // splitting below redirects successors, after which a rescan would no
    // longer recognize split entering edges.
    std::map<uint32_t, std::vector<Edge>> EnteringOf, HeaderOutOf;
    for (const auto &[LoopIdx, PredReg] : LoopPredicate) {
      (void)PredReg;
      EnteringOf[LoopIdx] = LI.enteringEdges(LoopIdx);
      HeaderOutOf[LoopIdx] = LI.headerOutEdges(LoopIdx);
    }

    if (Base == ProfilingMethod::BlockCheck)
      createPreheaders(LI);

    placeEdgeCounters(OriginalEdges);
    placeEntryCounter();

    if (Base == ProfilingMethod::EdgeCheck)
      insertEdgeTripChecks(EnteringOf, HeaderOutOf);
    else if (Base == ProfilingMethod::BlockCheck)
      insertBlockTripChecks(LI);

    applyBlockInsertions();
  }

private:
  /// A profiled load: where it is and which loop predicate (if any) guards
  /// its strideProf call.
  struct ProfiledLoad {
    uint32_t Block;
    uint32_t InstIndex;
    uint32_t SiteId;
    uint32_t LoopIdx; // ~0u for out-loop loads
  };

  bool isCheckMethod() const {
    return Base == ProfilingMethod::EdgeCheck ||
           Base == ProfilingMethod::BlockCheck;
  }

  void planProfiledLoads(const LoopInfo &LI, const ControlEquivalence &CE) {
    // Which site ids survive equivalent-set reduction (check methods only).
    std::set<uint32_t> Representatives;
    if (isCheckMethod()) {
      for (const EquivalentLoadSet &Set : partitionEquivalentLoads(F, LI, CE))
        Representatives.insert(Set.representative().SiteId);
    }

    for (uint32_t B = 0, N = static_cast<uint32_t>(F.Blocks.size()); B != N;
         ++B) {
      bool InLoop = LI.isInLoop(B);
      uint32_t LoopIdx = InLoop ? LI.innermostLoop(B) : ~0u;
      const BasicBlock &BB = F.Blocks[B];
      for (uint32_t II = 0, IE = static_cast<uint32_t>(BB.Insts.size());
           II != IE; ++II) {
        const Instruction &I = BB.Insts[II];
        if (I.Op != Opcode::Load)
          continue;
        switch (Base) {
        case ProfilingMethod::EdgeOnly:
          continue;
        case ProfilingMethod::NaiveAll:
          break; // profile every load
        case ProfilingMethod::NaiveLoop:
          if (!InLoop)
            continue;
          break;
        case ProfilingMethod::EdgeCheck:
        case ProfilingMethod::BlockCheck:
          if (!InLoop)
            continue;
          // Refinement 1: skip loop-invariant addresses.
          if (LI.isLoopInvariantReg(LoopIdx, I.A.getReg()))
            continue;
          // Refinement 2: profile one representative per equivalent set.
          if (!Representatives.count(I.SiteId))
            continue;
          break;
        default:
          assert(false && "sampled methods must be lowered to their base");
        }
        ProfiledLoads.push_back(
            ProfiledLoad{B, II, I.SiteId,
                         isCheckMethod() ? LoopIdx : ~0u});
        Result.ProfiledSites.push_back(I.SiteId);
      }
    }
  }

  void allocatePredicates() {
    if (!isCheckMethod())
      return;
    for (const ProfiledLoad &PL : ProfiledLoads) {
      if (PL.LoopIdx == ~0u)
        continue;
      if (!LoopPredicate.count(PL.LoopIdx))
        LoopPredicate[PL.LoopIdx] = F.newReg();
    }
  }

  void insertStrideCalls() {
    // Group planned calls per block, then rebuild each block once.
    std::map<uint32_t, std::vector<const ProfiledLoad *>> PerBlock;
    for (const ProfiledLoad &PL : ProfiledLoads)
      PerBlock[PL.Block].push_back(&PL);

    for (auto &[B, Loads] : PerBlock) {
      std::sort(Loads.begin(), Loads.end(),
                [](const ProfiledLoad *A, const ProfiledLoad *B2) {
                  return A->InstIndex < B2->InstIndex;
                });
      BasicBlock &BB = F.Blocks[B];
      std::vector<Instruction> NewInsts;
      NewInsts.reserve(BB.Insts.size() + Loads.size());
      size_t NextLoad = 0;
      for (uint32_t II = 0, IE = static_cast<uint32_t>(BB.Insts.size());
           II != IE; ++II) {
        while (NextLoad < Loads.size() &&
               Loads[NextLoad]->InstIndex == II) {
          const ProfiledLoad &PL = *Loads[NextLoad];
          const Instruction &LoadInst = BB.Insts[II];
          Instruction Prof;
          Prof.Op = Opcode::ProfStride;
          Prof.A = LoadInst.A;
          Prof.Imm = LoadInst.Imm;
          Prof.SiteId = PL.SiteId;
          Prof.IsInstrumentation = true;
          if (PL.LoopIdx != ~0u)
            Prof.Pred = LoopPredicate.at(PL.LoopIdx);
          // A predicated load would need pr1 = pr && load->predicate
          // (Figure 14); our loads are unpredicated before prefetch
          // insertion, which runs on a different module copy.
          assert(LoadInst.Pred == NoReg &&
                 "profiling a predicated load is not supported");
          NewInsts.push_back(Prof);
          ++NextLoad;
        }
        NewInsts.push_back(BB.Insts[II]);
      }
      BB.Insts = std::move(NewInsts);
    }
  }

  void createPreheaders(const LoopInfo &LI) {
    std::set<uint32_t> ProfiledLoops;
    for (const ProfiledLoad &PL : ProfiledLoads)
      if (PL.LoopIdx != ~0u)
        ProfiledLoops.insert(PL.LoopIdx);
    for (uint32_t L : ProfiledLoops) {
      uint32_t Header = LI.loops()[L].Header;
      // Capture the entering edges before creating the preheader: the
      // preheader's own jump must not be redirected onto itself.
      std::vector<Edge> Entering = LI.enteringEdges(L);
      uint32_t P = F.newBlock("preheader." + F.Blocks[Header].Name);
      Instruction J;
      J.Op = Opcode::Jmp;
      J.Target0 = Header;
      F.Blocks[P].Insts.push_back(J);
      for (const Edge &E : Entering)
        F.Blocks[E.From].setSuccessor(E.Slot, P);
      Preheader[L] = P;
    }
  }

  void placeEdgeCounters(const std::vector<Edge> &OriginalEdges) {
    for (const Edge &E : OriginalEdges) {
      uint32_t Counter = M.newCounter();
      Result.EdgeCounters[FuncIdx][E] = Counter;
      EdgeCounter[E] = Counter;

      Instruction Inc;
      Inc.Op = Opcode::ProfCounterInc;
      Inc.Imm = static_cast<int64_t>(Counter);
      Inc.IsInstrumentation = true;

      switch (classifyEdgePlacement(F, E)) {
      case EdgePlacement::SourceEnd:
        EndInserts[E.From].push_back(Inc);
        EdgeCodeBlock[E] = E.From;
        break;
      case EdgePlacement::DestTop: {
        uint32_t Dest = F.Blocks[E.From].successor(E.Slot);
        TopInserts[Dest].push_back(Inc);
        EdgeCodeBlock[E] = Dest;
        break;
      }
      case EdgePlacement::NeedsSplit: {
        uint32_t NewBlock = splitEdge(F, E);
        EndInserts[NewBlock].push_back(Inc);
        EdgeCodeBlock[E] = NewBlock;
        break;
      }
      }
    }
  }

  /// One counter per function counting its invocations.
  void placeEntryCounter() {
    uint32_t Counter = M.newCounter();
    Result.EntryCounters[FuncIdx] = Counter;
    Instruction Inc;
    Inc.Op = Opcode::ProfCounterInc;
    Inc.Imm = static_cast<int64_t>(Counter);
    Inc.IsInstrumentation = true;
    auto &Top = TopInserts[F.entryBlock()];
    Top.insert(Top.begin(), Inc);
  }

  /// Emits the Figure-14 trip-count predicate computation after the counter
  /// increment of every loop-entering edge of each profiled loop.
  void insertEdgeTripChecks(
      const std::map<uint32_t, std::vector<Edge>> &EnteringOf,
      const std::map<uint32_t, std::vector<Edge>> &HeaderOutOf) {
    const unsigned W = shiftForThreshold();
    for (const auto &[LoopIdx, PredReg] : LoopPredicate) {
      const std::vector<Edge> &Entering = EnteringOf.at(LoopIdx);
      const std::vector<Edge> &HeaderOut = HeaderOutOf.at(LoopIdx);
      for (const Edge &E : Entering) {
        std::vector<Instruction> Code;
        Reg R1 = F.newReg();
        Reg R2 = F.newReg();

        // r1 = sum of all entering-edge counters (this one included).
        bool First = true;
        for (const Edge &In : Entering) {
          Instruction I;
          if (First) {
            I.Op = Opcode::ProfCounterRead;
            I.Dst = R1;
          } else {
            I.Op = Opcode::ProfCounterAddTo;
            I.Dst = R1;
            I.A = Operand::reg(R1);
          }
          I.Imm = static_cast<int64_t>(EdgeCounter.at(In));
          I.IsInstrumentation = true;
          Code.push_back(I);
          First = false;
        }

        // r2 = sum of the header's outgoing edge counters.
        First = true;
        for (const Edge &Out : HeaderOut) {
          Instruction I;
          if (First) {
            I.Op = Opcode::ProfCounterRead;
            I.Dst = R2;
          } else {
            I.Op = Opcode::ProfCounterAddTo;
            I.Dst = R2;
            I.A = Operand::reg(R2);
          }
          I.Imm = static_cast<int64_t>(EdgeCounter.at(Out));
          I.IsInstrumentation = true;
          Code.push_back(I);
          First = false;
        }

        // r2 = r2 >> W;  pred = r2 > r1   (i.e. r2/r1 > TT without divide).
        Instruction Sh;
        Sh.Op = Opcode::Shr;
        Sh.Dst = R2;
        Sh.A = Operand::reg(R2);
        Sh.B = Operand::imm(W);
        Sh.IsInstrumentation = true;
        Code.push_back(Sh);

        Instruction Cmp;
        Cmp.Op = Opcode::CmpGt;
        Cmp.Dst = PredReg;
        Cmp.A = Operand::reg(R2);
        Cmp.B = Operand::reg(R1);
        Cmp.IsInstrumentation = true;
        Code.push_back(Cmp);

        // Place after the edge's counter increment.
        uint32_t Block = EdgeCodeBlock.at(E);
        bool AtTop = TopInserts.count(Block) &&
                     !TopInserts[Block].empty() &&
                     isEdgeIncAtTop(Block, EdgeCounter.at(E));
        auto &List = AtTop ? TopInserts[Block] : EndInserts[Block];
        for (const Instruction &I : Code)
          List.push_back(I);
      }
    }
  }

  /// True when edge \p CounterId's increment was placed in TopInserts of
  /// \p Block (DestTop placement).
  bool isEdgeIncAtTop(uint32_t Block, uint32_t CounterId) {
    auto It = TopInserts.find(Block);
    if (It == TopInserts.end())
      return false;
    for (const Instruction &I : It->second)
      if (I.Op == Opcode::ProfCounterInc &&
          I.Imm == static_cast<int64_t>(CounterId))
        return true;
    return false;
  }

  /// Block-check (Figure 11): block counters on the preheader and header of
  /// each profiled loop; predicate computed in the preheader.
  void insertBlockTripChecks(const LoopInfo &LI) {
    const unsigned W = shiftForThreshold();
    for (const auto &[LoopIdx, PredReg] : LoopPredicate) {
      uint32_t Header = LI.loops()[LoopIdx].Header;
      uint32_t P = Preheader.at(LoopIdx);

      uint32_t PreCounter = M.newCounter();
      uint32_t HdrCounter = M.newCounter();
      Result.BlockCounters[FuncIdx][P] = PreCounter;
      Result.BlockCounters[FuncIdx][Header] = HdrCounter;

      Instruction IncP;
      IncP.Op = Opcode::ProfCounterInc;
      IncP.Imm = static_cast<int64_t>(PreCounter);
      IncP.IsInstrumentation = true;
      TopInserts[P].insert(TopInserts[P].begin(), IncP);

      Instruction IncH;
      IncH.Op = Opcode::ProfCounterInc;
      IncH.Imm = static_cast<int64_t>(HdrCounter);
      IncH.IsInstrumentation = true;
      TopInserts[Header].insert(TopInserts[Header].begin(), IncH);

      Reg R1 = F.newReg();
      Reg R2 = F.newReg();
      std::vector<Instruction> Code;

      Instruction Rd1;
      Rd1.Op = Opcode::ProfCounterRead;
      Rd1.Dst = R1;
      Rd1.Imm = static_cast<int64_t>(PreCounter);
      Rd1.IsInstrumentation = true;
      Code.push_back(Rd1);

      Instruction Rd2;
      Rd2.Op = Opcode::ProfCounterRead;
      Rd2.Dst = R2;
      Rd2.Imm = static_cast<int64_t>(HdrCounter);
      Rd2.IsInstrumentation = true;
      Code.push_back(Rd2);

      Instruction Sh;
      Sh.Op = Opcode::Shr;
      Sh.Dst = R2;
      Sh.A = Operand::reg(R2);
      Sh.B = Operand::imm(W);
      Sh.IsInstrumentation = true;
      Code.push_back(Sh);

      Instruction Cmp;
      Cmp.Op = Opcode::CmpGt;
      Cmp.Dst = PredReg;
      Cmp.A = Operand::reg(R2);
      Cmp.B = Operand::reg(R1);
      Cmp.IsInstrumentation = true;
      Code.push_back(Cmp);

      for (const Instruction &I : Code)
        EndInserts[P].push_back(I);
    }
  }

  unsigned shiftForThreshold() const {
    unsigned W = 0;
    while ((1ull << (W + 1)) <= Config.TripCountThreshold)
      ++W;
    return W;
  }

  void applyBlockInsertions() {
    for (uint32_t B = 0, N = static_cast<uint32_t>(F.Blocks.size()); B != N;
         ++B) {
      auto TopIt = TopInserts.find(B);
      auto EndIt = EndInserts.find(B);
      if (TopIt == TopInserts.end() && EndIt == EndInserts.end())
        continue;
      BasicBlock &BB = F.Blocks[B];
      assert(BB.hasTerminator() && "instrumenting unterminated block");
      std::vector<Instruction> NewInsts;
      if (TopIt != TopInserts.end())
        NewInsts.insert(NewInsts.end(), TopIt->second.begin(),
                        TopIt->second.end());
      NewInsts.insert(NewInsts.end(), BB.Insts.begin(),
                      BB.Insts.end() - 1);
      if (EndIt != EndInserts.end())
        NewInsts.insert(NewInsts.end(), EndIt->second.begin(),
                        EndIt->second.end());
      NewInsts.push_back(BB.Insts.back());
      BB.Insts = std::move(NewInsts);
    }
  }

  Module &M;
  uint32_t FuncIdx;
  Function &F;
  ProfilingMethod Base;
  const InstrumentConfig &Config;
  InstrumentationResult &Result;

  std::vector<ProfiledLoad> ProfiledLoads;
  std::map<uint32_t, Reg> LoopPredicate; // loop index -> predicate reg
  std::map<uint32_t, uint32_t> Preheader; // loop index -> preheader block
  std::map<Edge, uint32_t> EdgeCounter;
  std::map<Edge, uint32_t> EdgeCodeBlock; // where the edge's inc landed
  std::map<uint32_t, std::vector<Instruction>> TopInserts;
  std::map<uint32_t, std::vector<Instruction>> EndInserts;
};

} // namespace

InstrumentationResult sprof::instrumentModule(Module &M,
                                              ProfilingMethod Method,
                                              const InstrumentConfig &Config,
                                              ObsSession *Obs) {
  TraceSpan Span(Obs, "instrument", "instrument");
  InstrumentationResult Result;
  Result.Method = Method;
  Result.EdgeCounters.resize(M.Functions.size());
  Result.BlockCounters.resize(M.Functions.size());
  Result.EntryCounters.assign(M.Functions.size(), NoId);

  ProfilingMethod Base = baseMethod(Method);
  for (uint32_t FI = 0, FE = static_cast<uint32_t>(M.Functions.size());
       FI != FE; ++FI) {
    FunctionInstrumenter FIr(M, FI, Base, Config, Result);
    FIr.run();
  }

  recordInstrumentation(Obs, Result);
  return Result;
}

void sprof::recordInstrumentation(ObsSession *Obs,
                                  const InstrumentationResult &Result) {
  if (!Obs)
    return;
  uint64_t NumEdge = 0, NumBlock = 0, NumEntry = 0;
  for (const auto &Map : Result.EdgeCounters)
    NumEdge += Map.size();
  for (const auto &Map : Result.BlockCounters)
    NumBlock += Map.size();
  for (uint32_t C : Result.EntryCounters)
    NumEntry += C != NoId;
  Obs->counter("instrument.modules")->inc();
  Obs->counter("instrument.edge_counters")->inc(NumEdge);
  Obs->counter("instrument.block_counters")->inc(NumBlock);
  Obs->counter("instrument.entry_counters")->inc(NumEntry);
  Obs->counter("instrument.profiled_sites")
      ->inc(Result.ProfiledSites.size());
}
