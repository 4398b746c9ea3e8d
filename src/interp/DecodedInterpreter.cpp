//===- interp/DecodedInterpreter.cpp - Fast pre-decoded engine -------------===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
//
// Dispatch strategy: on GCC/Clang every handler ends by fetching and
// jumping to the next handler directly (computed goto), which gives the
// host branch predictor one indirect-branch site per handler instead of a
// single shared site; elsewhere the same handler bodies compile into a
// switch inside a loop. The two variants share their source through the
// SPROF_OP/SPROF_NEXT/SPROF_JUMP macros below, so the semantics cannot
// drift apart.
//
// Three engine-wide invariants keep the per-instruction overhead down
// without giving up bit-identical accounting:
//
//  * The current cycle count is never materialized in the loop. The
//    reference engine maintains Now ≡ BaseCycles + InstrumentationCycles +
//    MemStallCycles + RuntimeCycles as an invariant, so this engine keeps
//    only the four component accumulators (in registers) and derives Now
//    on the rare paths that need it (cache-hierarchy calls, run exit).
//
//  * Operands are frame-slot indices (see DecodedProgram.h): register and
//    immediate reads are the same unconditional indexed load.
//
//  * Hot adjacent ALU pairs are fused into superinstructions at decode
//    time; a fused handler executes both halves with one dispatch while
//    counting and charging them as two instructions.
//
//===----------------------------------------------------------------------===//

#include "interp/DecodedInterpreter.h"

#include "obs/SelfProfiler.h"

#include <algorithm>
#include <cassert>

using namespace sprof;

#if defined(__GNUC__) || defined(__clang__)
#define SPROF_COMPUTED_GOTO 1
#else
#define SPROF_COMPUTED_GOTO 0
#endif

// The label table below must list one handler per dispatch opcode, base
// opcodes first, fused superinstructions after, each set in enum order.
static_assert(NumOpcodes == 29,
              "opcode set changed: update the Decoded engine's handlers");
static_assert(static_cast<unsigned>(FusedOp::MovMov) == NumOpcodes &&
                  NumDispatchOps == 52,
              "fused-op set changed: update the Decoded engine's handlers");

/// Once-per-window slow path of the sampled dispatch prologue: records the
/// sample and returns the re-armed NextStop. Kept out of line and cold so
/// the hot loop carries no trace of the sampling machinery beyond the
/// fuel compare it already pays (see the sp_stop block in runImpl).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline, cold))
#endif
static uint64_t
selfProfStop(EngineSelfProfiler *SP, uint8_t DOp, uint64_t NInsts,
             uint64_t Window, uint64_t MaxInstructions) {
  SP->sample(DOp);
  uint64_t Next = NInsts + Window;
  return Next > MaxInstructions ? MaxInstructions : Next;
}

RunStats DecodedInterpreter::run(uint64_t MaxInstructions, ExecTally &Tally) {
  if (SelfProf) {
    SelfProf->configureSlots(NumDispatchOps, dispatchOpNames());
    SelfProf->beginWindow();
  }
  if (Mem)
    return runImpl<true>(MaxInstructions, Tally);
  return runImpl<false>(MaxInstructions, Tally);
}

template <bool HasMem>
RunStats DecodedInterpreter::runImpl(uint64_t MaxInstructions,
                                     ExecTally &Tally) {
  RunStats Stats;
  Stats.SiteCounts.assign(NumLoadSites, 0);

  const DInst *Code = DP.code().data();
  const uint32_t *ArgPool = DP.argPool().data();
  const int64_t *ConstPool = DP.constPool().data();
  const DFunction *Funcs = DP.functions().data();

  // Reset the pools (capacity is retained across runs). A frame's register
  // window is NumSlots wide: NumRegs zeroed registers followed by the
  // function's materialized constants (see DecodedProgram.h).
  const DFunction &Entry = Funcs[DP.entryFunction()];
  Frames.clear();
  if (RegStack.size() < Entry.NumSlots)
    RegStack.resize(std::max<size_t>(Entry.NumSlots, 64));
  std::fill(RegStack.begin(), RegStack.begin() + Entry.NumRegs, 0);
  std::copy(ConstPool + Entry.ConstBase,
            ConstPool + Entry.ConstBase + (Entry.NumSlots - Entry.NumRegs),
            RegStack.begin() + Entry.NumRegs);
  Frames.push_back(DFrame{0, NoReg, 0, Entry.NumSlots});

  int64_t *Regs = RegStack.data();
  uint32_t RegLimit = Entry.NumSlots;
  const DInst *I = Code + Entry.EntryPC;

  // Hot-loop state lives in locals so the compiler can keep it in
  // registers across the (inlined) fast paths; everything is written back
  // to Stats at run_done.
  const TimingModel TM = Timing;
  uint64_t NInsts = 0;
  uint64_t LoadRefs = 0;
  uint64_t BaseCyc = 0;
  uint64_t InstrCyc = 0;
  uint64_t MemStall = 0;
  uint64_t RuntimeCyc = 0;
  uint64_t *SiteCounts = Stats.SiteCounts.data();

  // Batched profiling (no-memsys runs only): ProfStride traps append to a
  // fixed ring drained in blocks through StrideProfiler::profileBatch.
  // Deferring the simulated cost is safe here because nothing between two
  // drains reads SPROF_NOW() when HasMem is false; with a memory system
  // attached the trap cost must reach Now before the next access is timed,
  // so that specialization stays on the per-event profile() call.
  // With a memory system the trap cost is charged per event, so the ring
  // serves only event-sink capture there; without one it is the batching
  // buffer for profiler and sink alike (the entries are AccessEvents, so
  // the sink tees straight off the ring).
  StrideEvent *Ring = nullptr;
  uint32_t RingN = 0;
  uint32_t RingCap = 0;
  const bool WantRing = HasMem ? Sink != nullptr : (Profiler || Sink);
  if (WantRing) {
    RingCap = StrideBatchWindow;
    if (StrideRing.size() < RingCap)
      StrideRing.resize(RingCap);
    Ring = StrideRing.data();
  }

  // Self-profiler sampling rides the dispatch prologue's existing fuel
  // check: NextStop is the nearer of the fuel limit and the next sample
  // point, so the hot path stays one compare-and-branch whether or not
  // sampling is on. Which instructions get sampled (every SPWindow
  // committed instructions, give or take fused-pair overshoot) is a
  // deterministic function of the instruction stream. Sampled and
  // unsampled runs share this one instantiation — every dispatch tail
  // branches to a single cold stop block (sp_stop) that sorts out fuel
  // exhaustion vs. sample-and-rearm at run time, so attaching the
  // profiler cannot change the hot loop's code layout. (An earlier
  // WithSelfProf template split duplicated the dispatch loop and cost a
  // constant ~6% on the sampled copy from layout alone.) Host-side only:
  // simulated accounting never moves.
  uint64_t NextStop = MaxInstructions;
  uint64_t SPWindow = 1;
  if (SelfProf) {
    SPWindow = SelfProf->window();
    if (NInsts + SPWindow < NextStop)
      NextStop = NInsts + SPWindow;
  }

// Reads a pre-decoded operand: one unconditional load, whether the operand
// was a register or a decode-time immediate (constant slot).
#define SPROF_VAL(O) (Regs[O])

// The reference engine's running Now, reconstructed from its components
// (only branches, memory-system calls, and run exit ever need it).
#define SPROF_NOW() (BaseCyc + InstrCyc + MemStall + RuntimeCyc)

// Mirrors the reference engine's Charge closure. The attribution branch is
// never-taken (and predicted so) in uninstrumented runs.
#define SPROF_CHARGE(Cost)                                                   \
  do {                                                                       \
    uint64_t C_ = (Cost);                                                    \
    if (__builtin_expect(I->IsInstrumentation, 0))                           \
      InstrCyc += C_;                                                        \
    else                                                                     \
      BaseCyc += C_;                                                         \
  } while (0)

// One instruction's full semantics (effects + its own cycle charge),
// shared between the single-op and the fused handlers. P is a const DInst*
// pointing at the instruction being executed.
#define SPROF_STEP_Mov(P)                                                    \
  do {                                                                       \
    Regs[(P)->Dst] = Regs[(P)->A];                                           \
    SPROF_CHARGE(TM.DefaultCost);                                            \
  } while (0)
// Add and Load are the producers the decode-time pointer analysis flags
// (DInst::PrefetchDst): when the result is an address the program will
// dereference later, start pulling its line into the host cache now. Rare
// and perfectly predicted when not taken; no simulated effect when taken.
#define SPROF_STEP_PREFETCH_HINT(P)                                          \
  do {                                                                       \
    if (__builtin_expect((P)->PrefetchDst, 0)) {                             \
      uint64_t Hint_ = static_cast<uint64_t>(Regs[(P)->Dst]);                \
      Memory.prefetchHost(Hint_);                                            \
      if constexpr (HasMem)                                                  \
        Mem->prefetchLanes(Hint_);                                           \
    }                                                                        \
  } while (0)

// Add, Sub and Mul wrap in 64-bit two's complement (docs/IR.md), so they
// compute through uint64_t like Shl.
#define SPROF_STEP_Add(P)                                                    \
  do {                                                                       \
    Regs[(P)->Dst] = static_cast<int64_t>(                                   \
        static_cast<uint64_t>(Regs[(P)->A]) +                                \
        static_cast<uint64_t>(Regs[(P)->B]));                                \
    SPROF_STEP_PREFETCH_HINT(P);                                             \
    SPROF_CHARGE(TM.DefaultCost);                                            \
  } while (0)
#define SPROF_STEP_Shl(P)                                                    \
  do {                                                                       \
    Regs[(P)->Dst] = static_cast<int64_t>(                                   \
        static_cast<uint64_t>(Regs[(P)->A]) << (Regs[(P)->B] & 63));         \
    SPROF_CHARGE(TM.DefaultCost);                                            \
  } while (0)
#define SPROF_STEP_Shr(P)                                                    \
  do {                                                                       \
    Regs[(P)->Dst] = Regs[(P)->A] >> (Regs[(P)->B] & 63);                    \
    SPROF_CHARGE(TM.DefaultCost);                                            \
  } while (0)
#define SPROF_STEP_And(P)                                                    \
  do {                                                                       \
    Regs[(P)->Dst] = Regs[(P)->A] & Regs[(P)->B];                            \
    SPROF_CHARGE(TM.DefaultCost);                                            \
  } while (0)
#define SPROF_STEP_Xor(P)                                                    \
  do {                                                                       \
    Regs[(P)->Dst] = Regs[(P)->A] ^ Regs[(P)->B];                            \
    SPROF_CHARGE(TM.DefaultCost);                                            \
  } while (0)
// The full Load semantics: value read, base-cost charge, cache-hierarchy
// latency (the pipeline hides an L1-hit's worth; the rest stalls), and the
// per-site reference counts the profiles are built from.
#define SPROF_STEP_Load(P)                                                   \
  do {                                                                       \
    uint64_t Addr_ = static_cast<uint64_t>(Regs[(P)->A] + (P)->Imm);         \
    if constexpr (HasMem)                                                    \
      Mem->prefetchLanes(Addr_);                                             \
    Regs[(P)->Dst] = Memory.read64(Addr_);                                   \
    SPROF_STEP_PREFETCH_HINT(P);                                             \
    SPROF_CHARGE(TM.LoadBaseCost);                                           \
    if constexpr (HasMem) {                                                  \
      uint64_t Latency_ = Mem->demandAccess(Addr_, SPROF_NOW(), (P)->SiteId); \
      uint64_t Hidden_ = TM.FlatLoadLatency;                                 \
      uint64_t Stall_ = Latency_ > Hidden_ ? Latency_ - Hidden_ : 0;         \
      MemStall += Stall_;                                                    \
    }                                                                        \
    if (!(P)->IsInstrumentation) {                                           \
      ++LoadRefs;                                                            \
      if ((P)->SiteId != NoId)                                               \
        ++SiteCounts[(P)->SiteId];                                           \
    }                                                                        \
  } while (0)

// A fused pair executes both halves on one dispatch but stays two
// instructions for counting, truncation, and cycle purposes. Fusion only
// happens when both halves share an attribution bucket and neither is
// predicated, so the second half needs no predicate or bucket logic; the
// truncation check between the halves replicates the reference loop's
// fetch-boundary check exactly.
#define SPROF_FUSED2(NAME, OP1, OP2)                                         \
  SPROF_FOP(NAME) {                                                          \
    SPROF_STEP_##OP1(I);                                                     \
    if (__builtin_expect(NInsts >= MaxInstructions, 0))                      \
      goto run_done;                                                         \
    ++NInsts;                                                                \
    SPROF_STEP_##OP2((I + 1));                                               \
    ++I;                                                                     \
    SPROF_NEXT();                                                            \
  }

// Compare fused with the conditional branch consuming it (loop back-edges
// and guards). The branch half reads its own condition slot, so the pair
// fuses even when the branch tests something other than the compare's Dst.
#define SPROF_FUSED_CMPBR(NAME, REL)                                         \
  SPROF_FOP(NAME) {                                                          \
    Regs[I->Dst] = Regs[I->A] REL Regs[I->B];                                \
    SPROF_CHARGE(TM.DefaultCost);                                            \
    if (__builtin_expect(NInsts >= MaxInstructions, 0))                      \
      goto run_done;                                                         \
    ++NInsts;                                                                \
    const DInst *J_ = I + 1;                                                 \
    SPROF_CHARGE(TM.DefaultCost);                                            \
    ++Tally.Branches;                                                        \
    I = Code + (Regs[J_->A] != 0 ? J_->target0() : J_->target1());          \
    SPROF_JUMP();                                                            \
  }

#if SPROF_COMPUTED_GOTO

  static const void *Labels[NumDispatchOps] = {
      &&H_Mov,      &&H_Add,      &&H_Sub,      &&H_Mul,
      &&H_Shl,      &&H_Shr,      &&H_And,      &&H_Or,
      &&H_Xor,      &&H_CmpEq,    &&H_CmpNe,    &&H_CmpLt,
      &&H_CmpLe,    &&H_CmpGt,    &&H_CmpGe,    &&H_Select,
      &&H_Load,     &&H_Store,    &&H_Prefetch, &&H_SpecLoad,
      &&H_Jmp,      &&H_Br,       &&H_Call,     &&H_Ret,
      &&H_Halt,     &&H_ProfCounterInc,         &&H_ProfCounterRead,
      &&H_ProfCounterAddTo,       &&H_ProfStride,
      &&H_F_MovMov, &&H_F_AddAdd, &&H_F_AddShl, &&H_F_AddXor,
      &&H_F_ShlAdd, &&H_F_ShlXor, &&H_F_ShrXor, &&H_F_AndShl,
      &&H_F_XorShl, &&H_F_XorShr, &&H_F_XorAnd, &&H_F_AddLoad,
      &&H_F_AndLoad,&&H_F_LoadAdd,&&H_F_LoadAnd,&&H_F_LoadXor,
      &&H_F_LoadShl,&&H_F_LoadLoad,             &&H_F_CmpNeBr,
      &&H_F_CmpLtBr,&&H_F_CallInlined,          &&H_F_RetInlined,
      &&H_Predicated};

// Fetch/decode prologue, replicated at every dispatch site. Predicate
// handling lives behind the Predicated dispatch slot (assigned at decode
// time), so the hot path is fuel check + count + one indirect jump.
#define SPROF_DISPATCH()                                                     \
  do {                                                                       \
    if (__builtin_expect(NInsts >= NextStop, 0))                             \
      goto sp_stop;                                                          \
    ++NInsts;                                                                \
    goto *Labels[I->DOp];                                                    \
  } while (0)

#define SPROF_OP(name) H_##name:
#define SPROF_FOP(name) H_F_##name:
#define SPROF_NEXT()                                                         \
  do {                                                                       \
    ++I;                                                                     \
    SPROF_DISPATCH();                                                        \
  } while (0)
#define SPROF_JUMP() SPROF_DISPATCH()

  SPROF_DISPATCH();

H_Predicated:
  // Qualifying predicate: a false predicate squashes the instruction but
  // still consumes an issue slot; a true predicate tail-jumps to the base
  // opcode's handler (the dispatch prologue already counted this
  // instruction, so no re-dispatch).
  if (Regs[I->Pred] == 0) {
    SPROF_CHARGE(TM.PredicatedOffCost);
    ++Tally.PredSquashed;
    SPROF_NEXT();
  }
  goto *Labels[static_cast<uint8_t>(I->Op)];

  {

#else // switch fallback

#define SPROF_OP(name) case static_cast<uint8_t>(Opcode::name):
#define SPROF_FOP(name) case static_cast<uint8_t>(FusedOp::name):
#define SPROF_NEXT()                                                         \
  do {                                                                       \
    ++I;                                                                     \
    goto next_inst;                                                          \
  } while (0)
#define SPROF_JUMP() goto next_inst

next_inst:
  for (;;) {
    if (__builtin_expect(NInsts >= NextStop, 0)) {
      if (NInsts >= MaxInstructions || !SelfProf)
        goto run_done;
      NextStop =
          selfProfStop(SelfProf, I->DOp, NInsts, SPWindow, MaxInstructions);
    }
    ++NInsts;
    uint8_t DOp = I->DOp;
    if (DOp == static_cast<uint8_t>(FusedOp::Predicated)) {
      if (Regs[I->Pred] == 0) {
        SPROF_CHARGE(TM.PredicatedOffCost);
        ++Tally.PredSquashed;
        ++I;
        continue;
      }
      DOp = static_cast<uint8_t>(I->Op); // predicate true: run the base op
    }
    switch (DOp) {

#endif

    SPROF_OP(Mov) {
      SPROF_STEP_Mov(I);
      SPROF_NEXT();
    }
    SPROF_OP(Add) {
      SPROF_STEP_Add(I);
      SPROF_NEXT();
    }
    SPROF_OP(Sub) {
      Regs[I->Dst] = static_cast<int64_t>(
          static_cast<uint64_t>(SPROF_VAL(I->A)) -
          static_cast<uint64_t>(SPROF_VAL(I->B)));
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(Mul) {
      Regs[I->Dst] = static_cast<int64_t>(
          static_cast<uint64_t>(SPROF_VAL(I->A)) *
          static_cast<uint64_t>(SPROF_VAL(I->B)));
      SPROF_CHARGE(TM.MulCost);
      SPROF_NEXT();
    }
    SPROF_OP(Shl) {
      SPROF_STEP_Shl(I);
      SPROF_NEXT();
    }
    SPROF_OP(Shr) {
      SPROF_STEP_Shr(I);
      SPROF_NEXT();
    }
    SPROF_OP(And) {
      SPROF_STEP_And(I);
      SPROF_NEXT();
    }
    SPROF_OP(Or) {
      Regs[I->Dst] = SPROF_VAL(I->A) | SPROF_VAL(I->B);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(Xor) {
      SPROF_STEP_Xor(I);
      SPROF_NEXT();
    }
    SPROF_OP(CmpEq) {
      Regs[I->Dst] = SPROF_VAL(I->A) == SPROF_VAL(I->B);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(CmpNe) {
      Regs[I->Dst] = SPROF_VAL(I->A) != SPROF_VAL(I->B);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(CmpLt) {
      Regs[I->Dst] = SPROF_VAL(I->A) < SPROF_VAL(I->B);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(CmpLe) {
      Regs[I->Dst] = SPROF_VAL(I->A) <= SPROF_VAL(I->B);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(CmpGt) {
      Regs[I->Dst] = SPROF_VAL(I->A) > SPROF_VAL(I->B);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(CmpGe) {
      Regs[I->Dst] = SPROF_VAL(I->A) >= SPROF_VAL(I->B);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }
    SPROF_OP(Select) {
      Regs[I->Dst] = SPROF_VAL(I->A) != 0 ? SPROF_VAL(I->B) : SPROF_VAL(I->C);
      SPROF_CHARGE(TM.DefaultCost);
      SPROF_NEXT();
    }

    SPROF_OP(Load) {
      SPROF_STEP_Load(I);
      SPROF_NEXT();
    }
    SPROF_OP(Store) {
      uint64_t Addr = static_cast<uint64_t>(SPROF_VAL(I->A) + I->Imm);
      Memory.write64(Addr, SPROF_VAL(I->B));
      SPROF_CHARGE(TM.StoreCost);
      ++Tally.Stores;
      SPROF_NEXT();
    }
    SPROF_OP(Prefetch) {
      uint64_t Addr = static_cast<uint64_t>(SPROF_VAL(I->A) + I->Imm);
      if constexpr (HasMem)
        Mem->prefetch(Addr, SPROF_NOW(), I->SiteId);
      else
        (void)Addr;
      SPROF_CHARGE(TM.PrefetchCost);
      ++Tally.Prefetches;
      SPROF_NEXT();
    }
    SPROF_OP(SpecLoad) {
      // Speculative, non-blocking load (Itanium ld.s): returns the value
      // for address computation but never stalls the pipeline; it touches
      // the cache like a prefetch.
      uint64_t Addr = static_cast<uint64_t>(SPROF_VAL(I->A) + I->Imm);
      if constexpr (HasMem)
        Mem->prefetchLanes(Addr);
      Regs[I->Dst] = Memory.read64(Addr);
      if constexpr (HasMem)
        Mem->prefetch(Addr, SPROF_NOW(), I->SiteId);
      SPROF_CHARGE(TM.LoadBaseCost);
      ++Tally.SpecLoads;
      SPROF_NEXT();
    }

    SPROF_OP(Jmp) {
      SPROF_CHARGE(TM.DefaultCost);
      ++Tally.Branches;
      I = Code + I->target0();
      SPROF_JUMP();
    }
    SPROF_OP(Br) {
      SPROF_CHARGE(TM.DefaultCost);
      ++Tally.Branches;
      I = Code + (SPROF_VAL(I->A) != 0 ? I->target0() : I->target1());
      SPROF_JUMP();
    }

    SPROF_OP(Call) {
      SPROF_CHARGE(TM.CallCost);
      const DFunction &CF = Funcs[I->callee()];
      // Arguments read the caller's registers; capture them before the
      // pool can reallocate under Regs.
      int64_t ArgVals[MaxCallArgs];
      const uint32_t *Args = ArgPool + I->argsBase();
      for (unsigned A = 0; A != I->NumArgs; ++A)
        ArgVals[A] = Regs[Args[A]];
      uint32_t NewBase = RegLimit;
      if (RegStack.size() < static_cast<size_t>(NewBase) + CF.NumSlots)
        RegStack.resize(
            std::max<size_t>(static_cast<size_t>(NewBase) + CF.NumSlots,
                             RegStack.size() * 2));
      int64_t *NewRegs = RegStack.data() + NewBase;
      std::fill(NewRegs, NewRegs + CF.NumRegs, 0);
      std::copy(ConstPool + CF.ConstBase,
                ConstPool + CF.ConstBase + (CF.NumSlots - CF.NumRegs),
                NewRegs + CF.NumRegs);
      for (unsigned A = 0; A != I->NumArgs; ++A)
        NewRegs[A] = ArgVals[A];
      Frames.push_back(DFrame{static_cast<uint32_t>(I - Code) + 1, I->Dst,
                              NewBase, NewBase + CF.NumSlots});
      Regs = NewRegs;
      RegLimit = NewBase + CF.NumSlots;
      I = Code + CF.EntryPC;
      ++Tally.Calls;
      if (Frames.size() > Tally.MaxDepth)
        Tally.MaxDepth = Frames.size();
      SPROF_JUMP();
    }
    SPROF_OP(Ret) {
      SPROF_CHARGE(TM.RetCost);
      int64_t RV = SPROF_VAL(I->A); // an empty operand decodes as slot 0
      DFrame Top = Frames.back();
      Frames.pop_back();
      if (Frames.empty()) {
        Stats.ExitValue = RV;
        Stats.Completed = true;
        goto run_done;
      }
      const DFrame &Caller = Frames.back();
      Regs = RegStack.data() + Caller.RegBase;
      RegLimit = Caller.RegLimit;
      if (Top.ReturnDst != NoReg)
        Regs[Top.ReturnDst] = RV;
      I = Code + Top.ReturnPC;
      SPROF_JUMP();
    }
    SPROF_OP(Halt) {
      SPROF_CHARGE(TM.DefaultCost);
      Stats.Completed = true;
      Frames.clear();
      goto run_done;
    }

    SPROF_OP(ProfCounterInc) {
      ++Counters[I->Imm];
      InstrCyc += TM.CounterIncCost;
      ++Tally.CounterOps;
      SPROF_NEXT();
    }
    SPROF_OP(ProfCounterRead) {
      Regs[I->Dst] = static_cast<int64_t>(Counters[I->Imm]);
      InstrCyc += TM.CounterReadCost;
      ++Tally.CounterOps;
      SPROF_NEXT();
    }
    SPROF_OP(ProfCounterAddTo) {
      Regs[I->Dst] =
          SPROF_VAL(I->A) + static_cast<int64_t>(Counters[I->Imm]);
      InstrCyc += TM.CounterAddToCost;
      ++Tally.CounterOps;
      SPROF_NEXT();
    }
    SPROF_OP(ProfStride) {
      uint64_t Addr = static_cast<uint64_t>(SPROF_VAL(I->A) + I->Imm);
      if constexpr (HasMem) {
        uint64_t Cost = 0;
        if (Profiler)
          Cost = Profiler->profile(I->SiteId, Addr, LoadRefs + 1);
        RuntimeCyc += Cost;
        if (Ring) {
          Ring[RingN] = StrideEvent{Addr, LoadRefs + 1, I->SiteId};
          if (++RingN == RingCap) {
            Sink->onBatch(Ring, RingN);
            RingN = 0;
          }
        }
      } else {
        if (Ring) {
          Ring[RingN] = StrideEvent{Addr, LoadRefs + 1, I->SiteId};
          if (++RingN == RingCap) {
            if (Profiler)
              RuntimeCyc += Profiler->profileBatch(Ring, RingN);
            if (Sink)
              Sink->onBatch(Ring, RingN);
            RingN = 0;
          }
        }
      }
      ++Tally.StrideTraps;
      SPROF_NEXT();
    }

    SPROF_FUSED2(MovMov, Mov, Mov)
    SPROF_FUSED2(AddAdd, Add, Add)
    SPROF_FUSED2(AddShl, Add, Shl)
    SPROF_FUSED2(AddXor, Add, Xor)
    SPROF_FUSED2(ShlAdd, Shl, Add)
    SPROF_FUSED2(ShlXor, Shl, Xor)
    SPROF_FUSED2(ShrXor, Shr, Xor)
    SPROF_FUSED2(AndShl, And, Shl)
    SPROF_FUSED2(XorShl, Xor, Shl)
    SPROF_FUSED2(XorShr, Xor, Shr)
    SPROF_FUSED2(XorAnd, Xor, And)
    SPROF_FUSED2(AddLoad, Add, Load)
    SPROF_FUSED2(AndLoad, And, Load)
    SPROF_FUSED2(LoadAdd, Load, Add)
    SPROF_FUSED2(LoadAnd, Load, And)
    SPROF_FUSED2(LoadXor, Load, Xor)
    SPROF_FUSED2(LoadShl, Load, Shl)
    SPROF_FUSED2(LoadLoad, Load, Load)
    SPROF_FUSED_CMPBR(CmpNeBr, !=)
    SPROF_FUSED_CMPBR(CmpLtBr, <)

    // Decode-time inlined call: the callee's body follows this instruction
    // in the code stream with its registers living in a window of the
    // current frame (A = window base, C = callee register count). No frame
    // is pushed, but counting, charging, and the call-depth tally mirror
    // the real Call exactly.
    SPROF_FOP(CallInlined) {
      SPROF_CHARGE(TM.CallCost);
      int64_t *W = Regs + I->A;
      for (uint32_t R_ = 0; R_ != I->C; ++R_)
        W[R_] = 0;
      const uint32_t *Args = ArgPool + I->argsBase();
      for (unsigned A_ = 0; A_ != I->NumArgs; ++A_)
        W[A_] = Regs[Args[A_]];
      ++Tally.Calls;
      if (Frames.size() + 1 > Tally.MaxDepth)
        Tally.MaxDepth = Frames.size() + 1;
      SPROF_NEXT();
    }
    SPROF_FOP(RetInlined) {
      SPROF_CHARGE(TM.RetCost);
      if (I->Dst != NoReg)
        Regs[I->Dst] = Regs[I->A];
      SPROF_NEXT();
    }

#if SPROF_COMPUTED_GOTO

  // The shared slow half of the dispatch prologue: every replicated
  // dispatch tail branches here when NInsts reaches NextStop. One cold
  // block (and one selfProfStop call site) for the whole loop, so the
  // ~50 hot tails stay a compare-and-branch each and carry no call.
sp_stop:
  if (NInsts >= MaxInstructions || !SelfProf)
    goto run_done;
  NextStop = selfProfStop(SelfProf, I->DOp, NInsts, SPWindow, MaxInstructions);
  ++NInsts;
  goto *Labels[I->DOp];
  }
#else
    } // switch: every case jumps, so control never falls through
  }   // for
#endif

run_done:
  // Flush the partial block so every queued trap is accounted (and
  // captured) exactly as the per-event path would have, on every exit
  // (halt, entry return, or MaxInstructions truncation).
  if (RingN != 0) {
    if constexpr (!HasMem) {
      if (Profiler)
        RuntimeCyc += Profiler->profileBatch(Ring, RingN);
    }
    if (Sink)
      Sink->onBatch(Ring, RingN);
    RingN = 0;
  }
  Stats.Cycles = SPROF_NOW();
  Stats.Instructions = NInsts;
  Stats.LoadRefs = LoadRefs;
  Stats.BaseCycles = BaseCyc;
  Stats.InstrumentationCycles = InstrCyc;
  Stats.MemStallCycles = MemStall;
  Stats.RuntimeCycles = RuntimeCyc;
  if constexpr (HasMem)
    Stats.Mem = Mem->stats();
  return Stats;

#undef SPROF_VAL
#undef SPROF_NOW
#undef SPROF_CHARGE
#undef SPROF_STEP_PREFETCH_HINT
#undef SPROF_STEP_Mov
#undef SPROF_STEP_Add
#undef SPROF_STEP_Shl
#undef SPROF_STEP_Shr
#undef SPROF_STEP_And
#undef SPROF_STEP_Xor
#undef SPROF_STEP_Load
#undef SPROF_FUSED2
#undef SPROF_FUSED_CMPBR
#undef SPROF_OP
#undef SPROF_FOP
#undef SPROF_NEXT
#undef SPROF_JUMP
#if SPROF_COMPUTED_GOTO
#undef SPROF_DISPATCH
#endif
}
