//===- interp/Interpreter.cpp - IR interpreter with cycle timing -----------===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/DecodedInterpreter.h"
#include "interp/DecodedProgram.h"
#include "interp/ProgramCache.h"
#include "obs/Obs.h"

#include <cassert>

using namespace sprof;

namespace {

/// One call frame of the Reference engine.
struct Frame {
  uint32_t Func;
  uint32_t Block;
  uint32_t InstIndex;
  Reg ReturnDst; ///< caller register receiving the return value
  std::vector<int64_t> Regs;
};

} // namespace

Interpreter::Interpreter(const Module &M, SimMemory Memory,
                         const TimingModel &Timing, InterpreterConfig Config)
    : M(M), Memory(std::move(Memory)), Timing(Timing), Config(Config) {
  Counters.assign(M.NumCounters, 0);
}

Interpreter::~Interpreter() = default;

void Interpreter::attachObs(ObsSession *Session) {
  // The session's self-profiler (if configured) rides along with the
  // metric sinks, so enabling ObsConfig::SelfProfile is all a driver
  // needs to do. Only the Decoded engine samples; Reference ignores it.
  SelfProf = Session ? Session->selfProfiler() : nullptr;
  Sinks = resolveSinks(Session);
}

void Interpreter::recordRun(ObsSession *Session, const RunStats &Stats,
                            uint64_t StrideTraps) const {
  ExecTally Tally = LastTally;
  Tally.StrideTraps = StrideTraps;
  flushObs(resolveSinks(Session), Stats, Tally);
}

Interpreter::ObsSinks Interpreter::resolveSinks(ObsSession *Session) {
  ObsSinks S;
  if (!Session)
    return S;
  S.Runs = Session->counter("interp.runs");
  S.Instructions = Session->counter("interp.instructions");
  S.Loads = Session->counter("interp.loads");
  S.Stores = Session->counter("interp.stores");
  S.Prefetches = Session->counter("interp.prefetches");
  S.SpecLoads = Session->counter("interp.spec_loads");
  S.Calls = Session->counter("interp.calls");
  S.Branches = Session->counter("interp.branches");
  S.PredSquashed = Session->counter("interp.predicated_off");
  S.CounterOps = Session->counter("interp.counter_ops");
  S.StrideTraps = Session->counter("interp.stride_traps");
  S.Cycles = Session->counter("interp.cycles");
  S.MemStallCycles = Session->counter("interp.mem_stall_cycles");
  S.InstrumentationCycles = Session->counter("interp.instrumentation_cycles");
  S.RuntimeCycles = Session->counter("interp.runtime_cycles");
  S.MaxStackDepth = Session->gauge("interp.max_stack_depth");
  S.RunCycles = Session->histogram("interp.run_cycles",
                                   Histogram::exponentialBounds(1024, 24));
  return S;
}

void Interpreter::flushObs(const ObsSinks &Sinks, const RunStats &Stats,
                           const ExecTally &Tally) {
  if (Sinks.Runs)
    Sinks.Runs->inc();
  if (Sinks.Instructions)
    Sinks.Instructions->inc(Stats.Instructions);
  if (Sinks.Loads)
    Sinks.Loads->inc(Stats.LoadRefs);
  if (Sinks.Stores)
    Sinks.Stores->inc(Tally.Stores);
  if (Sinks.Prefetches)
    Sinks.Prefetches->inc(Tally.Prefetches);
  if (Sinks.SpecLoads)
    Sinks.SpecLoads->inc(Tally.SpecLoads);
  if (Sinks.Calls)
    Sinks.Calls->inc(Tally.Calls);
  if (Sinks.Branches)
    Sinks.Branches->inc(Tally.Branches);
  if (Sinks.PredSquashed)
    Sinks.PredSquashed->inc(Tally.PredSquashed);
  if (Sinks.CounterOps)
    Sinks.CounterOps->inc(Tally.CounterOps);
  if (Sinks.StrideTraps)
    Sinks.StrideTraps->inc(Tally.StrideTraps);
  if (Sinks.Cycles)
    Sinks.Cycles->inc(Stats.Cycles);
  if (Sinks.MemStallCycles)
    Sinks.MemStallCycles->inc(Stats.MemStallCycles);
  if (Sinks.InstrumentationCycles)
    Sinks.InstrumentationCycles->inc(Stats.InstrumentationCycles);
  if (Sinks.RuntimeCycles)
    Sinks.RuntimeCycles->inc(Stats.RuntimeCycles);
  if (Sinks.MaxStackDepth)
    Sinks.MaxStackDepth->set(static_cast<double>(Tally.MaxDepth));
  if (Sinks.RunCycles)
    Sinks.RunCycles->record(Stats.Cycles);
}

RunStats Interpreter::run(uint64_t MaxInstructions) {
  ExecTally Tally;
  RunStats Stats;
  if (Config.Exec == InterpreterConfig::Engine::Decoded) {
    if (!Decoded) {
      Decoded = ProgramCache::global().get(M);
      DecodedExec = std::make_unique<DecodedInterpreter>(
          *Decoded, M.NumLoadSites, Timing, Memory, Counters,
          Config.StrideBatchWindow);
    }
    DecodedExec->attach(Mem, Profiler, EventSink);
    DecodedExec->attachSelfProfiler(SelfProf);
    Stats = DecodedExec->run(MaxInstructions, Tally);
  } else {
    Stats = runReference(MaxInstructions, Tally);
  }
  LastTally = Tally;
  flushObs(Sinks, Stats, Tally);
  return Stats;
}

RunStats Interpreter::runReference(uint64_t MaxInstructions,
                                   ExecTally &Tally) {
  RunStats Stats;
  Stats.SiteCounts.assign(M.NumLoadSites, 0);

  std::vector<Frame> Stack;
  {
    Frame Entry;
    Entry.Func = M.EntryFunction;
    Entry.Block = 0;
    Entry.InstIndex = 0;
    Entry.ReturnDst = NoReg;
    Entry.Regs.assign(M.Functions[M.EntryFunction].NumRegs, 0);
    Stack.push_back(std::move(Entry));
  }

  // Event-sink capture buffer (trace capture): the reference engine has
  // no stride ring, so it batches sink deliveries here. Empty and
  // untouched when no sink is attached.
  std::vector<AccessEvent> Cap;
  size_t CapN = 0;
  if (EventSink)
    Cap.resize(Config.StrideBatchWindow ? Config.StrideBatchWindow : 1);

  // Loop preamble: the closures and the frame/instruction cursors they
  // capture are materialized once; the loop only reassigns the cursors.
  uint64_t Now = 0;
  Frame *F = nullptr;
  const Instruction *I = nullptr;
  auto Charge = [&](uint64_t Cost, bool Instrumentation) {
    Now += Cost;
    if (Instrumentation)
      Stats.InstrumentationCycles += Cost;
    else
      Stats.BaseCycles += Cost;
  };
  auto Val = [&](const Operand &O) -> int64_t {
    if (O.isImm())
      return O.getImm();
    assert(O.isReg() && "evaluating empty operand");
    return F->Regs[O.getReg()];
  };

  while (!Stack.empty() && Stats.Instructions < MaxInstructions) {
    F = &Stack.back();
    const Function &Fn = M.Functions[F->Func];
    assert(F->Block < Fn.Blocks.size() && "bad block index");
    const BasicBlock &BB = Fn.Blocks[F->Block];
    assert(F->InstIndex < BB.Insts.size() && "fell off a basic block");
    I = &BB.Insts[F->InstIndex];

    ++Stats.Instructions;

    // Qualifying predicate: a false predicate squashes the instruction but
    // still consumes an issue slot.
    if (I->Pred != NoReg && F->Regs[I->Pred] == 0) {
      Charge(Timing.PredicatedOffCost, I->IsInstrumentation);
      ++Tally.PredSquashed;
      ++F->InstIndex;
      continue;
    }

    switch (I->Op) {
    case Opcode::Mov:
      F->Regs[I->Dst] = Val(I->A);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    // Add, Sub and Mul wrap in 64-bit two's complement (docs/IR.md).
    case Opcode::Add:
      F->Regs[I->Dst] = static_cast<int64_t>(static_cast<uint64_t>(Val(I->A)) +
                                             static_cast<uint64_t>(Val(I->B)));
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::Sub:
      F->Regs[I->Dst] = static_cast<int64_t>(static_cast<uint64_t>(Val(I->A)) -
                                             static_cast<uint64_t>(Val(I->B)));
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::Mul:
      F->Regs[I->Dst] = static_cast<int64_t>(static_cast<uint64_t>(Val(I->A)) *
                                             static_cast<uint64_t>(Val(I->B)));
      Charge(Timing.MulCost, I->IsInstrumentation);
      break;
    case Opcode::Shl:
      F->Regs[I->Dst] = static_cast<int64_t>(static_cast<uint64_t>(Val(I->A))
                                             << (Val(I->B) & 63));
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::Shr:
      F->Regs[I->Dst] = Val(I->A) >> (Val(I->B) & 63);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::And:
      F->Regs[I->Dst] = Val(I->A) & Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::Or:
      F->Regs[I->Dst] = Val(I->A) | Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::Xor:
      F->Regs[I->Dst] = Val(I->A) ^ Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::CmpEq:
      F->Regs[I->Dst] = Val(I->A) == Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::CmpNe:
      F->Regs[I->Dst] = Val(I->A) != Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::CmpLt:
      F->Regs[I->Dst] = Val(I->A) < Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::CmpLe:
      F->Regs[I->Dst] = Val(I->A) <= Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::CmpGt:
      F->Regs[I->Dst] = Val(I->A) > Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::CmpGe:
      F->Regs[I->Dst] = Val(I->A) >= Val(I->B);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;
    case Opcode::Select:
      F->Regs[I->Dst] = Val(I->A) != 0 ? Val(I->B) : Val(I->C);
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      break;

    case Opcode::Load: {
      uint64_t Addr = static_cast<uint64_t>(Val(I->A) + I->Imm);
      F->Regs[I->Dst] = Memory.read64(Addr);
      Charge(Timing.LoadBaseCost, I->IsInstrumentation);
      uint64_t Latency =
          Mem ? Mem->demandAccess(Addr, Now, I->SiteId)
              : Timing.FlatLoadLatency;
      // The pipeline hides an L1-hit's worth of latency; the rest stalls.
      uint64_t Hidden = Timing.FlatLoadLatency;
      uint64_t Stall = Latency > Hidden ? Latency - Hidden : 0;
      Now += Stall;
      Stats.MemStallCycles += Stall;
      if (!I->IsInstrumentation) {
        ++Stats.LoadRefs;
        if (I->SiteId != NoId)
          ++Stats.SiteCounts[I->SiteId];
      }
      break;
    }
    case Opcode::Store: {
      uint64_t Addr = static_cast<uint64_t>(Val(I->A) + I->Imm);
      Memory.write64(Addr, Val(I->B));
      Charge(Timing.StoreCost, I->IsInstrumentation);
      ++Tally.Stores;
      break;
    }
    case Opcode::Prefetch: {
      uint64_t Addr = static_cast<uint64_t>(Val(I->A) + I->Imm);
      if (Mem)
        Mem->prefetch(Addr, Now, I->SiteId);
      Charge(Timing.PrefetchCost, I->IsInstrumentation);
      ++Tally.Prefetches;
      break;
    }
    case Opcode::SpecLoad: {
      // Speculative, non-blocking load (Itanium ld.s): returns the value
      // for address computation but never stalls the pipeline; it touches
      // the cache like a prefetch.
      uint64_t Addr = static_cast<uint64_t>(Val(I->A) + I->Imm);
      F->Regs[I->Dst] = Memory.read64(Addr);
      if (Mem)
        Mem->prefetch(Addr, Now, I->SiteId);
      Charge(Timing.LoadBaseCost, I->IsInstrumentation);
      ++Tally.SpecLoads;
      break;
    }

    case Opcode::Jmp:
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      ++Tally.Branches;
      F->Block = I->Target0;
      F->InstIndex = 0;
      continue;
    case Opcode::Br:
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      ++Tally.Branches;
      F->Block = Val(I->A) != 0 ? I->Target0 : I->Target1;
      F->InstIndex = 0;
      continue;

    case Opcode::Call: {
      Charge(Timing.CallCost, I->IsInstrumentation);
      Frame Callee;
      Callee.Func = I->Callee;
      Callee.Block = 0;
      Callee.InstIndex = 0;
      Callee.ReturnDst = I->Dst;
      Callee.Regs.assign(M.Functions[I->Callee].NumRegs, 0);
      for (unsigned A = 0; A != I->NumArgs; ++A)
        Callee.Regs[A] = Val(I->Args[A]);
      ++F->InstIndex; // resume past the call on return
      Stack.push_back(std::move(Callee));
      ++Tally.Calls;
      if (Stack.size() > Tally.MaxDepth)
        Tally.MaxDepth = Stack.size();
      continue;
    }
    case Opcode::Ret: {
      Charge(Timing.RetCost, I->IsInstrumentation);
      int64_t RV = I->A.isNone() ? 0 : Val(I->A);
      Reg Dst = F->ReturnDst;
      Stack.pop_back();
      if (Stack.empty()) {
        Stats.ExitValue = RV;
        Stats.Completed = true;
        break;
      }
      if (Dst != NoReg)
        Stack.back().Regs[Dst] = RV;
      continue;
    }
    case Opcode::Halt:
      Charge(Timing.DefaultCost, I->IsInstrumentation);
      Stats.Completed = true;
      Stack.clear();
      continue;

    case Opcode::ProfCounterInc:
      ++Counters[I->Imm];
      Charge(Timing.CounterIncCost, true);
      ++Tally.CounterOps;
      break;
    case Opcode::ProfCounterRead:
      F->Regs[I->Dst] = static_cast<int64_t>(Counters[I->Imm]);
      Charge(Timing.CounterReadCost, true);
      ++Tally.CounterOps;
      break;
    case Opcode::ProfCounterAddTo:
      F->Regs[I->Dst] = Val(I->A) + static_cast<int64_t>(Counters[I->Imm]);
      Charge(Timing.CounterAddToCost, true);
      ++Tally.CounterOps;
      break;
    case Opcode::ProfStride: {
      uint64_t Addr = static_cast<uint64_t>(Val(I->A) + I->Imm);
      uint64_t Cost = 0;
      if (Profiler)
        Cost = Profiler->profile(I->SiteId, Addr, Stats.LoadRefs + 1);
      if (EventSink) {
        Cap[CapN++] = AccessEvent{Addr, Stats.LoadRefs + 1, I->SiteId,
                                  AccessKind::Load};
        if (CapN == Cap.size()) {
          EventSink->onBatch(Cap.data(), CapN);
          CapN = 0;
        }
      }
      Now += Cost;
      Stats.RuntimeCycles += Cost;
      ++Tally.StrideTraps;
      break;
    }
    }

    if (Stack.empty())
      break;
    ++F->InstIndex;
  }

  if (EventSink && CapN != 0)
    EventSink->onBatch(Cap.data(), CapN);

  Stats.Cycles = Now;
  if (Mem)
    Stats.Mem = Mem->stats();
  return Stats;
}

RunStats &RunStats::operator+=(const RunStats &Other) {
  Completed = Completed && Other.Completed;
  Instructions += Other.Instructions;
  Cycles += Other.Cycles;
  BaseCycles += Other.BaseCycles;
  MemStallCycles += Other.MemStallCycles;
  InstrumentationCycles += Other.InstrumentationCycles;
  RuntimeCycles += Other.RuntimeCycles;
  LoadRefs += Other.LoadRefs;
  if (SiteCounts.size() < Other.SiteCounts.size())
    SiteCounts.resize(Other.SiteCounts.size(), 0);
  for (size_t I = 0; I != Other.SiteCounts.size(); ++I)
    SiteCounts[I] += Other.SiteCounts[I];
  Mem += Other.Mem;
  ExitValue = Other.ExitValue;
  return *this;
}
