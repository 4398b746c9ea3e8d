//===- interp/DecodedClocks.cpp - The K-clock dispatch loop ---------------===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
//
// DecodedInterpreter::runClocks and its MemoryHierarchy::MaxClocks-clock
// dispatch loop, in a translation unit of its own (see DecodedDispatch.h).
//
//===----------------------------------------------------------------------===//

#include "interp/DecodedDispatch.h"

using namespace sprof;

std::vector<RunStats>
DecodedInterpreter::runClocks(std::span<StrideProfiler *const> Profilers,
                              uint64_t MaxInstructions, ExecTally &Tally) {
  assert(Profilers.size() == MemoryHierarchy::MaxClocks && Mem &&
         Mem->clocks() == Profilers.size() &&
         "runClocks needs one profiler per clock of the attached hierarchy");
  if (SelfProf) {
    SelfProf->configureSlots(NumDispatchOps, dispatchOpNames());
    SelfProf->beginWindow();
  }
  ClockProfilers = Profilers;
  const RunStats Shared =
      runImpl<true, MemoryHierarchy::MaxClocks>(MaxInstructions, Tally);
  ClockProfilers = {};
  std::vector<RunStats> PerClock(Profilers.size(), Shared);
  for (size_t K = 0; K != PerClock.size(); ++K) {
    RunStats &S = PerClock[K];
    S.MemStallCycles = ClockMemStall[K];
    S.RuntimeCycles = ClockRuntime[K];
    S.Cycles = S.BaseCycles + S.InstrumentationCycles + S.MemStallCycles +
               S.RuntimeCycles;
    S.Mem = Mem->clockStats(static_cast<unsigned>(K));
  }
  return PerClock;
}
