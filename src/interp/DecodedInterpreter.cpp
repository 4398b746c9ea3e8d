//===- interp/DecodedInterpreter.cpp - Fast pre-decoded engine -------------===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
//
// The one-clock dispatch loops; the loop itself is in DecodedDispatch.h.
//
//===----------------------------------------------------------------------===//

#include "interp/DecodedDispatch.h"

using namespace sprof;

RunStats DecodedInterpreter::run(uint64_t MaxInstructions, ExecTally &Tally) {
  if (SelfProf) {
    SelfProf->configureSlots(NumDispatchOps, dispatchOpNames());
    SelfProf->beginWindow();
  }
  if (Mem)
    return runImpl<true>(MaxInstructions, Tally);
  return runImpl<false>(MaxInstructions, Tally);
}
