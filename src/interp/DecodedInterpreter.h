//===- interp/DecodedInterpreter.h - Fast pre-decoded engine ----*- C++ -*-===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Decoded execution core: runs a DecodedProgram on a dense-dispatch
/// loop (computed goto on GCC/Clang, a switch elsewhere) over a reusable
/// frame/register pool, so a Call costs a bounds check and a fill instead
/// of a heap allocation. By contract it reproduces the Reference engine's
/// accounting bit for bit: same RunStats, same SiteCounts, same profiler
/// trap sequence, same telemetry tallies. Anything observable that
/// diverges is a bug (tests/test_decoded.cpp is the differential gate).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_INTERP_DECODEDINTERPRETER_H
#define SPROF_INTERP_DECODEDINTERPRETER_H

#include "interp/DecodedProgram.h"
#include "interp/Interpreter.h"

#include <cstdint>
#include <vector>

namespace sprof {

class EngineSelfProfiler;

/// Executes a DecodedProgram. Owned by an Interpreter, which supplies the
/// memory image, counters, and per-run attachments; the pool vectors
/// persist across run() calls so repeated runs reuse their capacity.
class DecodedInterpreter {
public:
  DecodedInterpreter(const DecodedProgram &DP, uint32_t NumLoadSites,
                     const TimingModel &Timing, SimMemory &Memory,
                     std::vector<uint64_t> &Counters,
                     uint32_t StrideBatchWindow = 256)
      : DP(DP), NumLoadSites(NumLoadSites), Timing(Timing), Memory(Memory),
        Counters(Counters),
        StrideBatchWindow(StrideBatchWindow ? StrideBatchWindow : 1) {}

  /// Per-run attachments (may change between runs of one Interpreter).
  /// \p EventSink, when non-null, receives the ProfStride trap stream in
  /// ring-sized batches (see Interpreter::attachEventSink).
  void attach(MemoryHierarchy *MH, StrideProfiler *SP,
              AccessSink *EventSink = nullptr) {
    Mem = MH;
    Profiler = SP;
    Sink = EventSink;
  }

  /// Attaches (or detaches, with nullptr) the window-sampled self-profiler
  /// that attributes the engine's own host cycles per dispatch op. Purely
  /// host-side: simulated accounting is bit-identical with or without it.
  void attachSelfProfiler(EngineSelfProfiler *SP) { SelfProf = SP; }

  RunStats run(uint64_t MaxInstructions, ExecTally &Tally);

private:
  /// The dispatch loop, specialized on whether a cache hierarchy is
  /// attached -- the HasMem=false instance folds the latency branch and the
  /// (always-zero) stall arithmetic out of every Load/Prefetch/SpecLoad.
  template <bool HasMem>
  RunStats runImpl(uint64_t MaxInstructions, ExecTally &Tally);

  /// One pooled call frame: where to resume in the caller and which slice
  /// of RegStack holds this frame's registers.
  struct DFrame {
    uint32_t ReturnPC = 0;
    uint32_t ReturnDst = NoReg;
    uint32_t RegBase = 0;
    uint32_t RegLimit = 0; ///< RegBase + callee NumSlots; next frame's base
  };

  const DecodedProgram &DP;
  uint32_t NumLoadSites;
  TimingModel Timing;
  SimMemory &Memory;
  std::vector<uint64_t> &Counters;
  MemoryHierarchy *Mem = nullptr;
  StrideProfiler *Profiler = nullptr;
  AccessSink *Sink = nullptr;
  EngineSelfProfiler *SelfProf = nullptr;
  /// See InterpreterConfig::StrideBatchWindow (normalized to >= 1).
  uint32_t StrideBatchWindow;

  // Frame/register pool: grows to the run's high-water mark once, then
  // every Call reuses the storage.
  std::vector<DFrame> Frames;
  std::vector<int64_t> RegStack;
  /// Stride-event ring for the batched profiling path (runImpl<false>)
  /// and for event-sink capture (both specializations); capacity retained
  /// across runs like the pools above.
  std::vector<StrideEvent> StrideRing;
};

} // namespace sprof

#endif // SPROF_INTERP_DECODEDINTERPRETER_H
