//===- interp/Interpreter.h - IR interpreter with cycle timing -*- C++ -*-===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Module against a SimMemory image and charges cycles through a
/// simple in-order timing model backed by the MemoryHierarchy. Cycle costs
/// are split into buckets (base work, memory stalls, instrumentation
/// instructions, profiling-runtime work) so the benches can reproduce the
/// paper's speedup (Figure 16) and profiling-overhead (Figure 20) ratios.
///
/// Two execution engines back run(), selectable via
/// InterpreterConfig::Engine and cycle-accounting-identical by contract
/// (enforced by tests/test_decoded.cpp):
///
///   * Reference walks the Module structures directly -- the simple,
///     obviously-correct loop;
///   * Decoded (the default) runs a pre-decoded flat instruction stream
///     (DecodedProgram) on a threaded-dispatch core with a reusable
///     frame/register pool (DecodedInterpreter); same simulated cycles,
///     several times faster in wall-clock (docs/PERFORMANCE.md).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_INTERP_INTERPRETER_H
#define SPROF_INTERP_INTERPRETER_H

#include "interp/SimMemory.h"
#include "ir/Module.h"
#include "memsys/Cache.h"
#include "profile/StrideProfiler.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace sprof {

class ObsSession;
class Counter;
class Gauge;
class Histogram;
class EngineSelfProfiler;
class DecodedInterpreter;
class DecodedProgram;

/// Per-opcode-class cycle costs of the in-order pipeline.
struct TimingModel {
  uint32_t DefaultCost = 1;     ///< ALU, moves, compares, branches
  uint32_t MulCost = 3;         ///< integer multiply
  uint32_t LoadBaseCost = 1;    ///< issue slot of a load (stall is extra)
  uint32_t StoreCost = 1;       ///< stores retire through a write buffer
  uint32_t PrefetchCost = 1;    ///< issue slot of a prefetch
  uint32_t CallCost = 2;        ///< call + frame setup
  uint32_t RetCost = 1;
  uint32_t CounterIncCost = 3;  ///< load+increment+store (Figure 14)
  uint32_t CounterReadCost = 1;
  uint32_t CounterAddToCost = 2;
  uint32_t PredicatedOffCost = 1; ///< predicated-off slots still issue
  /// Latency assumed for loads when no MemoryHierarchy is attached.
  uint32_t FlatLoadLatency = 2;

  bool operator==(const TimingModel &) const = default;
};

/// Engine selection and future execution-core knobs.
struct InterpreterConfig {
  /// Which execution core run() uses. Both produce bit-identical RunStats,
  /// profiles, and telemetry; Reference exists as the differential-testing
  /// baseline and for debugging the Decoded core.
  enum class Engine { Reference, Decoded };

  Engine Exec = Engine::Decoded;

  /// Capacity of the Decoded engine's stride-event ring: ProfStride traps
  /// queue (site, address, global-ref-index) records and drain them in
  /// blocks through StrideProfiler::profileBatch instead of calling into
  /// the runtime per event. Bit-identical to per-event profiling for any
  /// window (tests force tiny windows so drains straddle chunk-phase
  /// flips). Used only when no MemoryHierarchy is attached: with a cache
  /// attached, each trap's simulated cost must land in the running cycle
  /// count *before* the next access is timed, so the engine stays on the
  /// per-event path. Profile runs with the cache model on mostly take the
  /// ring too, since Pipeline::runProfiles executes them without a
  /// hierarchy and adds the un-instrumented run's stalls. 0 behaves as 1.
  uint32_t StrideBatchWindow = 256;

  bool operator==(const InterpreterConfig &) const = default;
};

/// Outcome and accounting of one program run.
struct RunStats {
  bool Completed = false; ///< reached Halt / entry return
  uint64_t Instructions = 0; ///< executed instructions (all kinds)

  // Cycle buckets; Cycles = Base + MemStall + Instrumentation + Runtime.
  uint64_t Cycles = 0;
  uint64_t BaseCycles = 0;
  uint64_t MemStallCycles = 0;
  uint64_t InstrumentationCycles = 0;
  uint64_t RuntimeCycles = 0;

  /// Dynamic, non-instrumentation load references.
  uint64_t LoadRefs = 0;
  /// Per load-site dynamic execution counts (index = SiteId).
  std::vector<uint64_t> SiteCounts;

  /// Snapshot of the memory-system statistics at end of run.
  MemoryStats Mem;

  /// Return value of the entry function (0 when it Halts).
  int64_t ExitValue = 0;

  /// Accumulates another run into this one for multi-dataset / multi-run
  /// aggregation (suite totals, bench reports). Counts and cycle buckets
  /// sum; SiteCounts widens to the larger vector and sums element-wise;
  /// Completed ANDs; ExitValue keeps the last accumulated run's value.
  RunStats &operator+=(const RunStats &Other);
};

/// Opcode-mix tallies both execution engines maintain during a run and
/// flush into the telemetry session at run exit. Plain register increments
/// on the hot path, whether or not telemetry is attached.
struct ExecTally {
  uint64_t Stores = 0, Prefetches = 0, SpecLoads = 0, Calls = 0;
  uint64_t Branches = 0, PredSquashed = 0, CounterOps = 0;
  uint64_t StrideTraps = 0, MaxDepth = 0;
};

/// Interprets one module over one memory image. Attach a MemoryHierarchy
/// for realistic load timing and a StrideProfiler when running an
/// instrumented module (ProfStride traps into it).
class Interpreter {
public:
  Interpreter(const Module &M, SimMemory Memory,
              const TimingModel &Timing = TimingModel(),
              InterpreterConfig Config = InterpreterConfig());
  ~Interpreter();

  void attachMemory(MemoryHierarchy *MH) { Mem = MH; }
  void attachProfiler(StrideProfiler *SP) { Profiler = SP; }
  /// Mirrors the run's ProfStride trap stream -- the exact event sequence
  /// a StrideProfiler would observe, whether or not one is attached --
  /// into \p Sink in ring-sized batches (trace capture).
  /// nullptr detaches. The sink is not finish()ed here: one sink may span
  /// several runs, so the owner finishes it. With no sink attached (the
  /// default) the engines' hot paths are unchanged.
  void attachEventSink(AccessSink *Sink) { EventSink = Sink; }
  /// Telemetry: resolves the interp.* metric sinks once (like
  /// StrideProfiler::attachObs); run() bumps the cached pointers at exit.
  /// nullptr detaches. The interpreter loop itself only maintains local
  /// tallies, so the hot path is unchanged either way.
  void attachObs(ObsSession *Session);

  /// Adds the last run()'s interp.* telemetry to \p Session as if that
  /// run had returned \p Stats and trapped \p StrideTraps times (nullptr
  /// records nothing). One execution serving several profilers
  /// (Pipeline::runProfiles) reports each method's cycle accounting and
  /// strideProf calls this way; the other opcode tallies are the run's.
  void recordRun(ObsSession *Session, const RunStats &Stats,
                 uint64_t StrideTraps) const;

  /// Runs the entry function to completion (or until \p MaxInstructions).
  RunStats run(uint64_t MaxInstructions = 4ull << 30);

  /// Profiling counters (edge/block frequencies) after the run.
  const std::vector<uint64_t> &counters() const { return Counters; }

  /// The memory the run read and wrote.
  const SimMemory &memory() const { return Memory; }

  const InterpreterConfig &config() const { return Config; }

private:
  /// Cached telemetry sinks, resolved at attachObs; all null when
  /// detached (or when the session collects no metrics).
  struct ObsSinks {
    Counter *Runs = nullptr, *Instructions = nullptr, *Loads = nullptr,
            *Stores = nullptr, *Prefetches = nullptr, *SpecLoads = nullptr,
            *Calls = nullptr, *Branches = nullptr, *PredSquashed = nullptr,
            *CounterOps = nullptr, *StrideTraps = nullptr, *Cycles = nullptr,
            *MemStallCycles = nullptr, *InstrumentationCycles = nullptr,
            *RuntimeCycles = nullptr;
    Gauge *MaxStackDepth = nullptr;
    Histogram *RunCycles = nullptr;
  };

  /// The structure-walking baseline engine.
  RunStats runReference(uint64_t MaxInstructions, ExecTally &Tally);

  static ObsSinks resolveSinks(ObsSession *Session);
  static void flushObs(const ObsSinks &Sinks, const RunStats &Stats,
                       const ExecTally &Tally);

  const Module &M;
  SimMemory Memory;
  TimingModel Timing;
  InterpreterConfig Config;
  MemoryHierarchy *Mem = nullptr;
  StrideProfiler *Profiler = nullptr;
  AccessSink *EventSink = nullptr;
  /// Resolved from the session at attachObs; forwarded to the Decoded
  /// engine each run (Reference runs ignore it).
  EngineSelfProfiler *SelfProf = nullptr;
  ObsSinks Sinks;
  /// The last run()'s opcode tallies, for recordRun.
  ExecTally LastTally;
  std::vector<uint64_t> Counters;

  /// Lazily-built decoded form and its execution core (Engine::Decoded);
  /// reused across run() calls so repeated runs pay one decode. Shared
  /// (immutable) through the process-wide content-keyed ProgramCache, so
  /// structurally identical modules -- Pipeline::speedup repetitions,
  /// baseline/prefetched pairs, parallel ExperimentEngine jobs -- decode
  /// once.
  std::shared_ptr<const DecodedProgram> Decoded;
  std::unique_ptr<DecodedInterpreter> DecodedExec;
};

} // namespace sprof

#endif // SPROF_INTERP_INTERPRETER_H
