//===- driver/RunMemo.h - Content-addressed timed-run memo ------*- C++ -*-===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coalesces identical timed runs inside one experiment-engine wave. Most
/// profiling methods reach the same prefetch decisions on a workload
/// (Figure 16), so one figure's prefetched modules, and the ref-input
/// memsys runs that time them, repeat. The memo keys a run by everything
/// it reads:
///
///   * the workload, data set and seed offset, which fix the initial memory
///     image (Workload::build is a pure function of its request);
///   * the content fingerprint of the module after feedback and prefetch
///     insertion (ProgramCache::hashModule);
///   * the timing model, memory configuration (with the run's attribution
///     switch) and interpreter configuration.
///
/// The value is the run's RunStats, its AttributionData and its interp.*
/// metric delta; every caller folds the delta into its own telemetry scope,
/// so results and telemetry equal those of a memo-free run. A request for
/// a key that is still executing waits on the first request's shared
/// future, so the number of executions equals the number of distinct keys
/// whatever the thread count.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_RUNMEMO_H
#define SPROF_DRIVER_RUNMEMO_H

#include "interp/Interpreter.h"
#include "memsys/Cache.h"
#include "obs/Metrics.h"
#include "workloads/Workload.h"

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace sprof {

/// Everything a timed run reads.
struct RunMemoKey {
  const Workload *W = nullptr;
  DataSet DS = DataSet::Train;
  uint64_t SeedOffset = 0;
  std::pair<uint64_t, uint64_t> ModuleHash;
  TimingModel Timing;
  /// EnableAttribution holds whether this run attributes, not what the
  /// pipeline configuration asked for (baseline runs never attribute).
  MemoryConfig Memory;
  InterpreterConfig Interp;

  bool operator==(const RunMemoKey &) const = default;
};

/// What a timed run produces, replayed to every request for its key.
struct MemoizedRun {
  RunStats Stats;
  AttributionData Attribution;
  /// The interp.* counters, gauge and histogram the run reported.
  MetricsRegistry Metrics;
};

class RunMemo {
public:
  struct Counts {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    /// Simulated instructions the hits did not execute.
    uint64_t SavedInstructions = 0;
  };

  /// Returns the run for \p K, calling \p Execute on the first request for
  /// it. Later requests, including ones made while \p Execute is still
  /// running on another thread, get the same result. An exception from
  /// \p Execute propagates to every request for the key.
  std::shared_ptr<const MemoizedRun>
  run(const RunMemoKey &K, const std::function<MemoizedRun()> &Execute);

  Counts counts() const;

  /// Drops every entry and zeroes the counts. Callers must have drained
  /// every request first.
  void clear();

private:
  using Future = std::shared_future<std::shared_ptr<const MemoizedRun>>;
  struct Entry {
    RunMemoKey Key;
    Future Result;
  };

  mutable std::mutex Mu;
  std::vector<Entry> Entries;
  Counts Stats;
};

} // namespace sprof

#endif // SPROF_DRIVER_RUNMEMO_H
