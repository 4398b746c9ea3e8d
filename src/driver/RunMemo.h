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
/// so results and telemetry equal those of a memo-free run.
///
/// No request ever waits. One for a key that is still executing throws
/// JobPending (driver/JobGraph.h): its job parks, the worker runs other
/// ready jobs, and the executing request wakes the job once it has
/// published a value or an exception. The job re-runs from the start and
/// its request finds the finished entry. So the number of executions
/// equals the number of distinct keys, and the counts (taken over the
/// requests of job attempts that did not park) are the same at any thread
/// count.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_RUNMEMO_H
#define SPROF_DRIVER_RUNMEMO_H

#include "driver/JobGraph.h"
#include "interp/Interpreter.h"
#include "memsys/Cache.h"
#include "obs/Metrics.h"
#include "workloads/Workload.h"

#include <exception>
#include <functional>
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
    uint64_t Hits = 0;   ///< requests that replayed a finished run
    uint64_t Misses = 0; ///< executions, one per distinct key
    /// Simulated instructions the hits did not execute.
    uint64_t SavedInstructions = 0;
  };

  /// Returns the run for \p K, calling \p Execute on the first request for
  /// it; later requests get the same result. A request made while
  /// \p Execute is still running on another worker throws JobPending, so
  /// call this from a JobGraph job. An exception from \p Execute
  /// propagates to every request for the key.
  std::shared_ptr<const MemoizedRun>
  run(const RunMemoKey &K, const std::function<MemoizedRun()> &Execute);

  Counts counts() const;

  /// Drops every entry. Callers must have drained every request first.
  void clear();

private:
  struct Entry {
    RunMemoKey Key;
    bool Done = false; ///< Value or Error is published
    std::shared_ptr<const MemoizedRun> Value;
    std::exception_ptr Error;
    /// Wake callbacks of the jobs parked on this entry.
    std::vector<JobPending::WakeFn> Waiters;
    /// Requests from job attempts that did not park; a parked attempt
    /// withdraws its own, as its re-run makes them again.
    uint64_t Requests = 0;
  };

  void subscribe(size_t Index, JobPending::WakeFn Wake);
  void publish(size_t Index, std::shared_ptr<const MemoizedRun> Value,
               std::exception_ptr Error);

  mutable std::mutex Mu;
  /// Addressed by index, which stays valid until clear().
  std::vector<Entry> Entries;
};

} // namespace sprof

#endif // SPROF_DRIVER_RUNMEMO_H
