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
/// No request for a run waits. One for a key that is still executing throws
/// JobPending (driver/JobGraph.h): its job parks, the worker runs other
/// ready jobs, and the executing request wakes the job once it has
/// published a value or an exception. The job re-runs from the start and
/// its request finds the finished entry. So the number of executions
/// equals the number of distinct keys, and the hit and miss counts (taken
/// over the requests of job attempts that did not park) are the same at
/// any thread count.
///
/// The memo also holds each (workload, data set, seed offset)'s
/// un-transformed module, built once per wave by its first request (the
/// module cache). A timed run copies it, transforms the copy and hashes
/// it for its key, and takes its memory image only inside the execute
/// callback; a profile run copies it to instrument it. A request for a
/// module still being built parks like a request for a run in flight.
///
/// Every executing run reads its image as a copy-on-write overlay
/// (SimMemory) on one immutable base per request. The memo holds the base
/// its module's build left until the first executing run takes it, and
/// from then on only weakly: runs that overlap share that base, the last
/// one to end frees it, and a later run builds it again. So a hit builds
/// nothing, and a wave holds one copy of an image per set of overlapping
/// runs, never every image it touched.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_RUNMEMO_H
#define SPROF_DRIVER_RUNMEMO_H

#include "driver/JobGraph.h"
#include "interp/Interpreter.h"
#include "memsys/Cache.h"
#include "obs/Metrics.h"
#include "workloads/Workload.h"

#include <atomic>
#include <deque>
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
    /// Workload builds: one per module, plus one per image() call that
    /// found no base alive. Unlike the counts above, this depends on how
    /// runs overlap, and so on the thread count.
    uint64_t ImageBuilds = 0;
    /// image() calls served by a base that an overlapping run still held.
    uint64_t ImageShares = 0;
  };

  /// Returns the run for \p K, calling \p Execute on the first request for
  /// it; later requests get the same result. A request made while
  /// \p Execute is still running on another worker throws JobPending, so
  /// call this from a JobGraph job. An exception from \p Execute
  /// propagates to every request for the key.
  std::shared_ptr<const MemoizedRun>
  run(const RunMemoKey &K, const std::function<MemoizedRun()> &Execute);

  Counts counts() const;

  /// The module \p W builds for \p Req, before any transformation: built
  /// by the first request since clear(), which keeps the build's image for
  /// image(), and shared by every later one. A request made while another
  /// builds it throws JobPending, as run() does; a failed build's exception
  /// propagates to every request.
  std::shared_ptr<const Module> module(const Workload &W,
                                       const BuildRequest &Req);

  /// The initial memory image of \p W built for \p Req, as the base of an
  /// executing run's overlay: the one the module's build left, for the
  /// first call after it; else the one an earlier caller still holds; else
  /// a fresh build, which the memo then holds weakly too. A call made while
  /// another builds the image waits for that build rather than making a
  /// second copy. Call it only for a run that executes, after module();
  /// without a published module it builds an image nobody shares.
  std::shared_ptr<const MemoryImage> image(const Workload &W,
                                           const BuildRequest &Req);

  /// Drops every entry and module. Callers must have drained every request
  /// first.
  void clear();

private:
  /// What parking and publishing need of an entry of either table.
  template <class T> struct Slot {
    bool Done = false; ///< Value or Error is published
    std::shared_ptr<const T> Value;
    std::exception_ptr Error;
    /// Wake callbacks of the jobs parked on this entry.
    std::vector<JobPending::WakeFn> Waiters;
  };
  struct Entry : Slot<MemoizedRun> {
    RunMemoKey Key;
    /// Requests from job attempts that did not park; a parked attempt
    /// withdraws its own, as its re-run makes them again.
    uint64_t Requests = 0;
  };
  struct ModuleEntry : Slot<Module> {
    const Workload *W = nullptr;
    DataSet DS = DataSet::Train;
    uint64_t SeedOffset = 0;
    /// Guards Held and Live; image() holds it while it builds.
    std::mutex ImageMu;
    /// The image of the module's build, until image() takes it.
    std::shared_ptr<const MemoryImage> Held;
    /// The image the executing runs share, expired once none holds it.
    std::weak_ptr<const MemoryImage> Live;
  };

  /// The entry for (\p W, \p Req), or nullptr. Call with Mu held.
  ModuleEntry *findModule(const Workload &W, const BuildRequest &Req);

  /// Calls \p Make for \p S, which this request created, and publishes its
  /// value or exception.
  template <class T, class MakeFn> void fill(Slot<T> &S, MakeFn &&Make);
  /// The JobPending that parks a request until \p S is published.
  template <class T> JobPending parkOn(Slot<T> &S);

  mutable std::mutex Mu;
  /// Deques, so entries stay put until clear().
  std::deque<Entry> Entries;
  std::deque<ModuleEntry> Modules;
  std::atomic<uint64_t> ImageBuilds{0}, ImageShares{0};
};

} // namespace sprof

#endif // SPROF_DRIVER_RUNMEMO_H
