//===- driver/JobGraph.h - Dependency-aware job scheduler -------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small DAG scheduler: jobs are closures with explicit dependencies,
/// executed by a fixed-size thread pool. The experiment engine builds one
/// graph per sweep — independent profile runs fan out across workers,
/// feedback runs wait on the profile they consume.
///
/// Scheduling affects only wall-clock time, never results: every job must
/// be self-contained (jobs here share no mutable state; each engine job
/// rebuilds its own Program and owns its RNG seed), so an N-thread run is
/// bit-identical to the serial one. With Threads == 1 the graph executes
/// inline on the calling thread in deterministic topological (insertion)
/// order; with more threads, ready jobs are handed to workers in the same
/// order, and only completion order varies.
///
/// A job that throws fails alone: the exception is captured per job
/// (std::exception_ptr), its transitive dependents are skipped, and every
/// other job still runs. The caller inspects the outcome vector.
///
/// Park and wake: a job that cannot go on until another job publishes
/// something (the run memo's in-flight timed run, driver/RunMemo.h) throws
/// JobPending instead of blocking its worker. The attempt is abandoned:
/// the worker takes the next ready job, and the parked job is neither
/// queued nor finished, so its dependents stay blocked. When the awaited
/// event happens the job goes back to the tail of the ready queue and
/// re-runs from the start. Actions registered with onPark() during the
/// abandoned attempt run first, so side effects that must count once per
/// job can be withdrawn. A JobOutcome covers all attempts: StartUs is the
/// first attempt's start and DurationUs sums the time each attempt held a
/// worker, so parked time is neither run time nor queue wait.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_JOBGRAPH_H
#define SPROF_DRIVER_JOBGRAPH_H

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

namespace sprof {

/// Index of a job within its graph; add() hands them out densely from 0.
using JobId = size_t;

/// What happened to one job. Timestamps are microseconds on a steady
/// clock anchored at JobGraph::run() entry, so callers can shift them
/// onto any other clock.
struct JobOutcome {
  bool Ran = false; ///< false when skipped (failed dependency)
  bool Ok = false;
  std::string Error;            ///< failure or skip reason when !Ok
  std::exception_ptr Exception; ///< set when the job itself threw
  /// When the job became runnable (all dependencies finished) and entered
  /// the ready queue; 0 for root jobs, which are ready at run() entry.
  /// StartUs - ReadyUs is the time the job spent waiting for a worker, so
  /// queue wait and run time are separable in sweep traces.
  uint64_t ReadyUs = 0;
  uint64_t StartUs = 0;    ///< start of the first attempt
  uint64_t DurationUs = 0; ///< worker time summed over every attempt
  uint32_t Worker = 0;     ///< worker lane that ran the last attempt
};

/// Scheduler-side accounting of one JobGraph::run(). Pure observability:
/// none of these values feed back into scheduling decisions.
struct JobSchedStats {
  /// Most jobs simultaneously sitting in the ready queue (runnable but
  /// not yet picked up by a worker). A high-water mark near the job count
  /// means the pool was the bottleneck; near the thread count means
  /// dependencies were.
  uint64_t QueueDepthHighWater = 0;
  /// Times a worker woke from the ready condition and found no job to
  /// take (the retry path of the dequeue loop: spurious wakeups plus
  /// notify_all races lost to a faster worker). Always 0 serial.
  uint64_t DequeueRetries = 0;
  /// Attempts that threw JobPending and were requeued on wake. Depends on
  /// the schedule; 0 when no two jobs overlap (Threads == 1).
  uint64_t Parks = 0;
};

/// Thrown by a job that cannot go on until an event elsewhere happens. Not
/// a std::exception: it parks the job, it does not fail it (see the file
/// comment).
struct JobPending {
  using WakeFn = std::function<void()>;
  /// Called once by the scheduler, off its lock, with the job's wake
  /// callback. Must see that Wake runs exactly once: at once when the
  /// event has already happened, else on whatever thread makes it happen.
  std::function<void(WakeFn Wake)> Subscribe;
};

/// A DAG of jobs. Build with add() (dependencies must already be in the
/// graph, so insertion order is a topological order by construction), then
/// execute with run(). The graph is single-use: run() may be called once.
class JobGraph {
public:
  /// The work closure; \p Worker is the executing worker's index
  /// (0..Threads-1), stable for the duration of one attempt (a re-run
  /// after a park may land on another worker).
  using WorkFn = std::function<void(uint32_t Worker)>;

  /// Adds a job depending on \p Deps (each must be a previously returned
  /// id). Returns the new job's id.
  JobId add(std::string Name, std::string Category, WorkFn Work,
            std::vector<JobId> Deps = {});

  size_t size() const { return Nodes.size(); }
  const std::string &name(JobId Id) const { return Nodes[Id].Name; }
  const std::string &category(JobId Id) const { return Nodes[Id].Category; }
  const std::vector<JobId> &deps(JobId Id) const { return Nodes[Id].Deps; }

  /// Executes every job on \p Threads workers (clamped to at least 1) and
  /// returns one outcome per job, indexed by JobId. Does not throw on job
  /// failure; see JobOutcome.
  std::vector<JobOutcome> run(unsigned Threads);

  /// Scheduler accounting of the most recent run().
  const JobSchedStats &schedStats() const { return Sched; }

  /// Registers \p Undo to run if the calling job's current attempt parks,
  /// before the job is requeued; dropped when the attempt ends any other
  /// way. Actions run newest first. A no-op outside a JobGraph job.
  static void onPark(std::function<void()> Undo);

private:
  struct Node {
    std::string Name;
    std::string Category;
    WorkFn Work;
    std::vector<JobId> Deps;
    std::vector<JobId> Dependents; ///< reverse edges, built in add()
  };

  std::vector<Node> Nodes;
  JobSchedStats Sched;
  bool Executed = false;
};

} // namespace sprof

#endif // SPROF_DRIVER_JOBGRAPH_H
