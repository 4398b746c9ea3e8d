//===- driver/Engine.h - Parallel experiment engine -------------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExperimentEngine runs experiment jobs — pipeline runs over a
/// workload × method × input × seed grid — on a JobGraph thread pool with
/// per-job isolation:
///
///   * every job that executes a program constructs its own Pipeline
///     (and therefore rebuilds its own Program) and owns its RNG seed via
///     PipelineConfig's WorkloadSeedOffset; jobs hand results on only
///     along dependency edges, so an N-thread sweep is bit-identical to
///     the serial one;
///   * every job runs against a private ObsSession (when session telemetry
///     is on); after the graph drains, job scopes fold into the session
///     registry/trace in deterministic JobId order, one span per job lands
///     on the worker's trace lane, and the run report gains a "jobs"
///     array;
///   * jobs whose pipelines are given runMemo() coalesce identical timed
///     runs within one wave (driver/RunMemo.h); the memo is cleared when
///     the wave drains.
///
/// Two levels of API: addJob()/run() schedules arbitrary closures with
/// dependencies (the suite helpers in Experiments.h use this, and build
/// every baseline → profile → feedback graph), and runSweep() expands a
/// declarative SweepSpec into one profile RunJob per cell (instrument →
/// interpret → profile). Without a cache model, cells whose methods share
/// a base method share one execution (profile fan-out, see runSweep).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_ENGINE_H
#define SPROF_DRIVER_ENGINE_H

#include "driver/JobGraph.h"
#include "driver/Pipeline.h"
#include "driver/RunMemo.h"
#include "obs/SweepReport.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace sprof {

class FlightRecorder;

/// Engine-level knobs.
struct EngineOptions {
  /// Worker threads. 1 executes jobs inline in deterministic topological
  /// order; results never depend on this value.
  unsigned Threads = 1;
  /// Session-level telemetry; jobs get derived scopes (ObsSession's
  /// jobConfig).
  ObsConfig Obs;
  /// When nonzero (and the flight recorder is armed via
  /// ObsConfig::FlightRecorder), a watchdog thread dumps the recorder and
  /// exits the process (FlightRecorder::WatchdogExitCode) when no job
  /// finishes for this many seconds while jobs are in flight — a hung
  /// sweep fails loudly with a post-mortem instead of wedging CI.
  uint64_t WatchdogSec = 0;
};

/// A declarative profile sweep: the cross product of workloads × seed
/// offsets × profiling methods × profile inputs, each cell one RunJob.
struct SweepSpec {
  std::vector<const Workload *> Workloads;
  std::vector<ProfilingMethod> Methods = {ProfilingMethod::EdgeCheck};
  std::vector<DataSet> ProfileInputs = {DataSet::Train};
  /// Workload seed offsets (see BuildRequest); one grid slice per entry.
  /// Offset 0 is the canonical build.
  std::vector<uint64_t> SeedOffsets = {0};
  PipelineConfig Config;
  /// Simulate the cache hierarchy during profile runs (profiles do not
  /// depend on it; overhead measurements keep it on).
  bool WithMemorySystem = true;
};

/// One grid cell of a finished sweep.
struct SweepCell {
  const Workload *W = nullptr;
  ProfilingMethod Method = ProfilingMethod::EdgeOnly;
  DataSet ProfileDS = DataSet::Train;
  uint64_t SeedOffset = 0;
  ProfileRunResult Profile;
};

/// All cells in deterministic order: workload-major, then seed offset,
/// then method, then profile input.
struct SweepResult {
  std::vector<SweepCell> Cells;

  /// The first cell matching the coordinates, or nullptr.
  const SweepCell *find(const Workload *W, ProfilingMethod Method,
                        DataSet ProfileDS = DataSet::Train,
                        uint64_t SeedOffset = 0) const;
};

/// Throws std::invalid_argument, naming \p Caller, when \p Config cannot
/// be handed to concurrent jobs: a non-empty TraceCapturePath names one
/// file that every profile job would truncate and write at once.
/// runSweep and the Experiments.h suite drivers check this up front.
void requireSharableConfig(const PipelineConfig &Config, const char *Caller);

/// Schedules experiment jobs over a fixed-size thread pool. Reusable: each
/// run() executes the jobs added since the previous run().
class ExperimentEngine {
public:
  explicit ExperimentEngine(EngineOptions Opts = {});
  ~ExperimentEngine();

  unsigned threads() const { return Opts.Threads; }

  /// The session, or nullptr when Opts.Obs.Enabled is false.
  ObsSession *obs() const { return Session.get(); }

  /// The wave's timed-run memo; pass it to Pipeline's external-session
  /// constructor from job bodies.
  RunMemo *runMemo() { return &Memo; }

  /// The job body. \p JobObs is the job's private telemetry scope
  /// (nullptr when telemetry is off); pass it to Pipeline's
  /// external-session constructor.
  using JobFn = std::function<void(ObsSession *JobObs)>;

  /// Schedules \p Fn after \p Deps. Categories name job kinds in traces
  /// and reports ("run-job", "feedback-job", ...).
  JobId addJob(std::string Name, std::string Category, JobFn Fn,
               std::vector<JobId> Deps = {});

  /// Executes all pending jobs, folds job telemetry into the session, and
  /// resets the graph for the next wave. If any job threw, rethrows the
  /// first failure (in JobId order) after the fold; jobs downstream of a
  /// failure are skipped, all others still run.
  void run();

  /// Outcomes of the most recent run(), indexed by the JobIds it drained.
  const std::vector<JobOutcome> &lastOutcomes() const { return Outcomes; }

  /// Expands \p Spec into jobs, runs them, and assembles the grid.
  ///
  /// Profile fan-out: with WithMemorySystem off, the cells of one
  /// workload, seed offset and profile input whose methods share a
  /// baseMethod (naive-all and sample-naive-all, ...) form a group. The
  /// first cell's RunJob executes the program once for the whole group
  /// (Pipeline::runProfiles); every other cell keeps its own RunJob,
  /// which depends on the first and only publishes its profile and folds
  /// in its metrics. Cells, job names and per-job metrics equal those of
  /// one runProfile per cell. A session with the self-profiler attached
  /// runs every cell alone. Throws std::invalid_argument for a config
  /// requireSharableConfig rejects, before scheduling anything.
  SweepResult runSweep(const SweepSpec &Spec);

  /// Scheduler and run-memo accounting accumulated over every drain of
  /// this engine (high-water marks maxed, counts summed).
  const SweepSchedulerStats &schedStats() const { return SchedStats; }

  /// Builds the "sprof.sweep_report/1" document over every job this
  /// engine's session recorded. Requires an active session (Obs.Enabled).
  JsonValue sweepReport() const;

  /// The flight recorder, or nullptr unless ObsConfig::FlightRecorder
  /// armed it. Independent of Obs.Enabled: the black box records nothing
  /// that feeds back into results, so it can fly on untelemetered sweeps.
  FlightRecorder *flightRecorder() const { return Recorder.get(); }

  /// Writes session artifacts (Chrome trace, sweep report) per the
  /// session config.
  bool writeArtifacts() const;

private:
  EngineOptions Opts;
  std::unique_ptr<ObsSession> Session;
  std::unique_ptr<FlightRecorder> Recorder;
  SweepSchedulerStats SchedStats;
  RunMemo Memo;
  JobGraph Graph;
  /// One slot per pending job; the job's wrapper fills it at job start.
  /// Preallocated in addJob so worker threads never resize the vector.
  /// run() folds each surviving scope into the session in JobId order; a
  /// parked attempt's scope is reset and never folds.
  std::vector<std::unique_ptr<ObsSession>> JobObs;
  std::vector<JobOutcome> Outcomes;
};

} // namespace sprof

#endif // SPROF_DRIVER_ENGINE_H
