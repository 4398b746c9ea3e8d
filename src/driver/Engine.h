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
/// interpret → profile). In both, cells whose methods share an
/// instrumentation family share one execution (profile fan-out, see
/// ProfileGroups).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_ENGINE_H
#define SPROF_DRIVER_ENGINE_H

#include "driver/JobGraph.h"
#include "driver/Pipeline.h"
#include "driver/RunMemo.h"
#include "obs/SweepReport.h"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
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

  /// Expands \p Spec into jobs, runs them, and assembles the grid. The
  /// cells' run jobs go through ProfileGroups, so cells whose methods share
  /// an instrumentation family share one execution. Cells and job names
  /// equal those of one runProfile per cell, and so do per-job metrics but
  /// for pipeline.profile_derived and pipeline.profile_sliced. Throws
  /// std::invalid_argument for a config requireSharableConfig rejects,
  /// before scheduling anything.
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

/// Profile fan-out (docs/ENGINE.md): schedules the run jobs of profile
/// cells on an engine so that the cells of one workload, seed offset and
/// profile input whose methods share an instrumentationFamily (the four
/// naive methods; edge-check and sample-edge-check; ...) form a group that
/// executes once (Pipeline::runProfiles, which reads naive-loop's profile
/// off the naive-all profiler or slices its events from the naive-all
/// run), with or without a cache model; with one, the group's memory
/// stall comes from its un-instrumented program's run through the
/// engine's run memo, so every group of a workload and input shares one
/// such execution per wave. The first cell's run job executes for the
/// whole group; every other cell keeps its own run job under its own name,
/// which depends on the first and only publishes its profile and folds in
/// the metrics its lone runProfile would have recorded (plus
/// pipeline.profile_derived when derived and pipeline.profile_sliced when
/// sliced). A session with the self-profiler attached runs every cell
/// alone: its samples belong to each run's own job. The object must
/// outlive the engine's next run().
class ProfileGroups {
public:
  /// Receives a cell's finished profile, inside that cell's run job.
  using CellFn = std::function<void(ProfileRunResult &)>;

  /// Every cell's pipeline uses \p Config with the cell's seed offset.
  ProfileGroups(ExperimentEngine &Engine, PipelineConfig Config,
                bool WithMemorySystem);

  /// Adds the run job, named \p Name, of the cell profiling \p Method on
  /// \p DS of \p W built with \p SeedOffset; \p Done gets its result.
  /// \returns the job's id, for dependent jobs to wait on.
  JobId add(std::string Name, const Workload *W, uint64_t SeedOffset,
            ProfilingMethod Method, DataSet DS, CellFn Done);

private:
  struct Group {
    const Workload *W = nullptr;
    uint64_t SeedOffset = 0;
    DataSet DS = DataSet::Train;
    std::vector<ProfilingMethod> Methods;
    std::vector<CellFn> Done;
    JobId Leader = 0;
    /// Filled by the leader: every cell's profile, and for Methods[1..]
    /// the metrics that cell's own runProfile would have recorded.
    std::vector<ProfileRunResult> Results;
    std::vector<MetricsRegistry> Metrics;
  };

  void runGroup(Group &G, ObsSession *JobObs) const;

  ExperimentEngine &Engine;
  PipelineConfig Config;
  bool WithMemorySystem;
  bool Share;
  std::deque<Group> Groups;
  std::map<std::tuple<const Workload *, uint64_t, DataSet, ProfilingMethod>,
           Group *>
      Open;
};

} // namespace sprof

#endif // SPROF_DRIVER_ENGINE_H
