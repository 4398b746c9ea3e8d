//===- obs/Obs.h - Observability configuration and session ------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties the observability layer together: ObsConfig is the knob block the
/// pipeline configuration embeds, ObsSession owns one run's metrics
/// registry and trace collector. Producers receive an `ObsSession *` that
/// is nullptr when telemetry is disabled, so the disabled path costs one
/// pointer test at instrumentation-attach time and nothing per event.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_OBS_H
#define SPROF_OBS_OBS_H

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace sprof {

class TelemetrySampler;
class EngineSelfProfiler;

/// Sampler ring capacity: the oldest snapshots drop once this many are
/// held.
inline constexpr size_t SampleRingCapacity = 512;

/// Everything configurable about telemetry collection.
struct ObsConfig {
  /// Master switch; off reproduces the seed pipeline bit for bit.
  bool Enabled = false;

  /// Collect phase trace spans.
  bool CollectTrace = true;

  /// When nonzero, the session runs a background TelemetrySampler that
  /// snapshots every counter/gauge at this interval into a bounded
  /// time-series ring of SampleRingCapacity snapshots.
  uint64_t SampleIntervalUs = 0;

  /// When non-empty, writeArtifacts dumps the "sprof.timeseries/1"
  /// document here (requires SampleIntervalUs > 0).
  std::string TimeSeriesOutputPath;

  /// Run the decoded engine's window-sampled self-profiler (per-opcode /
  /// per-superinstruction / per-phase host-cycle attribution).
  bool SelfProfile = false;

  /// Self-profiler sampling window in dispatches.
  uint32_t SelfProfileWindow = 1024;

  /// When non-empty, writeArtifacts dumps the self-profiler's folded-stack
  /// lines ("workload;phase;op count") here for flamegraph.pl/speedscope.
  std::string FoldedProfilePath;

  /// When non-empty, ObsSession::writeArtifacts dumps the Chrome trace
  /// here.
  std::string TraceOutputPath;

  /// When non-empty, ExperimentEngine::writeArtifacts dumps the
  /// "sprof.sweep_report/1" document (per-job causal timeline, critical
  /// path, scheduler section) here.
  std::string SweepReportOutputPath;

  /// Arm the engine flight recorder: a bounded lock-free per-worker ring
  /// of job/phase transitions (64 per worker lane) that a SIGSEGV/SIGABRT
  /// handler (and the engine watchdog) dumps as JSON, so a crashed or hung
  /// sweep leaves a post-mortem naming the jobs in flight.
  bool FlightRecorder = false;

  /// Where the flight recorder dumps ("sprof.flightrec/1"); empty means
  /// stderr.
  std::string FlightRecorderDumpPath;

  /// Install the fatal-signal (SIGSEGV/SIGABRT) dump handler. Off leaves
  /// signal dispositions alone; the watchdog and explicit dumps still
  /// work.
  bool FlightRecorderSignals = true;
};

/// Telemetry summary of one engine job: what ran, when, on which worker,
/// whether it succeeded, and the job's own metric scope. Jobs execute
/// against a private ObsSession; the engine folds the result into the
/// session-level registry/trace and records one of these so the run
/// report can emit a per-job breakdown ("jobs" array).
struct JobRecord {
  /// Session-wide job index (position in ObsSession::jobs()). Deps refer
  /// to these ids, staying valid across the engine's multiple graph
  /// drains within one session.
  size_t Id = 0;
  std::string Name;
  std::string Category; ///< "run-job", "feedback-job", ...
  std::vector<size_t> Deps; ///< job-graph dependency edges, as Ids
  /// When the job became runnable (dependencies done), on the session
  /// collector's clock. StartUs - ReadyUs is the queue wait.
  uint64_t ReadyUs = 0;
  uint64_t StartUs = 0; ///< on the session collector's clock
  uint64_t DurationUs = 0;
  uint32_t Worker = 0; ///< thread-pool worker index (trace track)
  bool Ok = true;
  std::string Error; ///< exception text when !Ok
  MetricsRegistry Metrics; ///< the job's isolated metric scope
};

/// One telemetry session: typically one per Pipeline or per
/// ExperimentEngine, spanning all the runs it drives.
class ObsSession {
public:
  /// Starts the background sampler when Config enables it
  /// (SampleIntervalUs > 0) and creates the engine self-profiler when
  /// Config.SelfProfile is set.
  explicit ObsSession(ObsConfig Config);
  ~ObsSession();

  ObsSession(const ObsSession &) = delete;
  ObsSession &operator=(const ObsSession &) = delete;

  const ObsConfig &config() const { return Config; }

  MetricsRegistry &registry() { return Registry; }
  const MetricsRegistry &registry() const { return Registry; }
  TraceCollector &trace() { return Trace; }
  const TraceCollector &trace() const { return Trace; }

  /// Metric handles for producers; never null. Hot paths resolve them
  /// once and gate on whether they hold a session at all.
  Counter *counter(std::string_view Name) { return &Registry.counter(Name); }
  Gauge *gauge(std::string_view Name) { return &Registry.gauge(Name); }
  Histogram *histogram(std::string_view Name,
                       std::vector<uint64_t> UpperBounds = {}) {
    return &Registry.histogram(Name, std::move(UpperBounds));
  }

  /// The background sampler, or nullptr when not configured. Ring
  /// accessors are valid after stopSampling()/writeArtifacts().
  TelemetrySampler *sampler() { return Sampler.get(); }
  const TelemetrySampler *sampler() const { return Sampler.get(); }

  /// Stops the sampler (taking its final synchronized snapshot) if it is
  /// running. Idempotent; call after producers quiesce.
  void stopSampling();

  /// The engine self-profiler, or nullptr when Config.SelfProfile is off.
  /// Interpreter::attachObs resolves this, so enabling the knob is all a
  /// caller needs to do.
  EngineSelfProfiler *selfProfiler() { return SelfProf.get(); }
  const EngineSelfProfiler *selfProfiler() const { return SelfProf.get(); }

  /// Configuration for a job-scoped child session: same collection
  /// switches, no output paths (the parent session owns the artifacts),
  /// and no sampler thread (jobs are short-lived; the parent samples the
  /// folded session registry instead).
  ObsConfig jobConfig() const {
    ObsConfig C = Config;
    C.TraceOutputPath.clear();
    C.TimeSeriesOutputPath.clear();
    C.FoldedProfilePath.clear();
    C.SweepReportOutputPath.clear();
    C.SampleIntervalUs = 0;
    // The flight recorder is engine-owned: one recorder per engine, never
    // one per job session.
    C.FlightRecorder = false;
    C.FlightRecorderDumpPath.clear();
    return C;
  }

  /// Appends one finished job's record. Single-threaded like the rest of
  /// the session; the engine serializes calls under its own lock.
  void recordJob(JobRecord Record) { Jobs.push_back(std::move(Record)); }
  const std::vector<JobRecord> &jobs() const { return Jobs; }

  /// Writes every configured artifact: stops the sampler, folds its ring
  /// into the trace as counter events, then writes the Chrome trace
  /// (TraceOutputPath), the time-series document (TimeSeriesOutputPath),
  /// and the folded self-profile (FoldedProfilePath) -- each only when its
  /// path is set. Returns false only on an I/O failure.
  bool writeArtifacts();

private:
  ObsConfig Config;
  MetricsRegistry Registry;
  TraceCollector Trace;
  std::vector<JobRecord> Jobs;
  std::unique_ptr<TelemetrySampler> Sampler;
  std::unique_ptr<EngineSelfProfiler> SelfProf;
  bool CounterSamplesFolded = false;
};

} // namespace sprof

#endif // SPROF_OBS_OBS_H
