//===- driver/Pipeline.h - Instrument / profile / feedback / run -*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end compiler pipeline the paper's experiments run:
///
///   1. instrument a fresh copy of the program for a profiling method;
///   2. execute it on a data set, producing the edge profile, the stride
///      profile, and the instrumented run's cycle accounting (profiling
///      overhead, Figure 20-22);
///   3. feed the profiles back through the Figure-5 classifier;
///   4. insert prefetches into another fresh copy and time it against the
///      unmodified baseline (speedup, Figure 16).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_PIPELINE_H
#define SPROF_DRIVER_PIPELINE_H

#include "feedback/Classifier.h"
#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "memsys/Cache.h"
#include "obs/Obs.h"
#include "prefetch/PrefetchInsertion.h"
#include "profile/ProfileData.h"
#include "profile/StrideProfiler.h"
#include "workloads/Workload.h"

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace sprof {

class RunMemo;

/// Everything configurable about one experiment family.
struct PipelineConfig {
  InstrumentConfig Instrument;
  StrideProfilerConfig Profiler; ///< Sampling.Enabled set per method
  ClassifierConfig Classifier;
  MemoryConfig Memory;
  TimingModel Timing;
  /// Execution-core selection (Reference vs the pre-decoded Decoded
  /// engine). Both produce bit-identical profiles and cycle accounting;
  /// Decoded (the default) is the fast core, Reference the differential
  /// baseline (docs/PERFORMANCE.md).
  InterpreterConfig Interp;
  /// Mixed into every workload build this pipeline performs (see
  /// BuildRequest). 0 reproduces the canonical builds; engine jobs that
  /// run seed replicas each get their own offset.
  uint64_t WorkloadSeedOffset = 0;
  /// Telemetry. Disabled by default; when Obs.Enabled the Pipeline owns an
  /// ObsSession, traces every phase, and threads metric sinks through all
  /// components. Profiles and cycle accounting are identical either way.
  ObsConfig Obs;
  /// When non-empty, runProfile additionally records the profiled
  /// access-event stream (plus the harvested edge profile) into this
  /// sprof.trace/2 file for later replay (driver/TraceReplay.h). Capture
  /// tees off the engines' existing stride-event ring, so profiles and
  /// cycle accounting are bit-identical with or without it.
  std::string TraceCapturePath;
};

/// Accounting of a profile run's trace capture (PipelineConfig::
/// TraceCapturePath); Enabled stays false when capture was off or the
/// trace file could not be written.
struct TraceCaptureInfo {
  bool Enabled = false;
  std::string Path;
  std::string Schema; ///< sprof.trace/2
  uint64_t Events = 0;
  uint64_t Bytes = 0;
};

/// Results of one instrumented (profile-generation) run.
struct ProfileRunResult {
  ProfilingMethod Method = ProfilingMethod::EdgeOnly;
  EdgeProfile Edges;
  StrideProfile Strides;
  InstrumentationResult Instr;
  RunStats Stats;

  /// strideProf call statistics for Figures 21/22.
  uint64_t StrideInvocations = 0;
  uint64_t StrideProcessed = 0;
  uint64_t LfuCalls = 0;

  TraceCaptureInfo Capture;
};

/// Results of one timed (performance) run.
struct TimedRunResult {
  RunStats Stats;
  PrefetchInsertionStats Prefetches;
  FeedbackResult Feedback;
  /// Prefetch-outcome and per-site demand-miss attribution; populated
  /// (Enabled == true) only when Config.Memory.EnableAttribution is set.
  /// Lives outside RunStats so the pre-existing accounting stays
  /// bit-identical whether attribution runs or not.
  AttributionData Attribution;
};

/// Drives one workload through the paper's pipeline. Every run transforms
/// its own copy of the workload's module and executes on its own
/// copy-on-write overlay of the build's memory image, so runs never share
/// mutable state.
class Pipeline {
public:
  Pipeline(const Workload &W, PipelineConfig Config = {})
      : W(W), Config(std::move(Config)) {
    if (this->Config.Obs.Enabled) {
      Owned = std::make_unique<ObsSession>(this->Config.Obs);
      Session = Owned.get();
    }
  }

  /// Runs against an externally owned telemetry session (nullptr disables
  /// telemetry). Config.Obs is not consulted; the experiment engine uses
  /// this so every job's pipeline phases land in the job's metric scope.
  /// With \p Memo (the engine's, see driver/RunMemo.h), every run takes
  /// its module and its memory image from it, and runBaseline,
  /// runPrefetched and the memory stall of runProfiles execute through it,
  /// so identical timed runs in one engine wave execute once, only an
  /// executing run takes an image, and overlapping runs share one; results
  /// and telemetry are unchanged. A session with the self-profiler
  /// attached executes every timed run itself. Without a memo, each run
  /// builds the program and executes on an overlay of its unshared image.
  Pipeline(const Workload &W, PipelineConfig Config, ObsSession *External,
           RunMemo *Memo = nullptr)
      : W(W), Config(std::move(Config)), Session(External), Memo(Memo) {}

  /// Steps 1-2: instrument for \p Method and run on \p DS.
  /// \p WithMemorySystem selects whether the cache hierarchy is simulated;
  /// profiles do not depend on it, so profile-only callers can turn it off
  /// for speed, while overhead measurements (Figure 20) keep it on. This
  /// is the one-method case of runProfiles.
  ProfileRunResult runProfile(ProfilingMethod Method, DataSet DS,
                              bool WithMemorySystem = true) const;

  /// Steps 1-2 for several methods of one instrumentation family
  /// (instrumentationFamily: a method and its sample- variant, or any of
  /// the four naive methods): one build, one instrumentation and one
  /// interpreter run, whose ProfStride traps feed one StrideProfiler per
  /// method. Result K equals runProfile(Methods[K], DS, WithMemorySystem)
  /// bit for bit.
  ///
  /// A group with a naive-all-based method instruments for naive-all, and
  /// its naive-loop-based methods are sliced: their profilers see only the
  /// events of in-loop load sites (loadSitesInLoop of the un-instrumented
  /// module), which is the naive-loop run's trap stream, because the two
  /// instrumentations differ only in the out-loop ProfStrides. A sliced
  /// result's Instructions drop those traps and its ProfiledSites keep the
  /// in-loop ones; everything else is derived as for any other method.
  ///
  /// Without a cache model, result K's RunStats are the execution's plus
  /// that profiler's RuntimeCycles, which is exact because nothing reads
  /// the cycle count between traps. With one, the run still executes
  /// without it: instrumentation issues no memory op, so a prefetch-free
  /// program's stalls and MemoryStats are those of its un-instrumented
  /// run (see MemoryHierarchy), which runBaseline's execution supplies,
  /// through the run memo when there is one. That needs the Decoded
  /// engine, a module without Prefetch or SpecLoad, a FlatLoadLatency no
  /// larger than any level's HitLatency, and a session without the
  /// self-profiler (whose samples belong to the run they describe);
  /// otherwise each method runs alone with the cache model attached and
  /// its own instrumentation, as under the Reference engine, the
  /// executable spec.
  ///
  /// Method K's telemetry goes to \p MethodObs[K], or to obs() for every
  /// method when \p MethodObs is empty, and its metrics equal that
  /// runProfile's, plus pipeline.profile_sliced for a sliced method. The
  /// shared phases' trace spans land once, in method 0's session; the
  /// execution's self-profiler samples land in the session of the method
  /// whose profiler rides in the interpreter; the un-instrumented run
  /// records no metrics there. Throws std::invalid_argument when the
  /// families differ, \p MethodObs has the wrong size, or trace capture is
  /// on with more than one method (the capture names one method).
  std::vector<ProfileRunResult>
  runProfiles(std::span<const ProfilingMethod> Methods, DataSet DS,
              std::span<ObsSession *const> MethodObs = {},
              bool WithMemorySystem = false) const;

  /// Baseline timed run (no instrumentation, no prefetching).
  RunStats runBaseline(DataSet DS) const;

  /// Steps 3-4: classify (\p Edges, \p Strides), insert prefetches, run.
  TimedRunResult runPrefetched(DataSet DS, const EdgeProfile &Edges,
                               const StrideProfile &Strides) const;

  /// Speedup of prefetching guided by an already-collected profile:
  /// baseline cycles / prefetched cycles, both measured on \p RunDS.
  /// Callers sweeping feedback-side parameters (prefetch distance,
  /// classifier thresholds, run input) should collect the profile once
  /// and reuse it here instead of re-profiling per configuration.
  double speedup(DataSet RunDS, const EdgeProfile &Edges,
                 const StrideProfile &Strides) const;

  const PipelineConfig &config() const { return Config; }
  const Workload &workload() const { return W; }

  /// The telemetry session, or nullptr when telemetry is off. Callers use
  /// it to write trace/report artifacts after the runs.
  ObsSession *obs() const { return Session; }

private:
  /// runProfiles after its argument checks (runProfile's one method
  /// needs none).
  std::vector<ProfileRunResult>
  profileRuns(std::span<const ProfilingMethod> Methods, DataSet DS,
              std::span<ObsSession *const> MethodObs,
              bool WithMemorySystem) const;

  /// The un-instrumented program's timed run on \p DS, whose stalls and
  /// MemoryStats every profile run of it shares, with a span in \p Obs;
  /// nullopt when the run's conditions for that do not hold (see
  /// runProfiles). The image the run executed on, if any, is left in
  /// \p Image for the profile execution.
  std::optional<RunStats> memsysStall(DataSet DS,
                                      std::shared_ptr<const MemoryImage> &Image,
                                      ObsSession *Obs) const;

  /// Whether a run of \p M has its serving levels' latencies (see
  /// MemoryHierarchy): the Decoded engine, no Prefetch or SpecLoad in \p M,
  /// and a FlatLoadLatency no larger than any level's HitLatency. Such a
  /// timed run uses the clock-free cache model, and memsysStall derives
  /// profile runs' stalls only under it.
  bool runsClockFree(const Module &M) const;

  /// The module a run on \p DS starts from, untransformed, with a
  /// build-workload span in \p Obs. With a memo it is the memo's
  /// (RunMemo::module) and \p Image is left as it is: a run takes the
  /// image (takeImage) only when it executes. Without one it is a fresh
  /// build, whose image goes to \p Image.
  std::shared_ptr<const Module>
  baseModule(DataSet DS, std::shared_ptr<const MemoryImage> &Image,
             ObsSession *Obs) const;

  /// Sets an empty \p Image to the memo's image for \p DS
  /// (RunMemo::image), in a build-image span in \p Obs.
  void takeImage(DataSet DS, std::shared_ptr<const MemoryImage> &Image,
                 ObsSession *Obs) const;

  /// One instrumented execution for \p Methods on an overlay of \p Image
  /// (taken first if empty): with a cache hierarchy attached when
  /// \p TimeMemory (one method only), or without one, plus \p Stall's
  /// memory accounting when given.
  std::vector<ProfileRunResult>
  executeProfiles(std::span<const ProfilingMethod> Methods, DataSet DS,
                  std::span<ObsSession *const> MethodObs, bool TimeMemory,
                  const RunStats *Stall,
                  std::shared_ptr<const MemoryImage> &Image) const;

  /// The execute step of a timed run: runs \p M on an overlay of \p DS's
  /// image (\p Image, taken first if empty) with the cache hierarchy
  /// attached, through the memo when there is one, and records its
  /// telemetry in \p Obs. A memo hit leaves \p Image as it is.
  std::pair<RunStats, AttributionData>
  executeTimed(const Module &M, std::shared_ptr<const MemoryImage> &Image,
               DataSet DS, bool Attribution, const char *Phase,
               ObsSession *Obs) const;

  const Workload &W;
  PipelineConfig Config;
  std::unique_ptr<ObsSession> Owned;
  ObsSession *Session = nullptr;
  RunMemo *Memo = nullptr;
};

} // namespace sprof

#endif // SPROF_DRIVER_PIPELINE_H
