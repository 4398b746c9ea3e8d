//===- obs/Report.h - Machine-readable run reports --------------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes pipeline results as stable-schema JSON so experiments leave a
/// machine-readable trail next to the pretty-printed tables: edge-profile
/// summaries, per-load-site stride top-N tables, zero/zero-stride-diff
/// counts, classification verdicts with the configured thresholds, sampling
/// configuration, and every metric in an ObsSession's registry.
///
/// The top-level document is versioned ("sprof.run_report/5"); consumers
/// (scripts/check_telemetry_schema.sh, tests/test_obs.cpp, sprof-inspect)
/// validate against that schema string. The optional sections are
/// "attribution" and "profile_diff", "self_profile" (the engine's
/// window-sampled per-dispatch-op attribution), and "profile_run.trace"
/// (accounting of the sprof.trace capture a profile run recorded).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_REPORT_H
#define SPROF_OBS_REPORT_H

#include "driver/Pipeline.h"
#include "obs/Json.h"
#include "obs/Obs.h"
#include "profile/ProfileDiff.h"

#include <string>

namespace sprof {

/// Schema identifier stamped into every run report.
inline constexpr const char *RunReportSchemaV5 = "sprof.run_report/5";

// -- Section builders (each returns one JSON object) ----------------------
JsonValue runStatsToJson(const RunStats &Stats);
JsonValue memoryStatsToJson(const MemoryStats &Stats);
JsonValue edgeProfileToJson(const EdgeProfile &EP);
/// The sites with at least one observed stride, each with its top 4
/// strides (the paper's classifier reads 4).
JsonValue strideProfileToJson(const StrideProfile &SP);
JsonValue prefetchStatsToJson(const PrefetchInsertionStats &Stats);
/// Classification verdicts per site plus the thresholds they were judged
/// against; \p SP supplies the ratios each verdict fired on.
JsonValue feedbackToJson(const FeedbackResult &FB, const StrideProfile &SP,
                         const ClassifierConfig &Config);
JsonValue pipelineConfigToJson(const PipelineConfig &Config);
/// Prefetch-outcome and per-site demand-miss attribution (run_report/2).
/// \p Feedback (optional) joins each site with its SSST/PMST/WSST verdict
/// for the by-class rollup; \p Instructions (the timed run's committed
/// instruction count) scales misses to MPKI when non-zero.
JsonValue attributionToJson(const AttributionData &Attr,
                            const FeedbackResult *Feedback = nullptr,
                            uint64_t Instructions = 0);
/// Profile-accuracy diff section (run_report/2).
JsonValue profileDiffToJson(const ProfileDiffResult &Diff);
/// Trace-capture accounting section (run_report/4): the sprof.trace
/// artifact a profile run recorded (path, schema, event/byte counts).
JsonValue traceCaptureToJson(const TraceCaptureInfo &Capture);
JsonValue metricsToJson(const MetricsRegistry &Registry);
/// Engine self-profile section (run_report/3): sampling window, total
/// sample count, and every nonzero (workload, phase, op) cell with its
/// deterministic sample count and host-ns estimate, hottest first.
JsonValue selfProfileToJson(const EngineSelfProfiler &SP);
/// One engine job: name, category, timing, worker lane, outcome, and the
/// job's own metric scope.
JsonValue jobRecordToJson(const JobRecord &Record);
/// The session's "jobs" array (empty array when no jobs were recorded).
JsonValue jobsToJson(const ObsSession &Session);

/// The profile-generation half: method, run accounting, both profiles, and
/// the strideProf call statistics (Figures 20-22 raw data).
JsonValue profileRunToJson(const ProfileRunResult &R);

/// The timed half: run accounting, inserted prefetches, and the feedback
/// verdicts. \p SP must be the stride profile the feedback pass consumed.
JsonValue timedRunToJson(const TimedRunResult &R, const StrideProfile &SP,
                         const ClassifierConfig &Config);

/// Assembles the full versioned report. Null sections are omitted, so the
/// same schema serves profile-only and end-to-end runs. When \p Timed
/// carries enabled attribution the "attribution" section is emitted; a
/// non-null \p Diff adds the "profile_diff" section.
JsonValue buildRunReport(const std::string &WorkloadName,
                         const PipelineConfig &Config,
                         const ProfileRunResult *Profile,
                         const TimedRunResult *Timed,
                         const RunStats *Baseline, const ObsSession *Obs,
                         const ProfileDiffResult *Diff = nullptr);

} // namespace sprof

#endif // SPROF_OBS_REPORT_H
