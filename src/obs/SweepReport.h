//===- obs/SweepReport.h - Causal sweep analysis & report -------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-sweep causal analysis over the experiment engine's job records:
/// the dependency-weighted critical path (the chain of jobs whose combined
/// run time bounds the sweep's wall clock from below), per-worker
/// utilization, and the straggler top-N — serialized as the versioned
/// "sprof.sweep_report/1" artifact. The analysis is pure: it consumes the
/// JobRecords an ObsSession accumulated plus the scheduler's accounting
/// and touches nothing else, so it is deterministic in everything but the
/// timestamps.
///
/// Document shape:
///
///   {"schema": "sprof.sweep_report/1", "threads": N, "wall_us": W,
///    "jobs": [{"id", "name", "category", "deps", "worker", "ready_us",
///              "start_us", "finish_us", "queue_wait_us", "run_us",
///              "ok"}, ...],
///    "critical_path": {"jobs": [ids...], "duration_us", "wall_us",
///                      "fraction"},
///    "scheduler": {"queue_depth_high_water", "wakeup_retries",
///                  "jobs_enqueued", "jobs_started", "jobs_finished",
///                  "jobs_failed", "jobs_skipped",
///                  "run_memo": {"hits", "misses", "saved_instructions",
///                               "parks", "image_builds",
///                               "image_shares"},
///                  "workers": [{"worker", "jobs", "busy_us",
///                               "utilization"}, ...],
///                  "stragglers": [{"id", "name", "run_us",
///                                  "queue_wait_us"}, ...]}}
///
/// Invariants a validator can hold: critical_path.duration_us ==
/// sum(run_us over critical_path.jobs) <= wall_us; every deps entry names
/// an earlier job id; jobs_enqueued == jobs array length.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_SWEEPREPORT_H
#define SPROF_OBS_SWEEPREPORT_H

#include "obs/Json.h"
#include "obs/Obs.h"

#include <cstdint>
#include <vector>

namespace sprof {

/// Schema identifier stamped into every sweep report.
inline constexpr const char *SweepReportSchemaV1 = "sprof.sweep_report/1";

/// Scheduler accounting carried from JobGraph into the sweep report
/// (accumulated across the engine's graph drains within one session).
struct SweepSchedulerStats {
  uint64_t QueueDepthHighWater = 0; ///< max over drains
  uint64_t WakeupRetries = 0;       ///< sum over drains
  uint64_t JobsSkipped = 0;         ///< jobs skipped on a failed dependency
  /// Timed-run memo accounting (driver/RunMemo.h), summed over drains.
  uint64_t RunMemoHits = 0;
  uint64_t RunMemoMisses = 0;
  uint64_t RunMemoSavedInstructions = 0;
  /// Job attempts parked on an in-flight memo entry; schedule dependent.
  uint64_t RunMemoParks = 0;
  /// Workload builds the memo made, and image requests served by a base
  /// an overlapping run held (RunMemo::Counts); schedule dependent.
  uint64_t RunMemoImageBuilds = 0;
  uint64_t RunMemoImageShares = 0;
};

/// The computed critical path: job ids in execution order, and the sum of
/// their run times.
struct CriticalPath {
  std::vector<size_t> Jobs;
  uint64_t DurationUs = 0;
};

/// Longest dependency-weighted run-time chain through \p Jobs. Deps must
/// reference earlier ids (the engine's job records satisfy this by
/// construction). Skipped jobs contribute zero weight, so the path
/// reflects work actually executed. Ties break toward the smaller job id,
/// keeping the result deterministic for identical durations.
CriticalPath computeCriticalPath(const std::vector<JobRecord> &Jobs);

/// Assembles the full "sprof.sweep_report/1" document. Its wall clock runs
/// from the first job ready to the last job finished, and its straggler
/// list names the 5 longest-running jobs.
JsonValue buildSweepReport(const std::vector<JobRecord> &Jobs,
                           unsigned Threads,
                           const SweepSchedulerStats &Sched);

} // namespace sprof

#endif // SPROF_OBS_SWEEPREPORT_H
