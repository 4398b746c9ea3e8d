//===- obs/SweepReport.cpp - Causal sweep analysis & report ----------------===//
//
// Part of the StrideProf project (see SweepReport.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "obs/SweepReport.h"

#include <algorithm>
#include <numeric>

using namespace sprof;

CriticalPath sprof::computeCriticalPath(const std::vector<JobRecord> &Jobs) {
  CriticalPath CP;
  if (Jobs.empty())
    return CP;

  // Longest-path DP over the DAG. Records are stored in a topological
  // order (deps reference earlier ids), so one forward pass suffices.
  // NoPred marks a chain start.
  constexpr size_t NoPred = static_cast<size_t>(-1);
  std::vector<uint64_t> Weight(Jobs.size(), 0);
  std::vector<size_t> Pred(Jobs.size(), NoPred);
  size_t Best = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    uint64_t DepWeight = 0;
    size_t DepBest = NoPred;
    for (size_t Dep : Jobs[I].Deps) {
      if (Dep >= I)
        continue; // malformed edge; ignore rather than loop
      if (DepBest == NoPred || Weight[Dep] > DepWeight) {
        DepWeight = Weight[Dep];
        DepBest = Dep;
      }
    }
    Weight[I] = DepWeight + Jobs[I].DurationUs;
    Pred[I] = DepBest;
    if (Weight[I] > Weight[Best])
      Best = I;
  }

  CP.DurationUs = Weight[Best];
  for (size_t I = Best; I != NoPred; I = Pred[I])
    CP.Jobs.push_back(I);
  std::reverse(CP.Jobs.begin(), CP.Jobs.end());
  return CP;
}

JsonValue sprof::buildSweepReport(const std::vector<JobRecord> &Jobs,
                                  unsigned Threads,
                                  const SweepSchedulerStats &Sched) {
  if (Threads == 0)
    Threads = 1;

  // Wall clock: first job ready to last job finished.
  uint64_t WallUs = 0;
  if (!Jobs.empty()) {
    uint64_t MinReady = UINT64_MAX, MaxFinish = 0;
    for (const JobRecord &J : Jobs) {
      MinReady = std::min(MinReady, J.ReadyUs);
      MaxFinish = std::max(MaxFinish, J.StartUs + J.DurationUs);
    }
    WallUs = MaxFinish > MinReady ? MaxFinish - MinReady : 0;
  }

  JsonValue Root = JsonValue::object();
  Root.set("schema", SweepReportSchemaV1);
  Root.set("threads", Threads);
  Root.set("wall_us", WallUs);

  uint64_t Failed = 0;
  std::vector<uint64_t> WorkerBusy(Threads, 0);
  std::vector<uint64_t> WorkerJobs(Threads, 0);
  JsonValue JobsJson = JsonValue::array();
  for (const JobRecord &J : Jobs) {
    if (!J.Ok)
      ++Failed;
    if (J.Worker < Threads) {
      WorkerBusy[J.Worker] += J.DurationUs;
      ++WorkerJobs[J.Worker];
    }
    JsonValue JJ = JsonValue::object();
    JJ.set("id", static_cast<uint64_t>(J.Id));
    JJ.set("name", J.Name);
    JJ.set("category", J.Category);
    JsonValue Deps = JsonValue::array();
    for (size_t Dep : J.Deps)
      Deps.push(static_cast<uint64_t>(Dep));
    JJ.set("deps", std::move(Deps));
    JJ.set("worker", J.Worker);
    JJ.set("ready_us", J.ReadyUs);
    JJ.set("start_us", J.StartUs);
    JJ.set("finish_us", J.StartUs + J.DurationUs);
    JJ.set("queue_wait_us",
           J.StartUs > J.ReadyUs ? J.StartUs - J.ReadyUs : 0);
    JJ.set("run_us", J.DurationUs);
    JJ.set("ok", J.Ok);
    if (!J.Ok)
      JJ.set("error", J.Error);
    JobsJson.push(std::move(JJ));
  }
  Root.set("jobs", std::move(JobsJson));

  CriticalPath CP = computeCriticalPath(Jobs);
  JsonValue CPJson = JsonValue::object();
  JsonValue CPJobs = JsonValue::array();
  for (size_t Id : CP.Jobs)
    CPJobs.push(static_cast<uint64_t>(Id));
  CPJson.set("jobs", std::move(CPJobs));
  CPJson.set("duration_us", CP.DurationUs);
  CPJson.set("wall_us", WallUs);
  // How much of the wall clock the longest chain explains: near 1.0 means
  // adding workers cannot help; low means the pool or stragglers did.
  CPJson.set("fraction", WallUs ? static_cast<double>(CP.DurationUs) /
                                      static_cast<double>(WallUs)
                                : 0.0);
  Root.set("critical_path", std::move(CPJson));

  JsonValue SchedJson = JsonValue::object();
  SchedJson.set("queue_depth_high_water", Sched.QueueDepthHighWater);
  SchedJson.set("wakeup_retries", Sched.WakeupRetries);
  SchedJson.set("jobs_enqueued", static_cast<uint64_t>(Jobs.size()));
  SchedJson.set("jobs_started",
                static_cast<uint64_t>(Jobs.size()) - Sched.JobsSkipped);
  SchedJson.set("jobs_finished",
                static_cast<uint64_t>(Jobs.size()) - Sched.JobsSkipped);
  SchedJson.set("jobs_failed", Failed - Sched.JobsSkipped);
  SchedJson.set("jobs_skipped", Sched.JobsSkipped);
  JsonValue Memo = JsonValue::object();
  Memo.set("hits", Sched.RunMemoHits);
  Memo.set("misses", Sched.RunMemoMisses);
  Memo.set("saved_instructions", Sched.RunMemoSavedInstructions);
  Memo.set("parks", Sched.RunMemoParks);
  Memo.set("image_builds", Sched.RunMemoImageBuilds);
  Memo.set("image_shares", Sched.RunMemoImageShares);
  SchedJson.set("run_memo", std::move(Memo));

  JsonValue Workers = JsonValue::array();
  for (unsigned W = 0; W != Threads; ++W) {
    JsonValue WJ = JsonValue::object();
    WJ.set("worker", W);
    WJ.set("jobs", WorkerJobs[W]);
    WJ.set("busy_us", WorkerBusy[W]);
    WJ.set("utilization", WallUs ? static_cast<double>(WorkerBusy[W]) /
                                       static_cast<double>(WallUs)
                                 : 0.0);
    Workers.push(std::move(WJ));
  }
  SchedJson.set("workers", std::move(Workers));

  // Straggler top-N: the longest-running jobs, the first place to look
  // when utilization is poor but the critical path doesn't explain it.
  std::vector<size_t> ByRun(Jobs.size());
  std::iota(ByRun.begin(), ByRun.end(), size_t{0});
  std::stable_sort(ByRun.begin(), ByRun.end(), [&](size_t A, size_t B) {
    return Jobs[A].DurationUs > Jobs[B].DurationUs;
  });
  JsonValue Stragglers = JsonValue::array();
  for (size_t I = 0; I != ByRun.size() && I != 5; ++I) {
    const JobRecord &J = Jobs[ByRun[I]];
    JsonValue SJ = JsonValue::object();
    SJ.set("id", static_cast<uint64_t>(J.Id));
    SJ.set("name", J.Name);
    SJ.set("run_us", J.DurationUs);
    SJ.set("queue_wait_us",
           J.StartUs > J.ReadyUs ? J.StartUs - J.ReadyUs : 0);
    Stragglers.push(std::move(SJ));
  }
  SchedJson.set("stragglers", std::move(Stragglers));
  Root.set("scheduler", std::move(SchedJson));
  return Root;
}
