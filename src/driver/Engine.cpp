//===- driver/Engine.cpp - Parallel experiment engine ----------------------===//
//
// Part of the StrideProf project (see Engine.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"

#include "obs/FlightRecorder.h"
#include "obs/SelfProfiler.h"

#include <stdexcept>
#include <string>
#include <utility>

using namespace sprof;

/// Flight-recorder events retained per worker lane.
static constexpr size_t FlightRecorderRingSize = 64;

const SweepCell *SweepResult::find(const Workload *W, ProfilingMethod Method,
                                   DataSet ProfileDS,
                                   uint64_t SeedOffset) const {
  for (const SweepCell &Cell : Cells)
    if (Cell.W == W && Cell.Method == Method &&
        Cell.ProfileDS == ProfileDS && Cell.SeedOffset == SeedOffset)
      return &Cell;
  return nullptr;
}

ExperimentEngine::ExperimentEngine(EngineOptions Opts)
    : Opts(std::move(Opts)) {
  if (this->Opts.Threads == 0)
    this->Opts.Threads = 1;
  if (this->Opts.Obs.Enabled)
    Session = std::make_unique<ObsSession>(this->Opts.Obs);
  if (this->Opts.Obs.FlightRecorder) {
    Recorder = std::make_unique<FlightRecorder>(this->Opts.Threads,
                                                FlightRecorderRingSize);
    if (this->Opts.Obs.FlightRecorderSignals)
      Recorder->installSignalDump(this->Opts.Obs.FlightRecorderDumpPath);
  }
}

ExperimentEngine::~ExperimentEngine() = default;

JobId ExperimentEngine::addJob(std::string Name, std::string Category,
                               JobFn Fn, std::vector<JobId> Deps) {
  // One slot per job, indexed by JobId. Capture the index, not an element
  // pointer: later addJob calls may reallocate the vector, and by the time
  // jobs run no further push_back can happen, so JobObs[Index] is stable.
  JobObs.push_back(nullptr);
  const size_t Index = JobObs.size() - 1;
  ObsSession *S = Session.get();
  // The flight-recorder wrapper needs the job's name after Name moves
  // into the graph node; two small string copies per addJob, not per run.
  std::string FRName = Recorder ? Name : std::string();
  std::string FRDetail = Recorder ? Category : std::string();
  return Graph.add(
      std::move(Name), std::move(Category),
      [this, S, Index, FRName = std::move(FRName),
       FRDetail = std::move(FRDetail),
       Fn = std::move(Fn)](uint32_t Worker) {
        FlightRecorder *FR = Recorder.get();
        if (FR) {
          // Bind the worker thread to its lane so pipeline phase spans
          // inside the job land in the black box as breadcrumbs.
          FR->bindThread(Worker);
          FR->jobStart(Worker, FRName.c_str(), FRDetail.c_str());
        }
        ObsSession *Scope = nullptr;
        if (S) {
          JobObs[Index] = std::make_unique<ObsSession>(S->jobConfig());
          Scope = JobObs[Index].get();
        }
        try {
          Fn(Scope);
        } catch (const JobPending &) {
          // Parked: the re-run starts over in a fresh scope, so this
          // attempt's telemetry is dropped, never folded.
          JobObs[Index].reset();
          if (FR) {
            FR->jobParked(Worker, FRName.c_str());
            FlightRecorder::unbindThread();
          }
          throw;
        } catch (...) {
          // A failed job keeps its scope: run() folds its partial metrics.
          if (FR) {
            FR->jobFinish(Worker, FRName.c_str(), /*Ok=*/false);
            FlightRecorder::unbindThread();
          }
          throw;
        }
        if (FR) {
          FR->jobFinish(Worker, FRName.c_str(), /*Ok=*/true);
          FlightRecorder::unbindThread();
        }
      },
      std::move(Deps));
}

void ExperimentEngine::run() {
  const uint64_t SessionStartUs = Session ? Session->trace().nowUs() : 0;
  if (Recorder && Opts.WatchdogSec != 0)
    Recorder->startWatchdog(Opts.WatchdogSec,
                            Opts.Obs.FlightRecorderDumpPath);
  Outcomes = Graph.run(Opts.Threads);
  if (Recorder)
    Recorder->stopWatchdog();

  // Accumulate scheduler accounting across drains: high-water marks max,
  // counts sum, so one engine's sweep report covers every wave it ran.
  const JobSchedStats &GS = Graph.schedStats();
  if (GS.QueueDepthHighWater > SchedStats.QueueDepthHighWater)
    SchedStats.QueueDepthHighWater = GS.QueueDepthHighWater;
  SchedStats.WakeupRetries += GS.DequeueRetries;
  uint64_t Started = 0, Failed = 0, Skipped = 0;
  for (const JobOutcome &O : Outcomes) {
    if (!O.Ran)
      ++Skipped;
    else if (!O.Ok)
      ++Failed;
    if (O.Ran)
      ++Started;
  }
  SchedStats.JobsSkipped += Skipped;
  // Every job of the wave has drained, so no request can still hold a
  // memo entry.
  const RunMemo::Counts MemoCounts = Memo.counts();
  Memo.clear();
  SchedStats.RunMemoHits += MemoCounts.Hits;
  SchedStats.RunMemoMisses += MemoCounts.Misses;
  SchedStats.RunMemoSavedInstructions += MemoCounts.SavedInstructions;
  SchedStats.RunMemoImageBuilds += MemoCounts.ImageBuilds;
  SchedStats.RunMemoImageShares += MemoCounts.ImageShares;
  // Only memo requests park engine jobs.
  SchedStats.RunMemoParks += GS.Parks;

  // Fold per-job telemetry in JobId order so the session registry, the
  // trace, and the "jobs" array never depend on completion order. Counter
  // and histogram totals come out the same in any order; gauges are
  // last-write-wins, so the highest JobId that set one decides its value.
  if (Session) {
    // Job records get session-wide ids: this drain's JobId 0 lands at
    // jobs().size(), so dependency edges stay valid across drains.
    const size_t Base = Session->jobs().size();
    for (JobId Id = 0; Id != Outcomes.size(); ++Id) {
      const JobOutcome &O = Outcomes[Id];
      const uint64_t StartUs = SessionStartUs + O.StartUs;
      JobRecord R;
      R.Id = Base + Id;
      R.Name = Graph.name(Id);
      R.Category = Graph.category(Id);
      for (JobId Dep : Graph.deps(Id))
        R.Deps.push_back(Base + Dep);
      R.ReadyUs = SessionStartUs + O.ReadyUs;
      R.StartUs = StartUs;
      R.DurationUs = O.DurationUs;
      R.Worker = O.Worker;
      R.Ok = O.Ok;
      if (!O.Ok)
        R.Error = O.Error;
      if (ObsSession *Scope = JobObs[Id].get()) {
        Session->registry().merge(Scope->registry());
        if (EngineSelfProfiler *SessionSP = Session->selfProfiler())
          if (const EngineSelfProfiler *JobSP = Scope->selfProfiler())
            SessionSP->merge(*JobSP);
        R.Metrics = Scope->registry();
        if (O.Ran) {
          Session->trace().appendCompletedSpan(R.Name, R.Category, StartUs,
                                               O.DurationUs, O.Worker,
                                               /*Depth=*/0);
          Session->trace().appendForeign(Scope->trace(), StartUs, O.Worker,
                                         /*DepthBase=*/1);
        }
      }
      // Causal arrows along the dependency edges: producer finish ->
      // consumer start, each on its worker's lane. Only edges whose both
      // ends actually ran make sense on the timeline.
      if (Session->config().CollectTrace && O.Ran) {
        for (JobId Dep : Graph.deps(Id)) {
          const JobOutcome &D = Outcomes[Dep];
          if (!D.Ran)
            continue;
          Session->trace().appendFlowEdge(
              Graph.name(Dep), SessionStartUs + D.StartUs + D.DurationUs,
              D.Worker, StartUs, O.Worker);
        }
      }
      Session->recordJob(std::move(R));
    }

    // Scheduler telemetry, recorded once per drain after the fold so the
    // values are identical whether the drain ran serial or threaded —
    // except the timing histograms and the retry, park and image counters,
    // which are inherently wall-clock/schedule dependent (tests comparing
    // serial-vs-N-thread snapshots filter the engine.* namespace).
    MetricsRegistry &Reg = Session->registry();
    Reg.counter("engine.jobs.enqueued").inc(Outcomes.size());
    Reg.counter("engine.jobs.started").inc(Started);
    Reg.counter("engine.jobs.finished").inc(Started);
    Reg.counter("engine.jobs.failed").inc(Failed);
    Reg.counter("engine.jobs.skipped").inc(Skipped);
    Reg.counter("engine.run_memo.hits").inc(MemoCounts.Hits);
    Reg.counter("engine.run_memo.misses").inc(MemoCounts.Misses);
    Reg.counter("engine.run_memo.saved_instructions")
        .inc(MemoCounts.SavedInstructions);
    Reg.counter("engine.run_memo.parks").inc(GS.Parks);
    Reg.counter("engine.run_memo.image_builds").inc(MemoCounts.ImageBuilds);
    Reg.counter("engine.run_memo.image_shares").inc(MemoCounts.ImageShares);
    Reg.counter("engine.sched.wakeup_retries").inc(GS.DequeueRetries);
    Reg.gauge("engine.sched.queue_depth_high_water")
        .set(static_cast<double>(SchedStats.QueueDepthHighWater));
    Histogram &QueueWait = Reg.histogram("engine.job.queue_wait_us");
    Histogram &RunTime = Reg.histogram("engine.job.run_us");
    for (const JobOutcome &O : Outcomes) {
      if (!O.Ran)
        continue;
      QueueWait.record(O.StartUs > O.ReadyUs ? O.StartUs - O.ReadyUs : 0);
      RunTime.record(O.DurationUs);
    }
  }

  // Reset for the next wave before any rethrow, so a caught failure leaves
  // the engine usable.
  Graph = JobGraph();
  JobObs.clear();

  for (const JobOutcome &O : Outcomes)
    if (O.Exception)
      std::rethrow_exception(O.Exception);
}

void sprof::requireSharableConfig(const PipelineConfig &Config,
                                  const char *Caller) {
  if (!Config.TraceCapturePath.empty())
    throw std::invalid_argument(
        std::string(Caller) + ": PipelineConfig::TraceCapturePath '" +
        Config.TraceCapturePath +
        "' would have every concurrent profile job truncate and write that "
        "one file; capture from a single Pipeline::runProfile instead");
}

ProfileGroups::ProfileGroups(ExperimentEngine &Engine, PipelineConfig Config,
                             bool WithMemorySystem)
    : Engine(Engine), Config(std::move(Config)),
      WithMemorySystem(WithMemorySystem),
      Share(!(Engine.obs() && Engine.obs()->selfProfiler())) {}

JobId ProfileGroups::add(std::string Name, const Workload *W,
                         uint64_t SeedOffset, ProfilingMethod Method,
                         DataSet DS, CellFn Done) {
  Group *&Slot = Open[{W, SeedOffset, DS, instrumentationFamily(Method)}];
  if (!Share || !Slot) {
    Group *G = &Groups.emplace_back();
    Slot = G;
    G->W = W;
    G->SeedOffset = SeedOffset;
    G->DS = DS;
    G->Methods.push_back(Method);
    G->Done.push_back(std::move(Done));
    G->Leader = Engine.addJob(std::move(Name), "run-job",
                              [this, G](ObsSession *JobObs) {
                                runGroup(*G, JobObs);
                                G->Done[0](G->Results[0]);
                              });
    return G->Leader;
  }
  Group *G = Slot;
  const size_t K = G->Methods.size();
  G->Methods.push_back(Method);
  G->Done.push_back(std::move(Done));
  return Engine.addJob(
      std::move(Name), "run-job",
      [G, K](ObsSession *JobObs) {
        if (JobObs)
          JobObs->registry().merge(G->Metrics[K]);
        G->Done[K](G->Results[K]);
      },
      {G->Leader});
}

// The leader's job body: one profile execution for every cell of \p G.
// The other cells' metrics collect apart, in trace-free sessions of the
// job scope's configuration, so each cell's job can fold in its own.
void ProfileGroups::runGroup(Group &G, ObsSession *JobObs) const {
  PipelineConfig C = Config;
  C.WorkloadSeedOffset = G.SeedOffset;
  Pipeline P(*G.W, C, JobObs, Engine.runMemo());
  if (G.Methods.size() == 1) {
    G.Results.push_back(
        P.runProfile(G.Methods[0], G.DS, WithMemorySystem));
    return;
  }

  std::vector<ObsSession *> MethodObs;
  std::vector<std::unique_ptr<ObsSession>> Deltas;
  MethodObs.push_back(JobObs);
  for (size_t K = 1; K != G.Methods.size(); ++K) {
    if (!JobObs) {
      MethodObs.push_back(nullptr);
      continue;
    }
    ObsConfig DeltaConfig = JobObs->config();
    DeltaConfig.CollectTrace = false;
    Deltas.push_back(std::make_unique<ObsSession>(DeltaConfig));
    MethodObs.push_back(Deltas.back().get());
  }
  G.Results = P.runProfiles(G.Methods, G.DS, MethodObs, WithMemorySystem);
  G.Metrics.resize(G.Methods.size());
  for (size_t K = 1; K < G.Methods.size(); ++K)
    if (JobObs)
      G.Metrics[K] = Deltas[K - 1]->registry();
}

SweepResult ExperimentEngine::runSweep(const SweepSpec &Spec) {
  requireSharableConfig(Spec.Config, "runSweep");
  SweepResult Result;
  Result.Cells.resize(Spec.Workloads.size() * Spec.SeedOffsets.size() *
                      Spec.Methods.size() * Spec.ProfileInputs.size());
  ProfileGroups Groups(*this, Spec.Config, Spec.WithMemorySystem);

  size_t Idx = 0;
  for (const Workload *W : Spec.Workloads) {
    const std::string WName = W->info().Name;
    for (uint64_t Seed : Spec.SeedOffsets) {
      for (ProfilingMethod Method : Spec.Methods) {
        for (DataSet DS : Spec.ProfileInputs) {
          SweepCell *Cell = &Result.Cells[Idx++];
          Cell->W = W;
          Cell->Method = Method;
          Cell->ProfileDS = DS;
          Cell->SeedOffset = Seed;

          std::string Tag = WName + "/" +
                            profilingMethodName(Method) + "/" +
                            dataSetName(DS);
          if (Seed != 0)
            Tag += "/seed" + std::to_string(Seed);
          Groups.add("profile:" + Tag, W, Seed, Method, DS,
                     [Cell](ProfileRunResult &R) {
                       Cell->Profile = std::move(R);
                     });
        }
      }
    }
  }

  run();
  return Result;
}

JsonValue ExperimentEngine::sweepReport() const {
  return buildSweepReport(Session ? Session->jobs()
                                  : std::vector<JobRecord>{},
                          Opts.Threads, SchedStats);
}

bool ExperimentEngine::writeArtifacts() const {
  bool Ok = Session ? Session->writeArtifacts() : true;
  if (Session && !Opts.Obs.SweepReportOutputPath.empty())
    Ok &= writeJsonFile(Opts.Obs.SweepReportOutputPath, sweepReport());
  return Ok;
}
