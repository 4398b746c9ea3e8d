//===- driver/Pipeline.cpp - Instrument / profile / feedback / run ---------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "driver/RunMemo.h"
#include "driver/TraceReplay.h"
#include "interp/ProgramCache.h"
#include "ir/Verifier.h"
#include "obs/SelfProfiler.h"
#include "obs/Trace.h"
#include "stream/TraceFile.h"

#include <cassert>
#include <tuple>

using namespace sprof;

/// Labels the engine self-profiler's accumulation bucket for the phase
/// about to execute, so folded-stack lines read "workload;phase;op".
static void labelSelfProfile(ObsSession *Obs, const Workload &W,
                             const char *Phase) {
  if (Obs)
    if (EngineSelfProfiler *SP = Obs->selfProfiler())
      SP->setContext(W.info().Name, Phase);
}

ProfileRunResult Pipeline::runProfile(ProfilingMethod Method, DataSet DS,
                                      bool WithMemorySystem) const {
  ObsSession *Obs = Session;
  TraceSpan Span(Obs, "run-profile", "pipeline", /*Level=*/1);

  Program Prog = [&] {
    TraceSpan BS(Obs, "build-workload", "pipeline", /*Level=*/1);
    return W.build({DS, Config.WorkloadSeedOffset});
  }();
  assert(isWellFormed(Prog.M) && "workload built a malformed module");

  ProfileRunResult Result;
  Result.Method = Method;
  Result.Instr = instrumentModule(Prog.M, Method, Config.Instrument, Obs);
  assert(isWellFormed(Prog.M) && "instrumentation broke the module");

  StrideProfilerConfig PC = Config.Profiler;
  PC.Sampling.Enabled = methodUsesSampling(Method);
  StrideProfiler Profiler(Prog.M.NumLoadSites, PC);
  Profiler.attachObs(Obs);

  Interpreter I(Prog.M, std::move(Prog.Memory), Config.Timing, Config.Interp);
  MemoryHierarchy MH(Config.Memory);
  if (WithMemorySystem)
    I.attachMemory(&MH);
  I.attachProfiler(&Profiler);
  I.attachObs(Obs);

  // Optional trace capture: tee the ProfStride event stream into a
  // sprof.trace file while the profiler consumes it live.
  std::unique_ptr<TraceWriter> Capture;
  if (!Config.TraceCapturePath.empty()) {
    TraceProvenance Prov{W.info().Name, dataSetName(DS),
                         profilingMethodName(Method)};
    std::string CapErr;
    Capture = TraceWriter::open(Config.TraceCapturePath, Prog.M.NumLoadSites,
                                std::move(Prov), /*Text=*/false, &CapErr);
    if (Capture)
      I.attachEventSink(Capture.get());
    else if (Obs)
      Obs->counter("pipeline.trace_capture_failures")->inc();
  }

  labelSelfProfile(Obs, W, "profile");
  {
    TraceSpan ES(Obs, "execute", "interp", /*Level=*/1);
    Result.Stats = I.run();
  }
  assert(Result.Stats.Completed && "profile run did not complete");

  // Harvest the edge profile from the counters.
  Result.Edges = EdgeProfile(Prog.M.Functions.size());
  const std::vector<uint64_t> &Counters = I.counters();
  for (uint32_t FI = 0, FE = static_cast<uint32_t>(Prog.M.Functions.size());
       FI != FE; ++FI) {
    for (const auto &[E, CtrId] : Result.Instr.EdgeCounters[FI])
      Result.Edges.setFrequency(FI, E, Counters[CtrId]);
    if (Result.Instr.EntryCounters[FI] != NoId)
      Result.Edges.setEntryCount(FI,
                                 Counters[Result.Instr.EntryCounters[FI]]);
  }

  {
    TraceSpan HS(Obs, "strideprof-harvest", "profile", /*Level=*/1);
    Result.Strides = StrideProfile::fromProfiler(Profiler);
  }
  Result.StrideInvocations = Profiler.totalInvocations();
  Result.StrideProcessed = Profiler.totalProcessed();
  Result.LfuCalls = Profiler.totalLfuCalls();

  if (Capture) {
    // The edge section makes the trace self-contained: replay rebuilds
    // the classifier's full input without re-executing the program.
    Capture->setEdgeSection(edgeSectionFromProfile(Result.Edges));
    Capture->finish();
    Result.Capture.Enabled = Capture->ok();
    Result.Capture.Path = Config.TraceCapturePath;
    Result.Capture.Schema = Capture->schema();
    Result.Capture.Events = Capture->eventsWritten();
    Result.Capture.Bytes = Capture->bytesWritten();
    if (Obs) {
      Obs->counter("pipeline.trace_captured_events")
          ->inc(Result.Capture.Events);
      Obs->counter("pipeline.trace_captured_bytes")
          ->inc(Result.Capture.Bytes);
    }
  }

  if (Obs) {
    Obs->counter("pipeline.profile_runs")->inc();
    Obs->counter("pipeline.profile_cycles")->inc(Result.Stats.Cycles);
    Obs->counter("strideprof.invocations")->inc(Result.StrideInvocations);
    Obs->counter("strideprof.processed")->inc(Result.StrideProcessed);
    Obs->counter("strideprof.lfu_calls")->inc(Result.LfuCalls);
  }
  return Result;
}

RunStats Pipeline::runBaseline(DataSet DS) const {
  ObsSession *Obs = Session;
  TraceSpan Span(Obs, "run-baseline", "pipeline", /*Level=*/1);

  Program Prog = [&] {
    TraceSpan BS(Obs, "build-workload", "pipeline", /*Level=*/1);
    return W.build({DS, Config.WorkloadSeedOffset});
  }();
  assert(isWellFormed(Prog.M) && "workload built a malformed module");
  RunStats Stats =
      executeTimed(Prog, DS, /*Attribution=*/false, "baseline").first;
  assert(Stats.Completed && "baseline run did not complete");

  if (Obs) {
    Obs->counter("pipeline.baseline_runs")->inc();
    Obs->counter("pipeline.baseline_cycles")->inc(Stats.Cycles);
  }
  return Stats;
}

TimedRunResult Pipeline::runPrefetched(DataSet DS, const EdgeProfile &Edges,
                                       const StrideProfile &Strides) const {
  ObsSession *Obs = Session;
  TraceSpan Span(Obs, "timed-run", "pipeline", /*Level=*/1);

  Program Prog = [&] {
    TraceSpan BS(Obs, "build-workload", "pipeline", /*Level=*/1);
    return W.build({DS, Config.WorkloadSeedOffset});
  }();
  TimedRunResult Result;
  Result.Feedback =
      runFeedback(Prog.M, Edges, Strides, Config.Classifier, Obs);
  Result.Prefetches = insertPrefetches(Prog.M, Result.Feedback, Obs);
  assert(isWellFormed(Prog.M) && "prefetch insertion broke the module");

  std::tie(Result.Stats, Result.Attribution) =
      executeTimed(Prog, DS, Config.Memory.EnableAttribution, "timed");
  assert(Result.Stats.Completed && "prefetched run did not complete");

  if (Obs) {
    Obs->counter("pipeline.timed_runs")->inc();
    Obs->counter("pipeline.timed_cycles")->inc(Result.Stats.Cycles);
  }
  if (Obs && Result.Attribution.Enabled) {
    const PrefetchOutcomeCounts &T = Result.Attribution.Total;
    Obs->counter("prefetch.outcome.useful")->inc(T.Useful);
    Obs->counter("prefetch.outcome.late")->inc(T.Late);
    Obs->counter("prefetch.outcome.early")->inc(T.Early);
    Obs->counter("prefetch.outcome.redundant")->inc(T.Redundant);
    uint64_t Accesses = 0, L1Misses = 0, FullMisses = 0, Stall = 0;
    for (const SiteMissStats &SM : Result.Attribution.SiteMiss) {
      Accesses += SM.Accesses;
      L1Misses += SM.L1Misses;
      FullMisses += SM.FullMisses;
      Stall += SM.StallCycles;
    }
    Obs->counter("memsys.site_miss.accesses")->inc(Accesses);
    Obs->counter("memsys.site_miss.l1_misses")->inc(L1Misses);
    Obs->counter("memsys.site_miss.full_misses")->inc(FullMisses);
    Obs->counter("memsys.site_miss.stall_cycles")->inc(Stall);
  }
  return Result;
}

std::pair<RunStats, AttributionData>
Pipeline::executeTimed(Program &Prog, DataSet DS, bool Attribution,
                       const char *Phase) const {
  ObsSession *Obs = Session;
  auto Execute = [&](ObsSession *RunObs) {
    Interpreter I(Prog.M, std::move(Prog.Memory), Config.Timing,
                  Config.Interp);
    MemoryHierarchy MH(Config.Memory);
    if (Attribution)
      MH.enableAttribution(Prog.M.NumLoadSites);
    I.attachMemory(&MH);
    I.attachObs(RunObs);
    MemoizedRun Run;
    Run.Stats = I.run();
    MH.finalizeAttribution();
    Run.Attribution = MH.attribution();
    return Run;
  };

  labelSelfProfile(Obs, W, Phase);
  TraceSpan ES(Obs, "execute", "interp", /*Level=*/1);
  // Self-profiler samples belong to the run that took them, so a profiled
  // session always executes.
  if (!Memo || (Obs && Obs->selfProfiler())) {
    MemoizedRun Run = Execute(Obs);
    return {std::move(Run.Stats), std::move(Run.Attribution)};
  }

  RunMemoKey Key{.W = &W,
                 .DS = DS,
                 .SeedOffset = Config.WorkloadSeedOffset,
                 .ModuleHash = ProgramCache::hashModule(Prog.M),
                 .Timing = Config.Timing,
                 .Memory = Config.Memory,
                 .Interp = Config.Interp};
  Key.Memory.EnableAttribution = Attribution;
  std::shared_ptr<const MemoizedRun> Run = Memo->run(Key, [&] {
    // Collect the run's metrics apart, so every request can replay them.
    ObsConfig DeltaConfig;
    DeltaConfig.Enabled = true;
    DeltaConfig.CollectTrace = false;
    ObsSession Delta(DeltaConfig);
    MemoizedRun R = Execute(&Delta);
    R.Metrics = Delta.registry();
    return R;
  });
  if (Obs && Obs->config().CollectMetrics)
    Obs->registry().merge(Run->Metrics);
  return {Run->Stats, Run->Attribution};
}

double Pipeline::speedup(DataSet RunDS, const EdgeProfile &Edges,
                         const StrideProfile &Strides) const {
  RunStats Base = runBaseline(RunDS);
  TimedRunResult Pf = runPrefetched(RunDS, Edges, Strides);
  return static_cast<double>(Base.Cycles) /
         static_cast<double>(Pf.Stats.Cycles);
}

double Pipeline::speedup(ProfilingMethod Method, DataSet ProfileDS,
                         DataSet RunDS) const {
  ProfileRunResult P = runProfile(Method, ProfileDS,
                                  /*WithMemorySystem=*/false);
  return speedup(RunDS, P.Edges, P.Strides);
}
