//===- driver/Pipeline.cpp - Instrument / profile / feedback / run ---------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/LoopInfo.h"
#include "driver/RunMemo.h"
#include "driver/TraceReplay.h"
#include "interp/ProgramCache.h"
#include "ir/Verifier.h"
#include "obs/SelfProfiler.h"
#include "obs/Trace.h"
#include "stream/TraceFile.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
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

namespace {

/// Feeds one execution's ProfStride batches to the profilers of every
/// method but the one the interpreter drives itself, summing each one's
/// simulated cost. A sliced profiler sees only the events of in-loop load
/// sites: in a naive-all execution, exactly the trap stream of the
/// naive-loop run.
class ProfilerFanOut final : public AccessSink {
public:
  /// \p Rider's profiler takes no batches here; \p InLoop (per load site)
  /// is empty when no method in \p Sliced is.
  ProfilerFanOut(std::span<StrideProfiler> Profilers, size_t Rider,
                 std::vector<bool> Sliced, std::vector<uint8_t> InLoop)
      : Profilers(Profilers), Rider(Rider), Sliced(std::move(Sliced)),
        InLoop(std::move(InLoop)), Costs(Profilers.size(), 0) {}

  void onBatch(const AccessEvent *Events, size_t N) override {
    size_t NIn = 0;
    if (!InLoop.empty()) {
      if (Slice.size() < N)
        Slice.resize(N);
      for (size_t I = 0; I != N; ++I) {
        Slice[NIn] = Events[I];
        NIn += InLoop[Events[I].SiteId];
      }
    }
    for (size_t K = 0; K != Profilers.size(); ++K) {
      if (K == Rider)
        continue;
      if (!Sliced[K])
        Costs[K] += Profilers[K].profileBatch(Events, N);
      else if (NIn != 0)
        Costs[K] += Profilers[K].profileBatch(Slice.data(), NIn);
    }
  }

  std::span<StrideProfiler> Profilers;
  size_t Rider;
  std::vector<bool> Sliced;
  std::vector<uint8_t> InLoop;
  std::vector<AccessEvent> Slice;
  std::vector<uint64_t> Costs;
};

} // namespace

ProfileRunResult Pipeline::runProfile(ProfilingMethod Method, DataSet DS,
                                      bool WithMemorySystem) const {
  return std::move(profileRuns({&Method, 1}, DS, {}, WithMemorySystem)[0]);
}

std::vector<ProfileRunResult>
Pipeline::runProfiles(std::span<const ProfilingMethod> Methods, DataSet DS,
                      std::span<ObsSession *const> MethodObs,
                      bool WithMemorySystem) const {
  for (ProfilingMethod M : Methods)
    if (instrumentationFamily(M) != instrumentationFamily(Methods[0]))
      throw std::invalid_argument(
          std::string("runProfiles: ") + profilingMethodName(M) +
          " and " + profilingMethodName(Methods[0]) +
          " instrument differently and cannot share a run");
  if (!MethodObs.empty() && MethodObs.size() != Methods.size())
    throw std::invalid_argument(
        "runProfiles: MethodObs needs one session per method");
  if (Methods.size() > 1 && !Config.TraceCapturePath.empty())
    throw std::invalid_argument(
        "runProfiles: trace capture records one method's run; profile "
        "methods one at a time to capture");
  return profileRuns(Methods, DS, MethodObs, WithMemorySystem);
}

std::vector<ProfileRunResult>
Pipeline::profileRuns(std::span<const ProfilingMethod> Methods, DataSet DS,
                      std::span<ObsSession *const> MethodObs,
                      bool WithMemorySystem) const {
  // One base image serves the stall run and every execution below.
  std::shared_ptr<const MemoryImage> Image;
  if (!WithMemorySystem)
    return executeProfiles(Methods, DS, MethodObs, /*TimeMemory=*/false,
                           /*Stall=*/nullptr, Image);
  ObsSession *Obs = MethodObs.empty() ? Session : MethodObs.front();
  if (std::optional<RunStats> Stall = memsysStall(DS, Image, Obs))
    return executeProfiles(Methods, DS, MethodObs, /*TimeMemory=*/false,
                           &*Stall, Image);
  // The cache model times each method's own execution.
  std::vector<ProfileRunResult> Results;
  for (size_t K = 0; K != Methods.size(); ++K)
    Results.push_back(std::move(executeProfiles(
        Methods.subspan(K, 1), DS,
        MethodObs.empty() ? MethodObs : MethodObs.subspan(K, 1),
        /*TimeMemory=*/true, /*Stall=*/nullptr, Image)[0]));
  return Results;
}

std::optional<RunStats>
Pipeline::memsysStall(DataSet DS, std::shared_ptr<const MemoryImage> &Image,
                      ObsSession *Obs) const {
  // A self-profiled session samples the run whose cycles it reports.
  if (Obs && Obs->selfProfiler())
    return std::nullopt;
  TraceSpan Span(Obs, "memsys-stall", "pipeline");
  const std::shared_ptr<const Module> M = baseModule(DS, Image, Obs);
  // Instrumentation adds no memory op, so this is the instrumented
  // module's property too.
  if (!runsClockFree(*M))
    return std::nullopt;
  // Its telemetry stays out of the profile run's: the run memo counts it.
  return executeTimed(*M, Image, DS, /*Attribution=*/false, "memsys-stall",
                      /*Obs=*/nullptr)
      .first;
}

bool Pipeline::runsClockFree(const Module &M) const {
  // The Reference engine, the executable spec, keeps the timed model.
  if (Config.Interp.Exec == InterpreterConfig::Engine::Reference)
    return false;
  for (const CacheLevelConfig &L : Config.Memory.Levels)
    if (Config.Timing.FlatLoadLatency > L.HitLatency)
      return false;
  for (const Function &F : M.Functions)
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        if (I.Op == Opcode::Prefetch || I.Op == Opcode::SpecLoad)
          return false;
  return true;
}

std::shared_ptr<const Module>
Pipeline::baseModule(DataSet DS, std::shared_ptr<const MemoryImage> &Image,
                     ObsSession *Obs) const {
  TraceSpan BS(Obs, "build-workload", "pipeline");
  const BuildRequest Req(DS, Config.WorkloadSeedOffset);
  if (Memo)
    return Memo->module(W, Req);
  Program Prog = W.build(Req);
  assert(isWellFormed(Prog.M) && "workload built a malformed module");
  Image = SimMemory::freeze(std::move(Prog.Memory));
  return std::make_shared<const Module>(std::move(Prog.M));
}

void Pipeline::takeImage(DataSet DS, std::shared_ptr<const MemoryImage> &Image,
                         ObsSession *Obs) const {
  if (Image)
    return;
  TraceSpan BS(Obs, "build-image", "pipeline");
  Image = Memo->image(W, {DS, Config.WorkloadSeedOffset});
}

std::vector<ProfileRunResult>
Pipeline::executeProfiles(std::span<const ProfilingMethod> Methods,
                          DataSet DS, std::span<ObsSession *const> MethodObs,
                          bool TimeMemory, const RunStats *Stall,
                          std::shared_ptr<const MemoryImage> &Image) const {
  const size_t N = Methods.size();
  if (N == 0)
    return {};
  auto ObsOf = [&](size_t K) {
    return MethodObs.empty() ? Session : MethodObs[K];
  };
  ObsSession *Obs = ObsOf(0);
  TraceSpan Span(Obs, "run-profile", "pipeline");

  Module M = *baseModule(DS, Image, Obs);
  takeImage(DS, Image, Obs);

  // The module is instrumented for the family's widest base method when a
  // method needs it (naive-all), and the first method of that base rides
  // in the interpreter. A method of a narrower base (naive-loop) is sliced:
  // it profiles the in-loop events of that execution, which are exactly
  // its own run's trap stream.
  const ProfilingMethod Family = instrumentationFamily(Methods[0]);
  const auto Widest = std::find_if(
      Methods.begin(), Methods.end(),
      [&](ProfilingMethod M) { return baseMethod(M) == Family; });
  const size_t Rider = Widest == Methods.end()
                           ? 0
                           : static_cast<size_t>(Widest - Methods.begin());
  const ProfilingMethod Instrumented = baseMethod(Methods[Rider]);
  std::vector<bool> Sliced(N);
  std::vector<uint8_t> InLoop;
  for (size_t K = 0; K != N; ++K)
    Sliced[K] = baseMethod(Methods[K]) != Instrumented;
  if (std::find(Sliced.begin(), Sliced.end(), true) != Sliced.end()) {
    const std::vector<bool> Sites = loadSitesInLoop(M);
    InLoop.assign(Sites.begin(), Sites.end());
  }

  InstrumentationResult Instr = [&] {
    TraceSpan IS(Obs, "instrument", "instrument");
    return instrumentModule(M, Instrumented, Config.Instrument);
  }();
  assert(isWellFormed(M) && "instrumentation broke the module");

  std::vector<StrideProfiler> Profilers;
  Profilers.reserve(N);
  for (size_t K = 0; K != N; ++K) {
    StrideProfilerConfig PC = Config.Profiler;
    PC.Sampling.Enabled = methodUsesSampling(Methods[K]);
    Profilers.emplace_back(M.NumLoadSites, PC);
    Profilers.back().attachObs(ObsOf(K));
  }

  // The rider's profiler runs in the interpreter exactly as a lone run's
  // would; the others take the same event batches through the fan-out. A
  // run given its stall reports every method's interp.* below, once the
  // stall is in its cycle count (its session has no self-profiler to
  // attach, see memsysStall).
  Interpreter I(M, SimMemory(Image), Config.Timing, Config.Interp);
  std::optional<MemoryHierarchy> MH;
  if (TimeMemory)
    I.attachMemory(&MH.emplace(Config.Memory));
  I.attachProfiler(&Profilers[Rider]);
  I.attachObs(Stall ? nullptr : ObsOf(Rider));
  ProfilerFanOut FanOut(Profilers, Rider, Sliced, std::move(InLoop));
  if (N > 1)
    I.attachEventSink(&FanOut);

  // Optional trace capture: tee the ProfStride event stream into a
  // sprof.trace file while the profiler consumes it live.
  std::unique_ptr<TraceWriter> Capture;
  if (!Config.TraceCapturePath.empty()) {
    TraceProvenance Prov{W.info().Name, dataSetName(DS),
                         profilingMethodName(Methods[0])};
    Capture = TraceWriter::open(Config.TraceCapturePath, M.NumLoadSites,
                                std::move(Prov));
    if (Capture)
      I.attachEventSink(Capture.get());
    else if (Obs)
      Obs->counter("pipeline.trace_capture_failures")->inc();
  }

  labelSelfProfile(ObsOf(Rider), W, "profile");
  RunStats Stats;
  {
    TraceSpan ES(Obs, "execute", "interp");
    Stats = I.run();
  }
  assert(Stats.Completed && "profile run did not complete");

  // Harvest the edge profile from the counters.
  EdgeProfile Edges(M.Functions.size());
  const std::vector<uint64_t> &Counters = I.counters();
  for (uint32_t FI = 0, FE = static_cast<uint32_t>(M.Functions.size());
       FI != FE; ++FI) {
    for (const auto &[E, CtrId] : Instr.EdgeCounters[FI])
      Edges.setFrequency(FI, E, Counters[CtrId]);
    if (Instr.EntryCounters[FI] != NoId)
      Edges.setEntryCount(FI, Counters[Instr.EntryCounters[FI]]);
  }

  // A prefetch-free run's memory accounting is its un-instrumented
  // program's (see MemoryHierarchy): the memsys-free run plus its stall.
  if (Stall) {
    Stats.MemStallCycles = Stall->MemStallCycles;
    Stats.Cycles += Stall->MemStallCycles;
    Stats.Mem = Stall->Mem;
  }

  // Every result but the last copies the shared parts; the last moves them.
  const uint64_t ExecCycles = Stats.Cycles - Stats.RuntimeCycles;
  const uint64_t ExecTraps = Profilers[Rider].totalInvocations();
  std::vector<ProfileRunResult> Results(N);
  for (size_t K = 0; K != N; ++K) {
    ProfileRunResult &Result = Results[K];
    ObsSession *MObs = ObsOf(K);
    const StrideProfiler &Profiler = Profilers[K];
    const bool Last = K + 1 == N;
    Result.Method = Methods[K];
    Result.Instr = Last ? std::move(Instr) : Instr;
    Result.Instr.Method = Methods[K];
    Result.Edges = Last ? std::move(Edges) : Edges;
    Result.Stats = Last ? std::move(Stats) : Stats;
    if (Sliced[K]) {
      // The in-loop slice: the execution without its out-loop traps, each
      // one instruction that charges only runtime cycles.
      std::erase_if(Result.Instr.ProfiledSites,
                    [&](uint32_t Site) { return !FanOut.InLoop[Site]; });
      Result.Stats.Instructions -= ExecTraps - Profiler.totalInvocations();
    }
    if (K != Rider) {
      // The execution's accounting with this method's runtime cost in
      // place of the rider's (exact: nothing reads the cycle count between
      // traps).
      const uint64_t Runtime = FanOut.Costs[K];
      Result.Stats.Cycles = ExecCycles + Runtime;
      Result.Stats.RuntimeCycles = Runtime;
    }
    recordInstrumentation(MObs, Result.Instr);
    if (K != Rider || Stall)
      I.recordRun(MObs, Result.Stats, Profiler.totalInvocations());
    {
      TraceSpan HS(MObs, "strideprof-harvest", "profile");
      Result.Strides = StrideProfile::fromProfiler(Profiler);
    }
    Result.StrideInvocations = Profiler.totalInvocations();
    Result.StrideProcessed = Profiler.totalProcessed();
    Result.LfuCalls = Profiler.totalLfuCalls();
    if (MObs) {
      MObs->counter("pipeline.profile_runs")->inc();
      MObs->counter("pipeline.profile_cycles")->inc(Result.Stats.Cycles);
      if (Stall)
        MObs->counter("pipeline.profile_memsys_derived")->inc();
      if (Sliced[K])
        MObs->counter("pipeline.profile_sliced")->inc();
      MObs->counter("strideprof.invocations")->inc(Result.StrideInvocations);
      MObs->counter("strideprof.processed")->inc(Result.StrideProcessed);
      MObs->counter("strideprof.lfu_calls")->inc(Result.LfuCalls);
    }
  }

  if (Capture) {
    // The edge section makes the trace self-contained: replay rebuilds
    // the classifier's full input without re-executing the program.
    ProfileRunResult &Result = Results[0];
    Capture->setEdgeSection(edgeSectionFromProfile(Result.Edges));
    Capture->finish();
    Result.Capture.Enabled = Capture->ok();
    Result.Capture.Path = Config.TraceCapturePath;
    Result.Capture.Schema = TraceSchemaV2;
    Result.Capture.Events = Capture->eventsWritten();
    Result.Capture.Bytes = Capture->bytesWritten();
    if (Obs) {
      Obs->counter("pipeline.trace_captured_events")
          ->inc(Result.Capture.Events);
      Obs->counter("pipeline.trace_captured_bytes")
          ->inc(Result.Capture.Bytes);
    }
  }
  return Results;
}

RunStats Pipeline::runBaseline(DataSet DS) const {
  ObsSession *Obs = Session;
  TraceSpan Span(Obs, "run-baseline", "pipeline");

  std::shared_ptr<const MemoryImage> Image;
  const std::shared_ptr<const Module> M = baseModule(DS, Image, Obs);
  RunStats Stats =
      executeTimed(*M, Image, DS, /*Attribution=*/false, "baseline", Obs)
          .first;
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
  TraceSpan Span(Obs, "timed-run", "pipeline");

  std::shared_ptr<const MemoryImage> Image;
  Module M = *baseModule(DS, Image, Obs);
  TimedRunResult Result;
  Result.Feedback = runFeedback(M, Edges, Strides, Config.Classifier, Obs);
  Result.Prefetches = insertPrefetches(M, Result.Feedback, Obs);
  assert(isWellFormed(M) && "prefetch insertion broke the module");

  std::tie(Result.Stats, Result.Attribution) =
      executeTimed(M, Image, DS, Config.Memory.EnableAttribution, "timed",
                   Obs);
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
Pipeline::executeTimed(const Module &M,
                       std::shared_ptr<const MemoryImage> &Image, DataSet DS,
                       bool Attribution, const char *Phase,
                       ObsSession *Obs) const {
  auto Execute = [&](ObsSession *RunObs) {
    takeImage(DS, Image, Obs);
    const bool ClockFree = runsClockFree(M);
    Interpreter I(M, SimMemory(Image), Config.Timing, Config.Interp);
    MemoryHierarchy MH(Config.Memory,
                       ClockFree ? CacheModel::ClockFree : CacheModel::Timed);
    if (Attribution)
      MH.enableAttribution(M.NumLoadSites);
    I.attachMemory(&MH);
    I.attachObs(RunObs);
    MemoizedRun Run;
    Run.Stats = I.run();
    MH.finalizeAttribution();
    Run.Attribution = MH.attribution();
    if (RunObs && ClockFree)
      RunObs->counter("memsys.clock_free_runs")->inc();
    return Run;
  };

  labelSelfProfile(Obs, W, Phase);
  TraceSpan ES(Obs, "execute", "interp");
  // Self-profiler samples belong to the run that took them, so a profiled
  // session always executes.
  if (!Memo || (Obs && Obs->selfProfiler())) {
    MemoizedRun Run = Execute(Obs);
    return {std::move(Run.Stats), std::move(Run.Attribution)};
  }

  RunMemoKey Key{.W = &W,
                 .DS = DS,
                 .SeedOffset = Config.WorkloadSeedOffset,
                 .ModuleHash = ProgramCache::hashModule(M),
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
  if (Obs)
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
