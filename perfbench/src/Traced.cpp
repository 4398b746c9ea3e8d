//===- perfbench/src/Traced.cpp - Pipeline runs composed from layers ------===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//

#include "Traced.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "interp/ProgramCache.h"

using namespace sprof;

namespace perfbench {

namespace {

/// Identity of a pipeline run for driver.duplicate_runs: the executed
/// module's content fingerprint, the data set build, and what was attached
/// (cache model, profiler sampling mode).
void noteRun(JobScope &J, const Workload &W, const PipelineConfig &Config,
             const Module &M, DataSet DS, const char *Attached) {
  const auto [H1, H2] = ProgramCache::hashModule(M);
  J.tracer().noteRun(W.info().Name + "/" + dataSetName(DS) + "/" +
                     std::to_string(Config.WorkloadSeedOffset) + "/" +
                     std::to_string(H1) + ":" + std::to_string(H2) + "/" +
                     Attached);
}

/// Edge profile from a finished run's counters (as Pipeline::runProfile).
EdgeProfile harvestEdges(const Module &M, const InstrumentationResult &Instr,
                         const std::vector<uint64_t> &Counters) {
  EdgeProfile Edges(M.Functions.size());
  for (uint32_t FI = 0, FE = static_cast<uint32_t>(M.Functions.size());
       FI != FE; ++FI) {
    for (const auto &[E, CtrId] : Instr.EdgeCounters[FI])
      Edges.setFrequency(FI, E, Counters[CtrId]);
    if (Instr.EntryCounters[FI] != NoId)
      Edges.setEntryCount(FI, Counters[Instr.EntryCounters[FI]]);
  }
  return Edges;
}

} // namespace

void countMemory(LayerCounts &L, const MemoryStats &S) {
  L.MemDemand += S.DemandAccesses;
  if (!S.Levels.empty())
    L.L1Hits += S.Levels[0].Hits;
  L.PfUseful += S.PrefetchesUseful;
  L.PfIssued += S.PrefetchesIssued;
  L.PfRedundant += S.PrefetchesRedundant;
}

Program tracedBuild(JobScope &J, const Workload &W,
                    const PipelineConfig &Config, DataSet DS) {
  ++J.tracer().Counts.Builds;
  return J.layer("workloads",
                 [&] { return W.build({DS, Config.WorkloadSeedOffset}); });
}

RunStats tracedBareRun(JobScope &J, Interpreter &I) {
  RunStats S = J.layer("interp", [&] { return I.run(); });
  J.tracer().Counts.SimInstr += S.Instructions;
  return S;
}

ProfileRunResult tracedRunProfile(JobScope &J, const Workload &W,
                                  const PipelineConfig &Config,
                                  ProfilingMethod Method, DataSet DS,
                                  bool WithMemorySystem) {
  LayerCounts &L = J.tracer().Counts;
  Program Prog = tracedBuild(J, W, Config, DS);

  ProfileRunResult Result;
  Result.Method = Method;
  Result.Instr = J.layer("instrument", [&] {
    return instrumentModule(Prog.M, Method, Config.Instrument);
  });
  ++L.InstrumentCalls;
  L.ProfiledSites += Result.Instr.ProfiledSites.size();

  StrideProfilerConfig PC = Config.Profiler;
  PC.Sampling.Enabled = methodUsesSampling(Method);
  noteRun(J, W, Config, Prog.M, DS,
          WithMemorySystem ? (PC.Sampling.Enabled ? "memsys+sampled-profiler"
                                                  : "memsys+profiler")
                           : (PC.Sampling.Enabled ? "sampled-profiler"
                                                  : "profiler"));

  // The bare run keeps its own copy of the memory image when the cache
  // model run still needs the original.
  CollectSink Captured;
  Interpreter Bare(Prog.M,
                   WithMemorySystem ? SimMemory(Prog.Memory)
                                    : std::move(Prog.Memory),
                   Config.Timing, Config.Interp);
  Bare.attachEventSink(&Captured);
  RunStats BareStats = tracedBareRun(J, Bare);
  const uint64_t InterpNs = J.lastNs();

  StrideProfiler Profiler(Prog.M.NumLoadSites, PC);
  VectorSource Events(Captured.take(), Prog.M.NumLoadSites);
  const uint64_t RuntimeCycles = J.layer("profile", [&] {
    uint64_t Cost = Profiler.consume(Events, Config.Interp.StrideBatchWindow);
    Result.Strides = StrideProfile::fromProfiler(Profiler);
    return Cost;
  });
  const uint64_t ProfileNs = J.lastNs();
  Result.StrideInvocations = Profiler.totalInvocations();
  Result.StrideProcessed = Profiler.totalProcessed();
  Result.LfuCalls = Profiler.totalLfuCalls();
  L.ProfileEvents += Result.StrideInvocations;
  L.ProfileProcessed += Result.StrideProcessed;
  L.LfuCalls += Result.LfuCalls;

  if (!WithMemorySystem) {
    // Without a cache model the live run's accounting is the bare run's
    // plus the runtime's simulated cost.
    Result.Stats = std::move(BareStats);
    Result.Stats.RuntimeCycles = RuntimeCycles;
    Result.Stats.Cycles += RuntimeCycles;
    Result.Edges = harvestEdges(Prog.M, Result.Instr, Bare.counters());
    return Result;
  }

  // With the cache model each strideProf call's cost must land before the
  // next access is timed, so the profiler rides along on the live path.
  StrideProfiler Live(Prog.M.NumLoadSites, PC);
  Interpreter I(Prog.M, std::move(Prog.Memory), Config.Timing, Config.Interp);
  MemoryHierarchy MH(Config.Memory);
  I.attachMemory(&MH);
  I.attachProfiler(&Live);
  Result.Stats = J.layer("memsys", [&] { return I.run(); });
  L.MemsysNs += static_cast<int64_t>(J.lastNs()) -
                static_cast<int64_t>(InterpNs + ProfileNs);
  countMemory(L, Result.Stats.Mem);
  Result.Edges = harvestEdges(Prog.M, Result.Instr, I.counters());
  return Result;
}

RunStats tracedRunBaseline(JobScope &J, const Workload &W,
                           const PipelineConfig &Config, DataSet DS) {
  Program Prog = tracedBuild(J, W, Config, DS);
  noteRun(J, W, Config, Prog.M, DS, "memsys");

  Interpreter Bare(Prog.M, SimMemory(Prog.Memory), Config.Timing,
                   Config.Interp);
  tracedBareRun(J, Bare);
  const uint64_t InterpNs = J.lastNs();

  Interpreter I(Prog.M, std::move(Prog.Memory), Config.Timing, Config.Interp);
  MemoryHierarchy MH(Config.Memory);
  I.attachMemory(&MH);
  RunStats Stats = J.layer("memsys", [&] { return I.run(); });
  J.tracer().Counts.MemsysNs +=
      static_cast<int64_t>(J.lastNs()) - static_cast<int64_t>(InterpNs);
  countMemory(J.tracer().Counts, Stats.Mem);
  return Stats;
}

TimedRunResult tracedRunPrefetched(JobScope &J, const Workload &W,
                                   const PipelineConfig &Config, DataSet DS,
                                   const EdgeProfile &Edges,
                                   const StrideProfile &Strides) {
  LayerCounts &L = J.tracer().Counts;
  Program Prog = tracedBuild(J, W, Config, DS);

  TimedRunResult Result;
  Result.Feedback = J.layer("feedback", [&] {
    return runFeedback(Prog.M, Edges, Strides, Config.Classifier);
  });
  L.Decisions += Result.Feedback.Decisions.size() +
                 Result.Feedback.DependentDecisions.size();
  Result.Prefetches = J.layer(
      "prefetch", [&] { return insertPrefetches(Prog.M, Result.Feedback); });
  const PrefetchInsertionStats &P = Result.Prefetches;
  L.Inserted += P.SsstPrefetches + P.PmstPrefetches + P.WsstPrefetches +
                P.DependentPrefetches;
  noteRun(J, W, Config, Prog.M, DS, "memsys");

  Interpreter Bare(Prog.M, SimMemory(Prog.Memory), Config.Timing,
                   Config.Interp);
  tracedBareRun(J, Bare);
  const uint64_t InterpNs = J.lastNs();

  Interpreter I(Prog.M, std::move(Prog.Memory), Config.Timing, Config.Interp);
  MemoryHierarchy MH(Config.Memory);
  if (Config.Memory.EnableAttribution)
    MH.enableAttribution(Prog.M.NumLoadSites);
  I.attachMemory(&MH);
  Result.Stats = J.layer("memsys", [&] {
    RunStats S = I.run();
    MH.finalizeAttribution();
    return S;
  });
  L.MemsysNs +=
      static_cast<int64_t>(J.lastNs()) - static_cast<int64_t>(InterpNs);
  countMemory(L, Result.Stats.Mem);
  Result.Attribution = MH.attribution();
  return Result;
}

std::vector<bool> siteInLoop(const Module &M) {
  std::vector<SiteLocation> Sites = M.locateLoadSites();
  std::vector<bool> InLoop(M.NumLoadSites, false);
  for (uint32_t FI = 0; FI != M.Functions.size(); ++FI) {
    const Function &F = M.Functions[FI];
    DomTree DT = DomTree::forward(F);
    LoopInfo LI(F, DT);
    for (uint32_t Site = 0; Site != M.NumLoadSites; ++Site)
      if (Sites[Site].Func == FI)
        InLoop[Site] = LI.isInLoop(Sites[Site].Block);
  }
  return InLoop;
}

} // namespace perfbench
