//===- driver/TraceReplay.cpp - Trace-replay frontend ---------------------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/TraceReplay.h"

#include "driver/ParallelReplay.h"
#include "workloads/Workload.h"

#include <cassert>
#include <future>

namespace sprof {

TraceEdgeSection edgeSectionFromProfile(const EdgeProfile &EP) {
  TraceEdgeSection S;
  S.Present = true;
  S.NumFunctions = static_cast<uint32_t>(EP.numFunctions());
  for (uint32_t F = 0; F != S.NumFunctions; ++F) {
    // Zero counts are recorded too: a replayed EdgeProfile must compare
    // equal to the harvested one entry for entry, not just value for
    // value, so the classifier sees the identical structure.
    S.Entries.push_back({F, EP.entryCount(F)});
    for (const auto &[E, Count] : EP.functionEdges(F))
      S.Edges.push_back({F, E.From, static_cast<uint32_t>(E.Slot), Count});
  }
  return S;
}

EdgeProfile edgeProfileFromSection(const TraceEdgeSection &S) {
  EdgeProfile EP(S.NumFunctions);
  for (const TraceEntryRecord &R : S.Entries)
    EP.setEntryCount(R.Func, R.Count);
  for (const TraceEdgeRecord &R : S.Edges)
    EP.setFrequency(R.Func, Edge{R.From, R.Slot}, R.Count);
  return EP;
}

StreamReplayStats replayWithSyntheticPrefetch(
    MemoryHierarchy &MH, AccessSource &Src, const StreamReplayConfig &Config,
    std::span<const int64_t> SiteStride, unsigned Distance) {
  StreamReplayStats S;
  std::vector<AccessEvent> Buf(Config.BatchSize ? Config.BatchSize : 1);
  uint64_t Now = 0;
  while (size_t N = Src.pull(Buf.data(), Buf.size())) {
    for (size_t I = 0; I < N; ++I) {
      const AccessEvent &E = Buf[I];
      Now += Config.IssueCost;
      if (E.Kind == AccessKind::Prefetch) {
        MH.prefetch(E.Address, Now, E.SiteId);
        ++S.Prefetches;
      } else {
        const uint64_t Latency = MH.demandAccess(E.Address, Now, E.SiteId);
        const uint64_t Stall =
            Latency > Config.HiddenLatency ? Latency - Config.HiddenLatency
                                           : 0;
        Now += Stall;
        S.StallCycles += Stall;
        ++S.Loads;
        const int64_t Stride =
            E.SiteId < SiteStride.size() ? SiteStride[E.SiteId] : 0;
        if (Stride != 0) {
          Now += Config.IssueCost;
          MH.prefetch(E.Address +
                          static_cast<uint64_t>(Stride) * Distance,
                      Now, E.SiteId);
          ++S.Prefetches;
        }
      }
      ++S.Events;
    }
  }
  S.Cycles = Now;
  return S;
}

TraceReplayResult replayStream(AccessSource &Src,
                               const TraceReplayOptions &Opts,
                               const std::string &SourceName,
                               const TraceEdgeSection *Edges,
                               const TraceProvenance *Prov) {
  TraceReplayResult R;
  R.Source = SourceName;
  if (Prov)
    R.Prov = *Prov;
  R.NumSites = Src.numSites();
  R.Method = Opts.Method.value_or(ProfilingMethod::EdgeCheck);
  R.Ok = true;

  // Workload resolution: a trace that names a workload we can rebuild
  // gets the full live-pipeline evaluation (builds are deterministic, so
  // this reproduces the capturing run's modules bit for bit).
  std::unique_ptr<Workload> W;
  if (Opts.EvaluateWorkload && !R.Prov.Workload.empty())
    W = makeWorkloadByName(R.Prov.Workload);

  StreamReplayConfig SC;
  SC.HiddenLatency = Opts.Config.Timing.FlatLoadLatency;
  SC.BatchSize = Opts.Config.Interp.StrideBatchWindow;
  StreamReplayStats DemandStats;
  MemoryStats DemandMem;
  auto DemandPass = [&](AccessSource &Cursor) {
    MemoryHierarchy Base(Opts.Config.Memory);
    DemandStats = replayAccessStream(Base, Cursor, SC);
    DemandMem = Base.stats();
  };
  // The demand-only cache pass depends on nothing but the events. With
  // Threads > 1 and the events in one buffer it runs as its own job, on its
  // own cursor (never Src's), beside the profile, the classification and
  // the prefetched pass; it is joined after the prefetched pass. Other
  // sources run it serially, before the prefetched pass.
  auto *Buffered = dynamic_cast<VectorSource *>(&Src);
  const bool Overlap = Opts.SimulateMemory && Opts.Threads > 1 && Buffered;
  std::future<void> DemandJob;
  if (Overlap)
    DemandJob = std::async(std::launch::async, [&] {
      SpanSource Cursor(Buffered->events(), Buffered->numSites());
      DemandPass(Cursor);
    });

  // Pass 1 -- stream-driven profile phase.
  if (W) {
    Pipeline PL(*W, Opts.Config);
    R.Profile = PL.profileFromStream(Src, R.Method, Opts.Threads);
  } else if (Opts.Threads > 1) {
    // Site-sharded parallel profile (driver/ParallelReplay.h);
    // bit-identical to the serial branch below.
    StrideProfilerConfig PC = Opts.Config.Profiler;
    PC.Sampling.Enabled = methodUsesSampling(R.Method);
    ShardedProfileResult SP =
        profileEventsSharded(Src, PC, Opts.Threads, Opts.ProfileShards);
    R.Profile.Method = R.Method;
    R.Profile.Stats.RuntimeCycles = SP.RuntimeCycles;
    R.Profile.Stats.Cycles = SP.RuntimeCycles;
    R.Profile.Stats.Completed = SP.Ok;
    R.Profile.Strides = std::move(SP.Strides);
    R.Profile.StrideInvocations = SP.Invocations;
    R.Profile.StrideProcessed = SP.Processed;
    R.Profile.LfuCalls = SP.LfuCalls;
    if (!SP.Ok) {
      R.Ok = false;
      R.Error = SP.Error;
      return R;
    }
  } else {
    StrideProfilerConfig PC = Opts.Config.Profiler;
    PC.Sampling.Enabled = methodUsesSampling(R.Method);
    StrideProfiler P(Src.numSites(), PC);
    R.Profile.Method = R.Method;
    R.Profile.Stats.RuntimeCycles =
        P.consume(Src, Opts.Config.Interp.StrideBatchWindow);
    R.Profile.Stats.Cycles = R.Profile.Stats.RuntimeCycles;
    R.Profile.Stats.Completed = true;
    R.Profile.Strides = StrideProfile::fromProfiler(P);
    R.Profile.StrideInvocations = P.totalInvocations();
    R.Profile.StrideProcessed = P.totalProcessed();
    R.Profile.LfuCalls = P.totalLfuCalls();
  }
  if (Edges && Edges->Present)
    R.Profile.Edges = edgeProfileFromSection(*Edges);
  // Loads the profiler saw; file replay overwrites with the decoded
  // event count (which also includes prefetch-kind events).
  R.Events = R.Profile.StrideInvocations;

  // Stream-only classification: every site, no frequency/trip filtering.
  R.SiteClass.resize(R.Profile.Strides.numSites(), StrideClass::None);
  for (uint32_t S = 0; S != R.Profile.Strides.numSites(); ++S)
    R.SiteClass[S] =
        classifyStrideSummary(R.Profile.Strides.site(S),
                              Opts.Config.Classifier);

  // Pass 2 -- full prefetch evaluation against the rebuilt workload,
  // exactly what the live pipeline does with a freshly collected profile.
  if (W) {
    Pipeline PL(*W, Opts.Config);
    const DataSet DS =
        R.Prov.DataSet == "ref" ? DataSet::Ref : DataSet::Train;
    R.Baseline = PL.runBaseline(DS);
    R.Timed = PL.runPrefetched(DS, R.Profile.Edges, R.Profile.Strides);
    if (R.Timed.Stats.Cycles != 0)
      R.Speedup = static_cast<double>(R.Baseline.Cycles) /
                  static_cast<double>(R.Timed.Stats.Cycles);
    R.HasWorkload = true;
  }

  // Passes 3/4 -- cache model driven straight from the stream: demand
  // replay, then demand + synthesized prefetches for classified sites.
  if (Opts.SimulateMemory && Src.reset()) {
    bool Rewound = true;
    if (!Overlap) {
      DemandPass(Src);
      Rewound = Src.reset();
    }
    if (Rewound) {
      std::vector<int64_t> SiteStride(R.SiteClass.size(), 0);
      for (uint32_t S = 0; S != R.SiteClass.size(); ++S) {
        const StrideClass C = R.SiteClass[S];
        const bool Prefetchable =
            C == StrideClass::SSST || C == StrideClass::PMST ||
            (C == StrideClass::WSST &&
             Opts.Config.Classifier.EnableWsstPrefetch);
        if (Prefetchable)
          SiteStride[S] = R.Profile.Strides.site(S).top1Stride();
      }
      // With the events in one buffer and threads to spare, the pass runs
      // set-sharded beside an in-order timing scan (ParallelReplay.h);
      // otherwise inline on one hierarchy. Both give identical results.
      const unsigned Shards =
          Overlap ? decoupledShardCount(Opts.Config.Memory, SC, Opts.Threads)
                  : 0;
      if (Shards != 0) {
        DecoupledReplayResult D = replaySyntheticPrefetchDecoupled(
            Buffered->pullRest(), Opts.Config.Memory, SC, SiteStride,
            Opts.StreamPrefetchDistance, Shards);
        R.MemPrefetched = D.Stream;
        R.MemPrefetchedStats = std::move(D.Mem);
      } else {
        MemoryHierarchy Pf(Opts.Config.Memory);
        R.MemPrefetched = replayWithSyntheticPrefetch(
            Pf, Src, SC, SiteStride, Opts.StreamPrefetchDistance);
        R.MemPrefetchedStats = Pf.stats();
      }
      R.HasMemSim = true;
    }
    if (DemandJob.valid())
      DemandJob.get();
    R.MemBaseline = DemandStats;
    R.MemBaselineStats = DemandMem;
  }
  return R;
}

TraceReplayResult replayTraceFile(const std::string &Path,
                                  const TraceReplayOptions &Opts) {
  if (Opts.Threads > 1)
    return replayTraceFileParallel(Path, Opts);

  auto Reader = TraceReader::openFile(Path);

  // Buffer the whole event stream up front: replay needs several passes,
  // and the decode error surface (truncation, corruption) is cleanest
  // reported before any profiling state exists.
  std::vector<AccessEvent> Events;
  std::vector<AccessEvent> Buf(4096);
  while (size_t N = Reader->pull(Buf.data(), Buf.size()))
    Events.insert(Events.end(), Buf.begin(), Buf.begin() + N);

  if (!Reader->ok()) {
    TraceReplayResult R;
    R.Source = Path;
    R.Error = Reader->error();
    R.ErrorCode = Reader->errorCode();
    return R;
  }

  TraceReplayOptions O = Opts;
  if (!O.Method && !Reader->provenance().Method.empty()) {
    ProfilingMethod M;
    if (profilingMethodFromName(Reader->provenance().Method, M))
      O.Method = M;
  }

  const uint64_t Total = Events.size();
  VectorSource Src(std::move(Events), Reader->numSites(), Path);
  TraceReplayResult R = replayStream(Src, O, Path, &Reader->edgeSection(),
                                     &Reader->provenance());
  R.Events = Total;
  return R;
}

} // namespace sprof
