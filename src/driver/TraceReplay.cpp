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

#ifdef __GLIBC__
#include <malloc.h>
#endif

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

namespace {

/// The stream profile phase over \p Events under \p Method: serial
/// StrideProfiler::consume at one thread -- the reference -- and the
/// site-sharded profileEventsSharded otherwise, bit-identical to it. Edges
/// stay empty: edge counters live in the program, not the access stream.
/// Returns false with \p Error set when a profile shard failed.
bool profileStream(std::span<const AccessEvent> Events, uint32_t NumSites,
                   const PipelineConfig &Config, ProfilingMethod Method,
                   unsigned Threads, ProfileRunResult &Out,
                   std::string &Error) {
  StrideProfilerConfig PC = Config.Profiler;
  PC.Sampling.Enabled = methodUsesSampling(Method);
  Out.Method = Method;
  if (Threads > 1) {
    ShardedProfileResult SP =
        profileEventsSharded(Events, NumSites, PC, Threads);
    if (!SP.Ok) {
      Error = SP.Error;
      return false;
    }
    Out.Stats.RuntimeCycles = SP.RuntimeCycles;
    Out.Strides = std::move(SP.Strides);
    Out.StrideInvocations = SP.Invocations;
    Out.StrideProcessed = SP.Processed;
    Out.LfuCalls = SP.LfuCalls;
  } else {
    StrideProfiler P(NumSites, PC);
    Out.Stats.RuntimeCycles = P.consume(Events);
    Out.Strides = StrideProfile::fromProfiler(P);
    Out.StrideInvocations = P.totalInvocations();
    Out.StrideProcessed = P.totalProcessed();
    Out.LfuCalls = P.totalLfuCalls();
  }
  Out.Stats.Cycles = Out.Stats.RuntimeCycles;
  Out.Stats.Completed = true;
  return true;
}

/// The replay of \p Events, whose site ids lie below \p NumSites:
/// replayStream over its buffered source and replayTraceFile over its
/// decoded trace. Every pass reads \p Events on a cursor of its own.
TraceReplayResult replayEvents(std::span<const AccessEvent> Events,
                               uint32_t NumSites,
                               const TraceReplayOptions &Opts,
                               const std::string &SourceName,
                               const TraceEdgeSection *Edges,
                               const TraceProvenance *Prov) {
  TraceReplayResult R;
  R.Source = SourceName;
  if (Prov)
    R.Prov = *Prov;
  R.Method = Opts.Method.value_or(ProfilingMethod::EdgeCheck);
  R.Ok = true;
  R.NumSites = NumSites;

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
  auto DemandPass = [&] {
    MemoryHierarchy Base(Opts.Config.Memory);
    SpanSource Cursor(Events, NumSites);
    DemandStats = replayAccessStream(Base, Cursor, SC);
    DemandMem = Base.stats();
  };
  // The demand-only cache pass depends on nothing but the events. With
  // Threads > 1 it runs as its own job beside the profile, the
  // classification and the prefetched pass, and is joined after the
  // prefetched pass; at one thread it runs before the prefetched pass.
  const bool Overlap = Opts.SimulateMemory && Opts.Threads > 1;
  std::future<void> DemandJob;
  if (Overlap)
    DemandJob = std::async(std::launch::async, DemandPass);

  // Pass 1 -- stream-driven profile phase.
  if (!profileStream(Events, NumSites, Opts.Config, R.Method, Opts.Threads,
                     R.Profile, R.Error)) {
    R.Ok = false;
    return R;
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
  if (Opts.SimulateMemory) {
    if (!Overlap)
      DemandPass();
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
    // With threads to spare, the pass runs set-sharded beside an in-order
    // timing scan (ParallelReplay.h); otherwise inline on one hierarchy.
    // Both give identical results.
    if (const unsigned Shards =
            decoupledShardCount(Opts.Config.Memory, SC, Opts.Threads)) {
      DecoupledReplayResult D = replaySyntheticPrefetchDecoupled(
          Events, Opts.Config.Memory, SC, SiteStride,
          Opts.StreamPrefetchDistance, Shards);
      R.MemPrefetched = D.Stream;
      R.MemPrefetchedStats = std::move(D.Mem);
    } else {
      MemoryHierarchy Pf(Opts.Config.Memory);
      SpanSource Cursor(Events, NumSites);
      R.MemPrefetched = replayWithSyntheticPrefetch(
          Pf, Cursor, SC, SiteStride, Opts.StreamPrefetchDistance);
      R.MemPrefetchedStats = Pf.stats();
    }
    if (DemandJob.valid())
      DemandJob.get();
    R.HasMemSim = true;
    R.MemBaseline = DemandStats;
    R.MemBaselineStats = DemandMem;
  }
  return R;
}

} // namespace

TraceReplayResult replayStream(AccessSource &Src,
                               const TraceReplayOptions &Opts,
                               const std::string &SourceName,
                               const TraceEdgeSection *Edges,
                               const TraceProvenance *Prov) {
  std::vector<AccessEvent> Storage;
  const std::span<const AccessEvent> Events = bufferRest(Src, Storage);
  return replayEvents(Events, Src.numSites(), Opts, SourceName, Edges, Prov);
}

TraceReplayResult replayTraceFile(const std::string &Path,
                                  const TraceReplayOptions &Opts) {
  auto Failed = [&](std::string Error, TraceError Code) {
    TraceReplayResult R;
    R.Source = Path;
    R.Error = std::move(Error);
    R.ErrorCode = Code;
    return R;
  };

  // The whole event stream is decoded up front: the decode error surface
  // (truncation, corruption) is cleanest reported before any profiling
  // state exists. The decode jobs are the first to touch the buffer.
  auto Reader = TraceReader::openFileIndexed(Path);
  if (!Reader->ok())
    return Failed(Reader->error(), Reader->errorCode());
  TraceEventBuffer Events;
  std::string Error;
  TraceError Code = TraceError::None;
  if (!decodeTraceParallel(Path, *Reader, Opts.Threads, Events, Error, Code))
    return Failed(std::move(Error), Code);

  TraceReplayOptions O = Opts;
  if (!O.Method && !Reader->provenance().Method.empty()) {
    ProfilingMethod M;
    if (profilingMethodFromName(Reader->provenance().Method, M))
      O.Method = M;
  }

  TraceReplayResult R =
      replayEvents(Events.events(), Reader->numSites(), O, Path,
                   &Reader->edgeSection(), &Reader->provenance());
  R.Events = Events.size();
#ifdef __GLIBC__
  // The shard profilers are freed by several threads. glibc raises its
  // mmap threshold on such frees and then keeps freed heap resident, so
  // without a trim the RSS that repeated replays leave behind depends on
  // thread timing.
  malloc_trim(0);
#endif
  return R;
}

} // namespace sprof
