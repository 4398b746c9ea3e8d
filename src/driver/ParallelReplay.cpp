//===- driver/ParallelReplay.cpp - Trace-sharded parallel replay ----------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/ParallelReplay.h"

#include "driver/JobGraph.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace sprof {

namespace {

/// What one profile shard produced; folded in job-id order.
struct ShardRun {
  uint64_t Cycles = 0;
  uint64_t Invocations = 0;
  uint64_t Processed = 0;
  uint64_t LfuCalls = 0;
  StrideProfile Strides;
};

} // namespace

ShardedProfileResult profileEventsSharded(AccessSource &Src,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads, unsigned Shards,
                                          ObsSession *Obs) {
  ShardedProfileResult R;
  const uint32_t NumSites = Src.numSites();
  if (Threads == 0)
    Threads = 1;
  if (Shards == 0)
    Shards = Threads;
  if (NumSites != 0 && Shards > NumSites)
    Shards = NumSites;
  if (Shards == 0)
    Shards = 1;
  R.ShardsUsed = Shards;

  // Every shard scans one contiguous buffer: a VectorSource's own
  // storage, or any other source drained into a vector first.
  std::vector<AccessEvent> Drained;
  std::span<const AccessEvent> Events;
  if (auto *VS = dynamic_cast<VectorSource *>(&Src)) {
    Events = VS->pullRest();
  } else {
    std::vector<AccessEvent> Buf(4096);
    while (size_t N = Src.pull(Buf.data(), Buf.size()))
      Drained.insert(Drained.end(), Buf.begin(), Buf.begin() + N);
    Events = Drained;
  }

  // One job per shard: a private full-size profiler (sites index directly)
  // fed its sites' loads in order, against a private obs scope. Each shard
  // counts every load's 0-based global position itself, so the shards
  // share nothing but the read-only buffer.
  const uint64_t SessionStartUs = Obs ? Obs->trace().nowUs() : 0;
  std::vector<ShardRun> Runs(Shards);
  std::vector<std::unique_ptr<ObsSession>> ShardObs(Shards);
  JobGraph G;
  for (unsigned S = 0; S != Shards; ++S) {
    G.add("profile-shard-" + std::to_string(S), "replay-profile-job",
          [&, S](uint32_t) {
            ObsSession *Scope = nullptr;
            if (Obs) {
              ShardObs[S] = std::make_unique<ObsSession>(Obs->jobConfig());
              Scope = ShardObs[S].get();
            }
            StrideProfiler P(NumSites, PC);
            P.attachObs(Scope);
            ShardRun &Out = Runs[S];
            uint64_t LoadIndex = 0;
            for (const AccessEvent &E : Events) {
              // strideProf only ever sees demand loads (see
              // StrideProfiler::consume, whose filter this mirrors).
              if (E.Kind != AccessKind::Load)
                continue;
              if (E.SiteId % Shards == S)
                Out.Cycles += P.profileAt(E.SiteId, E.Address,
                                          E.GlobalRefIndex, LoadIndex);
              ++LoadIndex;
            }
            Out.Invocations = P.totalInvocations();
            Out.Processed = P.totalProcessed();
            Out.LfuCalls = P.totalLfuCalls();
            Out.Strides = StrideProfile::fromProfiler(P);
          });
  }
  const std::vector<JobOutcome> Outcomes = G.run(Threads);

  // Job-id-ordered fold (the ShardedMetricsRegistry discipline): profile
  // scalars sum, per-site stride tables union into an empty profile --
  // shards own disjoint site sets, so the fold is a verbatim ordered copy
  // of each shard's tables and no re-sort or truncation is needed.
  R.Strides = StrideProfile(NumSites);
  const size_t JobBase = Obs ? Obs->jobs().size() : 0;
  for (unsigned S = 0; S != Shards; ++S) {
    const JobOutcome &O = Outcomes[S];
    if (!O.Ok) {
      R.Ok = false;
      R.Error = "profile shard " + std::to_string(S) + " failed: " + O.Error;
      return R;
    }
    R.RuntimeCycles += Runs[S].Cycles;
    R.Invocations += Runs[S].Invocations;
    R.Processed += Runs[S].Processed;
    R.LfuCalls += Runs[S].LfuCalls;
    mergeStrideProfile(R.Strides, Runs[S].Strides);
    if (ObsSession *Scope = ShardObs[S].get()) {
      Obs->registry().merge(Scope->registry());
      JobRecord Rec;
      Rec.Id = JobBase + S;
      Rec.Name = G.name(S);
      Rec.Category = G.category(S);
      Rec.ReadyUs = SessionStartUs + O.ReadyUs;
      Rec.StartUs = SessionStartUs + O.StartUs;
      Rec.DurationUs = O.DurationUs;
      Rec.Worker = O.Worker;
      Rec.Ok = true;
      Rec.Metrics = Scope->registry();
      Obs->trace().appendCompletedSpan(Rec.Name, Rec.Category, Rec.StartUs,
                                       O.DurationUs, O.Worker, /*Depth=*/0);
      Obs->recordJob(std::move(Rec));
    }
  }
  if (Obs) {
    if (Counter *C = Obs->counter("replay.parallel_runs"))
      C->inc();
    if (Counter *C = Obs->counter("replay.profile_shards"))
      C->inc(Shards);
  }
  R.Ok = true;
  return R;
}

bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, std::vector<AccessEvent> &Events,
                         std::string &Error, TraceError &Code) {
  const TraceShardIndex &Idx = R.index();
  assert(Idx.Present && "decodeTraceParallel needs an indexed reader");
  Events.clear();
  Events.resize(Idx.TotalEvents);
  const size_t NumChunks = Idx.numChunks();
  if (NumChunks == 0)
    return true;
  if (Threads == 0)
    Threads = 1;

  // Contiguous chunk ranges, a few per worker so the pool load-balances
  // when ranges decode at different speeds.
  const size_t NumJobs = std::min<size_t>(
      NumChunks, std::max<size_t>(1, static_cast<size_t>(Threads) * 4));
  const size_t PerJob = (NumChunks + NumJobs - 1) / NumJobs;

  struct JobFailure {
    bool Failed = false;
    std::string Msg;
    TraceError Code = TraceError::None;
  };
  std::vector<JobFailure> Failures((NumChunks + PerJob - 1) / PerJob);

  JobGraph G;
  size_t J = 0;
  for (size_t First = 0; First < NumChunks; First += PerJob, ++J) {
    const size_t N = std::min(PerJob, NumChunks - First);
    G.add("decode-chunks-" + std::to_string(First) + "-" +
              std::to_string(First + N),
          "replay-decode-job", [&, First, N, J](uint32_t) {
            JobFailure &F = Failures[J];
            auto SR = TraceReader::openShard(Path, Idx, First, N);
            const uint64_t Base = Idx.Chunks[First].CumEvents;
            const uint64_t Want =
                (First + N < NumChunks ? Idx.Chunks[First + N].CumEvents
                                       : Idx.TotalEvents) -
                Base;
            AccessEvent *Out = Events.data() + Base;
            uint64_t Got = 0;
            while (Got < Want) {
              const size_t K = SR->pull(Out + Got, Want - Got);
              if (K == 0)
                break;
              Got += K;
            }
            // One pull past the end drives the reader's byte-boundary
            // cross-check (it fires on the pull after the last event).
            AccessEvent Tail;
            if (SR->ok() && SR->pull(&Tail, 1) != 0) {
              F = {true,
                   Path + ": shard over chunks [" + std::to_string(First) +
                       ", " + std::to_string(First + N) +
                       ") decoded more events than the index promised",
                   TraceError::Corrupt};
              return;
            }
            if (!SR->ok()) {
              F = {true, SR->error(), SR->errorCode()};
              return;
            }
            if (Got != Want || !SR->atEnd()) {
              F = {true,
                   Path + ": shard over chunks [" + std::to_string(First) +
                       ", " + std::to_string(First + N) + ") decoded " +
                       std::to_string(Got) + " events, index promised " +
                       std::to_string(Want),
                   TraceError::Corrupt};
              return;
            }
            // Cross-check the index's load counts against the decode:
            // carried-state corruption that still lands on the right byte
            // boundary shows up here.
            uint64_t Loads = 0;
            for (uint64_t I = 0; I != Want; ++I)
              if (Out[I].Kind == AccessKind::Load)
                ++Loads;
            const uint64_t WantLoads =
                (First + N < NumChunks ? Idx.Chunks[First + N].CumLoads
                                       : Idx.TotalLoads) -
                Idx.Chunks[First].CumLoads;
            if (Loads != WantLoads)
              F = {true,
                   Path + ": shard over chunks [" + std::to_string(First) +
                       ", " + std::to_string(First + N) + ") decoded " +
                       std::to_string(Loads) + " loads, index promised " +
                       std::to_string(WantLoads),
                   TraceError::Corrupt};
          });
  }
  const std::vector<JobOutcome> Outcomes = G.run(Threads);

  for (size_t I = 0; I != Failures.size(); ++I) {
    if (Failures[I].Failed) {
      Error = Failures[I].Msg;
      Code = Failures[I].Code;
      return false;
    }
    if (!Outcomes[I].Ok) {
      Error = "decode job " + std::to_string(I) + " failed: " +
              Outcomes[I].Error;
      Code = TraceError::Io;
      return false;
    }
  }
  return true;
}

TraceReplayResult replayTraceFileParallel(const std::string &Path,
                                          const TraceReplayOptions &Opts) {
  auto Reader = TraceReader::openFileIndexed(Path);
  if (!Reader->ok()) {
    TraceReplayResult R;
    R.Source = Path;
    R.Error = Reader->error();
    R.ErrorCode = Reader->errorCode();
    return R;
  }

  std::vector<AccessEvent> Events;
  if (Reader->index().Present) {
    std::string DecErr;
    TraceError DecCode = TraceError::None;
    if (!decodeTraceParallel(Path, *Reader, Opts.Threads, Events, DecErr,
                             DecCode)) {
      TraceReplayResult R;
      R.Source = Path;
      R.Error = DecErr;
      R.ErrorCode = DecCode;
      return R;
    }
  } else {
    // /1 and text traces carry no index: serial decode on the already-open
    // reader (positioned right after the header). The profile phase still
    // shards across Opts.Threads.
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
