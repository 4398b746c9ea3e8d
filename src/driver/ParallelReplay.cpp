//===- driver/ParallelReplay.cpp - Trace-sharded parallel replay ----------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/ParallelReplay.h"

#include "driver/JobGraph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace sprof {

namespace {

/// Loads a profile shard hands StrideProfiler::profileIndexed at once:
/// 8 KB, so the batch stays in L1 beside the shard's site records.
constexpr size_t ShardBatchLoads = 256;

/// What one profile shard produced; folded in job-id order.
struct ShardRun {
  uint64_t Cycles = 0;
  uint64_t Invocations = 0;
  uint64_t Processed = 0;
  uint64_t LfuCalls = 0;
  StrideProfile Strides;
};

} // namespace

ShardedProfileResult profileEventsSharded(std::span<const AccessEvent> Events,
                                          uint32_t NumSites,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads, unsigned Shards) {
  ShardedProfileResult R;
  if (Threads == 0)
    Threads = 1;
  if (Shards == 0)
    Shards = Threads;
  if (NumSites != 0 && Shards > NumSites)
    Shards = NumSites;
  if (Shards == 0)
    Shards = 1;

  // One job per shard: a private full-size profiler (sites index directly)
  // fed its sites' loads in order. Each shard counts every load's 0-based
  // global position itself, so the shards share nothing but the read-only
  // buffer.
  std::vector<ShardRun> Runs(Shards);
  JobGraph G;
  for (unsigned S = 0; S != Shards; ++S) {
    G.add("profile-shard-" + std::to_string(S), "replay-profile-job",
          [&, S](uint32_t) {
            StrideProfiler P(NumSites, PC);
            ShardRun &Out = Runs[S];
            std::vector<uint8_t> Mine(NumSites, 0);
            for (uint32_t Site = S; Site < NumSites; Site += Shards)
              Mine[Site] = 1;
            // The scan has no branch per event: every event is written to
            // the batch's next slot, which only a load of one of this
            // shard's sites claims. strideProf only ever sees demand loads
            // (see StrideProfiler::consume, whose filter this mirrors).
            IndexedLoad Batch[ShardBatchLoads];
            size_t N = 0;
            uint64_t LoadIndex = 0;
            for (const AccessEvent &E : Events) {
              assert(E.SiteId < NumSites && "site id out of range");
              const bool IsLoad = E.Kind == AccessKind::Load;
              Batch[N] = {E.Address, E.GlobalRefIndex, LoadIndex, E.SiteId};
              N += IsLoad & Mine[E.SiteId];
              LoadIndex += IsLoad;
              if (N == ShardBatchLoads) {
                Out.Cycles += P.profileIndexed(Batch, N);
                N = 0;
              }
            }
            Out.Cycles += P.profileIndexed(Batch, N);
            Out.Invocations = P.totalInvocations();
            Out.Processed = P.totalProcessed();
            Out.LfuCalls = P.totalLfuCalls();
            Out.Strides = StrideProfile::fromProfiler(P);
          });
  }
  const std::vector<JobOutcome> Outcomes = G.run(Threads);

  // Job-id-ordered fold, as ExperimentEngine folds job metrics: profile
  // scalars sum, per-site stride tables union into an empty profile --
  // shards own disjoint site sets, so the fold is a verbatim ordered copy
  // of each shard's tables and no re-sort or truncation is needed.
  R.Strides = StrideProfile(NumSites);
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
  }
  R.Ok = true;
  return R;
}

ShardedProfileResult profileEventsSharded(AccessSource &Src,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads, unsigned Shards) {
  std::vector<AccessEvent> Storage;
  return profileEventsSharded(bufferRest(Src, Storage), Src.numSites(), PC,
                              Threads, Shards);
}

TraceEventBuffer::TraceEventBuffer(size_t N) : Size(N) {
  if (N == 0)
    return;
  // A buffer of a huge page or more is 2 MB-aligned and advised toward
  // transparent huge pages, as SimMemory's slabs are, so a first touch
  // faults in 2 MB at a time. Its size is not rounded up: the partial
  // huge page at its end stays on ordinary pages, so the resident size is
  // what the events use. A smaller buffer stays on ordinary pages.
  const size_t Bytes = N * sizeof(AccessEvent);
  const size_t Align =
      Bytes >= HugePageBytes ? HugePageBytes : alignof(AccessEvent);
  void *Raw = ::operator new(Bytes, std::align_val_t(Align));
#if defined(__linux__)
  if (Align == HugePageBytes)
    ::madvise(Raw, Bytes, MADV_HUGEPAGE);
#endif
  Data = std::unique_ptr<AccessEvent, Release>(static_cast<AccessEvent *>(Raw),
                                               Release{Align});
}

void TraceEventBuffer::Release::operator()(AccessEvent *P) const {
  ::operator delete(P, std::align_val_t(Align));
}

namespace {

/// decodeTraceParallel's core: decodes the trace \p Path, whose shard
/// index is \p Idx, into \p Events, which holds Idx.TotalEvents events
/// that need not be initialized. Each job writes its own chunk range.
bool decodeInto(const std::string &Path, const TraceShardIndex &Idx,
                unsigned Threads, AccessEvent *Events, std::string &Error,
                TraceError &Code) {
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
            AccessEvent *Out = Events + Base;
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

} // namespace

bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, std::vector<AccessEvent> &Events,
                         std::string &Error, TraceError &Code) {
  const TraceShardIndex &Idx = R.index();
  assert(Idx.Present && "decodeTraceParallel needs an indexed reader");
  Events.clear();
  Events.resize(Idx.TotalEvents);
  return decodeInto(Path, Idx, Threads, Events.data(), Error, Code);
}

bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, TraceEventBuffer &Events,
                         std::string &Error, TraceError &Code) {
  const TraceShardIndex &Idx = R.index();
  assert(Idx.Present && "decodeTraceParallel needs an indexed reader");
  Events = TraceEventBuffer(Idx.TotalEvents);
  return decodeInto(Path, Idx, Threads, Events.data(), Error, Code);
}

//===----------------------------------------------------------------------===//
// Set-sharded, timing-decoupled prefetched cache pass
//===----------------------------------------------------------------------===//

namespace {

/// Events per pipeline window, and the windows in flight at once. One
/// window's buffers fit in the host's L2 cache.
constexpr size_t WindowEvents = 8192;
constexpr size_t WindowSlots = 4;
/// An event issues at most two accesses: itself and a synthesized prefetch.
constexpr size_t WindowAccesses = 2 * WindowEvents;
/// Shard-count cap: each shard holds WindowSlots full-window buffers.
constexpr unsigned MaxShards = 16;
/// Largest in-flight horizon the scan's ready-stamp rings are allowed.
constexpr uint64_t MaxHorizon = uint64_t(1) << 16;

/// A shard's input word: the line address without its shard-key bits, with
/// the top bit set for a prefetch. Line addresses stay below that bit, as
/// CacheLevel already requires for its own mark bit.
constexpr uint64_t PrefetchBit = uint64_t(1) << 63;
/// The scan's per-access tag byte: the owning shard, with the top bit set
/// for a prefetch.
constexpr uint8_t PrefetchTag = 0x80;

/// One access's cache outcome as a shard reports it to the scan, packed in
/// 32 bits: the hit level (the level count on a full miss) in bits [0, 8),
/// the first demand use of a prefetched line in bit 8, and in bits [9, 32)
/// how many of the shard's own accesses back the hit line was filled -- or
/// 0 when that is beyond the in-flight horizon, so the fill is complete
/// (the distance in the whole stream is at least as large).
constexpr unsigned FirstUseBit = 8;
constexpr unsigned DistanceShift = 9;
constexpr uint32_t LevelMask = 0xff;

/// One shard's slice of the hierarchy: every level with 1/S of its sets.
/// It replays MemoryHierarchy's probe and fill sequence on the levels' own
/// CacheLevel objects, with one substitution: the ready lane holds the
/// shard-local index of the access that filled the line, not a cycle.
class CacheShard {
public:
  CacheShard(const MemoryConfig &MC, unsigned ShardBits, uint64_t Horizon)
      : Horizon(Horizon) {
    for (const CacheLevelConfig &L : MC.Levels) {
      CacheLevelConfig C = L;
      const uint64_t Sets = std::bit_ceil(
          L.SizeBytes / (uint64_t(L.LineBytes) * L.Associativity));
      C.SizeBytes = (Sets >> ShardBits) * L.LineBytes * L.Associativity;
      Levels.emplace_back(C);
    }
    Levels.front().setEvictUnusedCounter(&Unused);
  }
  CacheShard(const CacheShard &) = delete;
  CacheShard &operator=(const CacheShard &) = delete;

  /// MemoryHierarchy::demandAccess of \p Line by access \p Index.
  uint32_t demand(uint64_t Line, uint64_t Index) {
    uint64_t Filler = 0;
    if (Levels[0].probeMru(Line, Filler))
      return record(0, false, Index, Filler);
    bool FirstUse = false;
    size_t Hit = Levels.size();
    if (Levels[0].probe(Line, Filler, &FirstUse)) {
      Hit = 0;
    } else {
      for (size_t L = 1; L != Levels.size(); ++L)
        if (Levels[L].probe(Line, Filler)) {
          Hit = L;
          break;
        }
    }
    for (size_t L = 0; L != Hit; ++L)
      Levels[L].fillMiss(Line, Index);
    return record(Hit, FirstUse, Index, Filler);
  }

  /// MemoryHierarchy::prefetch of \p Line by access \p Index.
  uint32_t prefetch(uint64_t Line, uint64_t Index) {
    uint64_t Filler = 0;
    size_t Hit = Levels.size();
    for (size_t L = 0; L != Levels.size(); ++L)
      if (Levels[L].probe(Line, Filler)) {
        Hit = L;
        break;
      }
    for (size_t L = 0; L != Hit; ++L)
      Levels[L].fillMiss(Line, Index, /*Prefetched=*/L == 0);
    if (Hit == Levels.size())
      for (size_t L = 0; L != Levels.size(); ++L)
        Levels[L].fill(Line, Index, /*Prefetched=*/L == 0);
    return record(Hit, false, Index, Filler);
  }

  uint64_t unusedEvictions() const { return Unused; }

private:
  uint32_t record(size_t Hit, bool FirstUse, uint64_t Index,
                  uint64_t Filler) const {
    uint32_t R = static_cast<uint32_t>(Hit) |
                 static_cast<uint32_t>(FirstUse) << FirstUseBit;
    if (Hit != Levels.size() && Index - Filler < Horizon)
      R |= static_cast<uint32_t>(Index - Filler) << DistanceShift;
    return R;
  }

  std::vector<CacheLevel> Levels;
  uint64_t Horizon;
  uint64_t Unused = 0;
};

/// A shard's simulator and its per-slot buffers: the input words the scan
/// thread bucketed for it, and the records it hands back, both in the
/// shard's own access order.
struct ShardLane {
  ShardLane(const MemoryConfig &MC, unsigned ShardBits, uint64_t Horizon)
      : Cache(MC, ShardBits, Horizon), Input(WindowSlots * WindowAccesses),
        Count(WindowSlots), Records(WindowSlots * WindowAccesses) {}

  CacheShard Cache;
  std::vector<uint64_t> Input;
  std::vector<size_t> Count;
  std::vector<uint32_t> Records;
};

/// Accesses after which a fill is certainly complete: every ready stamp is
/// at most its issuing access's cycle plus the largest latency in \p MC,
/// and the stream clock advances by at least \p SC.IssueCost per access.
uint64_t inFlightHorizon(const MemoryConfig &MC,
                         const StreamReplayConfig &SC) {
  assert(SC.IssueCost != 0 && "no horizon without a per-access issue cost");
  uint64_t MaxLatency = MC.MemoryLatency;
  for (const CacheLevelConfig &L : MC.Levels)
    MaxLatency = std::max<uint64_t>(MaxLatency, L.HitLatency);
  return (MaxLatency + SC.IssueCost - 1) / SC.IssueCost;
}

} // namespace

unsigned maxDecoupledShards(const MemoryConfig &MC,
                            const StreamReplayConfig &SC) {
  if (MC.Levels.empty() || MC.Levels.size() >= LevelMask ||
      !std::has_single_bit(MC.Levels.front().LineBytes) ||
      SC.IssueCost == 0 || inFlightHorizon(MC, SC) > MaxHorizon)
    return 0;
  uint64_t Sets = MaxShards;
  for (const CacheLevelConfig &L : MC.Levels)
    Sets = std::min<uint64_t>(
        Sets, std::bit_ceil(L.SizeBytes /
                            (uint64_t(L.LineBytes) * L.Associativity)));
  return static_cast<unsigned>(Sets);
}

unsigned decoupledShardCount(const MemoryConfig &MC,
                             const StreamReplayConfig &SC, unsigned Threads) {
  if (Threads < 3)
    return 0;
  return std::min(std::bit_floor(Threads - 2), maxDecoupledShards(MC, SC));
}

DecoupledReplayResult
replaySyntheticPrefetchDecoupled(std::span<const AccessEvent> Events,
                                 const MemoryConfig &MC,
                                 const StreamReplayConfig &SC,
                                 std::span<const int64_t> SiteStride,
                                 unsigned Distance, unsigned Shards) {
  assert(std::has_single_bit(Shards) &&
         Shards <= maxDecoupledShards(MC, SC) && "unsupported shard count");
  const unsigned ShardBits = std::countr_zero(Shards);
  const uint64_t KeyMask = Shards - 1;
  const unsigned LineShift = std::countr_zero(MC.Levels.front().LineBytes);
  const uint64_t Horizon = inFlightHorizon(MC, SC);
  const size_t NumLevels = MC.Levels.size();
  const size_t NumWindows = (Events.size() + WindowEvents - 1) / WindowEvents;
  auto WindowOf = [&](size_t W) {
    const size_t First = W * WindowEvents;
    return Events.subspan(First, std::min(WindowEvents, Events.size() - First));
  };

  std::vector<std::unique_ptr<ShardLane>> Lanes;
  for (unsigned S = 0; S != Shards; ++S)
    Lanes.push_back(std::make_unique<ShardLane>(MC, ShardBits, Horizon));
  std::vector<uint8_t> Tags(WindowSlots * WindowAccesses);
  std::vector<size_t> TagCount(WindowSlots);

  // Splits window W into the shards' inputs and the scan's tags, without
  // branching on the owning shard: every access is written through its
  // shard's cursor, and a synthesized prefetch's cursors advance only when
  // the event has one (a non-prefetch event at a site with a stride).
  auto Bucket = [&](size_t W) {
    const size_t Slot = W % WindowSlots;
    uint64_t *Out[MaxShards];
    for (unsigned S = 0; S != Shards; ++S)
      Out[S] = Lanes[S]->Input.data() + Slot * WindowAccesses;
    uint8_t *Tag = Tags.data() + Slot * WindowAccesses;
    size_t A = 0;
    for (const AccessEvent &E : WindowOf(W)) {
      const uint64_t Own = E.Address >> LineShift;
      const bool OwnPf = E.Kind == AccessKind::Prefetch;
      *Out[Own & KeyMask]++ = (Own >> ShardBits) | (OwnPf ? PrefetchBit : 0);
      Tag[A++] =
          static_cast<uint8_t>((Own & KeyMask) | (OwnPf ? PrefetchTag : 0));
      const int64_t Stride =
          !OwnPf && E.SiteId < SiteStride.size() ? SiteStride[E.SiteId] : 0;
      const uint64_t Ahead =
          (E.Address + static_cast<uint64_t>(Stride) * Distance) >> LineShift;
      uint64_t *&Cur = Out[Ahead & KeyMask];
      *Cur = (Ahead >> ShardBits) | PrefetchBit;
      Tag[A] = static_cast<uint8_t>((Ahead & KeyMask) | PrefetchTag);
      const bool Synth = Stride != 0;
      Cur += Synth;
      A += Synth;
    }
    for (unsigned S = 0; S != Shards; ++S)
      Lanes[S]->Count[Slot] = static_cast<size_t>(
          Out[S] - (Lanes[S]->Input.data() + Slot * WindowAccesses));
    TagCount[Slot] = A;
  };

  // Window handoff. The calling thread buckets window W into slot
  // W % WindowSlots and publishes it (Bucketed = W + 1); shard S simulates
  // it and publishes its records (Done[S] = W + 1); the calling thread
  // scans it and then reuses the slot for window W + WindowSlots. Both
  // sides sleep on the condition variables, never spin. Stop releases the
  // shards when not all of them could be started.
  std::mutex M;
  std::condition_variable InputReady, RecordsReady;
  size_t Bucketed = 0;
  bool Stop = false;
  std::vector<size_t> Done(Shards, 0);
  auto Publish = [&](size_t W) {
    Bucket(W);
    {
      std::lock_guard<std::mutex> Lock(M);
      Bucketed = W + 1;
    }
    InputReady.notify_all();
  };

  auto RunShard = [&](unsigned S) {
    ShardLane &Lane = *Lanes[S];
    uint64_t Index = 0; // the shard's own access count
    for (size_t W = 0; W != NumWindows; ++W) {
      {
        std::unique_lock<std::mutex> Lock(M);
        InputReady.wait(Lock, [&] { return Bucketed > W || Stop; });
        if (Stop)
          return;
      }
      const size_t Slot = W % WindowSlots;
      const uint64_t *In = Lane.Input.data() + Slot * WindowAccesses;
      uint32_t *Out = Lane.Records.data() + Slot * WindowAccesses;
      for (size_t I = 0, N = Lane.Count[Slot]; I != N; ++I, ++Index) {
        const uint64_t X = In[I];
        Out[I] = X & PrefetchBit ? Lane.Cache.prefetch(X & ~PrefetchBit, Index)
                                 : Lane.Cache.demand(X, Index);
      }
      {
        std::lock_guard<std::mutex> Lock(M);
        Done[S] = W + 1;
      }
      RecordsReady.notify_one();
    }
  };

  // The scan: every access in stream order takes the next record of the
  // shard its tag names. Each shard's ring holds the ready cycles of its
  // last RingSize accesses, which covers every fill still in flight.
  const size_t RingSize = std::bit_ceil(std::max<uint64_t>(Horizon, 1));
  const uint64_t RingMask = RingSize - 1;
  std::vector<uint64_t> Rings(Shards * RingSize);
  struct Cursor {
    const uint32_t *Next = nullptr;
    uint64_t Index = 0;
    uint64_t *Ready = nullptr;
  };
  Cursor Cur[MaxShards];
  for (unsigned S = 0; S != Shards; ++S)
    Cur[S].Ready = Rings.data() + S * RingSize;
  // A hit level's latency before any wait for an in-flight fill: the
  // level's hit latency, or the memory latency for a full miss.
  std::vector<uint64_t> LatencyOf;
  for (const CacheLevelConfig &L : MC.Levels)
    LatencyOf.push_back(L.HitLatency);
  LatencyOf.push_back(MC.MemoryLatency);
  // Access counts by (is a prefetch, hit level): Outcomes[IsPf << 8 | Hit].
  std::vector<uint64_t> Outcomes(2 * (LevelMask + 1), 0);
  uint64_t Now = 0, Stalls = 0, Latencies = 0, Useful = 0, Late = 0,
           InFlight = 0;

  std::vector<std::jthread> Workers; // joins on every exit
  Workers.reserve(Shards);
  try {
    for (unsigned S = 0; S != Shards; ++S)
      Workers.emplace_back(RunShard, S);
  } catch (...) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    InputReady.notify_all();
    throw;
  }
  for (size_t W = 0; W != std::min(WindowSlots, NumWindows); ++W)
    Publish(W);
  for (size_t W = 0; W != NumWindows; ++W) {
    {
      std::unique_lock<std::mutex> Lock(M);
      RecordsReady.wait(Lock, [&] {
        return std::all_of(Done.begin(), Done.end(),
                           [&](size_t D) { return D > W; });
      });
    }
    const size_t Slot = W % WindowSlots;
    for (unsigned S = 0; S != Shards; ++S)
      Cur[S].Next = Lanes[S]->Records.data() + Slot * WindowAccesses;
    const uint8_t *Tag = Tags.data() + Slot * WindowAccesses;
    // Branch-free, with masks: the outcomes are data-dependent and would
    // mispredict. Demands and prefetches share one latency rule: a
    // prefetch's ready cycle, max(Now + level latency, the filler's ready
    // cycle), is also Now + Latency.
    for (size_t I = 0, N = TagCount[Slot]; I != N; ++I) {
      const uint64_t IsPf = Tag[I] >> 7;
      const uint64_t DemandMask = IsPf - 1;
      Now += SC.IssueCost;
      Cursor &C = Cur[Tag[I] & ~PrefetchTag];
      const uint32_t Rec = *C.Next++;
      const uint64_t Index = C.Index++;
      const uint64_t Hit = Rec & LevelMask;
      const uint64_t Back = Rec >> DistanceShift;
      const uint64_t FirstUse = (Rec >> FirstUseBit) & 1;
      // The filling access's ready cycle; 0 beyond the horizon.
      const uint64_t Filled = C.Ready[(Index - Back) & RingMask] &
                              (uint64_t(0) - (Back != 0));
      const uint64_t Waiting = Filled > Now;
      const uint64_t Latency = std::max(
          LatencyOf[Hit], (Filled - Now) & (uint64_t(0) - Waiting));
      C.Ready[Index & RingMask] = Now + Latency;
      const uint64_t Stall =
          (std::max<uint64_t>(Latency, SC.HiddenLatency) - SC.HiddenLatency) &
          DemandMask;
      Now += Stall;
      Stalls += Stall;
      Latencies += Latency & DemandMask;
      ++Outcomes[IsPf << 8 | Hit];
      Useful += FirstUse;
      Late += FirstUse & Waiting;
      InFlight += Waiting & DemandMask;
    }
    if (W + WindowSlots < NumWindows)
      Publish(W + WindowSlots);
  }
  Workers.clear(); // joins

  const uint64_t *DemandsAt = Outcomes.data();
  const uint64_t *PrefetchesAt = Outcomes.data() + (LevelMask + 1);
  DecoupledReplayResult R;
  MemoryStats &Mem = R.Mem;
  Mem.Levels.resize(NumLevels);
  // A demand hit at level H hits there and misses every level above it; a
  // full miss misses them all.
  uint64_t Below = DemandsAt[NumLevels];
  for (size_t L = NumLevels; L-- != 0;) {
    Mem.Levels[L].Hits = DemandsAt[L];
    Mem.Levels[L].Misses = Below;
    Below += DemandsAt[L];
  }
  Mem.DemandAccesses = Below;
  for (size_t L = 0; L <= NumLevels; ++L)
    Mem.PrefetchesIssued += PrefetchesAt[L];
  Mem.PrefetchesRedundant = PrefetchesAt[0];
  Mem.LatePrefetchHits = Late;
  Mem.PrefetchesUseful = Useful;
  for (const std::unique_ptr<ShardLane> &Lane : Lanes)
    Mem.PrefetchesUnused += Lane->Cache.unusedEvictions();
  Mem.StallCycles = Latencies;
  R.Stream.Events = Events.size();
  R.Stream.Loads = Mem.DemandAccesses;
  R.Stream.Prefetches = Mem.PrefetchesIssued;
  R.Stream.Cycles = Now;
  R.Stream.StallCycles = Stalls;
  R.InFlightHits = InFlight;
  R.RefreshFills = PrefetchesAt[NumLevels];
  return R;
}

} // namespace sprof
