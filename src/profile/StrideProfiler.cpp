//===- profile/StrideProfiler.cpp - The strideProf runtime routine ---------===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "profile/StrideProfiler.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace sprof;

StrideProfiler::ObsSinks StrideProfiler::resolveSinks(ObsSession *Session) {
  ObsSinks S{};
  if (Session) {
    S.ChunkSkipped = Session->counter("strideprof.chunk_skipped");
    S.FineSkipped = Session->counter("strideprof.fine_skipped");
    S.ZeroStrideFast = Session->counter("strideprof.zero_stride_fast");
    S.Reanchored = Session->counter("strideprof.reanchored");
    S.InvocationCost = Session->histogram("strideprof.invocation_cost");
    S.LfuWork = Session->histogram("lfu.add_work");
  }
  for (Counter **C :
       {&S.ChunkSkipped, &S.FineSkipped, &S.ZeroStrideFast, &S.Reanchored})
    if (!*C)
      *C = &dummyCounter();
  for (Histogram **H : {&S.InvocationCost, &S.LfuWork})
    if (!*H)
      *H = &dummyHistogram();
  return S;
}

StrideProfiler::StrideProfiler(uint32_t NumSites,
                               const StrideProfilerConfig &Config,
                               std::span<const uint8_t> Subset)
    : Config(Config) {
  if (Config.Sampling.FineInterval == 0)
    throw std::invalid_argument(
        "SamplingConfig::FineInterval must be at least 1");
  if (!Subset.empty() && Config.Sampling.Enabled)
    throw std::invalid_argument(
        "StrideProfiler: a site subset needs sampling disabled");
  if (!Subset.empty() && Subset.size() != NumSites)
    throw std::invalid_argument(
        "StrideProfiler: the site subset needs one flag per site");
  // Each LFU's constructor validates the geometry; with no sites, one is
  // built only to check it.
  if (NumSites == 0)
    LfuValueProfiler Check(Config.Lfu);
  Hot.assign(NumSites, HotSite());
  HasSubset = !Subset.empty();
  for (size_t I = 0; I != Subset.size(); ++I)
    Hot[I].InSubset = Subset[I] != 0;
  Sites.reserve(NumSites);
  for (uint32_t I = 0; I != NumSites; ++I)
    Sites.push_back(StrideSiteData{.Lfu = LfuValueProfiler(Config.Lfu)});
  WorkCounts.assign(2 * size_t(Config.Lfu.TempSize) + 1, 0);
  if (HasSubset)
    SubsetWork.assign(WorkCounts.size(), 0);
  attachObs(nullptr);
}

void StrideProfiler::attachObs(ObsSession *Session) {
  Obs = resolveSinks(Session);
  Counter *LfuMerges = Session ? Session->counter("lfu.merges") : nullptr;
  for (StrideSiteData &D : Sites)
    D.Lfu.attachObs(LfuMerges);
}

const StrideSiteData &StrideProfiler::site(uint32_t SiteId) const {
  assert(SiteId < Sites.size() && "site id out of range");
  const HotSite &H = Hot[SiteId];
  StrideSiteData &D = Sites[SiteId];
  D.PrevAddress = H.PrevAddress;
  D.HasPrevAddress = H.HasPrevAddress;
  D.PrevStride = H.PrevStride;
  D.HasPrevStride = H.HasPrevStride;
  D.NumberToSkip = H.NumberToSkip;
  D.LastChunkEpoch = H.LastChunkEpoch;
  D.PrevGlobalRef = H.PrevGlobalRef;
  D.RefGapSum = H.PrevGlobalRef + H.GapOffset;
  D.RefGapCount = H.Invocations - H.Uncounted;
  D.Invocations = H.Invocations;
  // Every non-zero stride makes exactly one LFU call.
  D.NumNonZeroStride = D.Lfu.totalAdded();
  D.NumZeroStride = H.NumZeroStride;
  D.NumZeroDiff = H.NumZeroDiff;
  D.Processed = H.Anchors + H.NumZeroStride + D.NumNonZeroStride;
  D.LfuCalls = D.NumNonZeroStride;
  return D;
}

namespace {

/// Use-distance statistic (Section 6): gap in global memory references
/// between successive visits to a site, counted when the visit's (known)
/// index exceeds the previous (known) one. Tracked before sampling so the
/// average is unbiased; the caller counts the visit in H.Invocations.
template <typename HotT>
inline void updateRefGap(HotT &H, uint64_t GlobalRefIndex) {
  if (H.PrevGlobalRef != 0 && GlobalRefIndex > H.PrevGlobalRef) {
    H.PrevGlobalRef = GlobalRefIndex;
    return;
  }
  ++H.Uncounted;
  if (GlobalRefIndex != 0) {
    // Keeps PrevGlobalRef + GapOffset, the gap sum, unchanged.
    H.GapOffset += H.PrevGlobalRef - GlobalRefIndex;
    H.PrevGlobalRef = GlobalRefIndex;
  }
}

/// Simulated cost of a processed reference that calls the LFU with
/// \p Work units: the sampling checks it passed, the stride core and the
/// LFU call.
uint64_t lfuCallCost(const StrideProfilerConfig &Config, unsigned Work) {
  const StrideCostModel &C = Config.Costs;
  const uint64_t Checks =
      Config.Sampling.Enabled ? C.ChunkCheckCost + C.FineCheckCost : 0;
  return C.CallOverhead + Checks + C.CoreCost + C.LfuBaseCost +
         static_cast<uint64_t>(C.LfuPerWorkCost) * Work;
}

} // namespace

// Inlined into each entry point, so the per-event loops make no call.
template <bool Split>
[[gnu::always_inline]] inline void
StrideProfiler::processedTail(uint32_t SiteId, HotSite &H, uint64_t Address,
                              uint64_t Epoch, CallTally &T, bool Sampled) {
  // Re-anchor at chunk boundaries: a "stride" spanning a skipped chunk is
  // not a stride (see StrideSiteData::LastChunkEpoch).
  if (Sampled && H.LastChunkEpoch != Epoch) {
    H.LastChunkEpoch = Epoch;
    H.HasPrevAddress = false;
    H.HasPrevStride = false;
    ++T.Reanchored;
  }

  // First observation of this site: just remember the address.
  if (!H.HasPrevAddress) {
    H.PrevAddress = Address;
    H.HasPrevAddress = true;
    ++H.Anchors;
    return;
  }

  // Zero-stride shortcut (Figure 7): addresses equal under the coarsening
  // shift bypass the heavy LFU path entirely.
  if (sameAddress(Address, H.PrevAddress)) {
    ++H.NumZeroStride;
    ++T.ZeroStride;
    return;
  }

  int64_t Stride = static_cast<int64_t>(Address) -
                   static_cast<int64_t>(H.PrevAddress);

  // Stride-difference bookkeeping: a high share of zero differences marks
  // a *phased* stride sequence (Figure 4), which PMST classification needs.
  if (H.HasPrevStride) {
    if (Stride - H.PrevStride == 0)
      ++H.NumZeroDiff;
    else
      H.PrevStride = Stride;
  } else {
    H.PrevStride = Stride;
    H.HasPrevStride = true;
  }

  H.PrevAddress = Address;

  const unsigned Work = Sites[SiteId].Lfu.add(Stride);
  if (Work < WorkCounts.size()) {
    ++WorkCounts[Work];
    if constexpr (Split)
      SubsetWork[Work] += H.InSubset;
    T.MinWork = std::min(T.MinWork, Work);
    T.MaxWork = std::max(T.MaxWork, Work);
  } else {
    // A merge's work: rare enough to record directly.
    const uint64_t Cost = lfuCallCost(Config, Work);
    Obs.LfuWork->record(Work);
    Obs.InvocationCost->record(Cost);
    ++T.WideCalls;
    T.WideCost += Cost;
    if constexpr (Split)
      if (H.InSubset)
        SubsetWide.push_back(Work);
  }
}

uint64_t StrideProfiler::charge(const CallTally &T, const uint64_t *Counts,
                                const ObsSinks &Sinks,
                                uint64_t &LfuCalls) const {
  const StrideCostModel &C = Config.Costs;
  const uint64_t SkipCost = C.CallOverhead + C.ChunkCheckCost;
  const uint64_t CheckCost = SkipCost + C.FineCheckCost;
  Histogram &Costs = *Sinks.InvocationCost;
  uint64_t Total = T.WideCost;
  auto Charge = [&](uint64_t Cost, uint64_t N) {
    Costs.record(Cost, N);
    Total += Cost * N;
  };
  Charge(SkipCost, T.ChunkSkipped);
  Charge(CheckCost, T.FineSkipped);
  uint64_t Calls = T.WideCalls;
  for (unsigned W = T.MinWork; W <= T.MaxWork; ++W)
    if (const uint64_t N = Counts[W]) {
      Calls += N;
      Sinks.LfuWork->record(W, N);
      Charge(lfuCallCost(Config, W), N);
    }
  // The rest took the first-address or zero-stride path.
  Charge((Config.Sampling.Enabled ? CheckCost : C.CallOverhead) +
             C.ZeroStrideCost,
         T.Processed - Calls);

  auto Count = [](Counter *Sink, uint64_t N) {
    if (N)
      Sink->inc(N);
  };
  Count(Sinks.ChunkSkipped, T.ChunkSkipped);
  Count(Sinks.FineSkipped, T.FineSkipped);
  Count(Sinks.ZeroStrideFast, T.ZeroStride);
  Count(Sinks.Reanchored, T.Reanchored);
  LfuCalls += Calls;
  return Total;
}

uint64_t StrideProfiler::fold(const CallTally &T) {
  uint64_t LfuCalls = 0;
  const uint64_t Total = charge(T, WorkCounts.data(), Obs, LfuCalls);
  if (T.MinWork <= T.MaxWork)
    std::fill(WorkCounts.begin() + T.MinWork,
              WorkCounts.begin() + T.MaxWork + 1, 0);
  TotalProcessed += T.Processed;
  TotalLfuCalls += LfuCalls;
  return Total;
}

StrideProfiler::RunTotals
StrideProfiler::harvestSubset(ObsSession *Session) const {
  RunTotals Totals;
  if (!HasSubset)
    return Totals;
  // The subset's outcomes over the run, as one call's tally: its sites'
  // counters, and the works of their LFU calls.
  CallTally T;
  uint64_t Merges = 0;
  for (uint32_t S = 0, E = numSites(); S != E; ++S) {
    if (!Hot[S].InSubset)
      continue;
    const StrideSiteData &D = site(S);
    Totals.Invocations += D.Invocations;
    Totals.Processed += D.Processed;
    Totals.LfuCalls += D.LfuCalls;
    T.ZeroStride += D.NumZeroStride;
    Merges += D.Lfu.numMerges();
  }
  T.Processed = Totals.Processed;
  T.MinWork = 0;
  T.MaxWork = static_cast<unsigned>(SubsetWork.size() - 1);
  const ObsSinks Sinks = resolveSinks(Session);
  for (unsigned Work : SubsetWide) {
    const uint64_t Cost = lfuCallCost(Config, Work);
    Sinks.LfuWork->record(Work);
    Sinks.InvocationCost->record(Cost);
    ++T.WideCalls;
    T.WideCost += Cost;
  }
  uint64_t LfuCalls = 0;
  Totals.Cost = charge(T, SubsetWork.data(), Sinks, LfuCalls);
  assert(LfuCalls == Totals.LfuCalls && "subset LFU works miscounted");
  if (Session)
    Session->counter("lfu.merges")->inc(Merges);
  return Totals;
}

uint64_t StrideProfiler::chargeSkip(Counter *Sink, uint64_t Cost) {
  Sink->inc();
  Obs.InvocationCost->record(Cost);
  return Cost;
}

// Out of line, so profile()'s skip paths do not pay for the tail's
// registers and tally.
[[gnu::noinline]] uint64_t StrideProfiler::processOne(uint32_t SiteId,
                                                      HotSite &H,
                                                      uint64_t Address,
                                                      uint64_t Epoch,
                                                      bool Sampled) {
  CallTally T;
  T.Processed = 1;
  if (HasSubset)
    processedTail<true>(SiteId, H, Address, Epoch, T, Sampled);
  else
    processedTail(SiteId, H, Address, Epoch, T, Sampled);
  return fold(T);
}

uint64_t StrideProfiler::profile(uint32_t SiteId, uint64_t Address,
                                 uint64_t GlobalRefIndex) {
  assert(SiteId < Hot.size() && "site id out of range");
  HotSite &H = Hot[SiteId];
  const StrideCostModel &C = Config.Costs;

  ++TotalInvocations;
  ++H.Invocations;
  updateRefGap(H, GlobalRefIndex);

  if (!Config.Sampling.Enabled)
    return processOne(SiteId, H, Address, ChunkEpoch, false);
  // Chunk sampling (Figure 9): global skip/profile phases.
  const uint64_t SkipCost = C.CallOverhead + C.ChunkCheckCost;
  if (NumberSkipped < Config.Sampling.ChunkSkip) {
    ++NumberSkipped;
    return chargeSkip(Obs.ChunkSkipped, SkipCost);
  }
  if (NumberProfiled == Config.Sampling.ChunkProfile) {
    // Phase flip: reset both counters; this reference is skipped too,
    // exactly as in Figure 9. The next profiled chunk is a new epoch.
    NumberProfiled = 0;
    NumberSkipped = 0;
    ++ChunkEpoch;
    return chargeSkip(Obs.ChunkSkipped, SkipCost);
  }
  ++NumberProfiled;
  // Fine sampling: 1 of every FineInterval references per site.
  if (H.NumberToSkip > 0) {
    --H.NumberToSkip;
    return chargeSkip(Obs.FineSkipped, SkipCost + C.FineCheckCost);
  }
  H.NumberToSkip = Config.Sampling.FineInterval - 1;
  return processOne(SiteId, H, Address, ChunkEpoch, true);
}

template <bool Split>
uint64_t StrideProfiler::profileUnsampled(const StrideEvent *Events,
                                          size_t N) {
  CallTally T;
  for (size_t I = 0; I != N; ++I) {
    const StrideEvent &E = Events[I];
    assert(E.SiteId < Hot.size() && "site id out of range");
    HotSite &H = Hot[E.SiteId];
    ++H.Invocations;
    updateRefGap(H, E.GlobalRefIndex);
    processedTail<Split>(E.SiteId, H, E.Address, ChunkEpoch, T,
                         /*Sampled=*/false);
  }
  TotalInvocations += N;
  T.Processed = N;
  return fold(T);
}

uint64_t StrideProfiler::profileBatch(const StrideEvent *Events, size_t N) {
  // No sampling: every event runs the full core.
  if (!Config.Sampling.Enabled)
    return HasSubset ? profileUnsampled<true>(Events, N)
                     : profileUnsampled<false>(Events, N);
  CallTally T;

  // Sampling: the global chunk phase is constant across a run of events,
  // so walk the block in phase-length segments and hoist the phase
  // decision out of the per-event loop. State after the walk is exactly
  // what N successive profile() calls would leave.
  size_t I = 0;
  while (I != N) {
    if (NumberSkipped < Config.Sampling.ChunkSkip) {
      // Skip phase: each event only touches its site's invocation count
      // and use-distance state.
      size_t K = static_cast<size_t>(
          std::min<uint64_t>(N - I, Config.Sampling.ChunkSkip - NumberSkipped));
      for (size_t End = I + K; I != End; ++I) {
        const StrideEvent &E = Events[I];
        assert(E.SiteId < Hot.size() && "site id out of range");
        HotSite &H = Hot[E.SiteId];
        ++H.Invocations;
        updateRefGap(H, E.GlobalRefIndex);
      }
      NumberSkipped += K;
      TotalInvocations += K;
      T.ChunkSkipped += K;
      continue;
    }
    if (NumberProfiled == Config.Sampling.ChunkProfile) {
      // Phase flip: one event absorbed as a skip, exactly as profile().
      const StrideEvent &E = Events[I];
      assert(E.SiteId < Hot.size() && "site id out of range");
      HotSite &H = Hot[E.SiteId];
      ++H.Invocations;
      updateRefGap(H, E.GlobalRefIndex);
      NumberProfiled = 0;
      NumberSkipped = 0;
      ++ChunkEpoch;
      ++TotalInvocations;
      ++T.ChunkSkipped;
      ++I;
      continue;
    }
    // Profile phase: up to the chunk's remaining budget, fine sampling and
    // the shared core per event.
    size_t K = static_cast<size_t>(std::min<uint64_t>(
        N - I, Config.Sampling.ChunkProfile - NumberProfiled));
    const uint64_t FineSkippedBefore = T.FineSkipped;
    for (size_t End = I + K; I != End; ++I) {
      const StrideEvent &E = Events[I];
      assert(E.SiteId < Hot.size() && "site id out of range");
      HotSite &H = Hot[E.SiteId];
      ++H.Invocations;
      updateRefGap(H, E.GlobalRefIndex);
      if (H.NumberToSkip > 0) {
        --H.NumberToSkip;
        ++T.FineSkipped;
      } else {
        H.NumberToSkip = Config.Sampling.FineInterval - 1;
        processedTail(E.SiteId, H, E.Address, ChunkEpoch, T, true);
      }
    }
    NumberProfiled += K;
    TotalInvocations += K;
    T.Processed += K - (T.FineSkipped - FineSkippedBefore);
  }
  return fold(T);
}

uint64_t StrideProfiler::profileIndexed(const IndexedLoad *Loads, size_t N) {
  if (HasSubset)
    throw std::logic_error(
        "StrideProfiler::profileIndexed does not account a site subset");
  CallTally T;
  TotalInvocations += N;

  if (!Config.Sampling.Enabled) {
    // No sampling: the position plays no part, as in profileBatch.
    for (size_t I = 0; I != N; ++I) {
      const IndexedLoad &L = Loads[I];
      assert(L.SiteId < Hot.size() && "site id out of range");
      HotSite &H = Hot[L.SiteId];
      ++H.Invocations;
      updateRefGap(H, L.GlobalRefIndex);
      processedTail(L.SiteId, H, L.Address, ChunkEpoch, T, false);
    }
    T.Processed = N;
    return fold(T);
  }

  // The chunk phase as a pure function of the position (see the header
  // comment): one cycle is ChunkSkip skips, ChunkProfile profiled loads,
  // and the flip load -- which Figure 9 also skips. The current cycle's
  // start and epoch, the first cycle's to begin with, are recomputed only
  // when a load falls outside it.
  const uint64_t Skip = Config.Sampling.ChunkSkip;
  const uint64_t Cycle = Skip + Config.Sampling.ChunkProfile + 1;
  uint64_t CycleStart = 0, Epoch = 1;
  for (size_t I = 0; I != N; ++I) {
    const IndexedLoad &L = Loads[I];
    assert(L.SiteId < Hot.size() && "site id out of range");
    HotSite &H = Hot[L.SiteId];
    ++H.Invocations;
    updateRefGap(H, L.GlobalRefIndex);
    if (L.LoadIndex - CycleStart >= Cycle) {
      Epoch = L.LoadIndex / Cycle + 1;
      CycleStart = (Epoch - 1) * Cycle;
    }
    const uint64_t Phase = L.LoadIndex - CycleStart;
    if (Phase < Skip || Phase == Cycle - 1) {
      ++T.ChunkSkipped;
    } else if (H.NumberToSkip > 0) {
      --H.NumberToSkip;
      ++T.FineSkipped;
    } else {
      H.NumberToSkip = Config.Sampling.FineInterval - 1;
      ++T.Processed;
      processedTail(L.SiteId, H, L.Address, Epoch, T, true);
    }
  }
  return fold(T);
}

uint64_t StrideProfiler::consume(std::span<const StrideEvent> Events) {
  // Each run of loads goes to profileBatch where it lies; other events
  // (prefetches in mixed external traces) are stepped over, since
  // strideProf only ever sees demand loads.
  uint64_t Total = 0;
  const StrideEvent *P = Events.data();
  const StrideEvent *const End = P + Events.size();
  while (P != End) {
    while (P != End && P->Kind != AccessKind::Load)
      ++P;
    const StrideEvent *Run = P;
    while (P != End && P->Kind == AccessKind::Load)
      ++P;
    if (P != Run)
      Total += profileBatch(Run, static_cast<size_t>(P - Run));
  }
  return Total;
}

uint64_t StrideProfiler::consume(AccessSource &Src, size_t BatchSize) {
  if (std::optional<std::span<const StrideEvent>> Rest = pullRestInPlace(Src))
    return consume(*Rest);
  if (BatchSize == 0)
    BatchSize = 1;
  std::vector<StrideEvent> Buf(BatchSize);
  uint64_t Total = 0;
  while (size_t N = Src.pull(Buf.data(), Buf.size()))
    Total += consume(std::span<const StrideEvent>(Buf.data(), N));
  return Total;
}
