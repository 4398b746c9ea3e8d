//===- memsys/Cache.cpp - Set-associative cache hierarchy ------------------===//
//
// Part of the StrideProf project (see Cache.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "memsys/Cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#if defined(__linux__)
#include <sys/mman.h>
#endif

using namespace sprof;

/// A level's set count, rounded up to a power of two so set selection is a
/// mask. Every shipped configuration is already a power of two; a non-pow2
/// config gains capacity rather than aliasing sets.
static uint64_t setCount(const CacheLevelConfig &Config) {
  assert(Config.SizeBytes % (Config.LineBytes * Config.Associativity) == 0 &&
         "cache size must be a whole number of sets");
  uint64_t RawSets = Config.SizeBytes / (Config.LineBytes * Config.Associativity);
  assert(RawSets > 0 && "cache must have at least one set");
  return std::bit_ceil(RawSets);
}

CacheLevel::CacheLevel(const CacheLevelConfig &Config) : Config(Config) {
  NumSets = setCount(Config);
  SetMask = NumSets - 1;
  Assoc = Config.Associativity;
  BlockStride = 4 * static_cast<size_t>(Assoc);
  // Carve the lane storage from 2MB-aligned memory, rounded up to whole
  // 2MB blocks, and advise huge pages only for lanes of a huge page or
  // more (see the member comment in Cache.h). Smaller lanes -- every
  // shipped level, the 1MB L3 lanes included -- stay on 4KB pages, so a
  // level touches only the pages its lanes use.
  size_t Words = NumSets * BlockStride;
  size_t Bytes = (Words * sizeof(uint64_t) + BlockAlign - 1) &
                 ~(BlockAlign - 1);
  auto *Raw =
      static_cast<uint64_t *>(::operator new(Bytes, std::align_val_t(BlockAlign)));
#if defined(__linux__)
  if (Words * sizeof(uint64_t) >= BlockAlign)
    ::madvise(Raw, Bytes, MADV_HUGEPAGE);
#endif
  std::memset(Raw, 0, Words * sizeof(uint64_t));
  Blocks.reset(Raw);
  for (uint64_t Set = 0; Set != NumSets; ++Set) {
    uint64_t *B = Blocks.get() + Set * BlockStride;
    for (unsigned W = 0; W != Assoc; ++W) {
      B[W] = InvalidTag;
      B[3 * Assoc + W] = NoSiteId;
    }
  }
  Mru.assign(NumSets, 0);
}

bool CacheLevel::probe(uint64_t LineAddr, uint64_t &ReadyTime,
                       bool *WasUnusedPrefetch, uint32_t *PrefetchSite) {
  uint64_t Set = LineAddr & SetMask;
  uint64_t *B = Blocks.get() + Set * BlockStride;
  for (unsigned W = 0; W != Assoc; ++W) {
    uint64_t T = B[W];
    if ((T & ~MarkBit) == LineAddr) {
      B[Assoc + W] = ++UseClock;
      Mru[Set] = W;
      ReadyTime = B[2 * Assoc + W];
      if (WasUnusedPrefetch) {
        *WasUnusedPrefetch = (T & MarkBit) != 0;
        B[W] = LineAddr; // clear the mark; the site word is left stale
      }
      if (PrefetchSite)
        *PrefetchSite = static_cast<uint32_t>(B[3 * Assoc + W]);
      return true;
    }
  }
  return false;
}

void CacheLevel::fill(uint64_t LineAddr, uint64_t ReadyTime, bool Prefetched,
                      uint32_t PrefetchSite) {
  uint64_t Set = LineAddr & SetMask;
  uint64_t *B = Blocks.get() + Set * BlockStride;
  // Refresh an existing entry for the same line: earliest ready time wins,
  // the touch bumps LRU recency, and the prefetch mark/site stay untouched
  // (the original prefetch still owns the line's outcome). See the header
  // comment for when this path is reached: right after the same line's
  // fillMiss, which left it in the set's MRU way, so look there first.
  unsigned W = Mru[Set];
  if ((B[W] & ~MarkBit) != LineAddr)
    for (W = 0; W != Assoc && (B[W] & ~MarkBit) != LineAddr; ++W) {
    }
  if (W != Assoc) {
    B[2 * Assoc + W] = std::min(B[2 * Assoc + W], ReadyTime);
    B[Assoc + W] = ++UseClock;
    Mru[Set] = W;
    return;
  }
  fillMiss(LineAddr, ReadyTime, Prefetched, PrefetchSite);
}

void CacheLevel::fillMiss(uint64_t LineAddr, uint64_t ReadyTime,
                          bool Prefetched, uint32_t PrefetchSite) {
  assert(LineAddr < MarkBit && "line address collides with the mark bit");
  uint64_t Set = LineAddr & SetMask;
  uint64_t *B = Blocks.get() + Set * BlockStride;
  // Victim: first invalid way, else LRU. An invalid way's use stamp is
  // still the constructor's 0 and every fill or hit stamps ++UseClock >= 1,
  // so both are the first way with the smallest stamp. The running minimum
  // lives in a register, not behind the victim index.
  const uint64_t *Use = B + Assoc;
  unsigned Victim = 0;
  uint64_t Oldest = Use[0];
  for (unsigned W = 1; W != Assoc; ++W) {
    const uint64_t U = Use[W];
    Victim = U < Oldest ? W : Victim;
    Oldest = U < Oldest ? U : Oldest;
  }
  uint64_t VT = B[Victim];
  if (VT != InvalidTag && (VT & MarkBit)) {
    if (EvictUnusedCounter)
      ++*EvictUnusedCounter;
    if (Attr)
      Attr->recordEarly(static_cast<uint32_t>(B[3 * Assoc + Victim]));
  }
  B[Victim] = Prefetched ? (LineAddr | MarkBit) : LineAddr;
  B[2 * Assoc + Victim] = ReadyTime;
  B[Assoc + Victim] = ++UseClock;
  B[3 * Assoc + Victim] = PrefetchSite;
  Mru[Set] = Victim;
}

void CacheLevel::drainUnusedPrefetches(AttributionData &A) {
  for (uint64_t Set = 0; Set != NumSets; ++Set) {
    uint64_t *B = Blocks.get() + Set * BlockStride;
    for (unsigned W = 0; W != Assoc; ++W) {
      uint64_t T = B[W];
      if (T != InvalidTag && (T & MarkBit)) {
        A.recordEarly(static_cast<uint32_t>(B[3 * Assoc + W]));
        B[W] = T & ~MarkBit;
      }
    }
  }
}

RecencyLevel::RecencyLevel(const CacheLevelConfig &Config)
    : SetMask(setCount(Config) - 1), Assoc(Config.Associativity),
      HitLatency(Config.HitLatency),
      Tags((SetMask + 1) * Assoc, InvalidTag) {}

bool RecencyLevel::touch(uint64_t LineAddr) {
  assert(LineAddr != InvalidTag && "line address collides with an empty way");
  uint64_t *Row = Tags.data() + (LineAddr & SetMask) * Assoc;
  unsigned W = 0;
  while (W != Assoc && Row[W] != LineAddr)
    ++W;
  const bool Hit = W != Assoc;
  // A miss drops the last way: an empty one while any is left, else the
  // least recently used line.
  if (!Hit)
    W = Assoc - 1;
  for (; W != 0; --W)
    Row[W] = Row[W - 1];
  Row[0] = LineAddr;
  return Hit;
}

MemoryHierarchy::MemoryHierarchy(const MemoryConfig &Config, CacheModel Model)
    : Config(Config), ClockFree(Model == CacheModel::ClockFree) {
  assert(!Config.Levels.empty() && "hierarchy needs at least one level");
  LineBytes = Config.Levels.front().LineBytes;
  LineBytesPow2 = std::has_single_bit(static_cast<uint64_t>(LineBytes));
  LineShift = LineBytesPow2
                  ? std::countr_zero(static_cast<uint64_t>(LineBytes))
                  : 0;
  for (const CacheLevelConfig &L : Config.Levels) {
    assert(L.LineBytes == LineBytes &&
           "all levels must share one line size");
    if (ClockFree)
      Recency.emplace_back(L);
    else
      Levels.emplace_back(L);
  }
  L1HitLatency = Config.Levels.front().HitLatency;
  Stats.Levels.resize(Config.Levels.size());
  // Prefetch usefulness is accounted at the L1 level.
  if (!ClockFree)
    Levels.front().setEvictUnusedCounter(&Stats.PrefetchesUnused);
}

size_t MemoryHierarchy::findLine(uint64_t Line, uint64_t &ReadyTime) {
  for (size_t L = 0; L != Levels.size(); ++L)
    if (Levels[L].probe(Line, ReadyTime))
      return L;
  return Levels.size();
}

uint64_t MemoryHierarchy::demandAccessSlow(uint64_t Line, uint64_t Now,
                                           uint32_t SiteId) {
  uint64_t ReadyTime = 0;
  // Overlap the lower levels' lane fetches with the L1 scan: their set
  // rows live in arrays large enough to miss the *host* cache on
  // pointer-chasing workloads.
  for (size_t L = 1; L < Levels.size(); ++L)
    Levels[L].prefetchSet(Line);
  // Probe L1 separately so first use of a prefetched line is observed.
  size_t Hit;
  bool FirstPrefetchUse = false;
  uint32_t PrefetchSite = NoSiteId;
  if (Levels[0].probe(Line, ReadyTime, &FirstPrefetchUse, &PrefetchSite)) {
    Hit = 0;
    if (FirstPrefetchUse)
      ++Stats.PrefetchesUseful;
  } else {
    Hit = Levels.size();
    for (size_t L = 1; L != Levels.size(); ++L)
      if (Levels[L].probe(Line, ReadyTime)) {
        Hit = L;
        break;
      }
  }

  uint64_t Latency;
  bool StillInFlight = false;
  if (Hit == Levels.size()) {
    // Full miss: stall to memory. Every level was just probed and missed,
    // so the fills can skip the refresh scan.
    Latency = Config.MemoryLatency;
    ++Stats.Levels.back().Misses;
    for (size_t L = 0; L != Levels.size(); ++L) {
      if (L < Levels.size() - 1)
        ++Stats.Levels[L].Misses;
      Levels[L].fillMiss(Line, Now + Latency);
    }
  } else {
    // Hit at level Hit; latency is that level's hit latency, plus any
    // residual fill time when the line is still in flight (from a late
    // prefetch or an overlapping demand fill of the same line).
    Latency = Levels[Hit].config().HitLatency;
    if (ReadyTime > Now) {
      StillInFlight = true;
      Latency = std::max<uint64_t>(Latency, ReadyTime - Now);
      if (FirstPrefetchUse)
        ++Stats.LatePrefetchHits;
    }
    ++Stats.Levels[Hit].Hits;
    for (size_t L = 0; L != Hit; ++L) {
      ++Stats.Levels[L].Misses;
      Levels[L].fillMiss(Line, Now + Latency);
    }
  }
  // The first hit-latency cycles overlap with the pipeline's base load
  // cost; report the full latency and let the caller discount.
  Stats.StallCycles += Latency;
  if (Attr.Enabled) {
    // First demand touch of a prefetched line retires that prefetch: the
    // outcome (and the stall it saved or caused) is credited to the site
    // that issued it, not the site that happened to consume the line.
    if (FirstPrefetchUse) {
      if (StillInFlight)
        Attr.recordLate(PrefetchSite);
      else
        Attr.recordUseful(PrefetchSite);
    }
    SiteMissStats &SM = Attr.SiteMiss[Attr.indexFor(SiteId)];
    ++SM.Accesses;
    if (Hit != 0)
      ++SM.L1Misses;
    if (Hit == Levels.size())
      ++SM.FullMisses;
    SM.StallCycles += Latency;
  }
  return Latency;
}

uint64_t MemoryHierarchy::demandAccessClockFree(uint64_t Line,
                                                uint32_t SiteId) {
  // Every level above the serving one misses and takes the line; the
  // levels below it are not touched, as in demandAccessSlow.
  const size_t N = Recency.size();
  size_t Hit = 0;
  while (Hit != N && !Recency[Hit].touch(Line))
    ++Hit;
  for (size_t L = 0; L != Hit; ++L)
    ++Stats.Levels[L].Misses;
  uint64_t Latency = Config.MemoryLatency;
  if (Hit != N) {
    Latency = Recency[Hit].hitLatency();
    ++Stats.Levels[Hit].Hits;
  }
  Stats.StallCycles += Latency;
  if (Attr.Enabled) {
    SiteMissStats &SM = Attr.SiteMiss[Attr.indexFor(SiteId)];
    ++SM.Accesses;
    if (Hit != 0)
      ++SM.L1Misses;
    if (Hit == N)
      ++SM.FullMisses;
    SM.StallCycles += Latency;
  }
  return Latency;
}

void MemoryHierarchy::prefetch(uint64_t Addr, uint64_t Now, uint32_t SiteId) {
  if (ClockFree)
    throw std::logic_error(
        "MemoryHierarchy::prefetch: a clock-free hierarchy times "
        "prefetch-free runs only");
  ++Stats.PrefetchesIssued;
  uint64_t Line = lineAddr(Addr);
  uint64_t ReadyTime = 0;
  size_t Hit = findLine(Line, ReadyTime);
  if (Hit == 0) {
    ++Stats.PrefetchesRedundant;
    if (Attr.Enabled)
      Attr.recordRedundant(SiteId);
    return; // already (or about to be) in L1
  }
  uint64_t Latency = Hit == Levels.size() ? Config.MemoryLatency
                                          : Levels[Hit].config().HitLatency;
  uint64_t Ready = Now + Latency;
  if (Hit != Levels.size() && ReadyTime > Now)
    Ready = std::max(Ready, ReadyTime);
  // Levels below the providing one were just probed and missed. On a full
  // miss this first pass covers every level, and the completion pass below
  // re-fills them through the refresh path (earliest-ready-time merge plus
  // one extra LRU touch per level) -- pinned in tests/test_memsys.cpp.
  for (size_t L = 0; L != Hit && L != Levels.size(); ++L)
    Levels[L].fillMiss(Line, Ready, /*Prefetched=*/L == 0,
                       L == 0 ? SiteId : NoSiteId);
  if (Hit == Levels.size())
    for (size_t L = 0; L != Levels.size(); ++L)
      Levels[L].fill(Line, Ready, /*Prefetched=*/L == 0,
                     L == 0 ? SiteId : NoSiteId);
}

void MemoryHierarchy::enableAttribution(uint32_t NumSites) {
  Attr.Enabled = true;
  Attr.Finalized = false;
  Attr.NumSites = NumSites;
  Attr.Total = PrefetchOutcomeCounts();
  Attr.PerSite.assign(NumSites + 1, PrefetchOutcomeCounts());
  Attr.SiteMiss.assign(NumSites + 1, SiteMissStats());
  if (!ClockFree)
    Levels.front().setAttribution(&Attr);
}

void MemoryHierarchy::finalizeAttribution() {
  if (!Attr.Enabled || Attr.Finalized)
    return;
  // A non-redundant prefetch marks exactly one L1 line; every mark is
  // cleared by first demand use (Useful/Late) or eviction (Early). Marks
  // still resident now never helped anyone: drain them into Early so the
  // four classes partition PrefetchesIssued exactly. A clock-free
  // hierarchy issued no prefetch, so it has no mark to drain.
  if (!ClockFree)
    Levels.front().drainUnusedPrefetches(Attr);
  Attr.Finalized = true;
}

StreamReplayStats sprof::replayAccessStream(MemoryHierarchy &MH,
                                            AccessSource &Src,
                                            const StreamReplayConfig &Config) {
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
      }
      ++S.Events;
    }
  }
  S.Cycles = Now;
  return S;
}
