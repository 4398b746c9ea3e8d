//===- memsys/Cache.h - Set-associative cache hierarchy --------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A timing-aware cache hierarchy standing in for the paper's 733 MHz
/// Itanium memory system: 16KB 4-way L1D, 96KB 6-way unified L2, 2MB 4-way
/// unified L3 (Section 4). Lines carry a *ready time* so that prefetches
/// issued K iterations ahead (Figure 3) overlap with execution: a demand
/// load that arrives before its prefetched line is ready stalls only for
/// the remaining cycles (a "late" prefetch), which is exactly the effect
/// the paper's prefetch-distance heuristic trades against cache pollution.
///
/// The per-level storage is structure-of-arrays *per set*: each set owns
/// one contiguous block of field lanes -- [tags][ready][last-use][site] --
/// so a probe, fill, and victim scan together touch one or two host cache
/// lines instead of five scattered global arrays. The unused-prefetch mark
/// lives in the tag word's top bit (line addresses never reach it), which
/// makes a marked line fail the tag compare of the MRU fast path for free.
/// The set count is rounded up to a power of two so set selection is a
/// single mask, and each set remembers its most-recently-hit way, giving
/// demand accesses an MRU way-prediction fast path that touches one tag
/// before falling back to the associative scan. All of this is encoding
/// only: hit/miss outcomes, LRU victim choice, timing, and attribution are
/// bit-identical to the straightforward array-of-structs formulation.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_MEMSYS_CACHE_H
#define SPROF_MEMSYS_CACHE_H

#include "stream/AccessStream.h"

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace sprof {

/// Geometry and latency of one cache level.
struct CacheLevelConfig {
  std::string Name = "L1";
  uint64_t SizeBytes = 16 * 1024;
  unsigned Associativity = 4;
  unsigned LineBytes = 64;
  /// Load-to-use latency when hitting in this level.
  uint32_t HitLatency = 2;

  bool operator==(const CacheLevelConfig &) const = default;
};

/// Whole-hierarchy configuration. Defaults model the paper's Itanium.
struct MemoryConfig {
  std::vector<CacheLevelConfig> Levels = {
      {"L1D", 16 * 1024, 4, 64, 2},
      {"L2", 96 * 1024, 6, 64, 9},
      {"L3", 2 * 1024 * 1024, 4, 64, 24},
  };
  /// Latency of a main-memory access.
  uint32_t MemoryLatency = 160;
  /// When true, the pipeline asks the hierarchy for per-prefetch outcome
  /// attribution and per-site demand-miss statistics (see AttributionData).
  /// Purely additive bookkeeping: neither timing nor MemoryStats changes
  /// whether this is on or off.
  bool EnableAttribution = false;

  bool operator==(const MemoryConfig &) const = default;
};

/// Load-site sentinel for accesses that carry no attributable site (the
/// memsys mirror of the IR's NoId; memsys does not depend on the IR).
inline constexpr uint32_t NoSiteId = ~0u;

/// Retirement outcome of every issued prefetch. The four classes partition
/// the issued prefetches exactly: after MemoryHierarchy::finalizeAttribution
/// drains still-resident marked lines,
/// Useful + Late + Early + Redundant == MemoryStats::PrefetchesIssued.
struct PrefetchOutcomeCounts {
  /// Demand access hit a prefetched line whose fill had completed.
  uint64_t Useful = 0;
  /// Demand access arrived while the prefetched fill was still in flight
  /// (partial stall; the prefetch was issued too close to the use).
  uint64_t Late = 0;
  /// Prefetched line was evicted from L1 -- or still resident at run end --
  /// without ever being demanded (cache pollution).
  uint64_t Early = 0;
  /// The line was already in L1 (or in flight to it) when the prefetch was
  /// issued; the prefetch did nothing.
  uint64_t Redundant = 0;

  uint64_t issued() const { return Useful + Late + Early + Redundant; }

  PrefetchOutcomeCounts &operator+=(const PrefetchOutcomeCounts &Other) {
    Useful += Other.Useful;
    Late += Other.Late;
    Early += Other.Early;
    Redundant += Other.Redundant;
    return *this;
  }
};

/// Demand-access statistics attributed to one load site.
struct SiteMissStats {
  uint64_t Accesses = 0;
  uint64_t L1Misses = 0;
  /// Missed every cache level (paid the full memory latency).
  uint64_t FullMisses = 0;
  uint64_t StallCycles = 0;

  SiteMissStats &operator+=(const SiteMissStats &Other) {
    Accesses += Other.Accesses;
    L1Misses += Other.L1Misses;
    FullMisses += Other.FullMisses;
    StallCycles += Other.StallCycles;
    return *this;
  }
};

/// Per-site prefetch-outcome and demand-miss attribution. Lives beside
/// MemoryStats (never inside it) so that the pre-existing accounting is
/// bit-identical whether attribution is enabled or not. PerSite and
/// SiteMiss hold NumSites + 1 entries; the final entry collects accesses
/// and prefetches that carried NoSiteId (or an out-of-range site).
struct AttributionData {
  bool Enabled = false;
  /// Set by MemoryHierarchy::finalizeAttribution once still-resident
  /// prefetched lines have been drained into Early.
  bool Finalized = false;
  uint32_t NumSites = 0;
  PrefetchOutcomeCounts Total;
  std::vector<PrefetchOutcomeCounts> PerSite;
  std::vector<SiteMissStats> SiteMiss;

  size_t indexFor(uint32_t SiteId) const {
    return SiteId < NumSites ? SiteId : NumSites;
  }

  void recordUseful(uint32_t SiteId) {
    ++Total.Useful;
    ++PerSite[indexFor(SiteId)].Useful;
  }
  void recordLate(uint32_t SiteId) {
    ++Total.Late;
    ++PerSite[indexFor(SiteId)].Late;
  }
  void recordEarly(uint32_t SiteId) {
    ++Total.Early;
    ++PerSite[indexFor(SiteId)].Early;
  }
  void recordRedundant(uint32_t SiteId) {
    ++Total.Redundant;
    ++PerSite[indexFor(SiteId)].Redundant;
  }
};

/// Per-level and prefetch statistics.
struct MemoryStats {
  struct LevelStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };
  std::vector<LevelStats> Levels;
  uint64_t DemandAccesses = 0;
  uint64_t PrefetchesIssued = 0;
  /// Prefetches that found the line already cached (useless).
  uint64_t PrefetchesRedundant = 0;
  /// Demand accesses that hit a line whose fill was still in flight.
  uint64_t LatePrefetchHits = 0;
  /// Prefetched lines used by a demand access before eviction (coverage).
  uint64_t PrefetchesUseful = 0;
  /// Prefetched lines evicted from L1 without ever being used (accuracy
  /// complement: cache pollution).
  uint64_t PrefetchesUnused = 0;
  /// Total stall cycles incurred by demand accesses.
  uint64_t StallCycles = 0;

  /// Accumulates another run's memory statistics level-wise; Levels widens
  /// to the deeper hierarchy when the two runs were configured differently.
  MemoryStats &operator+=(const MemoryStats &Other) {
    if (Levels.size() < Other.Levels.size())
      Levels.resize(Other.Levels.size());
    for (size_t I = 0; I != Other.Levels.size(); ++I) {
      Levels[I].Hits += Other.Levels[I].Hits;
      Levels[I].Misses += Other.Levels[I].Misses;
    }
    DemandAccesses += Other.DemandAccesses;
    PrefetchesIssued += Other.PrefetchesIssued;
    PrefetchesRedundant += Other.PrefetchesRedundant;
    LatePrefetchHits += Other.LatePrefetchHits;
    PrefetchesUseful += Other.PrefetchesUseful;
    PrefetchesUnused += Other.PrefetchesUnused;
    StallCycles += Other.StallCycles;
    return *this;
  }
};

/// One set-associative, LRU, timing-aware cache level.
///
/// Storage is structure-of-arrays (one contiguous lane per field, set-major)
/// and the set count is rounded up to a power of two at construction, so the
/// set index is `LineAddr & SetMask` -- behaviour-identical for any config
/// whose raw set count is already a power of two (all shipped ones), and a
/// documented capacity round-up otherwise.
class CacheLevel {
public:
  explicit CacheLevel(const CacheLevelConfig &Config);

  /// Probes for \p LineAddr. On hit, refreshes LRU state and returns the
  /// cycle at which the line is (or was) ready; on miss returns false.
  /// \p WasUnusedPrefetch (optional) reports whether this is the first
  /// demand touch of a prefetched line (and clears the mark).
  /// \p PrefetchSite (optional) receives the site that issued the prefetch
  /// (meaningful only when *WasUnusedPrefetch comes back true).
  bool probe(uint64_t LineAddr, uint64_t &ReadyTime,
             bool *WasUnusedPrefetch = nullptr,
             uint32_t *PrefetchSite = nullptr);

  /// MRU way-prediction fast probe: checks only the set's last-hit way.
  /// Returns true -- refreshing LRU exactly as probe() would -- only for a
  /// plain hit on an *unmarked* line; a line still carrying its
  /// unused-prefetch mark has the mark bit set in its tag word, fails the
  /// exact compare, and so deliberately falls back to the full probe()
  /// which observes (and clears) the first demand touch for outcome
  /// attribution. A false return means "take the slow path", not "miss".
  bool probeMru(uint64_t LineAddr, uint64_t &ReadyTime) {
    uint64_t Set = LineAddr & SetMask;
    uint64_t *B = Blocks.get() + Set * BlockStride;
    uint32_t W = Mru[Set];
    if (B[W] != LineAddr)
      return false;
    B[Assoc + W] = ++UseClock;
    ReadyTime = B[2 * Assoc + W];
    return true;
  }

  /// Inserts \p LineAddr with the given ready time, evicting the LRU way.
  /// \p Prefetched marks the line as an as-yet-unused prefetch issued by
  /// load site \p PrefetchSite.
  ///
  /// Refresh path (line already resident): the entry keeps its prefetch
  /// mark and issuing site untouched (so attribution still retires the
  /// original prefetch), its ready time becomes the *earlier* of the two
  /// fills, and its LRU stamp is bumped as a fresh touch. This path is
  /// reachable from MemoryHierarchy::prefetch on a full miss, which fills
  /// every level and then re-fills them in its completion pass -- the
  /// second fill of each line refreshes (one extra LRU bump per level).
  /// tests/test_memsys.cpp pins this behaviour.
  void fill(uint64_t LineAddr, uint64_t ReadyTime, bool Prefetched = false,
            uint32_t PrefetchSite = NoSiteId);

  /// Hints the host CPU to pull this line's set block (tag and LRU lanes)
  /// into its own cache. Pure host-side latency hiding for the probe/fill
  /// that is about to happen -- no simulated state is touched.
  void prefetchSet(uint64_t LineAddr) const {
#if defined(__GNUC__) || defined(__clang__)
    const uint64_t *B = Blocks.get() + (LineAddr & SetMask) * BlockStride;
    __builtin_prefetch(B);
    __builtin_prefetch(B + 2 * Assoc);
#else
    (void)LineAddr;
#endif
  }

  /// Combined probe-or-fill miss half: inserts \p LineAddr exactly like
  /// fill() but skips the refresh scan. Only valid when the caller has
  /// just probed this level for the same line and missed (the demand-path
  /// fills in MemoryHierarchy::demandAccess), so the refresh scan is
  /// guaranteed to find nothing.
  void fillMiss(uint64_t LineAddr, uint64_t ReadyTime, bool Prefetched = false,
                uint32_t PrefetchSite = NoSiteId);

  /// When set, incremented every time an unused prefetched line is
  /// evicted (pollution accounting).
  void setEvictUnusedCounter(uint64_t *Counter) {
    EvictUnusedCounter = Counter;
  }

  /// When set, unused-prefetch evictions are also credited as Early
  /// outcomes against the issuing site.
  void setAttribution(AttributionData *A) { Attr = A; }

  /// Credits every still-resident unused prefetched line as Early and
  /// clears the marks (so a second drain finds nothing). Called by
  /// MemoryHierarchy::finalizeAttribution at end of run.
  void drainUnusedPrefetches(AttributionData &A);

  const CacheLevelConfig &config() const { return Config; }

  /// Actual set count after the power-of-two round-up.
  uint64_t numSets() const { return NumSets; }

private:
  /// Tag-word bit carrying the unused-prefetch mark. Line addresses are
  /// byte addresses divided by the line size; fillMiss asserts they stay
  /// below it.
  static constexpr uint64_t MarkBit = 1ull << 63;
  /// Tag-lane value marking an empty way (mark bit set plus every address
  /// bit, so it matches neither an exact nor a mark-masked compare).
  static constexpr uint64_t InvalidTag = ~0ull;

  uint64_t *EvictUnusedCounter = nullptr;
  AttributionData *Attr = nullptr;

  CacheLevelConfig Config;
  uint64_t NumSets;
  uint64_t SetMask;
  unsigned Assoc;
  /// BlockStride = 4 * Assoc u64 words per set.
  size_t BlockStride;
  /// Lane storage is a 2MB-aligned allocation rounded up to whole 2MB
  /// blocks, advised toward transparent huge pages only when the lanes
  /// fill at least one block: a level that large would otherwise pay a
  /// host-dTLB walk on nearly every randomly-indexed probe, the problem
  /// SimMemory's slab pool solves for the simulated image. No shipped
  /// level qualifies: the default L3's lanes are 1MB (8192 sets x 128B).
  static constexpr size_t BlockAlign = 2ull << 20;
  struct BlockDeleter {
    void operator()(uint64_t *P) const {
      ::operator delete(P, std::align_val_t(BlockAlign));
    }
  };
  /// Per-set field lanes, one contiguous block per set:
  ///   words [0, A)   tag | mark-bit (InvalidTag when empty)
  ///   words [A, 2A)  LRU use stamp
  ///   words [2A, 3A) ready time
  ///   words [3A, 4A) issuing prefetch site
  /// where A = Assoc. Tags and use stamps lead the block so the dominant
  /// full-miss path (tag scan + LRU victim scan + fill) *loads* only from
  /// the block's first host cache line at 4-way; ready/site in the tail
  /// are written (store-buffered, non-stalling) on a fill and loaded only
  /// on a hit. NumSets * BlockStride words total.
  std::unique_ptr<uint64_t[], BlockDeleter> Blocks;
  /// Per-set index of the most-recently-hit (or -filled) way.
  std::vector<uint32_t> Mru;
  uint64_t UseClock = 0;
};

/// One set-associative LRU level of a clock-free hierarchy: each set is a
/// row of Associativity tags kept in recency order, most recent first, and
/// nothing else -- no ready time, use stamp, prefetch mark or site. A hit
/// moves its tag to the front; a miss shifts the row down one way, dropping
/// the last tag, and inserts at the front. Empty ways hold InvalidTag and,
/// as the row only ever grows from the front, sit at its end, so the
/// dropped tag is an empty way while there is one and the least recently
/// used line otherwise: CacheLevel's victim ("first invalid way, else
/// smallest stamp") up to which physical way holds a line, which no
/// outcome depends on. The set count is CacheLevel's, power-of-two
/// round-up included.
class RecencyLevel {
public:
  explicit RecencyLevel(const CacheLevelConfig &Config);

  /// Whether \p LineAddr is its set's most recent line: a hit that leaves
  /// the row as it is.
  bool isFront(uint64_t LineAddr) const {
    return Tags[(LineAddr & SetMask) * Assoc] == LineAddr;
  }

  /// Demand touch of \p LineAddr (see the class comment). \returns
  /// whether it hit.
  bool touch(uint64_t LineAddr);

  /// Hints the host CPU to pull \p LineAddr's tag row into its cache (see
  /// CacheLevel::prefetchSet).
  void prefetchSet(uint64_t LineAddr) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(Tags.data() + (LineAddr & SetMask) * Assoc);
#else
    (void)LineAddr;
#endif
  }

  uint32_t hitLatency() const { return HitLatency; }

private:
  static constexpr uint64_t InvalidTag = ~0ull;

  uint64_t SetMask;
  unsigned Assoc;
  uint32_t HitLatency;
  /// NumSets rows of Assoc tags.
  std::vector<uint64_t> Tags;
};

/// The two representations a MemoryHierarchy can keep (see its comment).
enum class CacheModel { Timed, ClockFree };

/// The full hierarchy. All timing is in CPU cycles; the caller supplies the
/// current cycle on each access.
///
/// Without prefetches (no prefetch() call, so no SpecLoad either) a demand
/// access's latency does not depend on the clock. A fill at cycle Now is
/// ready at Now + L; the interpreter then stalls L - FlatLoadLatency and
/// charges at least LoadBaseCost before the next access, so a later hit
/// finds its line at most FlatLoadLatency cycles from ready. While
/// TimingModel::FlatLoadLatency <= every level's HitLatency, each access
/// therefore costs its serving level's HitLatency (or MemoryLatency), and
/// the stalls and MemoryStats of a prefetch-free run are a function of its
/// access stream alone. Pipeline::runProfiles relies on this to take a
/// profile run's stalls from its un-instrumented program's run; the
/// PrefetchFreeLatencyIsTheServingLevels test pins it.
///
/// So the hierarchy has two representations, chosen at construction. The
/// timed one (CacheModel::Timed, CacheLevel) keeps each line's ready time,
/// LRU stamp, prefetch mark and issuing site, and serves every run: the
/// prefetched ones, replayed traces and every Reference-engine run, the
/// executable spec. The clock-free one (CacheModel::ClockFree,
/// RecencyLevel) keeps only each set's tags in recency order and charges
/// every access its serving level's latency. It serves exactly the runs
/// whose latency that is: Pipeline's timed runs of a module without
/// Prefetch or SpecLoad on the Decoded engine, with FlatLoadLatency no
/// larger than any HitLatency. Its latencies, MemoryStats and SiteMiss
/// attribution equal the timed model's on any such run
/// (ClockFreeHierarchy tests); prefetch() on it throws std::logic_error.
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(const MemoryConfig &Config,
                           CacheModel Model = CacheModel::Timed);

  /// The L1 level points into this object (its unused-prefetch counter and
  /// attribution), so a copy or a move would leave it writing to the old
  /// one.
  MemoryHierarchy(const MemoryHierarchy &) = delete;
  MemoryHierarchy &operator=(const MemoryHierarchy &) = delete;

  /// Host-side prefetch of every level's set block for \p Addr's line:
  /// pure latency hiding, issued by the engines as soon as a load address
  /// is known so the lane fetches overlap the simulated-memory read that
  /// precedes the demandAccess/prefetch of the same address. Touches no
  /// simulated state.
  void prefetchLanes(uint64_t Addr) const {
    uint64_t Line = lineAddr(Addr);
    for (const CacheLevel &L : Levels)
      L.prefetchSet(Line);
    for (const RecencyLevel &L : Recency)
      L.prefetchSet(Line);
  }

  /// Demand load of \p Addr at cycle \p Now, attributed to load site
  /// \p SiteId when attribution is enabled.
  /// \returns the total load-to-use latency in cycles (>= L1 hit latency).
  ///
  /// The combined probe-or-fill entry point: the MRU-predicted L1 hit
  /// (the overwhelmingly common case) completes here, inline in the
  /// caller, in a handful of instructions; everything else -- L1 scan
  /// hit, lower-level hit, full miss and its fills -- takes the
  /// out-of-line slow path. The fast path is the general path specialised
  /// for Hit == 0 and FirstPrefetchUse == false (prefetch-marked lines
  /// fail probeMru by design so attribution observes their first touch).
  /// A clock-free hierarchy's fast path is a hit on its L1 set's front tag.
  uint64_t demandAccess(uint64_t Addr, uint64_t Now,
                        uint32_t SiteId = NoSiteId) {
    ++Stats.DemandAccesses;
    uint64_t Line = lineAddr(Addr);
    uint64_t Latency = L1HitLatency;
    if (ClockFree) {
      if (!Recency[0].isFront(Line))
        return demandAccessClockFree(Line, SiteId);
    } else {
      uint64_t ReadyTime;
      if (!Levels[0].probeMru(Line, ReadyTime))
        return demandAccessSlow(Line, Now, SiteId);
      if (ReadyTime > Now && ReadyTime - Now > Latency)
        Latency = ReadyTime - Now;
    }
    ++Stats.Levels[0].Hits;
    Stats.StallCycles += Latency;
    if (Attr.Enabled) {
      SiteMissStats &SM = Attr.SiteMiss[Attr.indexFor(SiteId)];
      ++SM.Accesses;
      SM.StallCycles += Latency;
    }
    return Latency;
  }

  /// Non-blocking prefetch of \p Addr issued at cycle \p Now by load site
  /// \p SiteId. Fills every level with ready time Now + (latency of the
  /// providing level). Throws std::logic_error on a clock-free hierarchy.
  void prefetch(uint64_t Addr, uint64_t Now, uint32_t SiteId = NoSiteId);

  /// Stream-driven entry point: applies one access event at cycle \p Now.
  /// Load events are demand accesses and return their load-to-use latency;
  /// Prefetch events issue a non-blocking prefetch and return 0. This is
  /// how replayed and external traces drive the hierarchy; the engines'
  /// hot paths call demandAccess/prefetch directly with the same effect.
  uint64_t access(const AccessEvent &E, uint64_t Now) {
    if (E.Kind == AccessKind::Prefetch) {
      prefetch(E.Address, Now, E.SiteId);
      return 0;
    }
    return demandAccess(E.Address, Now, E.SiteId);
  }

  /// Turns on prefetch-outcome and per-site demand-miss attribution for
  /// sites [0, NumSites). Must be called before any traffic; resets any
  /// previously collected attribution. MemoryStats is unaffected.
  void enableAttribution(uint32_t NumSites);

  /// Classifies still-resident prefetched lines as Early so the outcome
  /// classes exactly partition the issued prefetches. Idempotent; call
  /// once the run's traffic is complete.
  void finalizeAttribution();

  const AttributionData &attribution() const { return Attr; }

  const MemoryStats &stats() const { return Stats; }
  unsigned lineBytes() const { return LineBytes; }

private:
  /// Per-access address-to-line mapping: a shift for the (universal)
  /// power-of-two line sizes, a division otherwise. The branch is
  /// perfectly predicted; the division it avoids is not cheap.
  uint64_t lineAddr(uint64_t Addr) const {
    return LineBytesPow2 ? (Addr >> LineShift) : (Addr / LineBytes);
  }

  /// demandAccess continuation once the L1 fast probe has failed.
  uint64_t demandAccessSlow(uint64_t Line, uint64_t Now, uint32_t SiteId);

  /// The clock-free demandAccess once the L1 front tag has missed.
  uint64_t demandAccessClockFree(uint64_t Line, uint32_t SiteId);

  /// Finds the first level holding the line. Returns the level index and
  /// its ready time, or Levels.size() on full miss.
  size_t findLine(uint64_t Line, uint64_t &ReadyTime);

  MemoryConfig Config;
  bool ClockFree;
  /// The timed levels, or the clock-free ones; the other vector is empty.
  std::vector<CacheLevel> Levels;
  std::vector<RecencyLevel> Recency;
  unsigned LineBytes;
  bool LineBytesPow2;
  unsigned LineShift;
  /// Cached Levels[0] hit latency for the demand-access fast path.
  uint64_t L1HitLatency;
  MemoryStats Stats;
  AttributionData Attr;
};

/// Timing convention for replaying a bare access stream against a
/// hierarchy (no interpreter around to charge cycles): each event takes
/// one issue cycle, and a load additionally stalls for the part of its
/// latency beyond \c HiddenLatency (mirroring the interpreter's flat
/// load-issue assumption, TimingModel::FlatLoadLatency).
struct StreamReplayConfig {
  uint32_t IssueCost = 1;
  uint32_t HiddenLatency = 2;
  size_t BatchSize = 256;
};

/// Accounting of one stream replay pass.
struct StreamReplayStats {
  uint64_t Events = 0;
  uint64_t Loads = 0;
  uint64_t Prefetches = 0;
  uint64_t Cycles = 0;      ///< issue + stall
  uint64_t StallCycles = 0; ///< latency beyond HiddenLatency, loads only
};

/// Drains \p Src through \p MH under the StreamReplayConfig timing
/// convention. The hierarchy's own MemoryStats/attribution accumulate as
/// with live traffic.
StreamReplayStats replayAccessStream(MemoryHierarchy &MH, AccessSource &Src,
                                     const StreamReplayConfig &Config = {});

} // namespace sprof

#endif // SPROF_MEMSYS_CACHE_H
