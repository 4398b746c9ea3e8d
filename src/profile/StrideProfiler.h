//===- profile/StrideProfiler.h - The strideProf runtime routine -*- C++ -*-===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stride-profiling runtime of paper Section 3.1. One StrideProfiler
/// instance plays the role of the profiling runtime linked into an
/// instrumented binary: it owns one StrideSiteData ("prof_data") per load
/// site and implements the strideProf routine in its three successive
/// refinements:
///
///   * Figure 6: base routine -- stride from previous address, zero-stride
///     shortcut that bypasses the (expensive) LFU call, zero-stride-
///     difference counting to recognize *phased* stride sequences.
///   * Figure 7: `is_same_value` coarsening so that addresses (and, inside
///     LFU, strides) that differ only in their low 4 bits compare equal.
///   * Figure 9: chunk sampling (skip N1 references globally, then profile
///     N2) followed by per-site fine sampling (1 of every F references).
///
/// Every invocation reports its simulated cycle cost so the interpreter can
/// charge Figure-20-style profiling overhead; the cost model constants are
/// configurable (StrideCostModel).
///
/// Three entry points share one semantic core (processedTail): profile()
/// handles a single reference (the executable specification, used by the
/// reference engine and by engines with a memory system attached, where
/// the returned cost feeds the current cycle of the *next* access),
/// profileBatch() drains a block of queued events with the chunk-sampling
/// phase decisions hoisted out of the per-event loop -- bit-identical to
/// calling profile() once per event, in order -- and profileIndexed()
/// drains a block of loads that carry their global load indexes, which is
/// what site-sharded replay feeds each shard.
///
/// Layout. Each event touches one per-site record (HotSite: stride and
/// sampling state, use-distance state and the per-site counters) and,
/// on a non-zero stride, that site's LFU (LfuValueProfiler.h), whose
/// inlined add() reports the work of the paper's linear-scan routine and
/// whose add count is the site's non-zero stride count.
/// StrideSiteData is the reporting view, synced from HotSite in site().
/// profileBatch() counts its events' outcomes in a CallTally -- skips,
/// zero strides, re-anchors and one slot per LFU work value -- and fold()
/// turns the tally into the batch's simulated cost, the totals and the
/// telemetry once, at the end; profileIndexed() does the same per block.
/// The single-reference entry point records a skipped reference directly
/// and folds a processed one's tally. The cost of a reference follows
/// from its outcome (and, on the LFU path, its work), so the charged
/// cycles and every counter and histogram are exactly what per-event
/// accounting would give.
///
/// Site subset. Without sampling, a site's state and each of its events'
/// costs depend on that site's events alone, so a profiler fed a stream
/// also holds, for any subset of its sites, what a lone profiler fed only
/// the subset's events (in the same order) would hold. The sites' own
/// counters give that profiler's totals, zero strides and first
/// addresses; the one outcome they do not keep is each LFU call's work,
/// so a profiler built with a subset also tallies the subset's LFU works
/// over the whole run in profile() and profileBatch(). harvestSubset()
/// turns that into the subset's cost and its strideprof.* and lfu.*
/// telemetry, which are order-free sums; everything else is unchanged.
/// The pipeline reads naive-loop's profile off the naive-all profiler
/// this way: naive-loop's trap stream is naive-all's in-loop slice.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_PROFILE_STRIDEPROFILER_H
#define SPROF_PROFILE_STRIDEPROFILER_H

#include "profile/LfuValueProfiler.h"
#include "stream/AccessStream.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sprof {

class ObsSession;

/// Sampling configuration (Figure 9). Disabled by default, matching the
/// non-"sample-" profiling methods.
struct SamplingConfig {
  bool Enabled = false;
  /// Fine sampling: profile 1 of every FineInterval references per site.
  uint32_t FineInterval = 4;
  /// Chunk sampling: after ChunkSkip references are skipped (globally,
  /// across all sites), profile the next ChunkProfile references. The
  /// paper uses 8M/2M on full SPEC runs; defaults here keep the same 4:1
  /// duty cycle but are scaled to the synthetic workloads' much smaller
  /// reference counts.
  uint64_t ChunkSkip = 600;
  uint64_t ChunkProfile = 150;
};

/// Simulated cycle costs of the runtime routine's phases. The values model
/// a call into an out-of-line runtime routine on an in-order machine.
struct StrideCostModel {
  uint32_t CallOverhead = 30;   ///< call/return, spills, argument setup
  uint32_t ChunkCheckCost = 4;  ///< chunk-sampling counter checks
  uint32_t FineCheckCost = 4;   ///< per-site fine-sampling check
  uint32_t ZeroStrideCost = 12; ///< same-address shortcut path
  uint32_t CoreCost = 24;       ///< stride/diff computation + bookkeeping
  uint32_t LfuBaseCost = 15;    ///< LFU call overhead
  uint32_t LfuPerWorkCost = 6;  ///< per buffer entry examined in LFU
};

/// Full configuration of the stride-profiling runtime.
struct StrideProfilerConfig {
  LfuConfig Lfu = {/*TempSize=*/16, /*FinalSize=*/8, /*MergeInterval=*/1024,
                   /*CoarsenShift=*/4};
  SamplingConfig Sampling;
  /// Coarsening shift for the zero-stride address check of Figure 7
  /// (0 disables the enhancement and reproduces Figure 6 exactly).
  unsigned AddrCoarsenShift = 4;
  StrideCostModel Costs;
};

/// One queued strideProf invocation, as recorded by an engine's batched
/// stride-event ring (see InterpreterConfig::StrideBatchWindow). This is
/// the stream layer's AccessEvent verbatim: the ring entries double as
/// capture/replay events, so TraceCaptureSinks tee off the ring and
/// trace replay feeds profileBatch without any conversion.
using StrideEvent = AccessEvent;

/// One load as site-sharded replay hands it to profileIndexed(): the
/// event's address, global reference index and site, plus its 0-based
/// position among all of the run's loads, every site's.
struct IndexedLoad {
  uint64_t Address;
  uint64_t GlobalRefIndex;
  uint64_t LoadIndex;
  uint32_t SiteId;
};

/// Per-load-site profiling state ("prof_data" in the paper's figures).
///
/// This is the *reporting* view: the profiler keeps every per-event field
/// (previous address/stride, sampling countdown, chunk epoch, use-distance
/// state and the per-site counters) in an internal per-site record and
/// syncs them into this struct on demand in site(). The LFU buffers live
/// here directly.
struct StrideSiteData {
  uint64_t PrevAddress = 0;
  bool HasPrevAddress = false;
  int64_t PrevStride = 0;
  bool HasPrevStride = false;

  uint64_t NumZeroStride = 0;
  uint64_t NumNonZeroStride = 0;
  uint64_t NumZeroDiff = 0;

  /// Fine-sampling countdown ("number_to_skip" in Figure 9).
  uint32_t NumberToSkip = 0;

  /// Chunk epoch of the last processed reference. On the first reference
  /// of a new profiled chunk the site re-anchors (records the address
  /// without forming a stride): the previous address is from the previous
  /// chunk, so the difference is not a stride. At the paper's 8M/2M chunk
  /// sizes this boundary noise is negligible; at the scaled-down sizes the
  /// synthetic workloads use it would otherwise bias the top-stride share.
  uint64_t LastChunkEpoch = 0;

  /// Use-distance profiling (the paper's first future-work item,
  /// Section 6): the number of other memory references between successive
  /// references of this site. Large distances mean a prefetched line may
  /// be evicted before use, so the feedback pass can veto the prefetch.
  uint64_t PrevGlobalRef = 0;
  uint64_t RefGapSum = 0;
  uint64_t RefGapCount = 0;

  LfuValueProfiler Lfu;

  /// Per-site statistics for Figures 21/22.
  uint64_t Invocations = 0; ///< calls into strideProf
  uint64_t Processed = 0;   ///< invocations surviving both sampling stages
  uint64_t LfuCalls = 0;    ///< invocations reaching the LFU routine

  /// Total strides observed (zero + non-zero); "total_freq" in Figure 5.
  uint64_t totalStrides() const { return NumZeroStride + NumNonZeroStride; }
};

/// The profiling runtime: one instance per instrumented program run.
class StrideProfiler {
public:
  /// \p Subset, when not empty, holds one flag per site and names the
  /// site subset whose LFU works are also tallied apart (see the file
  /// comment).
  /// \throws std::invalid_argument for an invalid LFU geometry (see
  /// LfuValueProfiler's constructor), a zero Sampling.FineInterval, or a
  /// subset with sampling enabled (sampling phases are global, so a
  /// subset's sampled state is not its own) or of the wrong size.
  StrideProfiler(uint32_t NumSites, const StrideProfilerConfig &Config,
                 std::span<const uint8_t> Subset = {});

  /// The strideProf entry point (Figures 6/7/9). \p Address is the load's
  /// effective data address. \p GlobalRefIndex, when non-zero, is the
  /// program's running count of dynamic memory references; it feeds the
  /// use-distance statistic (Section 6 future work).
  /// \returns the simulated cycle cost of this invocation.
  uint64_t profile(uint32_t SiteId, uint64_t Address,
                   uint64_t GlobalRefIndex = 0);

  /// Batched strideProf: processes \p Events[0..N) in order, leaving every
  /// observable (site data, totals, sampling counters, chunk epochs,
  /// telemetry sinks) exactly as N successive profile() calls would --
  /// including chunk-epoch re-anchoring when a chunk-phase flip lands
  /// inside (or straddles) the block. \returns the summed simulated cost.
  ///
  /// The win over per-event profile(): the global chunk-sampling phase is
  /// decided once per run of events in the same phase instead of per
  /// event, skip-phase events collapse to a per-site touch plus one bulk
  /// telemetry update, and obs sinks are resolved once per drain.
  uint64_t profileBatch(const StrideEvent *Events, size_t N);

  /// Positionally-addressed batched strideProf: processes \p Loads[0..N),
  /// each knowing it is the LoadIndex'th dynamic load (0-based, counted
  /// across *all* sites) of the run, instead of relying on the profiler's
  /// own running counters. The global chunk-sampling phase of Figure 9 is a
  /// pure function of that position -- with Cycle = ChunkSkip +
  /// ChunkProfile + 1 the load is skipped iff LoadIndex % Cycle < ChunkSkip
  /// or hits the flip slot Cycle - 1, and profiled loads belong to chunk
  /// epoch LoadIndex / Cycle + 1 -- so feeding each site its loads in
  /// program order, with their original load indexes, in blocks of any
  /// size, leaves that site's observable state (and the summed costs and
  /// telemetry) bit-identical to a serial profile() sweep over the
  /// interleaved whole. That is the contract ParallelReplay's site-sharded
  /// workers build on; see docs/TRACE.md "Determinism contract". Loads of
  /// different sites may come in any order; in ascending LoadIndex order
  /// the phase costs one division per chunk cycle the block touches.
  /// \returns the summed simulated cost.
  /// \throws std::logic_error on a profiler with a site subset, which
  /// only profile() and profileBatch() account.
  uint64_t profileIndexed(const IndexedLoad *Loads, size_t N);

  /// Drives the runtime from an abstract access stream until it ends: an
  /// in-memory source (pullRestInPlace) is profiled where its events lie,
  /// any other one pulled in batches of \p BatchSize. Events of kind other
  /// than Load are dropped (a strideProf invocation is a demand load by
  /// definition); the live engine paths never emit them, and trace replay
  /// of mixed streams gets the same view a live profiled run would have
  /// had. \returns the summed simulated cost, exactly what the equivalent
  /// live run would have charged to RunStats::RuntimeCycles.
  uint64_t consume(AccessSource &Src, size_t BatchSize = 256);

  /// consume over events in memory: each run of Load events goes to
  /// profileBatch in place.
  uint64_t consume(std::span<const StrideEvent> Events);

  /// Reporting view of one site's state (hot lane synced on demand).
  const StrideSiteData &site(uint32_t SiteId) const;
  uint32_t numSites() const { return static_cast<uint32_t>(Sites.size()); }
  const StrideProfilerConfig &config() const { return Config; }

  /// Aggregate statistics across all sites.
  uint64_t totalInvocations() const { return TotalInvocations; }
  uint64_t totalProcessed() const { return TotalProcessed; }
  uint64_t totalLfuCalls() const { return TotalLfuCalls; }

  /// Whether \p SiteId is in the site subset.
  bool inSubset(uint32_t SiteId) const { return Hot[SiteId].InSubset; }

  /// A profiling run's totals and summed simulated cost.
  struct RunTotals {
    uint64_t Invocations = 0;
    uint64_t Processed = 0;
    uint64_t LfuCalls = 0;
    uint64_t Cost = 0;
  };
  /// What a lone profiler fed only the subset's events would report, from
  /// the subset sites' counters and LFU works: its totals and cost, all
  /// zero without a subset. With \p Session, also records there the
  /// strideprof.* and lfu.* telemetry that profiler's attachObs(Session)
  /// would have recorded, once per call.
  RunTotals harvestSubset(ObsSession *Session = nullptr) const;

  /// Resolves telemetry sinks from \p Session (nullptr detaches). The
  /// sinks are never null: with no session attached -- the default --
  /// they point at statically-allocated dummy metrics, so the hot paths
  /// write unconditionally and carry no per-event branch.
  void attachObs(ObsSession *Session);

private:
  /// Cached metric handles; dummy sinks when telemetry is off, never null.
  struct ObsSinks {
    Counter *ChunkSkipped;   ///< chunk-sampling early-outs
    Counter *FineSkipped;    ///< fine-sampling early-outs
    Counter *ZeroStrideFast; ///< zero-stride shortcut hits
    Counter *Reanchored;     ///< chunk-boundary re-anchors
    Histogram *InvocationCost; ///< simulated cycles per call
    Histogram *LfuWork;        ///< LFU work units per add
  };

  /// One entry-point call's outcome counts, folded into the totals and
  /// the ObsSinks when the call returns (see fold()).
  struct CallTally {
    uint64_t ChunkSkipped = 0;
    uint64_t FineSkipped = 0;
    uint64_t Processed = 0;
    uint64_t ZeroStride = 0;
    uint64_t Reanchored = 0;
    /// LFU calls whose work is beyond WorkCounts, and their summed cost.
    uint64_t WideCalls = 0;
    uint64_t WideCost = 0;
    /// Range of WorkCounts entries this call touched.
    unsigned MinWork = ~0u;
    unsigned MaxWork = 0;
  };

  /// The one per-site record the per-event paths touch besides the
  /// site's LFU: stride and sampling state, use-distance state and the
  /// per-site counters. StrideSiteData mirrors these fields on demand
  /// (site()); only the LFU lives there.
  struct HotSite {
    uint64_t PrevAddress = 0;
    int64_t PrevStride = 0;
    uint64_t LastChunkEpoch = 0;
    /// Use-distance state, kept so that the common visit (a later global
    /// reference than the previous one) writes only PrevGlobalRef: the
    /// gap sum telescopes to PrevGlobalRef + GapOffset, and the gap count
    /// is Invocations - Uncounted.
    uint64_t PrevGlobalRef = 0;
    uint64_t GapOffset = 0;
    uint64_t Uncounted = 0;
    uint64_t Invocations = 0;
    /// Processed references that only recorded the address (first
    /// reference, chunk re-anchor). site() derives the rest: every
    /// non-zero stride makes one LFU add, so NumNonZeroStride and LfuCalls
    /// are the LFU's totalAdded(), and Processed is Anchors +
    /// NumZeroStride + NumNonZeroStride.
    uint64_t Anchors = 0;
    uint64_t NumZeroStride = 0;
    uint64_t NumZeroDiff = 0;
    uint32_t NumberToSkip = 0;
    bool HasPrevAddress = false;
    bool HasPrevStride = false;
    /// In the site subset (0 or 1, added to SubsetWork).
    uint8_t InSubset = 0;
  };

  /// The post-sampling core shared verbatim by profile(), profileBatch(),
  /// and profileIndexed(): epoch re-anchor (against \p Epoch -- the member
  /// ChunkEpoch for the counter-driven paths, the position-derived epoch
  /// for profileIndexed), first-address path, zero-stride shortcut,
  /// stride/diff bookkeeping, LFU call. Counts its outcome into \p T (the
  /// caller counts T.Processed); the cost follows from the outcome and is
  /// charged by fold(). \p Sampled is Config.Sampling.Enabled, passed as
  /// the constant each caller's branch already knows. With \p Split (a
  /// profiler with a site subset), a subset site's LFU work is also
  /// tallied in SubsetWork or SubsetWide.
  template <bool Split = false>
  void processedTail(uint32_t SiteId, HotSite &H, uint64_t Address,
                     uint64_t Epoch, CallTally &T, bool Sampled);

  /// The sinks for \p Session: dummies where it is null or hands back
  /// null metrics (metric collection disabled), so the hot paths never
  /// test a sink pointer.
  static ObsSinks resolveSinks(ObsSession *Session);

  /// Charges \p T, whose LFU calls are counted per work in \p Counts, to
  /// \p Sinks. \returns its summed simulated cost and adds its LFU calls
  /// to \p LfuCalls.
  uint64_t charge(const CallTally &T, const uint64_t *Counts,
                  const ObsSinks &Sinks, uint64_t &LfuCalls) const;

  /// Folds one entry-point call's tally into the totals and the telemetry
  /// sinks, and zeroes the WorkCounts entries it used. \returns the
  /// call's summed simulated cost.
  uint64_t fold(const CallTally &T);

  /// profileBatch's loop without sampling; with \p Split, on a profiler
  /// with a site subset.
  template <bool Split>
  uint64_t profileUnsampled(const StrideEvent *Events, size_t N);

  /// profile()'s skipped reference: counts it in \p Sink and records
  /// \p Cost directly. \returns \p Cost.
  uint64_t chargeSkip(Counter *Sink, uint64_t Cost);

  /// profile()'s processed reference: processedTail and fold() for it.
  /// \returns its cost.
  uint64_t processOne(uint32_t SiteId, HotSite &H, uint64_t Address,
                      uint64_t Epoch, bool Sampled);

  bool sameAddress(uint64_t A, uint64_t B) const {
    return (A >> Config.AddrCoarsenShift) == (B >> Config.AddrCoarsenShift);
  }

  StrideProfilerConfig Config;
  std::vector<HotSite> Hot;
  /// Cold per-site state and the site() reporting view; hot fields are
  /// mirrored in lazily (see site()).
  mutable std::vector<StrideSiteData> Sites;

  // Global chunk-sampling state (static variables in Figure 9).
  uint64_t NumberSkipped = 0;
  uint64_t NumberProfiled = 0;
  uint64_t ChunkEpoch = 1; ///< bumped at each skip->profile transition

  uint64_t TotalInvocations = 0;
  uint64_t TotalProcessed = 0;
  uint64_t TotalLfuCalls = 0;

  /// LFU calls per work value in the current call, for works up to
  /// 2 * TempSize (every add without a merge); all zero between calls.
  std::vector<uint64_t> WorkCounts;

  ObsSinks Obs;

  bool HasSubset = false;
  /// The subset sites' LFU calls over the run: per work value as in
  /// WorkCounts (empty without a subset), and the work of each wider one.
  std::vector<uint64_t> SubsetWork;
  std::vector<unsigned> SubsetWide;
};

} // namespace sprof

#endif // SPROF_PROFILE_STRIDEPROFILER_H
