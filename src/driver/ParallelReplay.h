//===- driver/ParallelReplay.h - Trace-sharded parallel replay --*- C++ -*-===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel trace replay: decode, profile and cache-simulate a captured
/// access trace on N cores while staying bit-identical to the serial path.
/// Three independent fan-outs: decode and profile shards scheduled as
/// JobGraph jobs (with, in replayStream, the demand-only memory pass
/// running beside them as its own job), then the prefetched memory pass's
/// cache shards:
///
///   * Decode sharding (time partition). Every sprof.trace/2 file carries a
///     shard index that records, every IndexInterval events, the chunk's
///     byte offset and the carried delta-decoder state, so contiguous chunk
///     ranges decode independently. decodeTraceParallel() fans the ranges
///     out and writes each job's events into its precomputed slot of one
///     flat buffer -- the finished buffer is byte-for-byte the serial
///     decode. replayTraceFile decodes into a TraceEventBuffer, which
///     nothing initializes first, so each job also first-touches its own
///     slot's pages.
///
///   * Profile sharding (site partition). The global chunk-sampling phase
///     of Figure 9 is a pure function of the load's position in the run
///     (StrideProfiler::profileIndexed), and every other piece of profiler
///     state is strictly per-site. profileEventsSharded() therefore runs
///     one full-size StrideProfiler per shard, and each shard scans the
///     whole contiguous event buffer, counting every load's global
///     position itself and gathering the loads whose SiteId modulo the
///     shard count is its own, each with that position, into a fixed-size
///     batch that it drains through profileIndexed -- per-site program
///     order is preserved. Per-site results are bit-identical to the
///     serial profiler's, so folding the disjoint shards in job-id order
///     (as ExperimentEngine folds job metrics) through ProfileData's
///     order-preserving merge reproduces the serial profile verbatim: same
///     values, same bytes. The determinism contract is spelled out in
///     docs/TRACE.md.
///
///   * Cache sharding (set partition). replayStream's prefetched cache
///     pass runs on replaySyntheticPrefetchDecoupled(): shards simulate
///     tags, LRU and prefetch marks for disjoint sets on threads of their
///     own, and one in-order scan on the calling thread turns their
///     per-access outcomes into cycles. The cache state never reads
///     simulated time, so the split is exact (docs/TRACE.md, "Decoupled
///     prefetched pass").
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_PARALLELREPLAY_H
#define SPROF_DRIVER_PARALLELREPLAY_H

#include "driver/TraceReplay.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sprof {

/// Outcome of a sharded profile phase; the scalar fields mirror what the
/// serial StrideProfiler accumulators would hold after the same stream.
struct ShardedProfileResult {
  bool Ok = false;
  std::string Error;
  uint64_t RuntimeCycles = 0; ///< summed simulated strideProf cost
  uint64_t Invocations = 0;
  uint64_t Processed = 0;
  uint64_t LfuCalls = 0;
  StrideProfile Strides;
};

/// Profiles the load events in \p Events (site ids below \p NumSites)
/// under \p PC with \p Threads workers over \p Shards site-partitions
/// (0 = one shard per thread; clamped to the site count). The merged
/// profile and the scalar accumulators are bit-identical to a serial
/// StrideProfiler::consume() over the same stream -- for any shard count,
/// any thread count, all eight profiling methods.
ShardedProfileResult profileEventsSharded(std::span<const AccessEvent> Events,
                                          uint32_t NumSites,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads,
                                          unsigned Shards = 0);

/// The same over \p Src's unread events (bufferRest): a VectorSource's
/// are scanned in place, any other source is drained once. Either way
/// \p Src is left exhausted.
ShardedProfileResult profileEventsSharded(AccessSource &Src,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads,
                                          unsigned Shards = 0);

/// Storage for events that nothing initializes first. A std::vector
/// value-initializes all of its events on one thread before the decode
/// jobs run; here each decode job's writes are the first touch of its own
/// chunk range, so the pages fault in on every decode thread at once. A
/// buffer of 2 MB or more is 2 MB-aligned and advised toward transparent
/// huge pages. AccessEvent is an aggregate, so the storage implicitly
/// holds its events (C++20 implicit object creation), but an event must
/// be written before it is read.
class TraceEventBuffer {
public:
  TraceEventBuffer() = default;
  /// Room for \p N events.
  explicit TraceEventBuffer(size_t N);

  AccessEvent *data() const { return Data.get(); }
  size_t size() const { return Size; }
  std::span<const AccessEvent> events() const { return {Data.get(), Size}; }

private:
  static constexpr size_t HugePageBytes = 2ull << 20;
  /// Frees a block allocated at alignment Align.
  struct Release {
    size_t Align;
    void operator()(AccessEvent *P) const;
  };
  std::unique_ptr<AccessEvent, Release> Data;
  size_t Size = 0;
};

/// Decodes the trace \p Path (whose reader \p R came from a successful
/// TraceReader::openFileIndexed) into \p Events with \p Threads workers,
/// one JobGraph job per contiguous chunk range. On failure returns false
/// and reports the first failing shard's error through \p Error /
/// \p Code. The buffer is identical to a serial decode. This overload
/// value-initializes the vector first; the TraceEventBuffer one does not.
bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, std::vector<AccessEvent> &Events,
                         std::string &Error, TraceError &Code);

/// The same into a fresh TraceEventBuffer of the trace's event count,
/// which replaces \p Events.
bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, TraceEventBuffer &Events,
                         std::string &Error, TraceError &Code);

/// What the decoupled prefetched pass produces: exactly what the inline
/// pass (replayWithSyntheticPrefetch on one MemoryHierarchy) produces, plus
/// two counts of the timing branches it took.
struct DecoupledReplayResult {
  StreamReplayStats Stream;
  MemoryStats Mem;
  /// Demand hits on a line whose fill was still in flight (the filling access lay
  /// within the in-flight horizon and its ready time was still ahead).
  uint64_t InFlightHits = 0;
  /// Prefetches that missed every level, whose second fill of each level
  /// takes CacheLevel::fill's refresh path.
  uint64_t RefreshFills = 0;
};

/// Largest shard count the decoupled pass supports for \p MC under
/// \p SC: the smallest level's set count (after CacheLevel's power-of-two
/// round-up), since a shard key must lie inside every level's set index,
/// and at most 16, since each shard holds its own window buffers. 0 when the pass does not apply: a line size that is not a power of two,
/// IssueCost 0, or an in-flight horizon (the largest latency over
/// IssueCost, in accesses) beyond 65536.
unsigned maxDecoupledShards(const MemoryConfig &MC,
                            const StreamReplayConfig &SC);

/// Shard count replayStream uses for its prefetched pass with \p Threads
/// workers, or 0 for the inline pass. The demand-only pass and the scan
/// hold one thread each, so this is the largest power of two up to
/// Threads - 2, capped by maxDecoupledShards.
unsigned decoupledShardCount(const MemoryConfig &MC,
                             const StreamReplayConfig &SC, unsigned Threads);

/// The set-sharded, timing-decoupled prefetched cache pass over \p Events:
/// bit-identical to replayWithSyntheticPrefetch on a fresh MemoryHierarchy
/// of \p MC fed the same events (StreamReplayStats and MemoryStats), for
/// any \p Shards that is a power of two no larger than
/// maxDecoupledShards(MC, SC). Runs \p Shards threads beside the calling
/// thread, which does the scan. Attribution is not modelled; MC's
/// EnableAttribution is ignored.
DecoupledReplayResult
replaySyntheticPrefetchDecoupled(std::span<const AccessEvent> Events,
                                 const MemoryConfig &MC,
                                 const StreamReplayConfig &SC,
                                 std::span<const int64_t> SiteStride,
                                 unsigned Distance, unsigned Shards);

} // namespace sprof

#endif // SPROF_DRIVER_PARALLELREPLAY_H
