//===- driver/ParallelReplay.h - Trace-sharded parallel replay --*- C++ -*-===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel trace replay: decode and profile a captured access trace on N
/// cores while staying bit-identical to the serial path. Two independent
/// fan-outs, both scheduled as JobGraph jobs (and, in replayStream, the
/// demand-only memory pass running beside them as its own job):
///
///   * Decode sharding (time partition). The sprof.trace/2 shard index
///     records, every IndexInterval events, the chunk's byte offset and the
///     carried delta-decoder state, so contiguous chunk ranges decode
///     independently. decodeTraceParallel() fans the ranges out and writes
///     each job's events into its precomputed slot of one flat buffer --
///     the finished buffer is byte-for-byte the serial decode.
///
///   * Profile sharding (site partition). The global chunk-sampling phase
///     of Figure 9 is a pure function of the load's position in the run
///     (StrideProfiler::profileAt), and every other piece of profiler
///     state is strictly per-site. profileEventsSharded() therefore runs
///     one full-size StrideProfiler per shard, and each shard scans the
///     whole contiguous event buffer, counting every load's global
///     position itself and profiling only the loads whose SiteId modulo
///     the shard count is its own -- per-site program order is preserved
///     and no load is copied. Per-site results are bit-identical to the
///     serial profiler's, so folding the disjoint shards in job-id order
///     (the ShardedMetricsRegistry discipline) through ProfileData's
///     order-preserving merge reproduces the serial profile verbatim: same
///     values, same bytes. The determinism contract is spelled out in
///     docs/TRACE.md.
///
/// Telemetry: each profile shard runs against a child ObsSession
/// (ObsSession::jobConfig) whose registry is merged into the parent in
/// job-id order and recorded as a JobRecord, so sweep reports show shard
/// stragglers and queue wait exactly like engine jobs.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_PARALLELREPLAY_H
#define SPROF_DRIVER_PARALLELREPLAY_H

#include "driver/TraceReplay.h"

#include <string>
#include <vector>

namespace sprof {

class ObsSession;

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
  unsigned ShardsUsed = 0;
};

/// Profiles \p Src's load events under \p PC with \p Threads workers over
/// \p Shards site-partitions (0 = one shard per thread; clamped to the
/// site count). A VectorSource's unread events are scanned in place; any
/// other source is drained into one vector first. Either way \p Src is
/// left exhausted. The merged profile and the scalar accumulators are
/// bit-identical to a serial StrideProfiler::consume() over the same
/// stream -- for any shard count, any thread count, all eight profiling
/// methods. \p Obs, when non-null, receives per-shard JobRecords and the
/// job-id-ordered metric fold.
ShardedProfileResult profileEventsSharded(AccessSource &Src,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads,
                                          unsigned Shards = 0,
                                          ObsSession *Obs = nullptr);

/// Decodes the indexed trace \p Path (whose reader \p R came from
/// TraceReader::openFileIndexed with index().Present) into \p Events with
/// \p Threads workers, one JobGraph job per contiguous chunk range. On
/// failure returns false and reports the first failing shard's error
/// through \p Error / \p Code. The buffer is identical to a serial decode.
bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, std::vector<AccessEvent> &Events,
                         std::string &Error, TraceError &Code);

/// replayTraceFile's parallel engine: opens \p Path through the seekable
/// tail, decodes /2 traces with decodeTraceParallel (/1 and text traces
/// fall back to serial decode -- they carry no index), then feeds
/// replayStream, whose profile phase shards across Opts.Threads while the
/// demand-only memory pass runs beside it. Each memory pass is serial in
/// itself (cache state is order-dependent) and the whole result is
/// bit-identical to Opts.Threads == 1.
/// Callers normally go through replayTraceFile(), which dispatches here
/// when Opts.Threads > 1.
TraceReplayResult replayTraceFileParallel(const std::string &Path,
                                          const TraceReplayOptions &Opts);

} // namespace sprof

#endif // SPROF_DRIVER_PARALLELREPLAY_H
