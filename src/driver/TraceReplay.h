//===- driver/TraceReplay.h - Trace-replay frontend -------------*- C++ -*-===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-replay frontend: feeds a captured (or externally generated)
/// access trace through the full profile -> classify -> prefetch-evaluation
/// pipeline without re-executing the program that produced it.
///
/// Replay fidelity (docs/TRACE.md): a trace captured by a live profile run
/// records the complete pre-sampling strideProf invocation stream plus the
/// harvested edge profile, so replaying it under the same profiler
/// configuration reproduces the stride profile, classifier decisions, and
/// -- when the capturing workload can be rebuilt (workload builds are
/// deterministic) -- the prefetched run's cycle accounting and attribution
/// counters bit for bit.
///
/// Traces with no known workload (external captures, synthetic streams)
/// still get the stream-only path: stride profiling, per-site
/// classification, and a cache-model evaluation that replays the stream
/// twice -- demand-only, then with prefetches synthesized for classified
/// sites -- through MemoryHierarchy's stream entry point.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_TRACEREPLAY_H
#define SPROF_DRIVER_TRACEREPLAY_H

#include "driver/Pipeline.h"
#include "stream/TraceFile.h"

#include <optional>
#include <span>
#include <string>

namespace sprof {

/// Converts a harvested edge profile into the opaque tuples a trace file
/// stores (and back). Lossless both ways.
TraceEdgeSection edgeSectionFromProfile(const EdgeProfile &EP);
EdgeProfile edgeProfileFromSection(const TraceEdgeSection &S);

/// Everything configurable about a replay.
struct TraceReplayOptions {
  /// Profiler / classifier / memsys / timing configuration; the same
  /// knobs a live Pipeline takes. Capture fields are ignored.
  PipelineConfig Config;
  /// Profiling method for the replayed profile phase. Unset means "the
  /// method the trace records", falling back to edge-check for traces
  /// with no recorded method.
  std::optional<ProfilingMethod> Method;
  /// Rebuild the capturing workload (when the trace names one we know)
  /// and run the full prefetch evaluation: classify, insert prefetches,
  /// timed run vs baseline, attribution.
  bool EvaluateWorkload = true;
  /// Drive the cache model from the stream itself (works for any trace):
  /// a demand-only pass and a pass with synthesized prefetches for
  /// classified sites. These passes report MemoryStats only, never
  /// per-site attribution: Config.Memory.EnableAttribution applies to the
  /// workload evaluation alone.
  bool SimulateMemory = true;
  /// Prefetch distance (in strides) of the synthesized stream prefetches.
  unsigned StreamPrefetchDistance = 4;
  /// Worker threads for the replay. 1 (the default) is the fully serial
  /// path; more fans the decode out over the trace's shard index (/2
  /// traces) and the profile phase over site-sharded profilers
  /// (driver/ParallelReplay.h), and runs the demand-only memory pass as
  /// its own job beside the profile, the classification and the
  /// prefetched pass, with results bit-identical to serial. The demand
  /// pass is serial in itself; with 3 or more threads, the prefetched
  /// pass splits into cache-set shards and an in-order timing scan
  /// (decoupledShardCount).
  unsigned Threads = 1;
};

/// Everything a replay produces.
struct TraceReplayResult {
  /// False when the trace could not be read; Error/ErrorCode say why.
  bool Ok = false;
  std::string Error;
  TraceError ErrorCode = TraceError::None;

  /// Trace identity.
  std::string Source;
  TraceProvenance Prov;
  uint32_t NumSites = 0;
  uint64_t Events = 0;

  /// Replayed profile phase (Strides always; Edges from the trace's edge
  /// section when present).
  ProfilingMethod Method = ProfilingMethod::EdgeCheck;
  ProfileRunResult Profile;

  /// Stream-only classification: per-site stride class with no
  /// frequency/trip filtering (classifyStrideSummary). Indexed by SiteId.
  std::vector<StrideClass> SiteClass;

  /// Full workload evaluation (EvaluateWorkload and the workload was
  /// rebuilt): bit-identical to the live pipeline fed the same profiles.
  bool HasWorkload = false;
  RunStats Baseline;
  TimedRunResult Timed;
  double Speedup = 0.0;

  /// Stream-driven cache simulation (SimulateMemory).
  bool HasMemSim = false;
  StreamReplayStats MemBaseline;
  StreamReplayStats MemPrefetched;
  MemoryStats MemBaselineStats;
  MemoryStats MemPrefetchedStats;
};

/// Replays \p Src (any access source) under \p Opts. \p SourceName labels
/// the result; \p Edges, when non-null, plays the role of the trace's
/// edge section, and \p Prov of its provenance header (which is what
/// names the workload to rebuild). The source is read once (bufferRest: a
/// VectorSource's unread events in place, any other source drained), and
/// every pass -- the profile, the demand-only and the prefetched memory
/// passes -- runs over that one buffer on its own cursor; \p Src is left
/// exhausted.
TraceReplayResult replayStream(AccessSource &Src,
                               const TraceReplayOptions &Opts = {},
                               const std::string &SourceName = "<stream>",
                               const TraceEdgeSection *Edges = nullptr,
                               const TraceProvenance *Prov = nullptr);

/// replayStream's prefetched cache pass, inline on one hierarchy: drains
/// \p Src through \p MH under the StreamReplayConfig timing, and every
/// event that is not a prefetch, at a site with a nonzero \p SiteStride
/// entry, also prefetches SiteStride * \p Distance bytes ahead, mimicking
/// the in-loop prefetch the compiler would have inserted (Figure 3). This
/// is the spec replaySyntheticPrefetchDecoupled (driver/ParallelReplay.h)
/// is held to.
StreamReplayStats replayWithSyntheticPrefetch(
    MemoryHierarchy &MH, AccessSource &Src, const StreamReplayConfig &Config,
    std::span<const int64_t> SiteStride, unsigned Distance);

/// Opens \p Path as a sprof.trace/2 file and replays it. The events decode
/// over the trace's shard index with Opts.Threads workers
/// (decodeTraceParallel, driver/ParallelReplay.h; inline at one thread)
/// into a TraceEventBuffer, which the decode jobs are the first to touch,
/// and every pass of replayStream reads that buffer in place.
/// Read errors (unreadable, truncated, version mismatch, corrupt) come
/// back in the result with Ok == false.
TraceReplayResult replayTraceFile(const std::string &Path,
                                  const TraceReplayOptions &Opts = {});

} // namespace sprof

#endif // SPROF_DRIVER_TRACEREPLAY_H
