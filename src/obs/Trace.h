//===- obs/Trace.h - Scoped phase tracing (Chrome trace events) -*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer. A TraceCollector records
/// nested begin/end phase events (instrument, execute, classify,
/// prefetch-insert, ...) with wall-clock microsecond timestamps; TraceSpan
/// is the RAII producer. The collector can serialize everything as Chrome
/// `trace_event` JSON ("X" complete events), which chrome://tracing and
/// https://ui.perfetto.dev open directly.
///
/// The collector is single-threaded, like the pipeline itself; depth is
/// tracked with a simple begin/end counter so tests can assert nesting.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_TRACE_H
#define SPROF_OBS_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sprof {

class ObsSession;

/// One counter-track point: serialized as a Chrome trace counter ("C")
/// event, which chrome://tracing and Perfetto render as a value-over-time
/// track. The TelemetrySampler's ring is folded into these at
/// artifact-write time.
struct CounterSample {
  std::string Name;
  uint64_t TsUs = 0;
  double Value = 0.0;
};

/// One causal edge between two points on the trace timeline, serialized
/// as a Chrome flow-event pair ("s" at the source, "f" with bp:"e" at the
/// destination, matched by id). The experiment engine emits one per
/// job-graph dependency edge so chrome://tracing draws arrows from each
/// job's finish to its dependents' starts.
struct FlowEdge {
  std::string Name;       ///< rendered on the arrow (dependency job name)
  uint64_t FromTsUs = 0;  ///< source timestamp (producer finish)
  uint32_t FromTrack = 0; ///< source display lane (producer's worker)
  uint64_t ToTsUs = 0;    ///< destination timestamp (consumer start)
  uint32_t ToTrack = 0;   ///< destination display lane
};

/// One recorded span. DurationUs stays UINT64_MAX until the span ends.
struct TraceEvent {
  std::string Name;
  std::string Category;
  uint64_t StartUs = 0;
  uint64_t DurationUs = UINT64_MAX;
  uint32_t Depth = 0; ///< nesting depth when the span began (0 = root)
  /// Display track (Chrome trace "tid"). Spans recorded through
  /// beginSpan stay on track 0; merged-in foreign events (engine jobs)
  /// carry the track of the worker that ran them, so parallel jobs render
  /// as parallel lanes instead of overlapping on one line.
  uint32_t Track = 0;
};

/// Records spans against a steady clock anchored at construction.
class TraceCollector {
public:
  TraceCollector();

  /// Microseconds since the collector was created.
  uint64_t nowUs() const;

  /// Opens a span; the returned id is passed to endSpan. Spans must end in
  /// LIFO order (which the RAII TraceSpan guarantees).
  size_t beginSpan(std::string_view Name, std::string_view Category);
  void endSpan(size_t Id);

  uint32_t currentDepth() const { return Depth; }
  const std::vector<TraceEvent> &events() const { return Events; }

  /// True if some completed span has \p Name.
  bool hasSpan(std::string_view Name) const;

  /// Appends an already-completed span (no begin/end pairing, no effect on
  /// the current depth). \p StartUs is on THIS collector's clock; \p Track
  /// selects the display lane. Used by the experiment engine to stamp one
  /// span per finished job into the session trace.
  void appendCompletedSpan(std::string_view Name, std::string_view Category,
                           uint64_t StartUs, uint64_t DurationUs,
                           uint32_t Track, uint32_t Depth = 0);

  /// Appends every completed event of \p Other, shifted by \p ShiftUs onto
  /// this collector's clock (\p ShiftUs = the value of nowUs() here when
  /// \p Other's epoch started) and one nesting level below \p DepthBase,
  /// on lane \p Track. This folds a job-local trace into the session
  /// trace after the job finishes.
  void appendForeign(const TraceCollector &Other, uint64_t ShiftUs,
                     uint32_t Track, uint32_t DepthBase = 1);

  /// Appends one causal edge (serialized as a paired "s"/"f" flow event;
  /// ids are assigned at write time from the edge's index). Timestamps
  /// are on this collector's clock. Single-threaded like the span API.
  void appendFlowEdge(std::string_view Name, uint64_t FromTsUs,
                      uint32_t FromTrack, uint64_t ToTsUs, uint32_t ToTrack);
  const std::vector<FlowEdge> &flowEdges() const { return FlowEdges; }

  /// Appends one counter-track point (emitted as a "C" event). \p TsUs is
  /// on this collector's clock. Single-threaded like the span API; the
  /// session folds sampler rings in after producers quiesce.
  void appendCounterSample(std::string_view Name, uint64_t TsUs,
                           double Value);
  const std::vector<CounterSample> &counterSamples() const {
    return CounterSamples;
  }

  /// Chrome trace-event JSON: {"traceEvents": [{"ph": "X", ...}, ...]},
  /// plus one "C" (counter) event per recorded counter sample.
  /// Unfinished spans are skipped.
  void writeChromeTrace(std::ostream &OS) const;
  bool writeChromeTraceFile(const std::string &Path) const;

private:
  std::vector<TraceEvent> Events;
  std::vector<FlowEdge> FlowEdges;
  std::vector<CounterSample> CounterSamples;
  uint32_t Depth = 0;
  uint64_t EpochNs = 0;
};

/// RAII span. Constructed against a collector (always active) or against an
/// ObsSession (active only when the session exists and trace collection is
/// on).
class TraceSpan {
public:
  TraceSpan(TraceCollector *Collector, std::string_view Name,
            std::string_view Category = "") {
    if (Collector)
      open(*Collector, Name, Category);
  }
  TraceSpan(ObsSession *Session, std::string_view Name,
            std::string_view Category = "");
  ~TraceSpan() {
    if (C)
      C->endSpan(Id);
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  bool active() const { return C != nullptr; }

private:
  void open(TraceCollector &Collector, std::string_view Name,
            std::string_view Category) {
    C = &Collector;
    Id = C->beginSpan(Name, Category);
  }

  TraceCollector *C = nullptr;
  size_t Id = 0;
};

} // namespace sprof

#endif // SPROF_OBS_TRACE_H
