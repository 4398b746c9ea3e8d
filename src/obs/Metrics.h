//===- obs/Metrics.h - Low-overhead metrics registry ------------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: a registry of named
/// counters, gauges, and fixed-bucket histograms that the pipeline, the
/// interpreter, and the profiling runtime report through.
///
/// The design keeps the *disabled* path nearly free on hot code: producers
/// resolve a metric once into a raw pointer (nullptr when telemetry is off)
/// and the per-event cost is a single predictable null test. The metric
/// objects themselves are header-inline single-word updates. Registry
/// storage is node-based (std::map) so resolved pointers stay valid for the
/// registry's lifetime.
///
/// Counters and gauges are single-writer/multi-reader: each scalar lives in
/// a relaxed std::atomic so the TelemetrySampler thread can read a
/// mid-run value without a data race, while the (single) producer's
/// read-modify-write stays a plain load+add+store -- no lock prefix, same
/// machine code as the non-atomic version. The registry's *map structure*
/// is guarded by a mutex on the creation/lookup path only; resolved-pointer
/// producers never touch it per event.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_METRICS_H
#define SPROF_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sprof {

/// Monotonically increasing event count. Written by exactly one thread at a
/// time; readable concurrently (sampler snapshots) through relaxed atomics.
class Counter {
public:
  Counter() = default;
  Counter(const Counter &Other)
      : Val(Other.Val.load(std::memory_order_relaxed)) {}
  Counter &operator=(const Counter &Other) {
    Val.store(Other.Val.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    return *this;
  }

  void inc(uint64_t N = 1) {
    // Single-writer: a relaxed load+store pair is exact and compiles to the
    // same add-to-memory a plain uint64_t would.
    Val.store(Val.load(std::memory_order_relaxed) + N,
              std::memory_order_relaxed);
  }
  uint64_t value() const { return Val.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Val{0};
};

/// Last-write-wins scalar (configuration values, run-level ratios).
/// Single-writer/multi-reader like Counter.
class Gauge {
public:
  Gauge() = default;
  Gauge(const Gauge &Other)
      : Val(Other.Val.load(std::memory_order_relaxed)) {}
  Gauge &operator=(const Gauge &Other) {
    Val.store(Other.Val.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    return *this;
  }

  void set(double V) { Val.store(V, std::memory_order_relaxed); }
  double value() const { return Val.load(std::memory_order_relaxed); }

private:
  std::atomic<double> Val{0.0};
};

/// Fixed-bucket histogram over unsigned samples. Bucket I counts samples
/// <= UpperBounds[I] (and greater than the previous bound); one overflow
/// bucket catches the rest. Also tracks count/sum/min/max exactly.
class Histogram {
public:
  /// Default bounds: powers of two 1, 2, 4, ..., 2^19.
  Histogram() : Histogram(exponentialBounds(1, 20)) {}
  explicit Histogram(std::vector<uint64_t> UpperBounds);

  void record(uint64_t Sample) { record(Sample, 1); }

  /// Records \p N occurrences of \p Sample in one update; final state is
  /// identical to N single record(Sample) calls. Lets batched producers
  /// (StrideProfiler) report a whole tally of equal samples with one
  /// bucket lookup.
  void record(uint64_t Sample, uint64_t N) {
    if (N == 0)
      return;
    Buckets[bucketOf(Sample)] += N;
    Count += N;
    Sum += Sample * N;
    Min = Sample < Min ? Sample : Min;
    Max = Sample > Max ? Sample : Max;
  }

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? Min : 0; }
  uint64_t max() const { return Max; }
  double average() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count)
                 : 0.0;
  }
  const std::vector<uint64_t> &bounds() const { return UpperBounds; }
  /// Size bounds().size() + 1; the last entry is the overflow bucket.
  const std::vector<uint64_t> &bucketCounts() const { return Buckets; }

  /// Bounds Start, Start*2, ..., Start*2^(NumBounds-1).
  static std::vector<uint64_t> exponentialBounds(uint64_t Start,
                                                 unsigned NumBounds);

  /// Accumulates \p Other into this histogram. Exact statistics
  /// (count/sum/min/max) always merge; bucket counts merge element-wise
  /// when both histograms share the same bounds (the normal case, since a
  /// metric name maps to one creation site) and are otherwise left as
  /// this histogram's own counts.
  void merge(const Histogram &Other);

private:
  /// Index of the bucket counting \p Sample: the first bound >= Sample,
  /// or the overflow bucket. Bounds 1, 2, ..., 2^(N-1) (the default, and
  /// the empty dummy) compute it in O(1); others search.
  size_t bucketOf(uint64_t Sample) const {
    if (!Pow2Bounds)
      return searchBucket(Sample);
    const size_t Idx = std::bit_width(Sample - (Sample != 0));
    return Idx < UpperBounds.size() ? Idx : UpperBounds.size();
  }
  size_t searchBucket(uint64_t Sample) const;

  std::vector<uint64_t> UpperBounds;
  std::vector<uint64_t> Buckets;
  bool Pow2Bounds = false;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;
};

/// Owns all metrics of one observability session, keyed by dotted names
/// ("strideprof.invocations"). Lookup creates on first use; repeated
/// lookups return the same object, whose address is stable.
///
/// Thread model: the creation/lookup path (counter/gauge/histogram) and the
/// scalar snapshot are serialized by an internal mutex, so a background
/// sampler may discover metrics while producers resolve new ones. Updates
/// through resolved pointers are lock-free (see Counter/Gauge). Histograms
/// are multi-word and are NOT safe to read mid-update; snapshots cover
/// counters and gauges only.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &Other);
  MetricsRegistry &operator=(const MetricsRegistry &Other);

  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  /// \p UpperBounds applies only when the histogram is created by this
  /// call; empty means the default exponential bounds.
  Histogram &histogram(std::string_view Name,
                       std::vector<uint64_t> UpperBounds = {});

  const std::map<std::string, Counter, std::less<>> &counters() const {
    return Counters;
  }
  const std::map<std::string, Gauge, std::less<>> &gauges() const {
    return Gauges;
  }
  const std::map<std::string, Histogram, std::less<>> &histograms() const {
    return Histograms;
  }

  /// Folds \p Other into this registry: counters add, gauges take
  /// \p Other's value (last write wins, like a direct set), histograms
  /// merge per Histogram::merge. Metrics missing here are created. This
  /// is how per-job metric scopes aggregate into a session registry.
  /// Counter and histogram folding is commutative and associative, so any
  /// merge order over a set of scopes yields bit-identical totals.
  void merge(const MetricsRegistry &Other);

  /// Consistent point-in-time copy of every counter and gauge, sorted by
  /// name. Safe to call from a sampler thread while producers update
  /// resolved metrics and create new ones.
  void snapshotScalars(
      std::vector<std::pair<std::string, uint64_t>> &CountersOut,
      std::vector<std::pair<std::string, double>> &GaugesOut) const;

private:
  mutable std::mutex Mu; ///< guards map structure, not metric values
  std::map<std::string, Counter, std::less<>> Counters;
  std::map<std::string, Gauge, std::less<>> Gauges;
  std::map<std::string, Histogram, std::less<>> Histograms;
};

/// Statically-allocated write-only sinks for the null-object pattern:
/// producers that would otherwise test `if (Sink)` on every event instead
/// resolve their sink pointers once -- to a real registry metric when a
/// session is attached, to these throwaway objects when not -- and write
/// unconditionally. The dummies are thread-local so concurrent engine jobs
/// never share (or race on) a cache line; their contents are never read.
/// The dummy histogram has no bucket bounds, so a record() into it is a
/// handful of scalar updates.
Counter &dummyCounter();
Histogram &dummyHistogram();

} // namespace sprof

#endif // SPROF_OBS_METRICS_H
