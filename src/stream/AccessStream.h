//===- stream/AccessStream.h - Abstract access-event streams ----*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The access-event stream layer. The stream consumers -- the
/// stride-profiling runtime and the cache model -- can be driven from an
/// AccessSource, a pull interface producing batched AccessEvent records,
/// instead of from a live interpreter run. The interpreters push their
/// events into an AccessSink (trace capture); captured trace files
/// (TraceFile.h), synthetic generators (SyntheticTrace.h), and external
/// traces then feed the exact same profile -> classify ->
/// prefetch-evaluation pipeline, so programs we did not write become
/// first-class workloads.
///
/// This library sits at the bottom of the dependency graph (it links only
/// sprof_support), so profile, memsys, and interp can all speak its types.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_STREAM_ACCESSSTREAM_H
#define SPROF_STREAM_ACCESSSTREAM_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace sprof {

/// What kind of memory reference an event records.
enum class AccessKind : uint8_t {
  Load = 0,     ///< demand load (a strideProf invocation when profiled)
  Prefetch = 1, ///< software prefetch (ignored by the profiling runtime)
};

/// One memory-access event. A superset of the stride-event ring entry the
/// engines queue at ProfStride traps: the first three fields match that
/// layout exactly (StrideProfiler.h aliases StrideEvent to this type), so
/// an engine's ring buffer feeds an AccessSink without conversion.
struct AccessEvent {
  uint64_t Address = 0;
  /// The program's running count of dynamic memory references at this
  /// event (1-based); 0 when unknown. Feeds the use-distance statistic.
  uint64_t GlobalRefIndex = 0;
  uint32_t SiteId = 0;
  AccessKind Kind = AccessKind::Load;
};

/// Pull side: a finite stream of access events.
class AccessSource {
public:
  virtual ~AccessSource();

  /// Fills \p Buf with up to \p Max events in stream order; returns the
  /// number produced. 0 means end of stream (and stays 0 until reset()).
  virtual size_t pull(AccessEvent *Buf, size_t Max) = 0;

  /// Number of distinct load sites the stream draws SiteIds from; every
  /// event satisfies SiteId < numSites().
  virtual uint32_t numSites() const = 0;

  /// Rewinds to the beginning so the stream can be pulled again (replay
  /// needs several passes: profile, baseline, prefetched). Returns false
  /// when this source cannot rewind (one-shot streams).
  virtual bool reset() { return false; }

  /// Human-readable provenance ("181.mcf/train/edge-check", a file path,
  /// a generator name); empty when unknown.
  virtual std::string describe() const { return {}; }
};

/// Push side: a consumer of batched access events.
class AccessSink {
public:
  virtual ~AccessSink();

  virtual void onBatch(const AccessEvent *Events, size_t N) = 0;

  /// End of stream: flush buffered state. Idempotent; producers call it
  /// once the run that fed the sink completes.
  virtual void finish() {}
};

/// Drains \p Src into \p Sink in batches of at most \p BatchSize events
/// and finishes the sink. Returns the number of events moved.
uint64_t drainStream(AccessSource &Src, AccessSink &Sink,
                     size_t BatchSize = 256);

/// An in-memory source over an event vector (tests, buffered replay).
class VectorSource final : public AccessSource {
public:
  VectorSource(std::vector<AccessEvent> Events, uint32_t NumSites,
               std::string Name = {})
      : Events(std::move(Events)), Sites(NumSites), Name(std::move(Name)) {}

  size_t pull(AccessEvent *Buf, size_t Max) override;
  uint32_t numSites() const override { return Sites; }
  bool reset() override {
    Pos = 0;
    return true;
  }
  std::string describe() const override { return Name; }

  /// The zero-copy pull: returns the events pull() has not yet returned
  /// and leaves the source exhausted, as if pulled to the end.
  std::span<const AccessEvent> pullRest() {
    const auto Rest = std::span<const AccessEvent>(Events).subspan(Pos);
    Pos = Events.size();
    return Rest;
  }

private:
  std::vector<AccessEvent> Events;
  uint32_t Sites;
  std::string Name;
  size_t Pos = 0;
};

/// A source over borrowed events, which must outlive it: an independent
/// cursor over storage that another source (or thread) also reads.
class SpanSource final : public AccessSource {
public:
  SpanSource(std::span<const AccessEvent> Events, uint32_t NumSites)
      : Events(Events), Sites(NumSites) {}

  size_t pull(AccessEvent *Buf, size_t Max) override;
  uint32_t numSites() const override { return Sites; }
  bool reset() override {
    Pos = 0;
    return true;
  }

  /// The zero-copy pull, as VectorSource::pullRest.
  std::span<const AccessEvent> pullRest() {
    const auto Rest = Events.subspan(Pos);
    Pos = Events.size();
    return Rest;
  }

private:
  std::span<const AccessEvent> Events;
  uint32_t Sites;
  size_t Pos = 0;
};

/// The unread events of an in-memory source (VectorSource, SpanSource), in
/// place, leaving it exhausted; nullopt, with \p Src untouched, for any
/// other source.
std::optional<std::span<const AccessEvent>> pullRestInPlace(AccessSource &Src);

/// Buffers what \p Src has not yet produced, once, as one span: an
/// in-memory source's unread events in place (pullRestInPlace), any other
/// source drained into \p Storage, which must outlive the span. \p Src is
/// left exhausted either way.
std::span<const AccessEvent> bufferRest(AccessSource &Src,
                                        std::vector<AccessEvent> &Storage);

/// A sink that collects every event into a vector (tests).
class CollectSink final : public AccessSink {
public:
  void onBatch(const AccessEvent *Events, size_t N) override {
    Buffer.insert(Buffer.end(), Events, Events + N);
  }

  std::vector<AccessEvent> take() { return std::move(Buffer); }
  const std::vector<AccessEvent> &events() const { return Buffer; }

private:
  std::vector<AccessEvent> Buffer;
};

} // namespace sprof

#endif // SPROF_STREAM_ACCESSSTREAM_H
