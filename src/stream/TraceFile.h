//===- stream/TraceFile.h - sprof.trace/2 capture + replay -----*- C++ -*-===//
//
// Part of the StrideProf project (see AccessStream.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned trace container `sprof.trace/2`: a compact, dependency-free
/// binary encoding of an access-event stream (docs/TRACE.md is the format
/// spec). It is the only container written or read; hand-written and
/// externally generated traces come in through importAccessLog().
///
///   * TraceWriter is an AccessSink with a streaming encoder: events are
///     delta-encoded against the previous event (zigzag varints for the
///     site, address, and global-ref deltas), so regular strides cost a
///     few bytes per event and nothing is buffered beyond one batch.
///   * TraceReader is an AccessSource that decodes the same stream, with
///     strict error reporting: a missing end marker or footer is
///     diagnosed as truncation, a bad magic as a foreign file, and an
///     unknown version as a version mismatch -- each with a distinct
///     TraceError code so tools can exit nonzero with a precise message.
///
/// Every trace carries a *shard index*: every IndexInterval events the
/// writer records the chunk's byte offset together with the carried
/// delta-decoder state (previous site/address/global-ref), so any chunk can
/// be decoded independently of the ones before it. The index lives in a
/// trailer section and is reachable without scanning the event stream
/// through a fixed 16-byte seekable tail, which is what lets ParallelReplay
/// fan one trace out across cores (driver/ParallelReplay.h).
///
/// A trace optionally carries an edge-profile section (opaque counter
/// tuples, written after the event stream) so that replaying a captured
/// profile run can reconstruct the classifier's full input without
/// re-executing the program. The stream layer does not interpret the
/// tuples; the driver converts them to/from EdgeProfile.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_STREAM_TRACEFILE_H
#define SPROF_STREAM_TRACEFILE_H

#include "stream/AccessStream.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sprof {

/// Schema identifier of the trace container (mirrored in run reports and
/// validated by scripts/check_telemetry_schema.sh).
inline const char *const TraceSchemaV2 = "sprof.trace/2";

/// The container version TraceWriter emits and the only one TraceReader
/// accepts; any other version word is a VersionMismatch.
inline constexpr uint32_t TraceFormatVersion = 2;

/// Most load sites a trace may declare. Replay builds per-site profiler
/// state for every declared site, so the reader rejects a larger header
/// count as Corrupt before it allocates anything, the writer refuses to
/// write one, and importAccessLog rejects a site id at or above it. The
/// suite's largest workload declares 12 sites.
inline constexpr uint32_t TraceMaxSites = 1u << 16;

/// Default shard-index granularity (events per chunk). At the encoder's
/// ~6 B/event a chunk is ~200 KB of file, small enough that a thread pool
/// load-balances well even on traces of a few million events.
inline constexpr uint64_t DefaultTraceIndexInterval = 32768;

/// Bytes a TraceReader reads per refill of its input buffer.
inline constexpr size_t TraceReadBufferBytes = 64 * 1024;

/// Longest binary event record: the tag byte and three 10-byte varints.
/// TraceWriter reserves this much per event; TraceReader decodes without
/// per-byte checks only while this much input is buffered.
inline constexpr size_t TraceMaxEventBytes = 31;

/// Where a trace came from: the workload, data set, and profiling method
/// of the capturing run. All fields may be empty (external traces).
struct TraceProvenance {
  std::string Workload;
  std::string DataSet;
  std::string Method;
};

/// Opaque edge-profile records (see file comment). Func/From/Slot mirror
/// EdgeProfile's keying; the stream layer only stores the tuples.
struct TraceEntryRecord {
  uint32_t Func = 0;
  uint64_t Count = 0;
};
struct TraceEdgeRecord {
  uint32_t Func = 0;
  uint32_t From = 0;
  uint32_t Slot = 0;
  uint64_t Count = 0;
};
struct TraceEdgeSection {
  bool Present = false;
  uint32_t NumFunctions = 0;
  std::vector<TraceEntryRecord> Entries;
  std::vector<TraceEdgeRecord> Edges;
};

/// One shard-index entry: where a chunk of events starts and the decoder
/// state carried into it, so the chunk decodes with no earlier context.
struct TraceShardEntry {
  uint64_t ByteOffset = 0; ///< absolute file offset of the chunk's first event
  uint64_t CumEvents = 0;  ///< events encoded before this chunk
  uint64_t CumLoads = 0;   ///< load-kind events encoded before this chunk
  /// Carried delta-decoder registers: the values after the previous
  /// chunk's last event (all zero for chunk 0).
  uint64_t PrevAddr = 0;
  uint64_t PrevRef = 0;
  uint32_t PrevSite = 0;
};

/// The shard index: chunk table plus the framing offsets a seeking reader
/// needs. Present once the reader has parsed it from the footer.
struct TraceShardIndex {
  bool Present = false;
  uint64_t Interval = 0;    ///< nominal events per chunk (> 0 when Present)
  uint64_t TotalEvents = 0; ///< footer event count
  uint64_t TotalLoads = 0;  ///< load-kind events in the whole trace
  uint32_t NumSites = 0;
  uint64_t EventsStart = 0; ///< file offset of the first event record
  uint64_t FooterStart = 0; ///< file offset of the end-of-events marker
  std::vector<TraceShardEntry> Chunks;

  size_t numChunks() const { return Chunks.size(); }
  /// Events in chunk \p I (the last chunk holds the remainder).
  uint64_t chunkEvents(size_t I) const {
    return (I + 1 < Chunks.size() ? Chunks[I + 1].CumEvents : TotalEvents) -
           Chunks[I].CumEvents;
  }
  /// Load-kind events in chunk \p I.
  uint64_t chunkLoads(size_t I) const {
    return (I + 1 < Chunks.size() ? Chunks[I + 1].CumLoads : TotalLoads) -
           Chunks[I].CumLoads;
  }
  /// First byte past chunk \p I's event records.
  uint64_t chunkEndOffset(size_t I) const {
    return I + 1 < Chunks.size() ? Chunks[I + 1].ByteOffset : FooterStart;
  }
};

/// Why a trace failed to load; None means the trace is healthy so far.
enum class TraceError : uint8_t {
  None = 0,
  Io,              ///< unreadable file / stream failure
  BadMagic,        ///< not a binary sprof trace at all
  VersionMismatch, ///< sprof trace, but an unsupported container version
  Truncated,       ///< ends before the end marker / footer
  Corrupt,         ///< structurally invalid (bad tag, count mismatch, ...)
};

/// Human-readable name of a TraceError ("truncated", "version-mismatch").
const char *traceErrorName(TraceError E);

/// Streaming trace encoder. Feed it batches (it is an AccessSink -- attach
/// it to an engine's event-sink slot or drainStream() into it), then call
/// finish() to write the end marker, optional edge section, and footer.
///
/// \p IndexInterval sets the shard-index granularity (tests use small ones
/// to get many chunks from a small trace). It must be > 0 and \p NumSites
/// at most TraceMaxSites; otherwise the writer fails without writing.
class TraceWriter final : public AccessSink {
public:
  /// Writes to a borrowed stream (tests use string streams).
  TraceWriter(std::ostream &OS, uint32_t NumSites, TraceProvenance Prov = {},
              uint64_t IndexInterval = DefaultTraceIndexInterval);

  /// Opens \p Path for writing. Returns nullptr (and sets \p Error) when
  /// the file cannot be created or the writer's parameters are invalid.
  /// \p Reserved selects nothing and must be false: it keeps the parameter
  /// list of callers that still pass the retired text-format flag; true
  /// fails, pointing at importAccessLog.
  static std::unique_ptr<TraceWriter>
  open(const std::string &Path, uint32_t NumSites, TraceProvenance Prov = {},
       bool Reserved = false, std::string *Error = nullptr,
       uint64_t IndexInterval = DefaultTraceIndexInterval);

  ~TraceWriter() override;

  void onBatch(const AccessEvent *Events, size_t N) override;

  /// Attaches the edge-profile section written by finish(). Must be called
  /// before finish(); the driver fills it from the capturing run's edge
  /// counters.
  void setEdgeSection(TraceEdgeSection S) { EdgeSec = std::move(S); }

  /// Writes end marker + sections + footer, then flushes and (for
  /// file-backed writers) closes, so deferred short writes -- ENOSPC
  /// surfacing at flush/close time -- are still caught. Idempotent; called
  /// by the destructor as a safety net, but callers should finish()
  /// explicitly and check ok().
  void finish() override;

  bool ok() const { return !Failed; }
  const std::string &error() const { return Err; }
  uint64_t eventsWritten() const { return NumEvents; }
  uint64_t bytesWritten() const { return NumBytes; }

private:
  void putByte(uint8_t B);
  void putBytes(const void *Data, size_t N);
  void putVarint(uint64_t V);
  void writeHeader(uint32_t NumSites, const TraceProvenance &Prov);
  void flushBuf();

  std::unique_ptr<std::ostream> OwnedOS;
  std::ostream *OS;
  /// The owned stream as a file, when open() created it; finish() closes
  /// it explicitly so close-time write failures are reported, not lost.
  std::ofstream *OwnedFile = nullptr;
  bool Finished = false;
  bool Failed = false;
  std::string Err;
  std::vector<uint8_t> Buf;
  TraceEdgeSection EdgeSec;
  uint64_t NumEvents = 0;
  uint64_t NumBytes = 0;
  // Shard-index accumulation.
  uint64_t IndexInterval;
  uint64_t UntilChunk = 0; ///< events until the next chunk boundary
  uint64_t NumLoads = 0;
  std::vector<TraceShardEntry> Index;
  // Delta-encoder state (previous event; all start at 0).
  uint64_t PrevAddr = 0;
  uint64_t PrevRef = 0;
  uint32_t PrevSite = 0;
};

/// Streaming trace decoder. Construction parses the header; pull() decodes
/// events; once pull() returns 0, check ok() -- a clean end of stream has
/// parsed the end marker, edge section, and footer, anything else is
/// reported through errorCode()/error().
class TraceReader final : public AccessSource {
public:
  /// Reads from a borrowed stream; \p Name labels diagnostics.
  TraceReader(std::istream &IS, std::string Name = "<stream>");

  /// Opens \p Path; never returns nullptr -- open failures are reported
  /// through the reader's own error state so callers have one error path.
  static std::unique_ptr<TraceReader> openFile(const std::string &Path);

  /// Opens \p Path and loads the shard index and footer by seeking to the
  /// fixed tail -- no event is decoded, so this is O(index) even on
  /// multi-gigabyte traces. On success index().Present is true,
  /// eventCount() and edgeSection() are valid, and the reader is
  /// exhausted (pull() returns 0); decode the events through openShard().
  /// A missing or damaged tail/index fails with Truncated/Corrupt, never
  /// silently.
  static std::unique_ptr<TraceReader> openFileIndexed(const std::string &Path);

  /// A decoder over chunks [\p FirstChunk, \p FirstChunk + \p NumChunks)
  /// of an indexed trace: seeks to the chunk's byte offset, seeds the
  /// delta decoder with the index's carried state, and decodes exactly
  /// the chunks' events. After the last event the reader cross-checks
  /// that decoding consumed precisely the bytes the index promised
  /// (Corrupt otherwise), so a damaged chunk cannot leak into a merge.
  static std::unique_ptr<TraceReader> openShard(const std::string &Path,
                                                const TraceShardIndex &Index,
                                                size_t FirstChunk,
                                                size_t NumChunks = 1);

  ~TraceReader() override;

  size_t pull(AccessEvent *Buf, size_t Max) override;
  uint32_t numSites() const override { return Sites; }
  std::string describe() const override;

  bool ok() const { return ErrCode == TraceError::None; }
  TraceError errorCode() const { return ErrCode; }
  const std::string &error() const { return Err; }

  /// Header field (valid when the constructor left ok() true).
  const TraceProvenance &provenance() const { return Prov; }

  /// Footer fields; valid only once the stream is exhausted cleanly
  /// (pull() returned 0 and ok() still holds) or after openFileIndexed().
  bool atEnd() const { return SawFooter; }
  uint64_t eventCount() const { return FooterEvents; }
  const TraceEdgeSection &edgeSection() const { return EdgeSec; }
  /// The shard index, populated once the footer has been parsed --
  /// immediately for openFileIndexed().
  const TraceShardIndex &index() const { return Index; }

private:
  struct ShardTag {};
  explicit TraceReader(ShardTag); ///< openShard's no-header constructor

  void fail(TraceError Code, const std::string &Message);
  bool fillBuf();
  int getByte(); ///< -1 at end of input
  bool getVarint(uint64_t &V);
  bool getZigzag(int64_t &V);
  /// The AccessSource contract, SiteId < numSites(): false (and Corrupt,
  /// naming the site and the header's count) when \p Site breaks it.
  bool checkSite(uint64_t Site);
  /// Absolute file offset of the next byte getByte() would return.
  uint64_t tellAbs() const { return SeekBase + BufBase + InPos; }
  bool seekTo(uint64_t AbsOffset);
  bool parseHeader();
  bool parseFooter(); ///< sections + count + tail + end magic
  bool parseIndexSection();
  bool validateIndex();
  bool loadIndexFromTail();
  /// pull()'s unchecked decoder: decodes up to \p Max well-formed
  /// events straight from the buffer while a worst-case record is
  /// buffered. Stops short of anything else (a buffer end, the end marker,
  /// a malformed record, a site out of range), which the checked
  /// getByte() path then takes.
  size_t decodeBuffered(AccessEvent *Buf, size_t Max);

  std::unique_ptr<std::istream> OwnedIS;
  std::istream *IS;
  std::string Name;

  TraceError ErrCode = TraceError::None;
  std::string Err;

  uint32_t Sites = 0;
  TraceProvenance Prov;

  bool SawFooter = false;
  bool IndexedOpen = false; ///< footer reached by seeking, not decoding
  uint64_t DecodedEvents = 0;
  uint64_t FooterEvents = 0;
  TraceEdgeSection EdgeSec;
  TraceShardIndex Index;
  uint64_t EventsStart = 0; ///< offset of the first event record
  uint64_t FooterStart = 0; ///< offset of the end-of-events marker

  // Shard-decode mode (openShard): decode exactly ShardMaxEvents events
  // and then verify the byte position against the index.
  bool ShardMode = false;
  uint64_t ShardMaxEvents = 0;
  uint64_t ShardEndOffset = 0;

  // Delta-decoder state (mirrors the writer).
  uint64_t PrevAddr = 0;
  uint64_t PrevRef = 0;
  uint32_t PrevSite = 0;

  // Buffered input; SeekBase + BufBase + InPos is the absolute
  // offset of the next unconsumed byte (see tellAbs()).
  std::vector<uint8_t> InBuf;
  size_t InPos = 0;
  size_t InLen = 0;
  uint64_t SeekBase = 0;
  uint64_t BufBase = 0;
};

/// What importAccessLog() produced.
struct TraceImportResult {
  uint64_t Events = 0;
  uint64_t Loads = 0;
  uint64_t Prefetches = 0;
  uint32_t NumSites = 0;
  uint64_t Bytes = 0;
};

/// Imports a cacheSight-style text access log into a binary sprof.trace/2
/// file at \p OutPath. One event per line, "addr,site,kind" with optional
/// whitespace: addr is decimal or 0x-prefixed hex, site is a decimal load
/// site id, kind is L/load or P/prefetch (case-insensitive). Blank lines
/// and '#' comments are skipped. The log carries no global-ref counter, so
/// GlobalRefIndex is synthesized as the running 1-based event count, and
/// the site count is the highest site id seen plus one; a site id at or
/// above TraceMaxSites is rejected. Returns nullopt and sets \p Error
/// (naming the offending line) on malformed input or a write failure.
std::optional<TraceImportResult> importAccessLog(std::istream &In,
                                                 const std::string &OutPath,
                                                 std::string *Error = nullptr);

} // namespace sprof

#endif // SPROF_STREAM_TRACEFILE_H
