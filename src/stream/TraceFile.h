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
/// spec), plus a line-oriented text twin `sprof.trace.text/1` for
/// hand-written and externally generated traces.
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
/// Version 2 adds the *shard index*: every IndexInterval events the writer
/// records the chunk's byte offset together with the carried delta-decoder
/// state (previous site/address/global-ref), so any chunk can be decoded
/// independently of the ones before it. The index lives in a trailer
/// section and is reachable without scanning the event stream through a
/// fixed 16-byte seekable tail, which is what lets ParallelReplay fan one
/// trace out across cores (driver/ParallelReplay.h). Version-1 files stay
/// fully readable; they simply have no index.
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

/// Schema identifiers of the trace container (mirrored in run reports and
/// validated by scripts/check_telemetry_schema.sh).
inline const char *const TraceSchemaV1 = "sprof.trace/1";
inline const char *const TraceSchemaV2 = "sprof.trace/2";
inline const char *const TraceTextSchemaV1 = "sprof.trace.text/1";

/// Newest container version TraceWriter emits and TraceReader accepts;
/// readers keep accepting every version down to 1.
inline constexpr uint32_t TraceFormatVersion = 2;

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

/// The /2 shard index: chunk table plus the framing offsets a seeking
/// reader needs. Present == false on /1 and text traces.
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
  BadMagic,        ///< not an sprof trace at all
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
/// \p IndexInterval selects the shard-index granularity; 0 disables the
/// index and writes a version-1 container (byte-identical to what earlier
/// revisions produced), which is how /1 compatibility fixtures are made.
/// Text traces never carry an index.
class TraceWriter final : public AccessSink {
public:
  /// Writes to a borrowed stream (tests use string streams).
  TraceWriter(std::ostream &OS, uint32_t NumSites, TraceProvenance Prov = {},
              bool Text = false,
              uint64_t IndexInterval = DefaultTraceIndexInterval);

  /// Opens \p Path for writing. Returns nullptr (and sets \p Error) when
  /// the file cannot be created.
  static std::unique_ptr<TraceWriter>
  open(const std::string &Path, uint32_t NumSites, TraceProvenance Prov = {},
       bool Text = false, std::string *Error = nullptr,
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
  /// Container version being written (2, or 1 when the index is disabled).
  uint32_t version() const { return Version; }
  /// Schema string of the container being written (for run reports).
  const char *schema() const;
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
  bool Text;
  uint32_t Version;
  bool Finished = false;
  bool Failed = false;
  std::string Err;
  std::vector<uint8_t> Buf;
  TraceEdgeSection EdgeSec;
  uint64_t NumEvents = 0;
  uint64_t NumBytes = 0;
  // Shard-index accumulation (binary /2 only).
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

  /// Opens \p Path and, for /2 files, loads the shard index and footer by
  /// seeking to the fixed tail -- no event is decoded, so this is O(index)
  /// even on multi-gigabyte traces. On success index().Present is true,
  /// eventCount() and edgeSection() are valid, and the reader is
  /// exhausted (pull() returns 0); decode the events through openShard().
  /// /1 and text files come back with index().Present == false and the
  /// reader positioned for normal sequential pull() -- the caller decides
  /// whether to fall back to serial decode. A /2 file with a missing or
  /// damaged tail/index fails with Truncated/Corrupt, never silently.
  static std::unique_ptr<TraceReader> openFileIndexed(const std::string &Path);

  /// A decoder over chunks [\p FirstChunk, \p FirstChunk + \p NumChunks)
  /// of an indexed trace: seeks to the chunk's byte offset, seeds the
  /// delta decoder with the index's carried state, and decodes exactly
  /// the chunks' events. After the last event the reader cross-checks
  /// that decoding consumed precisely the bytes the index promised
  /// (Corrupt otherwise), so a damaged chunk cannot leak into a merge.
  /// reset() is unsupported on shard readers.
  static std::unique_ptr<TraceReader> openShard(const std::string &Path,
                                                const TraceShardIndex &Index,
                                                size_t FirstChunk,
                                                size_t NumChunks = 1);

  ~TraceReader() override;

  size_t pull(AccessEvent *Buf, size_t Max) override;
  uint32_t numSites() const override { return Sites; }
  /// Rewinds and re-parses the header. Works for file-backed and seekable
  /// borrowed streams; unsupported (returns false) for shard readers.
  bool reset() override;
  std::string describe() const override;

  bool ok() const { return ErrCode == TraceError::None; }
  TraceError errorCode() const { return ErrCode; }
  const std::string &error() const { return Err; }

  /// Header fields (valid when the constructor left ok() true).
  uint32_t version() const { return Version; }
  bool text() const { return IsText; }
  const TraceProvenance &provenance() const { return Prov; }

  /// Footer fields; valid only once the stream is exhausted cleanly
  /// (pull() returned 0 and ok() still holds) or after openFileIndexed().
  bool atEnd() const { return SawFooter; }
  uint64_t eventCount() const { return FooterEvents; }
  const TraceEdgeSection &edgeSection() const { return EdgeSec; }
  /// The shard index (Present only for /2 binary traces, populated once
  /// the footer has been parsed -- immediately for openFileIndexed()).
  const TraceShardIndex &index() const { return Index; }

private:
  struct ShardTag {};
  explicit TraceReader(ShardTag); ///< openShard's no-header constructor

  void fail(TraceError Code, const std::string &Message);
  bool fillBuf();
  int getByte(); ///< -1 at end of input
  bool getVarint(uint64_t &V);
  bool getZigzag(int64_t &V);
  /// Absolute file offset of the next byte getByte() would return.
  uint64_t tellAbs() const { return SeekBase + BufBase + InPos; }
  bool seekTo(uint64_t AbsOffset);
  bool parseHeader();
  bool parseBinaryHeader();
  bool parseTextHeader(const std::string &FirstLine);
  bool parseFooter();      ///< binary: sections + count + tail + end magic
  bool parseIndexSection();
  bool validateIndex();
  bool loadIndexFromTail();
  bool parseTextLine(const std::string &Line, AccessEvent &E, bool &IsEvent);
  bool readLine(std::string &Line);
  size_t pullBinary(AccessEvent *Buf, size_t Max);
  /// pullBinary's unchecked decoder: decodes up to \p Max well-formed
  /// events straight from the buffer while a worst-case record is
  /// buffered. Stops short of anything else (a buffer end, the end marker,
  /// a malformed record), which the checked getByte() path then takes.
  size_t decodeBuffered(AccessEvent *Buf, size_t Max);
  size_t pullText(AccessEvent *Buf, size_t Max);

  std::unique_ptr<std::istream> OwnedIS;
  std::istream *IS;
  std::string Name;
  std::string Path; ///< non-empty when file-backed (enables reset())

  TraceError ErrCode = TraceError::None;
  std::string Err;

  bool IsText = false;
  uint32_t Version = 0;
  uint32_t Sites = 0;
  TraceProvenance Prov;

  bool SawEndMarker = false;
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

  // Buffered binary input; SeekBase + BufBase + InPos is the absolute
  // offset of the next unconsumed byte (see tellAbs()).
  std::vector<uint8_t> InBuf;
  size_t InPos = 0;
  size_t InLen = 0;
  uint64_t SeekBase = 0;
  uint64_t BufBase = 0;

  // Text mode: one pushed-back line (the header parser reads one line too
  // many to find where provenance ends).
  std::string PendingLine;
  bool HasPending = false;
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
/// the site count is the highest site id seen plus one. Returns nullopt
/// and sets \p Error (naming the offending line) on malformed input or a
/// write failure.
std::optional<TraceImportResult> importAccessLog(std::istream &In,
                                                 const std::string &OutPath,
                                                 std::string *Error = nullptr);

} // namespace sprof

#endif // SPROF_STREAM_TRACEFILE_H
