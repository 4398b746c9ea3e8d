//===- stream/TraceFile.cpp - sprof.trace/2 capture + replay --------------===//
//
// Part of the StrideProf project (see AccessStream.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
//
// Binary layout (sprof.trace/2; all multi-byte integers are LEB128 varints
// except the two fixed little-endian u32 header words and the fixed u64 of
// the seekable tail):
//
//   "SPROFTRC"  u32 version  u32 numSites
//   3 x (varint length + bytes): workload, dataset, method
//   events: tag byte (0x01 load, 0x02 prefetch), then zigzag varints of
//           the site, address, and global-ref deltas vs the previous event
//   0x00 end-of-events marker                      <-- "footer start"
//   sections: tag 0x01 = edge profile (varint numFunctions, entry records,
//             edge records),
//             tag 0x02 = shard index (varint interval, varint numChunks,
//             per chunk: byteOffset, cumEvents, cumLoads, prevSite,
//             prevAddr, prevRef varints; then varint totalLoads),
//             tag 0x00 = end of sections
//   varint event count (must match the decoded count)
//   u64 LE footer-start offset  "SPROFEND"         <-- 16-byte seekable tail
//
// The trailing marker + count is what makes truncation detectable: a
// partial file ends mid-varint or before the footer, never silently. The
// fixed-size tail is what makes the index reachable without decoding: seek
// to EOF-16, verify the end magic, follow the offset to the end-of-events
// marker, and parse the sections from there.
//
//===----------------------------------------------------------------------===//

#include "stream/TraceFile.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace sprof {

static const char TraceMagic[8] = {'S', 'P', 'R', 'O', 'F', 'T', 'R', 'C'};
static const char TraceEndMagic[8] = {'S', 'P', 'R', 'O', 'F', 'E', 'N', 'D'};

static constexpr uint8_t TagEnd = 0x00;
static constexpr uint8_t TagLoad = 0x01;
static constexpr uint8_t TagPrefetch = 0x02;
static constexpr uint8_t SectionEnd = 0x00;
static constexpr uint8_t SectionEdges = 0x01;
static constexpr uint8_t SectionIndex = 0x02;

/// Bytes of the seekable tail: u64 LE footer-start + "SPROFEND".
static constexpr uint64_t TraceTailBytes = 16;

const char *traceErrorName(TraceError E) {
  switch (E) {
  case TraceError::None:
    return "none";
  case TraceError::Io:
    return "io-error";
  case TraceError::BadMagic:
    return "bad-magic";
  case TraceError::VersionMismatch:
    return "version-mismatch";
  case TraceError::Truncated:
    return "truncated";
  case TraceError::Corrupt:
    return "corrupt";
  }
  return "unknown";
}

static uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

static int64_t zigzagDecode(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

/// Longest LEB128 encoding of a 64-bit value.
static constexpr size_t MaxVarintBytes = 10;
static_assert(TraceMaxEventBytes == 1 + 3 * MaxVarintBytes,
              "an event record is a tag byte and three varints");

/// Writes \p V as a LEB128 varint at \p P (room for MaxVarintBytes);
/// returns the byte after it.
static uint8_t *encodeVarint(uint8_t *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<uint8_t>(V) | 0x80;
    V >>= 7;
  }
  *P++ = static_cast<uint8_t>(V);
  return P;
}

/// Reads a LEB128 varint at \p P, which must have MaxVarintBytes readable
/// bytes. Returns the byte after it, or nullptr when the varint does not
/// fit 64 bits (a 10th byte above 0x01); the caller leaves such input to
/// the checked decoder, which reports it.
static const uint8_t *decodeVarint(const uint8_t *P, uint64_t &V) {
  uint64_t B = *P++;
  V = B & 0x7f;
  for (unsigned Shift = 7; B & 0x80; Shift += 7) {
    B = *P++;
    if (Shift == 63 && B > 1)
      return nullptr;
    V |= (B & 0x7f) << Shift;
  }
  return P;
}

//===----------------------------------------------------------------------===//
// TraceWriter
//===----------------------------------------------------------------------===//

/// Why a writer with these parameters would write a trace the reader
/// rejects; empty when they are valid.
static std::string writerParamError(uint32_t NumSites,
                                    uint64_t IndexInterval) {
  if (IndexInterval == 0)
    return "shard-index interval must be > 0";
  if (NumSites > TraceMaxSites)
    return std::to_string(NumSites) + " sites exceed the limit of " +
           std::to_string(TraceMaxSites);
  return {};
}

TraceWriter::TraceWriter(std::ostream &OS, uint32_t NumSites,
                         TraceProvenance Prov, uint64_t IndexInterval)
    : OS(&OS), IndexInterval(IndexInterval) {
  Err = writerParamError(NumSites, IndexInterval);
  if (!Err.empty()) {
    Failed = true;
    return;
  }
  writeHeader(NumSites, Prov);
}

std::unique_ptr<TraceWriter> TraceWriter::open(const std::string &Path,
                                               uint32_t NumSites,
                                               TraceProvenance Prov,
                                               bool Reserved,
                                               std::string *Error,
                                               uint64_t IndexInterval) {
  const std::string ParamErr =
      Reserved ? "the text trace format is retired; convert text access "
                 "logs with importAccessLog (sprof-inspect import)"
               : writerParamError(NumSites, IndexInterval);
  if (!ParamErr.empty()) {
    if (Error)
      *Error = "cannot write '" + Path + "': " + ParamErr;
    return nullptr;
  }
  auto File = std::make_unique<std::ofstream>(
      Path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!*File) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return nullptr;
  }
  // Borrow-constructor against the stream we are about to own; the moved
  // pointer keeps the stream alive for the writer's lifetime.
  std::ostream &Ref = *File;
  auto W = std::make_unique<TraceWriter>(Ref, NumSites, std::move(Prov),
                                         IndexInterval);
  W->OwnedFile = File.get();
  W->OwnedOS = std::move(File);
  return W;
}

TraceWriter::~TraceWriter() { finish(); }

void TraceWriter::putByte(uint8_t B) { Buf.push_back(B); }

void TraceWriter::putBytes(const void *Data, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Buf.insert(Buf.end(), P, P + N);
}

void TraceWriter::putVarint(uint64_t V) {
  uint8_t Bytes[MaxVarintBytes];
  putBytes(Bytes, static_cast<size_t>(encodeVarint(Bytes, V) - Bytes));
}

void TraceWriter::flushBuf() {
  if (Buf.empty() || Failed)
    return;
  OS->write(reinterpret_cast<const char *>(Buf.data()),
            static_cast<std::streamsize>(Buf.size()));
  if (!*OS) {
    Failed = true;
    Err = "write failure after " + std::to_string(NumBytes) +
          " bytes (disk full or sink closed?)";
    Buf.clear();
    return;
  }
  NumBytes += Buf.size();
  Buf.clear();
}

void TraceWriter::writeHeader(uint32_t NumSites, const TraceProvenance &Prov) {
  putBytes(TraceMagic, sizeof(TraceMagic));
  const uint32_t Words[2] = {TraceFormatVersion, NumSites};
  for (uint32_t W : Words)
    for (int I = 0; I < 4; ++I)
      putByte(static_cast<uint8_t>(W >> (8 * I)));
  for (const std::string *S : {&Prov.Workload, &Prov.DataSet, &Prov.Method}) {
    putVarint(S->size());
    putBytes(S->data(), S->size());
  }
  flushBuf();
}

void TraceWriter::onBatch(const AccessEvent *Events, size_t N) {
  if (Finished || Failed)
    return;
  // Encode through a pointer into room for the worst case, then trim.
  const size_t Start = Buf.size();
  Buf.resize(Start + N * TraceMaxEventBytes);
  uint8_t *const Base = Buf.data();
  uint8_t *P = Base + Start;
  for (size_t I = 0; I < N; ++I) {
    const AccessEvent &E = Events[I];
    if (UntilChunk == 0) {
      // Chunk boundary: remember where this event starts and the decoder
      // state carried into it. NumBytes counts flushed bytes, so the
      // pending buffer is part of the offset.
      Index.push_back({NumBytes + static_cast<uint64_t>(P - Base),
                       NumEvents + I, NumLoads, PrevAddr, PrevRef, PrevSite});
      UntilChunk = IndexInterval;
    }
    --UntilChunk;
    if (E.Kind != AccessKind::Prefetch)
      ++NumLoads;
    *P++ = E.Kind == AccessKind::Prefetch ? TagPrefetch : TagLoad;
    P = encodeVarint(P, zigzagEncode(static_cast<int64_t>(E.SiteId) -
                                     static_cast<int64_t>(PrevSite)));
    P = encodeVarint(P,
                     zigzagEncode(static_cast<int64_t>(E.Address - PrevAddr)));
    P = encodeVarint(
        P, zigzagEncode(static_cast<int64_t>(E.GlobalRefIndex - PrevRef)));
    PrevSite = E.SiteId;
    PrevAddr = E.Address;
    PrevRef = E.GlobalRefIndex;
  }
  Buf.resize(static_cast<size_t>(P - Base));
  NumEvents += N;
  flushBuf();
}

void TraceWriter::finish() {
  if (Finished)
    return;
  Finished = true;
  if (Failed)
    return;
  const uint64_t FooterStart = NumBytes + Buf.size();
  putByte(TagEnd);
  if (EdgeSec.Present) {
    putByte(SectionEdges);
    putVarint(EdgeSec.NumFunctions);
    putVarint(EdgeSec.Entries.size());
    for (const TraceEntryRecord &R : EdgeSec.Entries) {
      putVarint(R.Func);
      putVarint(R.Count);
    }
    putVarint(EdgeSec.Edges.size());
    for (const TraceEdgeRecord &R : EdgeSec.Edges) {
      putVarint(R.Func);
      putVarint(R.From);
      putVarint(R.Slot);
      putVarint(R.Count);
    }
  }
  putByte(SectionIndex);
  putVarint(IndexInterval);
  putVarint(Index.size());
  for (const TraceShardEntry &E : Index) {
    putVarint(E.ByteOffset);
    putVarint(E.CumEvents);
    putVarint(E.CumLoads);
    putVarint(E.PrevSite);
    putVarint(E.PrevAddr);
    putVarint(E.PrevRef);
  }
  putVarint(NumLoads);
  putByte(SectionEnd);
  putVarint(NumEvents);
  for (int I = 0; I < 8; ++I)
    putByte(static_cast<uint8_t>(FooterStart >> (8 * I)));
  putBytes(TraceEndMagic, sizeof(TraceEndMagic));
  flushBuf();
  OS->flush();
  if (!*OS && !Failed) {
    Failed = true;
    Err = "write failure flushing the footer after " +
          std::to_string(NumBytes) + " bytes";
  }
  // Deferred write errors (ENOSPC on buffered data) can surface only at
  // close; close the owned file here so they land in ok(), not in a
  // destructor that cannot report them.
  if (OwnedFile) {
    OwnedFile->close();
    if (OwnedFile->fail() && !Failed) {
      Failed = true;
      Err = "close failure after " + std::to_string(NumBytes) + " bytes";
    }
    OwnedFile = nullptr;
  }
}

//===----------------------------------------------------------------------===//
// TraceReader
//===----------------------------------------------------------------------===//

TraceReader::TraceReader(std::istream &IS, std::string Name)
    : IS(&IS), Name(std::move(Name)) {
  InBuf.resize(TraceReadBufferBytes);
  parseHeader();
  EventsStart = tellAbs();
}

TraceReader::TraceReader(ShardTag) : IS(nullptr), Name("<shard>") {
  InBuf.resize(TraceReadBufferBytes);
}

std::unique_ptr<TraceReader> TraceReader::openFile(const std::string &Path) {
  auto File =
      std::make_unique<std::ifstream>(Path, std::ios::in | std::ios::binary);
  const bool Open = static_cast<bool>(*File);
  std::istream &Ref = *File;
  // The borrowed-stream constructor parses the header; seed the failure
  // first so an unreadable file reports Io instead of BadMagic.
  auto R = std::unique_ptr<TraceReader>(new TraceReader(Ref, Path));
  R->OwnedIS = std::move(File);
  if (!Open) {
    // Overrides whatever the header parse diagnosed on the dead stream.
    R->ErrCode = TraceError::Io;
    R->Err = Path + ": cannot open for reading";
  }
  return R;
}

std::unique_ptr<TraceReader>
TraceReader::openFileIndexed(const std::string &Path) {
  auto R = openFile(Path);
  if (R->ok())
    R->loadIndexFromTail();
  return R;
}

std::unique_ptr<TraceReader> TraceReader::openShard(const std::string &Path,
                                                    const TraceShardIndex &Idx,
                                                    size_t FirstChunk,
                                                    size_t NumChunks) {
  auto R = std::unique_ptr<TraceReader>(new TraceReader(ShardTag{}));
  R->Name = Path + "[chunks " + std::to_string(FirstChunk) + ".." +
            std::to_string(FirstChunk + NumChunks) + ")";
  if (!Idx.Present || NumChunks == 0 || FirstChunk >= Idx.Chunks.size() ||
      NumChunks > Idx.Chunks.size() - FirstChunk) {
    R->fail(TraceError::Corrupt, "shard range outside the index");
    return R;
  }
  auto File =
      std::make_unique<std::ifstream>(Path, std::ios::in | std::ios::binary);
  if (!*File) {
    R->fail(TraceError::Io, "cannot open for reading");
    return R;
  }
  R->OwnedIS = std::move(File);
  R->IS = R->OwnedIS.get();
  const TraceShardEntry &E = Idx.Chunks[FirstChunk];
  const size_t LastChunk = FirstChunk + NumChunks - 1;
  R->Sites = Idx.NumSites;
  R->PrevSite = E.PrevSite;
  R->PrevAddr = E.PrevAddr;
  R->PrevRef = E.PrevRef;
  R->ShardMode = true;
  R->ShardMaxEvents = (Idx.chunkEndOffset(LastChunk) == Idx.FooterStart
                           ? Idx.TotalEvents
                           : Idx.Chunks[LastChunk + 1].CumEvents) -
                      E.CumEvents;
  R->ShardEndOffset = Idx.chunkEndOffset(LastChunk);
  if (!R->seekTo(E.ByteOffset))
    R->fail(TraceError::Io, "cannot seek to chunk byte offset " +
                                std::to_string(E.ByteOffset));
  return R;
}

TraceReader::~TraceReader() = default;

std::string TraceReader::describe() const {
  std::string D = Name;
  if (!Prov.Workload.empty()) {
    D += " (" + Prov.Workload;
    if (!Prov.DataSet.empty())
      D += "/" + Prov.DataSet;
    if (!Prov.Method.empty())
      D += "/" + Prov.Method;
    D += ")";
  }
  return D;
}

void TraceReader::fail(TraceError Code, const std::string &Message) {
  // First error wins; later failures are usually cascades of it.
  if (ErrCode != TraceError::None)
    return;
  ErrCode = Code;
  Err = Name + ": " + Message;
}

bool TraceReader::fillBuf() {
  if (InPos < InLen)
    return true;
  BufBase += InLen;
  IS->read(reinterpret_cast<char *>(InBuf.data()),
           static_cast<std::streamsize>(InBuf.size()));
  InLen = static_cast<size_t>(IS->gcount());
  InPos = 0;
  return InLen != 0;
}

int TraceReader::getByte() {
  if (!fillBuf())
    return -1;
  return InBuf[InPos++];
}

bool TraceReader::seekTo(uint64_t AbsOffset) {
  IS->clear();
  IS->seekg(static_cast<std::streamoff>(AbsOffset));
  if (!*IS)
    return false;
  SeekBase = AbsOffset;
  BufBase = 0;
  InPos = InLen = 0;
  return true;
}

bool TraceReader::getVarint(uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    const int B = getByte();
    if (B < 0) {
      fail(TraceError::Truncated, "file ends mid-varint");
      return false;
    }
    // The 10th byte holds bit 63 only; anything above it would be lost.
    if (Shift == 63 && B > 1)
      break;
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return true;
  }
  fail(TraceError::Corrupt, "varint longer than 64 bits");
  return false;
}

bool TraceReader::checkSite(uint64_t Site) {
  if (Site < Sites)
    return true;
  fail(TraceError::Corrupt,
       "event " + std::to_string(DecodedEvents) + " names site " +
           std::to_string(Site) + " but the header declares " +
           std::to_string(Sites) + " sites");
  return false;
}

bool TraceReader::getZigzag(int64_t &V) {
  uint64_t U;
  if (!getVarint(U))
    return false;
  V = zigzagDecode(U);
  return true;
}

bool TraceReader::parseHeader() {
  char Head[8];
  size_t Got = 0;
  while (Got < sizeof(Head)) {
    const int B = getByte();
    if (B < 0)
      break;
    Head[Got++] = static_cast<char>(B);
  }
  if (Got < sizeof(Head)) {
    if (Got == 0 && !*IS && IS->bad()) {
      fail(TraceError::Io, "read failure");
      return false;
    }
    fail(TraceError::BadMagic,
         "not an sprof trace (shorter than the 8-byte magic)");
    return false;
  }
  if (std::memcmp(Head, TraceMagic, sizeof(TraceMagic)) != 0) {
    fail(TraceError::BadMagic, "not an sprof trace (bad magic)");
    return false;
  }
  uint32_t Words[2];
  for (uint32_t &W : Words) {
    W = 0;
    for (int I = 0; I < 4; ++I) {
      const int B = getByte();
      if (B < 0) {
        fail(TraceError::Truncated, "file ends inside the header");
        return false;
      }
      W |= static_cast<uint32_t>(B) << (8 * I);
    }
  }
  if (Words[0] != TraceFormatVersion) {
    fail(TraceError::VersionMismatch,
         "sprof.trace version " + std::to_string(Words[0]) +
             " is not supported (only version " +
             std::to_string(TraceFormatVersion) + " is read)");
    return false;
  }
  // Bounded before anything is sized by it, like the strings below.
  if (Words[1] > TraceMaxSites) {
    fail(TraceError::Corrupt, "header declares " + std::to_string(Words[1]) +
                                  " sites; the limit is " +
                                  std::to_string(TraceMaxSites));
    return false;
  }
  Sites = Words[1];
  for (std::string *S : {&Prov.Workload, &Prov.DataSet, &Prov.Method}) {
    uint64_t Len;
    if (!getVarint(Len))
      return false;
    if (Len > (1u << 20)) {
      fail(TraceError::Corrupt, "unreasonable header string length");
      return false;
    }
    S->clear();
    for (uint64_t I = 0; I < Len; ++I) {
      const int B = getByte();
      if (B < 0) {
        fail(TraceError::Truncated, "file ends inside the header");
        return false;
      }
      S->push_back(static_cast<char>(B));
    }
  }
  return true;
}

size_t TraceReader::decodeBuffered(AccessEvent *Buf, size_t Max) {
  const uint8_t *const Base = InBuf.data();
  const uint8_t *P = Base + InPos;
  const uint8_t *const End = Base + InLen;
  uint32_t Site = PrevSite;
  uint64_t Addr = PrevAddr, Ref = PrevRef;
  size_t N = 0;
  while (N < Max && static_cast<size_t>(End - P) >= TraceMaxEventBytes) {
    const uint8_t Tag = *P;
    if (Tag != TagLoad && Tag != TagPrefetch)
      break;
    uint64_t DSite, DAddr, DRef;
    const uint8_t *Q = decodeVarint(P + 1, DSite);
    if (Q)
      Q = decodeVarint(Q, DAddr);
    if (Q)
      Q = decodeVarint(Q, DRef);
    if (!Q)
      break;
    const uint32_t NextSite =
        static_cast<uint32_t>(static_cast<int64_t>(Site) + zigzagDecode(DSite));
    if (NextSite >= Sites)
      break; // the checked path reports it
    P = Q;
    Site = NextSite;
    Addr += static_cast<uint64_t>(zigzagDecode(DAddr));
    Ref += static_cast<uint64_t>(zigzagDecode(DRef));
    Buf[N].Address = Addr;
    Buf[N].GlobalRefIndex = Ref;
    Buf[N].SiteId = Site;
    Buf[N].Kind = Tag == TagPrefetch ? AccessKind::Prefetch : AccessKind::Load;
    ++N;
  }
  InPos = static_cast<size_t>(P - Base);
  PrevSite = Site;
  PrevAddr = Addr;
  PrevRef = Ref;
  DecodedEvents += N;
  return N;
}

size_t TraceReader::pull(AccessEvent *Buf, size_t Max) {
  if (!ok() || SawFooter)
    return 0;
  size_t N = 0;
  while (N < Max) {
    if (ShardMode && DecodedEvents == ShardMaxEvents) {
      // Shard exhausted: the decode must land exactly on the boundary the
      // index promised, otherwise some chunk's bytes are inconsistent
      // with its carried state and the shard cannot be trusted.
      const uint64_t Pos = tellAbs();
      if (Pos != ShardEndOffset) {
        fail(TraceError::Corrupt,
             "shard decode ends at byte " + std::to_string(Pos) +
                 " but the index places the boundary at byte " +
                 std::to_string(ShardEndOffset));
        return 0;
      }
      FooterEvents = DecodedEvents;
      SawFooter = true;
      break;
    }
    size_t Want = Max - N;
    if (ShardMode)
      Want = static_cast<size_t>(
          std::min<uint64_t>(Want, ShardMaxEvents - DecodedEvents));
    if (const size_t Fast = decodeBuffered(Buf + N, Want)) {
      N += Fast;
      continue;
    }
    // Checked path, one event: the last TraceMaxEventBytes - 1 bytes of a
    // buffer, the end marker, and every malformed record, so each error
    // and its message come from one place.
    const int Tag = getByte();
    if (Tag < 0) {
      fail(TraceError::Truncated,
           "file ends before the end-of-events marker (decoded " +
               std::to_string(DecodedEvents) + " events)");
      return 0;
    }
    if (Tag == TagEnd) {
      if (ShardMode) {
        fail(TraceError::Corrupt,
             "end-of-events marker inside a shard after " +
                 std::to_string(DecodedEvents) + " of " +
                 std::to_string(ShardMaxEvents) + " events");
        return 0;
      }
      FooterStart = tellAbs() - 1;
      parseFooter();
      break;
    }
    if (Tag != TagLoad && Tag != TagPrefetch) {
      fail(TraceError::Corrupt,
           "invalid event tag " + std::to_string(Tag) + " after event " +
               std::to_string(DecodedEvents));
      return 0;
    }
    int64_t DSite, DAddr, DRef;
    if (!getZigzag(DSite) || !getZigzag(DAddr) || !getZigzag(DRef))
      return 0;
    PrevSite = static_cast<uint32_t>(static_cast<int64_t>(PrevSite) + DSite);
    if (!checkSite(PrevSite))
      return 0;
    PrevAddr += static_cast<uint64_t>(DAddr);
    PrevRef += static_cast<uint64_t>(DRef);
    Buf[N].Address = PrevAddr;
    Buf[N].GlobalRefIndex = PrevRef;
    Buf[N].SiteId = PrevSite;
    Buf[N].Kind = Tag == TagPrefetch ? AccessKind::Prefetch
                                     : AccessKind::Load;
    ++N;
    ++DecodedEvents;
  }
  return ok() ? N : 0;
}

bool TraceReader::parseIndexSection() {
  if (Index.Present) {
    fail(TraceError::Corrupt, "duplicate shard-index section");
    return false;
  }
  uint64_t Interval, NumChunks;
  if (!getVarint(Interval) || !getVarint(NumChunks))
    return false;
  if (Interval == 0) {
    fail(TraceError::Corrupt, "shard index with a zero chunk interval");
    return false;
  }
  Index.Present = true;
  Index.Interval = Interval;
  // The count is untrusted: entries are appended one at a time, as in the
  // edge section, so a lying count ends at Truncated.
  for (uint64_t I = 0; I != NumChunks; ++I) {
    TraceShardEntry E;
    uint64_t Site;
    if (!getVarint(E.ByteOffset) || !getVarint(E.CumEvents) ||
        !getVarint(E.CumLoads) || !getVarint(Site) ||
        !getVarint(E.PrevAddr) || !getVarint(E.PrevRef))
      return false;
    E.PrevSite = static_cast<uint32_t>(Site);
    Index.Chunks.push_back(E);
  }
  if (!getVarint(Index.TotalLoads))
    return false;
  Index.NumSites = Sites;
  return true;
}

bool TraceReader::validateIndex() {
  if (!Index.Present)
    return true;
  Index.TotalEvents = FooterEvents;
  Index.EventsStart = EventsStart;
  Index.FooterStart = FooterStart;
  // Every binary event record is at least 4 bytes (a tag and three
  // varints), so the event area bounds the count that parallel decode
  // allocates for.
  if (FooterEvents > (FooterStart - EventsStart) / 4) {
    fail(TraceError::Corrupt,
         "footer claims " + std::to_string(FooterEvents) +
             " events but the event area holds " +
             std::to_string(FooterStart - EventsStart) + " bytes");
    return false;
  }
  const uint64_t WantChunks =
      (FooterEvents + Index.Interval - 1) / Index.Interval;
  if (Index.Chunks.size() != WantChunks) {
    fail(TraceError::Corrupt,
         "shard index has " + std::to_string(Index.Chunks.size()) +
             " chunks; " + std::to_string(FooterEvents) + " events at " +
             std::to_string(Index.Interval) + "/chunk require " +
             std::to_string(WantChunks));
    return false;
  }
  if (Index.TotalLoads > FooterEvents) {
    fail(TraceError::Corrupt, "shard index counts more loads than events");
    return false;
  }
  for (size_t I = 0; I != Index.Chunks.size(); ++I) {
    const TraceShardEntry &E = Index.Chunks[I];
    if (E.CumEvents != I * Index.Interval) {
      fail(TraceError::Corrupt,
           "chunk " + std::to_string(I) + " claims cumulative event count " +
               std::to_string(E.CumEvents) + ", expected " +
               std::to_string(I * Index.Interval));
      return false;
    }
    if (E.CumLoads > E.CumEvents ||
        (I != 0 && E.CumLoads < Index.Chunks[I - 1].CumLoads)) {
      fail(TraceError::Corrupt,
           "chunk " + std::to_string(I) + " has an inconsistent load count");
      return false;
    }
    const uint64_t MinOffset =
        I == 0 ? EventsStart : Index.Chunks[I - 1].ByteOffset + 1;
    if (E.ByteOffset < MinOffset || E.ByteOffset >= FooterStart ||
        (I == 0 && E.ByteOffset != EventsStart)) {
      fail(TraceError::Corrupt,
           "chunk " + std::to_string(I) + " byte offset " +
               std::to_string(E.ByteOffset) + " is outside the event area");
      return false;
    }
    if (I == 0 && (E.PrevSite != 0 || E.PrevAddr != 0 || E.PrevRef != 0)) {
      fail(TraceError::Corrupt, "chunk 0 carries non-zero decoder state");
      return false;
    }
  }
  if (Index.TotalLoads <
      (Index.Chunks.empty() ? 0 : Index.Chunks.back().CumLoads)) {
    fail(TraceError::Corrupt, "shard index total loads below chunk counts");
    return false;
  }
  return true;
}

bool TraceReader::parseFooter() {
  // Sections until SectionEnd, then the event count, the seekable tail,
  // and the end magic.
  for (;;) {
    const int Tag = getByte();
    if (Tag < 0) {
      fail(TraceError::Truncated, "file ends inside the trailer sections");
      return false;
    }
    if (Tag == SectionEnd)
      break;
    if (Tag == SectionEdges) {
      uint64_t NumFuncs, NumEntries;
      if (!getVarint(NumFuncs) || !getVarint(NumEntries))
        return false;
      EdgeSec.Present = true;
      EdgeSec.NumFunctions = static_cast<uint32_t>(NumFuncs);
      // The counts are untrusted: records are appended one at a time, so
      // memory grows only with the bytes actually read and a lying count
      // ends at Truncated.
      EdgeSec.Entries.clear();
      for (uint64_t I = 0; I != NumEntries; ++I) {
        uint64_t F, Count;
        if (!getVarint(F) || !getVarint(Count))
          return false;
        EdgeSec.Entries.push_back({static_cast<uint32_t>(F), Count});
      }
      uint64_t NumEdges;
      if (!getVarint(NumEdges))
        return false;
      EdgeSec.Edges.clear();
      for (uint64_t I = 0; I != NumEdges; ++I) {
        uint64_t F, From, Slot, Count;
        if (!getVarint(F) || !getVarint(From) || !getVarint(Slot) ||
            !getVarint(Count))
          return false;
        EdgeSec.Edges.push_back({static_cast<uint32_t>(F),
                                 static_cast<uint32_t>(From),
                                 static_cast<uint32_t>(Slot), Count});
      }
      continue;
    }
    if (Tag == SectionIndex) {
      if (!parseIndexSection())
        return false;
      continue;
    }
    fail(TraceError::Corrupt,
         "unknown trailer section tag " + std::to_string(Tag));
    return false;
  }
  if (!getVarint(FooterEvents))
    return false;
  if (!IndexedOpen && FooterEvents != DecodedEvents) {
    fail(TraceError::Corrupt,
         "footer event count " + std::to_string(FooterEvents) +
             " does not match the " + std::to_string(DecodedEvents) +
             " decoded events");
    return false;
  }
  // The seekable tail's offset word; it must agree with where the
  // end-of-events marker actually was.
  uint64_t W = 0;
  for (int I = 0; I < 8; ++I) {
    const int B = getByte();
    if (B < 0) {
      fail(TraceError::Truncated, "file ends inside the seekable tail");
      return false;
    }
    W |= static_cast<uint64_t>(B) << (8 * I);
  }
  if (W != FooterStart) {
    fail(TraceError::Corrupt,
         "seekable-tail offset " + std::to_string(W) +
             " does not match the end-of-events marker at byte " +
             std::to_string(FooterStart));
    return false;
  }
  char End[8];
  for (char &C : End) {
    const int B = getByte();
    if (B < 0) {
      fail(TraceError::Truncated, "file ends before the end magic");
      return false;
    }
    C = static_cast<char>(B);
  }
  if (std::memcmp(End, TraceEndMagic, sizeof(TraceEndMagic)) != 0) {
    fail(TraceError::Corrupt, "bad end magic");
    return false;
  }
  if (!Index.Present) {
    fail(TraceError::Corrupt, "trace without a shard index");
    return false;
  }
  if (!validateIndex())
    return false;
  SawFooter = true;
  return true;
}

bool TraceReader::loadIndexFromTail() {
  // File size; the stream may already be mid-buffer, so re-anchor cleanly.
  IS->clear();
  IS->seekg(0, std::ios::end);
  if (!*IS) {
    fail(TraceError::Io, "cannot seek to the end of the file");
    return false;
  }
  const uint64_t Size = static_cast<uint64_t>(IS->tellg());
  // Smallest possible footer: end marker, index section (tag +
  // interval + count + totalLoads), section end, count varint, tail.
  if (Size < EventsStart + 6 + TraceTailBytes) {
    fail(TraceError::Truncated, "file too short for a trace footer");
    return false;
  }
  if (!seekTo(Size - TraceTailBytes)) {
    fail(TraceError::Io, "cannot seek to the trace tail");
    return false;
  }
  uint8_t Tail[TraceTailBytes];
  for (uint8_t &B : Tail) {
    const int V = getByte();
    if (V < 0) {
      fail(TraceError::Truncated, "file ends inside the seekable tail");
      return false;
    }
    B = static_cast<uint8_t>(V);
  }
  if (std::memcmp(Tail + 8, TraceEndMagic, sizeof(TraceEndMagic)) != 0) {
    fail(TraceError::Truncated,
         "missing the seekable tail (truncated or unfinished capture)");
    return false;
  }
  uint64_t Off = 0;
  for (int I = 0; I < 8; ++I)
    Off |= static_cast<uint64_t>(Tail[I]) << (8 * I);
  if (Off < EventsStart || Off > Size - TraceTailBytes - 3) {
    fail(TraceError::Corrupt,
         "seekable-tail offset " + std::to_string(Off) +
             " is outside the file");
    return false;
  }
  if (!seekTo(Off)) {
    fail(TraceError::Io, "cannot seek to the trace footer");
    return false;
  }
  const int Tag = getByte();
  if (Tag != TagEnd) {
    fail(TraceError::Corrupt,
         "seekable tail does not point at the end-of-events marker");
    return false;
  }
  FooterStart = Off;
  IndexedOpen = true;
  return parseFooter();
}

//===----------------------------------------------------------------------===//
// importAccessLog
//===----------------------------------------------------------------------===//

std::optional<TraceImportResult>
importAccessLog(std::istream &In, const std::string &OutPath,
                std::string *Error) {
  auto Fail = [&](const std::string &M) -> std::optional<TraceImportResult> {
    if (Error)
      *Error = M;
    return std::nullopt;
  };

  // Pass 1: parse everything into memory. The trace header needs the site
  // count up front, and an importer stub has no business streaming
  // multi-gigabyte logs anyway.
  std::vector<AccessEvent> Events;
  uint32_t MaxSite = 0;
  TraceImportResult R;
  std::string Line;
  for (uint64_t LineNo = 1; std::getline(In, Line); ++LineNo) {
    // Trim whitespace and skip blanks/comments.
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos || Line[B] == '#')
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    const std::string L = Line.substr(B, E - B + 1);

    // addr,site,kind -- split on the two commas.
    const size_t C1 = L.find(',');
    const size_t C2 = C1 == std::string::npos ? std::string::npos
                                              : L.find(',', C1 + 1);
    if (C2 == std::string::npos)
      return Fail("line " + std::to_string(LineNo) +
                  ": expected 'addr,site,kind', got '" + L + "'");
    auto Field = [&](size_t From, size_t To) {
      size_t S = L.find_first_not_of(" \t", From);
      size_t T = L.find_last_not_of(" \t", To - 1);
      return (S == std::string::npos || S > T) ? std::string()
                                               : L.substr(S, T - S + 1);
    };
    const std::string AddrS = Field(0, C1);
    const std::string SiteS = Field(C1 + 1, C2);
    std::string KindS = Field(C2 + 1, L.size());
    for (char &C : KindS)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));

    char *EndP = nullptr;
    const unsigned long long Addr = std::strtoull(AddrS.c_str(), &EndP, 0);
    if (AddrS.empty() || *EndP != '\0')
      return Fail("line " + std::to_string(LineNo) + ": bad address '" +
                  AddrS + "'");
    const unsigned long long Site = std::strtoull(SiteS.c_str(), &EndP, 10);
    if (SiteS.empty() || !std::isdigit(static_cast<unsigned char>(SiteS[0])) ||
        *EndP != '\0')
      return Fail("line " + std::to_string(LineNo) + ": bad site id '" +
                  SiteS + "'");
    if (Site >= TraceMaxSites)
      return Fail("line " + std::to_string(LineNo) + ": site id " + SiteS +
                  " is at or above the limit of " +
                  std::to_string(TraceMaxSites) + " sites");
    AccessKind Kind;
    if (KindS == "l" || KindS == "load")
      Kind = AccessKind::Load;
    else if (KindS == "p" || KindS == "prefetch")
      Kind = AccessKind::Prefetch;
    else
      return Fail("line " + std::to_string(LineNo) + ": bad kind '" + KindS +
                  "' (want L/load or P/prefetch)");

    AccessEvent Ev;
    Ev.Address = Addr;
    Ev.SiteId = static_cast<uint32_t>(Site);
    // The log has no global reference counter; synthesize the running
    // 1-based event count so use-distance statistics stay meaningful.
    Ev.GlobalRefIndex = Events.size() + 1;
    Ev.Kind = Kind;
    Events.push_back(Ev);
    MaxSite = std::max(MaxSite, Ev.SiteId);
    if (Kind == AccessKind::Load)
      ++R.Loads;
    else
      ++R.Prefetches;
  }
  if (In.bad())
    return Fail("read failure in the input log");

  R.Events = Events.size();
  R.NumSites = Events.empty() ? 0 : MaxSite + 1;

  std::string OpenErr;
  auto W = TraceWriter::open(OutPath, R.NumSites, TraceProvenance{},
                             /*Reserved=*/false, &OpenErr);
  if (!W)
    return Fail(OpenErr);
  if (!Events.empty())
    W->onBatch(Events.data(), Events.size());
  W->finish();
  if (!W->ok())
    return Fail(OutPath + ": " + W->error());
  R.Bytes = W->bytesWritten();
  return R;
}

} // namespace sprof
