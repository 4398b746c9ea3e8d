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
// marker, and parse the sections from there. Version-1 files are the same
// layout without the index section and without the u64 tail word.
//
//===----------------------------------------------------------------------===//

#include "stream/TraceFile.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace sprof {

static const char TraceMagic[8] = {'S', 'P', 'R', 'O', 'F', 'T', 'R', 'C'};
static const char TraceEndMagic[8] = {'S', 'P', 'R', 'O', 'F', 'E', 'N', 'D'};
static const char *TraceTextPrefix = "sprof.trace.text/";

static constexpr uint8_t TagEnd = 0x00;
static constexpr uint8_t TagLoad = 0x01;
static constexpr uint8_t TagPrefetch = 0x02;
static constexpr uint8_t SectionEnd = 0x00;
static constexpr uint8_t SectionEdges = 0x01;
static constexpr uint8_t SectionIndex = 0x02;

/// Bytes of the /2 seekable tail: u64 LE footer-start + "SPROFEND".
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

TraceWriter::TraceWriter(std::ostream &OS, uint32_t NumSites,
                         TraceProvenance Prov, bool Text,
                         uint64_t IndexInterval)
    : OS(&OS), Text(Text),
      Version(Text || IndexInterval == 0 ? 1 : TraceFormatVersion),
      IndexInterval(Text ? 0 : IndexInterval) {
  writeHeader(NumSites, Prov);
}

std::unique_ptr<TraceWriter> TraceWriter::open(const std::string &Path,
                                               uint32_t NumSites,
                                               TraceProvenance Prov, bool Text,
                                               std::string *Error,
                                               uint64_t IndexInterval) {
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
  auto W = std::make_unique<TraceWriter>(Ref, NumSites, std::move(Prov), Text,
                                         IndexInterval);
  W->OwnedFile = File.get();
  W->OwnedOS = std::move(File);
  return W;
}

TraceWriter::~TraceWriter() { finish(); }

const char *TraceWriter::schema() const {
  if (Text)
    return TraceTextSchemaV1;
  return Version >= 2 ? TraceSchemaV2 : TraceSchemaV1;
}

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
  if (Text) {
    std::string H = std::string(TraceTextSchemaV1) + "\n" +
                    "sites " + std::to_string(NumSites) + "\n";
    if (!Prov.Workload.empty())
      H += "workload " + Prov.Workload + "\n";
    if (!Prov.DataSet.empty())
      H += "dataset " + Prov.DataSet + "\n";
    if (!Prov.Method.empty())
      H += "method " + Prov.Method + "\n";
    putBytes(H.data(), H.size());
  } else {
    putBytes(TraceMagic, sizeof(TraceMagic));
    const uint32_t Words[2] = {Version, NumSites};
    for (uint32_t W : Words)
      for (int I = 0; I < 4; ++I)
        putByte(static_cast<uint8_t>(W >> (8 * I)));
    for (const std::string *S :
         {&Prov.Workload, &Prov.DataSet, &Prov.Method}) {
      putVarint(S->size());
      putBytes(S->data(), S->size());
    }
  }
  flushBuf();
}

void TraceWriter::onBatch(const AccessEvent *Events, size_t N) {
  if (Finished || Failed)
    return;
  if (Text) {
    char Line[96];
    for (size_t I = 0; I < N; ++I) {
      const AccessEvent &E = Events[I];
      const int Len = std::snprintf(
          Line, sizeof(Line), "%c %u %llu %llu\n",
          E.Kind == AccessKind::Prefetch ? 'P' : 'L', E.SiteId,
          static_cast<unsigned long long>(E.Address),
          static_cast<unsigned long long>(E.GlobalRefIndex));
      putBytes(Line, static_cast<size_t>(Len));
    }
  } else {
    // Encode through a pointer into room for the worst case, then trim.
    const size_t Start = Buf.size();
    Buf.resize(Start + N * TraceMaxEventBytes);
    uint8_t *const Base = Buf.data();
    uint8_t *P = Base + Start;
    for (size_t I = 0; I < N; ++I) {
      const AccessEvent &E = Events[I];
      if (IndexInterval != 0) {
        if (UntilChunk == 0) {
          // Chunk boundary: remember where this event starts and the
          // decoder state carried into it. NumBytes counts flushed bytes,
          // so the pending buffer is part of the offset.
          Index.push_back({NumBytes + static_cast<uint64_t>(P - Base),
                           NumEvents + I, NumLoads, PrevAddr, PrevRef,
                           PrevSite});
          UntilChunk = IndexInterval;
        }
        --UntilChunk;
        if (E.Kind != AccessKind::Prefetch)
          ++NumLoads;
      }
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
  }
  NumEvents += N;
  flushBuf();
}

void TraceWriter::finish() {
  if (Finished)
    return;
  Finished = true;
  if (Failed)
    return;
  if (Text) {
    std::string T = "end " + std::to_string(NumEvents) + "\n";
    if (EdgeSec.Present) {
      T += "edges " + std::to_string(EdgeSec.NumFunctions) + "\n";
      for (const TraceEntryRecord &R : EdgeSec.Entries)
        T += "entry " + std::to_string(R.Func) + " " +
             std::to_string(R.Count) + "\n";
      for (const TraceEdgeRecord &R : EdgeSec.Edges)
        T += "edge " + std::to_string(R.Func) + " " +
             std::to_string(R.From) + " " + std::to_string(R.Slot) + " " +
             std::to_string(R.Count) + "\n";
      T += "endedges\n";
    }
    T += "endtrace\n";
    putBytes(T.data(), T.size());
  } else {
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
    if (Version >= 2) {
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
    }
    putByte(SectionEnd);
    putVarint(NumEvents);
    if (Version >= 2)
      for (int I = 0; I < 8; ++I)
        putByte(static_cast<uint8_t>(FooterStart >> (8 * I)));
    putBytes(TraceEndMagic, sizeof(TraceEndMagic));
  }
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
  R->Path = Path;
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
  // /1 and text traces carry no seekable tail; hand them back positioned
  // for sequential decode, index().Present == false.
  if (!R->ok() || R->text() || R->version() < 2)
    return R;
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
  R->Version = TraceFormatVersion;
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

bool TraceReader::getZigzag(int64_t &V) {
  uint64_t U;
  if (!getVarint(U))
    return false;
  V = zigzagDecode(U);
  return true;
}

bool TraceReader::readLine(std::string &Line) {
  if (HasPending) {
    Line = std::move(PendingLine);
    HasPending = false;
    return true;
  }
  Line.clear();
  int B = getByte();
  if (B < 0)
    return false;
  while (B >= 0 && B != '\n') {
    Line.push_back(static_cast<char>(B));
    B = getByte();
  }
  return true;
}

bool TraceReader::parseHeader() {
  // Sniff: 8 magic bytes decide binary vs text vs foreign.
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
  if (std::memcmp(Head, TraceMagic, sizeof(TraceMagic)) == 0)
    return parseBinaryHeader();
  // Text form: the magic-sized prefix is the start of the schema line.
  std::string First(Head, sizeof(Head));
  {
    int B;
    while ((B = getByte()) >= 0 && B != '\n')
      First.push_back(static_cast<char>(B));
    if (B < 0) {
      fail(TraceError::BadMagic, "not an sprof trace (bad magic)");
      return false;
    }
  }
  if (First.rfind(TraceTextPrefix, 0) == 0)
    return parseTextHeader(First);
  fail(TraceError::BadMagic, "not an sprof trace (bad magic)");
  return false;
}

bool TraceReader::parseBinaryHeader() {
  IsText = false;
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
  Version = Words[0];
  Sites = Words[1];
  if (Version == 0 || Version > TraceFormatVersion) {
    fail(TraceError::VersionMismatch,
         "sprof.trace version " + std::to_string(Version) +
             " is not supported (newest supported is " +
             std::to_string(TraceFormatVersion) + ")");
    return false;
  }
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

bool TraceReader::parseTextHeader(const std::string &FirstLine) {
  IsText = true;
  const std::string Suffix = FirstLine.substr(std::strlen(TraceTextPrefix));
  Version = static_cast<uint32_t>(std::strtoul(Suffix.c_str(), nullptr, 10));
  if (Suffix != "1") {
    fail(TraceError::VersionMismatch,
         "sprof.trace.text version '" + Suffix + "' is not supported " +
             "(expected 1)");
    return false;
  }
  std::string Line;
  if (!readLine(Line) || Line.rfind("sites ", 0) != 0) {
    fail(TraceError::Corrupt, "text trace missing 'sites <n>' line");
    return false;
  }
  Sites = static_cast<uint32_t>(std::strtoul(Line.c_str() + 6, nullptr, 10));
  // Optional provenance lines; the first non-provenance line is pushed
  // back for the event decoder.
  while (readLine(Line)) {
    if (Line.rfind("workload ", 0) == 0)
      Prov.Workload = Line.substr(9);
    else if (Line.rfind("dataset ", 0) == 0)
      Prov.DataSet = Line.substr(8);
    else if (Line.rfind("method ", 0) == 0)
      Prov.Method = Line.substr(7);
    else {
      PendingLine = std::move(Line);
      HasPending = true;
      break;
    }
  }
  return true;
}

size_t TraceReader::pull(AccessEvent *Buf, size_t Max) {
  if (!ok() || SawFooter || Max == 0)
    return 0;
  return IsText ? pullText(Buf, Max) : pullBinary(Buf, Max);
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
    P = Q;
    Site = static_cast<uint32_t>(static_cast<int64_t>(Site) +
                                 zigzagDecode(DSite));
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

size_t TraceReader::pullBinary(AccessEvent *Buf, size_t Max) {
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
      SawEndMarker = true;
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
  if (Version < 2) {
    fail(TraceError::Corrupt, "shard-index section in a version-1 trace");
    return false;
  }
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
  if (NumChunks > (1u << 28)) {
    fail(TraceError::Corrupt, "unreasonable shard-index chunk count");
    return false;
  }
  Index.Present = true;
  Index.Interval = Interval;
  Index.Chunks.resize(NumChunks);
  for (TraceShardEntry &E : Index.Chunks) {
    uint64_t Site;
    if (!getVarint(E.ByteOffset) || !getVarint(E.CumEvents) ||
        !getVarint(E.CumLoads) || !getVarint(Site) ||
        !getVarint(E.PrevAddr) || !getVarint(E.PrevRef))
      return false;
    E.PrevSite = static_cast<uint32_t>(Site);
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
  // Sections until SectionEnd, then the event count, the /2 seekable
  // tail, and the end magic.
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
      EdgeSec.Entries.resize(NumEntries);
      for (TraceEntryRecord &R : EdgeSec.Entries) {
        uint64_t F;
        if (!getVarint(F) || !getVarint(R.Count))
          return false;
        R.Func = static_cast<uint32_t>(F);
      }
      uint64_t NumEdges;
      if (!getVarint(NumEdges))
        return false;
      EdgeSec.Edges.resize(NumEdges);
      for (TraceEdgeRecord &R : EdgeSec.Edges) {
        uint64_t F, From, Slot;
        if (!getVarint(F) || !getVarint(From) || !getVarint(Slot) ||
            !getVarint(R.Count))
          return false;
        R.Func = static_cast<uint32_t>(F);
        R.From = static_cast<uint32_t>(From);
        R.Slot = static_cast<uint32_t>(Slot);
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
  if (Version >= 2) {
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
  if (Version >= 2 && !Index.Present) {
    fail(TraceError::Corrupt, "version-2 trace without a shard index");
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
  // Smallest possible /2 footer: end marker, index section (tag +
  // interval + count + totalLoads), section end, count varint, tail.
  if (Size < EventsStart + 6 + TraceTailBytes) {
    fail(TraceError::Truncated, "file too short for a version-2 footer");
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
  SawEndMarker = true;
  IndexedOpen = true;
  return parseFooter();
}

bool TraceReader::parseTextLine(const std::string &Line, AccessEvent &E,
                                bool &IsEvent) {
  IsEvent = false;
  if (Line.empty() || Line[0] == '#')
    return true; // blank/comment lines are tolerated in the text form
  if (Line.size() > 2 && (Line[0] == 'L' || Line[0] == 'P') &&
      Line[1] == ' ') {
    unsigned long long Site, Addr, Ref;
    if (std::sscanf(Line.c_str() + 2, "%llu %llu %llu", &Site, &Addr, &Ref) !=
        3) {
      fail(TraceError::Corrupt, "malformed event line: '" + Line + "'");
      return false;
    }
    E.SiteId = static_cast<uint32_t>(Site);
    E.Address = Addr;
    E.GlobalRefIndex = Ref;
    E.Kind = Line[0] == 'P' ? AccessKind::Prefetch : AccessKind::Load;
    IsEvent = true;
    return true;
  }
  if (Line.rfind("end ", 0) == 0) {
    FooterEvents = std::strtoull(Line.c_str() + 4, nullptr, 10);
    if (FooterEvents != DecodedEvents) {
      fail(TraceError::Corrupt,
           "end-line event count " + std::to_string(FooterEvents) +
               " does not match the " + std::to_string(DecodedEvents) +
               " decoded events");
      return false;
    }
    SawEndMarker = true;
    // Optional edges block, then the required endtrace line.
    std::string L;
    if (!readLine(L)) {
      fail(TraceError::Truncated, "file ends before 'endtrace'");
      return false;
    }
    if (L.rfind("edges ", 0) == 0) {
      EdgeSec.Present = true;
      EdgeSec.NumFunctions =
          static_cast<uint32_t>(std::strtoul(L.c_str() + 6, nullptr, 10));
      for (;;) {
        if (!readLine(L)) {
          fail(TraceError::Truncated, "file ends inside the edges block");
          return false;
        }
        if (L == "endedges")
          break;
        unsigned long long A, B, C, D;
        if (std::sscanf(L.c_str(), "entry %llu %llu", &A, &B) == 2) {
          EdgeSec.Entries.push_back(
              {static_cast<uint32_t>(A), static_cast<uint64_t>(B)});
        } else if (std::sscanf(L.c_str(), "edge %llu %llu %llu %llu", &A, &B,
                               &C, &D) == 4) {
          EdgeSec.Edges.push_back({static_cast<uint32_t>(A),
                                   static_cast<uint32_t>(B),
                                   static_cast<uint32_t>(C),
                                   static_cast<uint64_t>(D)});
        } else {
          fail(TraceError::Corrupt, "malformed edges line: '" + L + "'");
          return false;
        }
      }
      if (!readLine(L)) {
        fail(TraceError::Truncated, "file ends before 'endtrace'");
        return false;
      }
    }
    if (L != "endtrace") {
      fail(TraceError::Corrupt, "expected 'endtrace', got '" + L + "'");
      return false;
    }
    SawFooter = true;
    return true;
  }
  fail(TraceError::Corrupt, "unrecognized line: '" + Line + "'");
  return false;
}

size_t TraceReader::pullText(AccessEvent *Buf, size_t Max) {
  size_t N = 0;
  std::string Line;
  while (N < Max && !SawFooter) {
    if (!readLine(Line)) {
      fail(TraceError::Truncated,
           "file ends before the 'end' marker (decoded " +
               std::to_string(DecodedEvents) + " events)");
      return 0;
    }
    bool IsEvent = false;
    if (!parseTextLine(Line, Buf[N], IsEvent))
      return 0;
    if (IsEvent) {
      ++N;
      ++DecodedEvents;
    }
  }
  return ok() ? N : 0;
}

bool TraceReader::reset() {
  if (ShardMode)
    return false;
  if (!Path.empty()) {
    auto File =
        std::make_unique<std::ifstream>(Path, std::ios::in | std::ios::binary);
    if (!*File)
      return false;
    OwnedIS = std::move(File);
    IS = OwnedIS.get();
  } else {
    IS->clear();
    IS->seekg(0);
    if (!*IS)
      return false;
  }
  ErrCode = TraceError::None;
  Err.clear();
  Prov = TraceProvenance();
  SawEndMarker = SawFooter = false;
  IndexedOpen = false;
  DecodedEvents = FooterEvents = 0;
  EdgeSec = TraceEdgeSection();
  Index = TraceShardIndex();
  EventsStart = FooterStart = 0;
  PrevAddr = PrevRef = 0;
  PrevSite = 0;
  InPos = InLen = 0;
  SeekBase = BufBase = 0;
  HasPending = false;
  PendingLine.clear();
  const bool Ok = parseHeader();
  EventsStart = tellAbs();
  return Ok;
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
    if (SiteS.empty() || *EndP != '\0' || Site > 0xffffffffull)
      return Fail("line " + std::to_string(LineNo) + ": bad site id '" +
                  SiteS + "'");
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
  auto W = TraceWriter::open(OutPath, R.NumSites, TraceProvenance{}, false,
                             &OpenErr);
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
