//===- tests/test_stream.cpp - Access-stream and trace capture/replay ------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream layer's contract: trace files round-trip every event bit for
/// bit (including the ring-boundary batch sizes), read errors come back as
/// precise TraceError codes, the synthetic generators are deterministic,
/// and -- the load-bearing guarantee -- replaying a capture of a live
/// profile run reproduces the stride profile, classifier verdicts, timed-run
/// accounting, and attribution counters bit-identically to the run that
/// produced it, for every profiling method on both engines.
///
//===----------------------------------------------------------------------===//

#include "driver/ParallelReplay.h"
#include "driver/Pipeline.h"
#include "driver/TraceReplay.h"
#include "interp/Interpreter.h"
#include "obs/Report.h"
#include "profile/ProfileData.h"
#include "profile/ProfileStore.h"
#include "profile/StrideProfiler.h"
#include "stream/AccessStream.h"
#include "stream/SyntheticTrace.h"
#include "stream/TraceFile.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace sprof;

namespace {

PipelineConfig engineConfig(InterpreterConfig::Engine E) {
  PipelineConfig C;
  C.Interp.Exec = E;
  return C;
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// Pulls a source dry with a batch size that is coprime to the writer's
/// internal batching, so reader batches straddle writer batches.
std::vector<AccessEvent> drainAll(AccessSource &Src) {
  std::vector<AccessEvent> Out;
  AccessEvent Buf[97];
  while (size_t N = Src.pull(Buf, 97))
    Out.insert(Out.end(), Buf, Buf + N);
  return Out;
}

void expectSameEvents(const std::vector<AccessEvent> &Want,
                      const std::vector<AccessEvent> &Got) {
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    SCOPED_TRACE("event " + std::to_string(I));
    EXPECT_EQ(Want[I].Address, Got[I].Address);
    EXPECT_EQ(Want[I].GlobalRefIndex, Got[I].GlobalRefIndex);
    EXPECT_EQ(Want[I].SiteId, Got[I].SiteId);
    EXPECT_EQ(Want[I].Kind, Got[I].Kind);
  }
}

/// A delta-encoder stress pattern: several interleaved sites, forward and
/// backward address deltas, occasional unknown ref indices, and a
/// prefetch-kind event every 16th entry.
std::vector<AccessEvent> patternEvents(size_t N) {
  std::vector<AccessEvent> Events;
  Events.reserve(N);
  uint64_t Addr = 0x100000;
  for (size_t I = 0; I != N; ++I) {
    AccessEvent E;
    Addr = I % 3 == 0 ? Addr - 48 : Addr + 64;
    E.Address = Addr;
    E.GlobalRefIndex = I % 11 == 0 ? 0 : I + 1;
    E.SiteId = static_cast<uint32_t>(I % 5);
    E.Kind = I % 16 == 9 ? AccessKind::Prefetch : AccessKind::Load;
    Events.push_back(E);
  }
  return Events;
}

/// The trace file \p Events encode to, one batch, no edge section.
std::string encodeTrace(const std::vector<AccessEvent> &Events,
                        uint32_t NumSites) {
  std::stringstream SS;
  TraceWriter W(SS, NumSites);
  W.onBatch(Events.data(), Events.size());
  W.finish();
  EXPECT_TRUE(W.ok()) << W.error();
  return SS.str();
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The absolute offset of \p Bytes' end-of-events marker, read from the
/// seekable tail's u64 word.
uint64_t footerStart(const std::string &Bytes) {
  uint64_t Off = 0;
  for (int I = 0; I != 8; ++I)
    Off |= static_cast<uint64_t>(static_cast<uint8_t>(
               Bytes[Bytes.size() - 16 + static_cast<size_t>(I)]))
           << (8 * I);
  return Off;
}

/// Writes \p Events through a string-backed TraceWriter and decodes them
/// back, checking header and footer metadata along the way.
std::vector<AccessEvent> roundTrip(const std::vector<AccessEvent> &Events,
                                   uint32_t NumSites) {
  std::stringstream SS;
  const TraceProvenance Prov{"unit.workload", "train", "edge-check"};
  {
    TraceWriter W(SS, NumSites, Prov);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    EXPECT_TRUE(W.ok()) << W.error();
    EXPECT_EQ(W.eventsWritten(), Events.size());
    EXPECT_GT(W.bytesWritten(), 0u);
  }
  TraceReader R(SS);
  EXPECT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.numSites(), NumSites);
  EXPECT_EQ(R.provenance().Workload, Prov.Workload);
  EXPECT_EQ(R.provenance().DataSet, Prov.DataSet);
  EXPECT_EQ(R.provenance().Method, Prov.Method);
  std::vector<AccessEvent> Out = drainAll(R);
  EXPECT_TRUE(R.ok()) << R.error();
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(R.eventCount(), Events.size());
  return Out;
}

/// Every RunStats field, so a replay divergence names the broken bucket.
void expectSameStats(const RunStats &Live, const RunStats &Replayed) {
  EXPECT_EQ(Live.Completed, Replayed.Completed);
  EXPECT_EQ(Live.Instructions, Replayed.Instructions);
  EXPECT_EQ(Live.Cycles, Replayed.Cycles);
  EXPECT_EQ(Live.BaseCycles, Replayed.BaseCycles);
  EXPECT_EQ(Live.MemStallCycles, Replayed.MemStallCycles);
  EXPECT_EQ(Live.InstrumentationCycles, Replayed.InstrumentationCycles);
  EXPECT_EQ(Live.RuntimeCycles, Replayed.RuntimeCycles);
  EXPECT_EQ(Live.LoadRefs, Replayed.LoadRefs);
  EXPECT_EQ(Live.SiteCounts, Replayed.SiteCounts);
  EXPECT_EQ(Live.ExitValue, Replayed.ExitValue);
  ASSERT_EQ(Live.Mem.Levels.size(), Replayed.Mem.Levels.size());
  for (size_t L = 0; L != Live.Mem.Levels.size(); ++L) {
    EXPECT_EQ(Live.Mem.Levels[L].Hits, Replayed.Mem.Levels[L].Hits);
    EXPECT_EQ(Live.Mem.Levels[L].Misses, Replayed.Mem.Levels[L].Misses);
  }
  EXPECT_EQ(Live.Mem.DemandAccesses, Replayed.Mem.DemandAccesses);
  EXPECT_EQ(Live.Mem.PrefetchesIssued, Replayed.Mem.PrefetchesIssued);
}

} // namespace

//===----------------------------------------------------------------------===//
// Trace-file round-trips
//===----------------------------------------------------------------------===//

TEST(TraceFile, EmptyRoundTrip) { expectSameEvents({}, roundTrip({}, 4)); }

TEST(TraceFile, SingleEventRoundTrip) {
  AccessEvent E;
  E.Address = 0xdeadbeef12345678ull;
  E.GlobalRefIndex = 42;
  E.SiteId = 7;
  E.Kind = AccessKind::Prefetch;
  expectSameEvents({E}, roundTrip({E}, 8));
}

// The sizes that straddle the engines' stride-event ring (and the writer's
// internal batch): one below, exactly at, one above the default 256 window.
TEST(TraceFile, RingBoundaryRoundTrip) {
  for (size_t N : {size_t(255), size_t(256), size_t(257), size_t(1000)}) {
    SCOPED_TRACE(N);
    const std::vector<AccessEvent> Events = patternEvents(N);
    expectSameEvents(Events, roundTrip(Events, 5));
  }
}

TEST(TraceFile, EdgeSectionRoundTrip) {
  EdgeProfile EP(2);
  EP.setEntryCount(0, 3);
  EP.setEntryCount(1, 41);
  EP.setFrequency(0, Edge{0, 0}, 17);
  EP.setFrequency(0, Edge{2, 1}, 0);
  EP.setFrequency(1, Edge{1, 0}, 9);
  const TraceEdgeSection S = edgeSectionFromProfile(EP);

  std::stringstream SS;
  {
    TraceWriter W(SS, 1);
    W.setEdgeSection(S);
    AccessEvent E;
    E.Address = 0x2000;
    W.onBatch(&E, 1);
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
  }
  TraceReader R(SS);
  AccessEvent Buf[8];
  EXPECT_EQ(R.pull(Buf, 8), 1u);
  EXPECT_EQ(R.pull(Buf, 8), 0u);
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_TRUE(R.edgeSection().Present);
  const EdgeProfile Back = edgeProfileFromSection(R.edgeSection());
  EXPECT_EQ(edgeProfileToJson(Back).str(), edgeProfileToJson(EP).str());
}

//===----------------------------------------------------------------------===//
// The shard index: seekable open and independent chunk decode
//===----------------------------------------------------------------------===//

TEST(TraceFile, ShardIndexRoundTripAndShardDecode) {
  const std::string Path = tmpPath("indexed.sprof.trace");
  const std::vector<AccessEvent> Events = patternEvents(1000);
  size_t Loads = 0;
  for (const AccessEvent &E : Events)
    Loads += E.Kind == AccessKind::Load;
  {
    std::string Err;
    auto W = TraceWriter::open(Path, 5, {}, /*Reserved=*/false, &Err,
                               /*IndexInterval=*/64);
    ASSERT_NE(W, nullptr) << Err;
    W->onBatch(Events.data(), Events.size());
    W->finish();
    ASSERT_TRUE(W->ok()) << W->error();
  }

  // Sequential decode still works and sees the index once the footer is in.
  {
    auto R = TraceReader::openFile(Path);
    ASSERT_TRUE(R->ok()) << R->error();
    expectSameEvents(Events, drainAll(*R));
    ASSERT_TRUE(R->ok()) << R->error();
    EXPECT_TRUE(R->index().Present);
  }

  // Indexed open reaches the footer without decoding any event.
  auto R = TraceReader::openFileIndexed(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  EXPECT_TRUE(R->atEnd());
  const TraceShardIndex &Idx = R->index();
  ASSERT_TRUE(Idx.Present);
  EXPECT_EQ(Idx.Interval, 64u);
  EXPECT_EQ(Idx.TotalEvents, Events.size());
  EXPECT_EQ(Idx.TotalLoads, Loads);
  EXPECT_EQ(Idx.numChunks(), (Events.size() + 63) / 64);
  EXPECT_EQ(Idx.Chunks[0].CumEvents, 0u);
  EXPECT_EQ(Idx.Chunks[0].PrevAddr, 0u);

  // Every chunk range decodes exactly its slice of the stream, from any
  // starting chunk, with no context from earlier chunks.
  for (size_t First = 0; First < Idx.numChunks(); First += 3) {
    SCOPED_TRACE("first chunk " + std::to_string(First));
    const size_t N = std::min<size_t>(3, Idx.numChunks() - First);
    auto SR = TraceReader::openShard(Path, Idx, First, N);
    ASSERT_TRUE(SR->ok()) << SR->error();
    const std::vector<AccessEvent> Got = drainAll(*SR);
    ASSERT_TRUE(SR->ok()) << SR->error();
    EXPECT_TRUE(SR->atEnd());
    const size_t Base = First * 64;
    const size_t Want = std::min<size_t>(Events.size() - Base, N * 64);
    ASSERT_EQ(Got.size(), Want);
    expectSameEvents({Events.begin() + Base, Events.begin() + Base + Want},
                     Got);
  }

  // A shard range outside the index is rejected, not clamped.
  auto Bad = TraceReader::openShard(Path, Idx, Idx.numChunks(), 1);
  EXPECT_FALSE(Bad->ok());
  EXPECT_EQ(Bad->errorCode(), TraceError::Corrupt);
  std::remove(Path.c_str());
}

// sprof.trace/2 is the only container read. The retired index-free /1
// container is a version mismatch that names its version, on both opens,
// and the retired text twin is not an sprof trace at all.
TEST(TraceFile, RetiredContainersAreRejected) {
  std::string V1 = encodeTrace(patternEvents(300), 5);
  V1[8] = 0x01; // first byte of the little-endian version word
  const std::string Text = "sprof.trace.text/1\nsites 1\nL 0 4096 1\n"
                           "end 1\nendtrace\n";
  const std::string Path = tmpPath("retired.sprof.trace");
  for (const bool Indexed : {false, true}) {
    SCOPED_TRACE(Indexed ? "openFileIndexed" : "openFile");
    auto Open = [&] {
      return Indexed ? TraceReader::openFileIndexed(Path)
                     : TraceReader::openFile(Path);
    };
    writeBytes(Path, V1);
    auto R1 = Open();
    EXPECT_EQ(R1->errorCode(), TraceError::VersionMismatch);
    EXPECT_EQ(R1->error(), Path + ": sprof.trace version 1 is not supported "
                                  "(only version 2 is read)");
    writeBytes(Path, Text);
    auto RT = Open();
    EXPECT_EQ(RT->errorCode(), TraceError::BadMagic) << RT->error();
  }
  std::remove(Path.c_str());
}

// The writer writes only what the reader reads: a zero index interval, a
// site count above TraceMaxSites, and the reserved open() flag each fail it
// before a byte is written.
TEST(TraceFile, WriterRejectsParametersTheReaderWouldNot) {
  std::stringstream SS;
  {
    TraceWriter Zero(SS, 5, {}, /*IndexInterval=*/0);
    EXPECT_FALSE(Zero.ok());
    TraceWriter Wide(SS, TraceMaxSites + 1);
    EXPECT_FALSE(Wide.ok());
    EXPECT_NE(Wide.error().find("exceed the limit"), std::string::npos)
        << Wide.error();
  }
  EXPECT_TRUE(SS.str().empty());

  const std::string Path = tmpPath("rejected.sprof.trace");
  std::remove(Path.c_str());
  std::string Err;
  EXPECT_EQ(TraceWriter::open(Path, 5, {}, /*Reserved=*/true, &Err), nullptr);
  EXPECT_NE(Err.find("importAccessLog"), std::string::npos) << Err;
  EXPECT_EQ(TraceWriter::open(Path, 5, {}, /*Reserved=*/false, &Err,
                              /*IndexInterval=*/0),
            nullptr);
  EXPECT_NE(Err.find("interval"), std::string::npos) << Err;
  EXPECT_EQ(TraceWriter::open(Path, TraceMaxSites + 1, {}, false, &Err),
            nullptr);
  EXPECT_FALSE(std::ifstream(Path).good()) << "a rejected open created "
                                           << Path;

  // The bound itself is a valid header.
  AccessEvent E;
  E.SiteId = TraceMaxSites - 1;
  expectSameEvents({E}, roundTrip({E}, TraceMaxSites));
}

//===----------------------------------------------------------------------===//
// Reader error paths
//===----------------------------------------------------------------------===//

TEST(TraceFile, MissingFileIsAnIoError) {
  auto R = TraceReader::openFile(tmpPath("no_such_trace.sprof.trace"));
  ASSERT_NE(R, nullptr);
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->errorCode(), TraceError::Io);
  AccessEvent Buf[4];
  EXPECT_EQ(R->pull(Buf, 4), 0u);
}

TEST(TraceFile, ForeignBytesAreABadMagicError) {
  std::stringstream SS("{\"schema\": \"not a trace\"}\n");
  TraceReader R(SS);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.errorCode(), TraceError::BadMagic);
}

TEST(TraceFile, UnknownVersionIsAVersionMismatch) {
  std::stringstream SS;
  {
    TraceWriter W(SS, 2);
    const std::vector<AccessEvent> Events = patternEvents(4);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok());
  }
  std::string Data = SS.str();
  Data[8] = 0x63; // first byte of the little-endian version word
  std::istringstream Patched(Data);
  TraceReader R(Patched);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.errorCode(), TraceError::VersionMismatch);
}

TEST(TraceFile, CutStreamsAreTruncationErrors) {
  std::stringstream SS;
  {
    TraceWriter W(SS, 5);
    const std::vector<AccessEvent> Events = patternEvents(500);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok());
  }
  const std::string Data = SS.str();
  // Cut mid-events and cut inside the footer; both must be diagnosed as
  // truncation, not silently served as a shorter trace.
  for (size_t Keep : {Data.size() / 2, Data.size() - 9}) {
    SCOPED_TRACE("keep " + std::to_string(Keep));
    std::istringstream Cut(Data.substr(0, Keep));
    TraceReader R(Cut);
    ASSERT_TRUE(R.ok()) << R.error();
    drainAll(R);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.errorCode(), TraceError::Truncated);
    EXPECT_FALSE(R.atEnd());
  }
}

//===----------------------------------------------------------------------===//
// Codec fast paths: the pointer-based encoder and the unchecked decoder
//===----------------------------------------------------------------------===//

namespace {

uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Encodes \p Events one per batch -- the writer flushes every batch -- and
/// records where each event's record ends in the returned file bytes.
std::string encodeWithEnds(const std::vector<AccessEvent> &Events,
                           uint32_t NumSites, const TraceProvenance &Prov,
                           std::vector<uint64_t> &Ends) {
  std::stringstream SS;
  TraceWriter W(SS, NumSites, Prov);
  Ends.clear();
  for (const AccessEvent &E : Events) {
    W.onBatch(&E, 1);
    Ends.push_back(W.bytesWritten());
  }
  W.finish();
  EXPECT_TRUE(W.ok()) << W.error();
  return SS.str();
}

/// Records of every size the encoder produces, up to the widest real one:
/// small strides, site jumps across the whole TraceMaxSites range, and
/// address and ref deltas that need all ten varint bytes (a 10th byte of
/// 0x01, the largest legal one).
std::vector<AccessEvent> mixedWidthEvents(size_t N) {
  std::vector<AccessEvent> Events;
  Events.reserve(N);
  uint64_t Addr = 0x1000, Ref = 0;
  for (size_t I = 0; I != N; ++I) {
    AccessEvent E;
    switch (I % 7) {
    case 0:
    case 1:
    case 2:
      Addr += 8 * (I % 3 + 1);
      break;
    case 3:
      Addr ^= 0x8000000000000000ULL;
      break;
    case 4:
      Addr += 0x123456789ULL;
      break;
    default:
      Addr -= 4096;
      break;
    }
    Ref = I % 5 == 4 ? Ref ^ 0x8000000000000000ULL : Ref + 1;
    E.Address = Addr;
    E.GlobalRefIndex = Ref;
    E.SiteId = I % 11 == 10 ? TraceMaxSites - 1 : static_cast<uint32_t>(I % 4);
    E.Kind = I % 13 == 6 ? AccessKind::Prefetch : AccessKind::Load;
    Events.push_back(E);
  }
  return Events;
}

/// A hand-built /2 header: magic, version, site count, and the three
/// provenance strings with the workload name \p Workload.
std::string binaryHeader(uint32_t NumSites, const std::string &Workload) {
  std::string H = "SPROFTRC";
  for (const uint32_t W : {TraceFormatVersion, NumSites})
    for (int I = 0; I != 4; ++I)
      H.push_back(static_cast<char>(W >> (8 * I)));
  EXPECT_LT(Workload.size(), 128u);
  H.push_back(static_cast<char>(Workload.size()));
  H += Workload;
  H.append(2, '\0'); // empty data set and method
  return H;
}

} // namespace

// The writer's byte stream is a format contract (shard indexes and pinned
// fixtures hold byte offsets into it): this hash was taken from the
// byte-at-a-time encoder that preceded the pointer-based one.
TEST(TraceFile, EncodedBytesArePinned) {
  SyntheticTraceConfig Config;
  Config.Events = 100000;
  Config.Seed = 5;
  auto Src = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Src, nullptr);
  std::stringstream SS;
  TraceWriter W(SS, Src->numSites());
  drainStream(*Src, W);
  ASSERT_TRUE(W.ok()) << W.error();
  const std::string Bytes = SS.str();
  EXPECT_EQ(Bytes.size(), 651643u);
  EXPECT_EQ(fnv1a(Bytes), 0xc3b41b329fed3f55ULL);
}

// The decoder switches from its unchecked to its checked path for the last
// TraceMaxEventBytes of each buffer. Growing the header one byte at a time
// slides the records past the refill, so some record ends at every offset
// of that tail, and each must still decode exactly.
TEST(TraceFile, FastPathStraddlesRefills) {
  const std::vector<AccessEvent> Events = mixedWidthEvents(20000);
  std::vector<bool> Covered(TraceMaxEventBytes + 1, false);
  for (size_t Pad = 0; Pad <= TraceMaxEventBytes; ++Pad) {
    SCOPED_TRACE("header pad " + std::to_string(Pad));
    std::vector<uint64_t> Ends;
    const std::string Bytes = encodeWithEnds(
        Events, TraceMaxSites, {std::string(Pad, 'w'), "", ""}, Ends);
    for (const uint64_t End : Ends)
      for (const uint64_t Refill :
           {TraceReadBufferBytes, 2 * TraceReadBufferBytes})
        if (End <= Refill && Refill - End <= TraceMaxEventBytes)
          Covered[Refill - End] = true;
    ASSERT_GT(Bytes.size(), 2 * TraceReadBufferBytes);
    std::istringstream In(Bytes);
    TraceReader R(In);
    ASSERT_TRUE(R.ok()) << R.error();
    expectSameEvents(Events, drainAll(R));
    EXPECT_TRUE(R.ok()) << R.error();
    EXPECT_TRUE(R.atEnd());
  }
  for (size_t Gap = 0; Gap != Covered.size(); ++Gap)
    EXPECT_TRUE(Covered[Gap]) << "no record ends " << Gap
                              << " bytes before a refill";
}

// A cut at a record boundary is a truncation with the exact number of whole
// events before it, whichever path decoded them and however the caller
// batches its pulls; a cut inside a record is a truncation mid-varint.
TEST(TraceFile, TruncationInsideTheFastRegionKeepsItsEventCount) {
  const std::vector<AccessEvent> Events = patternEvents(30000);
  std::vector<uint64_t> Ends;
  const std::string Bytes = encodeWithEnds(Events, 5, {}, Ends);
  ASSERT_GT(Bytes.size(), 2 * TraceReadBufferBytes);
  // Record boundaries deep inside the first and the second buffer.
  for (const uint64_t Target :
       {TraceReadBufferBytes / 2, TraceReadBufferBytes * 3 / 2}) {
    const size_t K = static_cast<size_t>(
        std::lower_bound(Ends.begin(), Ends.end(), Target) - Ends.begin());
    ASSERT_LT(K, Ends.size());
    for (const bool MidRecord : {false, true}) {
      const size_t Keep = static_cast<size_t>(Ends[K]) + (MidRecord ? 2 : 0);
      SCOPED_TRACE("keep " + std::to_string(Keep));
      const std::string Want =
          MidRecord ? "<stream>: file ends mid-varint"
                    : "<stream>: file ends before the end-of-events marker "
                      "(decoded " +
                          std::to_string(K + 1) + " events)";
      for (const size_t Batch : {size_t(1), size_t(97), size_t(4096)}) {
        SCOPED_TRACE("batch " + std::to_string(Batch));
        std::istringstream Cut(Bytes.substr(0, Keep));
        TraceReader R(Cut);
        ASSERT_TRUE(R.ok()) << R.error();
        std::vector<AccessEvent> Buf(Batch);
        while (R.pull(Buf.data(), Buf.size()) != 0) {
        }
        EXPECT_EQ(R.errorCode(), TraceError::Truncated);
        EXPECT_EQ(R.error(), Want);
        EXPECT_FALSE(R.atEnd());
      }
    }
  }
}

// A varint whose 10th byte exceeds 0x01 does not fit 64 bits. It is
// Corrupt wherever it sits: mid-buffer, where the unchecked decoder meets
// it first, and straddling a refill, where only the checked path runs.
TEST(TraceFile, OverflowingVarintIsCorrupt) {
  // Filler record: load, site +0, address +8, ref +1.
  const std::string Filler = {'\x01', '\x00', '\x10', '\x02'};
  // Load, site +0, then an address delta whose 10th byte is 0x02.
  std::string Bad = {'\x01', '\x00'};
  Bad.append(9, '\xff');
  Bad += {'\x02', '\x02'};
  // Header bytes: 19 plus the workload name. With a 1-byte name and 16376
  // fillers the bad record starts 12 bytes before the first refill.
  const size_t HeaderBytes = binaryHeader(4, "w").size();
  ASSERT_EQ(HeaderBytes + 16376 * Filler.size(), TraceReadBufferBytes - 12);
  for (const size_t Before : {size_t(100), size_t(16376)}) {
    SCOPED_TRACE("bad record after " + std::to_string(Before) + " events");
    std::string Bytes = binaryHeader(4, "w");
    for (size_t I = 0; I != Before; ++I)
      Bytes += Filler;
    Bytes += Bad;
    for (size_t I = 0; I != 100; ++I)
      Bytes += Filler;
    Bytes.push_back('\0'); // end-of-events marker
    std::istringstream In(Bytes);
    TraceReader R(In);
    ASSERT_TRUE(R.ok()) << R.error();
    AccessEvent E;
    size_t Decoded = 0;
    while (R.pull(&E, 1) != 0)
      ++Decoded;
    EXPECT_EQ(Decoded, Before);
    EXPECT_EQ(R.errorCode(), TraceError::Corrupt);
    EXPECT_EQ(R.error(), "<stream>: varint longer than 64 bits");
  }
}

// The AccessSource contract promises SiteId < numSites(). A trace whose
// events name sites beyond its header's count is corrupt (the buffered
// fast path hands the record to the checked path), so replay never indexes
// per-site profiler state out of bounds.
TEST(TraceFile, SiteIdBeyondHeaderIsCorrupt) {
  std::vector<AccessEvent> Events = patternEvents(64);
  for (size_t I = 0; I != Events.size(); ++I)
    Events[I].SiteId = I < 32 ? 0 : static_cast<uint32_t>(100000 + I);
  const std::string Path = tmpPath("bad_site.sprof.trace");
  writeBytes(Path, encodeTrace(Events, /*NumSites=*/1));
  TraceReplayOptions Opts;
  Opts.EvaluateWorkload = false;
  Opts.SimulateMemory = false;
  const TraceReplayResult Replay = replayTraceFile(Path, Opts);
  EXPECT_FALSE(Replay.Ok);
  EXPECT_EQ(Replay.ErrorCode, TraceError::Corrupt);

  auto R = TraceReader::openFile(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  AccessEvent E;
  size_t Decoded = 0;
  while (R->pull(&E, 1) != 0)
    ++Decoded;
  EXPECT_EQ(Decoded, 32u);
  EXPECT_EQ(R->errorCode(), TraceError::Corrupt);
  EXPECT_EQ(R->error(),
            Path + ": event 32 names site 100032 but the header declares "
                   "1 sites");
  std::remove(Path.c_str());
}

// The header's site count sizes per-site state in every consumer (replay
// builds a StrideProfiler per declared site in every profile shard), so it
// is bounded before anything is allocated from it: a count above
// TraceMaxSites is Corrupt at open on every path.
TEST(TraceFile, SiteCountAboveTheBoundIsCorrupt) {
  std::string Bytes = encodeTrace(patternEvents(10), 5);
  const std::string Path = tmpPath("wide_header.sprof.trace");
  for (const uint32_t Sites : {TraceMaxSites + 1, 10000000u, 0xffffffffu}) {
    SCOPED_TRACE(Sites);
    for (int I = 0; I != 4; ++I)
      Bytes[12 + static_cast<size_t>(I)] = static_cast<char>(Sites >> (8 * I));
    writeBytes(Path, Bytes);
    const std::string Want = Path + ": header declares " +
                             std::to_string(Sites) + " sites; the limit is " +
                             std::to_string(TraceMaxSites);
    for (const bool Indexed : {false, true}) {
      auto R = Indexed ? TraceReader::openFileIndexed(Path)
                       : TraceReader::openFile(Path);
      EXPECT_EQ(R->errorCode(), TraceError::Corrupt);
      EXPECT_EQ(R->error(), Want);
      EXPECT_EQ(R->numSites(), 0u);
    }
    TraceReplayOptions Opts;
    Opts.EvaluateWorkload = false;
    Opts.Threads = 4;
    const TraceReplayResult Replay = replayTraceFile(Path, Opts);
    EXPECT_FALSE(Replay.Ok);
    EXPECT_EQ(Replay.ErrorCode, TraceError::Corrupt) << Replay.Error;
  }
  std::remove(Path.c_str());
}

// The shard index's chunk count is untrusted like the edge section's
// counts: 2^28 chunks over a one-chunk index ends in Truncated once the
// bytes run out, with the chunk table grown only by the entries actually
// read -- not a 12.9 GB table sized from the count.
TEST(TraceFile, HugeShardIndexChunkCountIsTruncated) {
  const std::string Data = encodeTrace(patternEvents(4), 5);
  const size_t Footer = static_cast<size_t>(footerStart(Data));
  // End-of-events marker, index section tag, interval 32768, one chunk.
  ASSERT_EQ(Data.substr(Footer, 6),
            std::string("\x00\x02\x80\x80\x02\x01", 6));
  std::string Bytes = Data;
  Bytes.replace(Footer + 5, 1, std::string("\x80\x80\x80\x80\x01", 5));
  const std::string Path = tmpPath("huge_chunks.sprof.trace");
  writeBytes(Path, Bytes);
  for (const bool Indexed : {false, true}) {
    SCOPED_TRACE(Indexed ? "openFileIndexed" : "openFile");
    auto R = Indexed ? TraceReader::openFileIndexed(Path)
                     : TraceReader::openFile(Path);
    drainAll(*R);
    EXPECT_EQ(R->errorCode(), TraceError::Truncated) << R->error();
    EXPECT_LT(R->index().Chunks.capacity(), 64u);
  }
  TraceReplayOptions Opts;
  Opts.EvaluateWorkload = false;
  Opts.Threads = 4;
  const TraceReplayResult Replay = replayTraceFile(Path, Opts);
  EXPECT_FALSE(Replay.Ok);
  EXPECT_EQ(Replay.ErrorCode, TraceError::Truncated) << Replay.Error;
  std::remove(Path.c_str());
}

// The edge section's record counts are untrusted varints. A count far
// beyond the bytes that follow must end in Truncated once the input runs
// out, not in an allocation of that many records up front.
TEST(TraceFile, HugeEdgeSectionCountIsTruncated) {
  TraceEdgeSection S;
  S.Present = true;
  S.NumFunctions = 1;
  S.Entries.push_back({0, 42});
  std::stringstream SS;
  {
    TraceWriter W(SS, 1);
    W.setEdgeSection(S);
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
  }
  const std::string Data = SS.str();
  // The footer: end-of-events marker; edges section with 1 function,
  // 1 entry {func 0, count 42} and 0 edges; then the shard-index section.
  const size_t Footer = static_cast<size_t>(footerStart(Data));
  ASSERT_EQ(Data.substr(Footer, 8),
            std::string("\x00\x01\x01\x01\x00\x2a\x00\x02", 8));
  std::string Huge(9, '\x80'); // 2^63 as a varint
  Huge.push_back('\x01');
  const std::string Path = tmpPath("huge_edges.sprof.trace");
  for (const size_t CountAt : {size_t(3), size_t(6)}) {
    SCOPED_TRACE(CountAt == 3 ? "entry count" : "edge count");
    std::string Bytes = Data;
    Bytes.replace(Footer + CountAt, 1, Huge);
    std::istringstream In(Bytes);
    TraceReader R(In);
    ASSERT_TRUE(R.ok()) << R.error();
    AccessEvent E;
    EXPECT_EQ(R.pull(&E, 1), 0u);
    EXPECT_EQ(R.errorCode(), TraceError::Truncated) << R.error();
    // The seekable tail still names the marker, so the indexed open parses
    // the same sections and runs out the same way.
    writeBytes(Path, Bytes);
    auto RI = TraceReader::openFileIndexed(Path);
    EXPECT_EQ(RI->errorCode(), TraceError::Truncated) << RI->error();
  }
  std::remove(Path.c_str());
}

// The footer's event count is untrusted too: parallel decode allocates its
// output from it. A count beyond what the event bytes can hold (every record
// is at least 4 bytes) is Corrupt at open, not an allocation of that many
// events.
TEST(TraceFile, FooterEventCountBeyondEventBytesIsCorrupt) {
  const std::vector<AccessEvent> Events = patternEvents(10);
  std::stringstream SS;
  {
    // One chunk: the index stays consistent with any count below 2^40.
    TraceWriter W(SS, 5, {}, /*IndexInterval=*/1ull << 40);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
  }
  const std::string Data = SS.str();
  // The event count is the 1-byte varint just before the 16-byte tail,
  // which stays in place (its offset word names the end-of-events marker).
  const size_t CountAt = Data.size() - 17;
  ASSERT_EQ(Data[CountAt], '\x0a');
  std::string Bytes = Data;
  Bytes.replace(CountAt, 1, std::string("\x80\x80\x80\x80\x80\x01", 6)); // 2^35
  const std::string Path = tmpPath("huge_count.sprof.trace");
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  auto R = TraceReader::openFileIndexed(Path);
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->errorCode(), TraceError::Corrupt) << R->error();

  TraceReplayOptions Opts;
  Opts.EvaluateWorkload = false;
  Opts.Threads = 4;
  const TraceReplayResult Replay = replayTraceFile(Path, Opts);
  EXPECT_FALSE(Replay.Ok);
  EXPECT_EQ(Replay.ErrorCode, TraceError::Corrupt) << Replay.Error;
  std::remove(Path.c_str());
}

// The seekable tail's two failure modes: a chopped-off tail (unfinished or
// truncated capture) and an offset word that no longer points at the
// end-of-events marker (bit rot). Both must be loud, typed errors.
TEST(TraceFile, IndexedOpenRejectsDamagedTails) {
  std::stringstream SS;
  {
    TraceWriter W(SS, 5, {}, /*IndexInterval=*/32);
    const std::vector<AccessEvent> Events = patternEvents(200);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
  }
  const std::string Data = SS.str();

  const std::string Path = tmpPath("damaged.sprof.trace");
  auto WriteFile = [&](const std::string &Bytes) {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  };

  // Healthy copy: baseline, and the EventsStart we corrupt towards below.
  WriteFile(Data);
  uint64_t EventsStart = 0;
  {
    auto R = TraceReader::openFileIndexed(Path);
    ASSERT_TRUE(R->ok()) << R->error();
    ASSERT_TRUE(R->index().Present);
    EventsStart = R->index().EventsStart;
  }

  // Tail cut off -> Truncated.
  WriteFile(Data.substr(0, Data.size() - 4));
  {
    auto R = TraceReader::openFileIndexed(Path);
    EXPECT_FALSE(R->ok());
    EXPECT_EQ(R->errorCode(), TraceError::Truncated);
  }

  // Offset word redirected at the first event record (a valid in-range
  // offset whose byte is an event tag, not the end marker) -> Corrupt.
  {
    std::string Bad = Data;
    const size_t WordAt = Bad.size() - 16;
    for (int I = 0; I < 8; ++I)
      Bad[WordAt + I] = static_cast<char>((EventsStart >> (8 * I)) & 0xff);
    WriteFile(Bad);
    auto R = TraceReader::openFileIndexed(Path);
    EXPECT_FALSE(R->ok());
    EXPECT_EQ(R->errorCode(), TraceError::Corrupt);
  }

  // Offset word pointing past the file -> Corrupt.
  {
    std::string Bad = Data;
    Bad[Bad.size() - 16] = static_cast<char>(0xff);
    Bad[Bad.size() - 15] = static_cast<char>(0xff);
    Bad[Bad.size() - 14] = static_cast<char>(0xff);
    WriteFile(Bad);
    auto R = TraceReader::openFileIndexed(Path);
    EXPECT_FALSE(R->ok());
    EXPECT_EQ(R->errorCode(), TraceError::Corrupt);
  }
  std::remove(Path.c_str());
}

namespace {

/// A sink that accepts \p Limit bytes and then refuses everything: the
/// deterministic stand-in for ENOSPC / a closed pipe.
class ChokedBuf : public std::streambuf {
public:
  explicit ChokedBuf(size_t Limit) : Limit(Limit) {}

private:
  int_type overflow(int_type Ch) override {
    if (Written >= Limit)
      return traits_type::eof();
    ++Written;
    return Ch;
  }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    if (Written + static_cast<size_t>(N) > Limit)
      return 0; // short write
    Written += static_cast<size_t>(N);
    return N;
  }
  size_t Limit;
  size_t Written = 0;
};

} // namespace

// The ENOSPC regression: a sink that stops accepting bytes mid-stream must
// flip the writer into a reported failure -- at the batch that hit the
// short write, or at the latest in finish() -- never silently produce a
// truncated trace that claims ok().
TEST(TraceFile, WriterReportsSinkFailures) {
  const std::vector<AccessEvent> Events = patternEvents(5000);
  for (size_t Limit : {size_t(0), size_t(64), size_t(4096)}) {
    SCOPED_TRACE("limit " + std::to_string(Limit));
    ChokedBuf Choked(Limit);
    std::ostream OS(&Choked);
    TraceWriter W(OS, 5);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    EXPECT_FALSE(W.ok());
    EXPECT_NE(W.error().find("write failure"), std::string::npos)
        << W.error();
  }
}

//===----------------------------------------------------------------------===//
// Text access-log import
//===----------------------------------------------------------------------===//

TEST(TraceFile, ImportAccessLogRoundTrip) {
  const std::string Path = tmpPath("imported.sprof.trace");
  std::istringstream Log("# cacheSight-style access log\n"
                         "0x1000, 0, L\n"
                         " 0x1040 ,0, load\n"
                         "4242, 3, P\n"
                         "\n"
                         "0x1080, 0, l\n");
  std::string Err;
  auto Res = importAccessLog(Log, Path, &Err);
  ASSERT_TRUE(Res.has_value()) << Err;
  EXPECT_EQ(Res->Events, 4u);
  EXPECT_EQ(Res->Loads, 3u);
  EXPECT_EQ(Res->Prefetches, 1u);
  EXPECT_EQ(Res->NumSites, 4u);
  EXPECT_GT(Res->Bytes, 0u);

  auto R = TraceReader::openFile(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  const std::vector<AccessEvent> Events = drainAll(*R);
  ASSERT_TRUE(R->ok()) << R->error();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events[0].Address, 0x1000u);
  EXPECT_EQ(Events[0].SiteId, 0u);
  EXPECT_EQ(Events[0].Kind, AccessKind::Load);
  EXPECT_EQ(Events[0].GlobalRefIndex, 1u);
  EXPECT_EQ(Events[1].Address, 0x1040u);
  EXPECT_EQ(Events[2].Address, 4242u);
  EXPECT_EQ(Events[2].SiteId, 3u);
  EXPECT_EQ(Events[2].Kind, AccessKind::Prefetch);
  EXPECT_EQ(Events[3].GlobalRefIndex, 4u);

  // The import is a real /2 file: indexed open finds the shard index, so
  // imported logs replay in parallel like native captures.
  auto RI = TraceReader::openFileIndexed(Path);
  ASSERT_TRUE(RI->ok()) << RI->error();
  EXPECT_TRUE(RI->index().Present);
  std::remove(Path.c_str());

  // Malformed input is rejected with the offending line named.
  std::istringstream BadKind("0x10, 0, L\n0x20, 1, X\n");
  EXPECT_FALSE(importAccessLog(BadKind, tmpPath("bad.sprof.trace"), &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  std::istringstream BadShape("0x10\n");
  EXPECT_FALSE(importAccessLog(BadShape, tmpPath("bad.sprof.trace"), &Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
}

// A log's site count is its highest site id plus one, so an id at or above
// TraceMaxSites is rejected with its line: 4294967295 would otherwise wrap
// the count to 0 and write a trace its own reader rejects.
TEST(TraceFile, ImportRejectsSiteIdsAtTheBound) {
  const std::string Path = tmpPath("import_bound.sprof.trace");
  for (const std::string &Site :
       {std::string("4294967295"), std::to_string(TraceMaxSites),
        std::string("18446744073709551616")}) {
    SCOPED_TRACE(Site);
    std::istringstream Log("0x10, 0, L\n0x20, " + Site + ", L\n");
    std::string Err;
    EXPECT_FALSE(importAccessLog(Log, Path, &Err));
    EXPECT_NE(Err.find("line 2: site id " + Site), std::string::npos) << Err;
  }
  std::istringstream Negative("0x10, -1, L\n");
  std::string Err;
  EXPECT_FALSE(importAccessLog(Negative, Path, &Err));
  EXPECT_NE(Err.find("line 1: bad site id"), std::string::npos) << Err;

  // The largest accepted id declares exactly TraceMaxSites sites.
  std::istringstream Top("0x10, " + std::to_string(TraceMaxSites - 1) +
                         ", L\n");
  auto Res = importAccessLog(Top, Path, &Err);
  ASSERT_TRUE(Res.has_value()) << Err;
  EXPECT_EQ(Res->NumSites, TraceMaxSites);
  auto R = TraceReader::openFile(Path);
  ASSERT_EQ(drainAll(*R).size(), 1u);
  EXPECT_TRUE(R->ok()) << R->error();
  std::remove(Path.c_str());
}

TEST(TraceReplay, ReadErrorsSurfaceThroughTheResult) {
  TraceReplayResult R =
      replayTraceFile(tmpPath("no_such_replay.sprof.trace"));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorCode, TraceError::Io);
  EXPECT_FALSE(R.Error.empty());
}

// A trace that opens but fails its decode, and one that fails at the open,
// report through replayTraceFile the code and message the reader or the
// decode job produced, at one thread and at four: a truncated tail, an
// invalid event tag inside the fourth shard-index chunk, and a footer event
// count one above (over-promising) and one below the events present.
TEST(TraceReplay, DecodeErrorsKeepTheirCodesAndMessages) {
  const std::vector<AccessEvent> Events = patternEvents(200);
  std::string Data, BadTag;
  {
    std::stringstream SS;
    TraceWriter W(SS, 5, {}, /*IndexInterval=*/32);
    uint64_t Event100Start = 0;
    for (size_t I = 0; I != Events.size(); ++I) {
      if (I == 100)
        Event100Start = W.bytesWritten();
      W.onBatch(&Events[I], 1); // the writer flushes every batch
    }
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
    Data = SS.str();
    BadTag = Data;
    BadTag[Event100Start] = '\x7f';
  }
  std::string Short;
  {
    std::stringstream SS;
    TraceWriter W(SS, 5, {}, /*IndexInterval=*/1ull << 40); // one chunk
    const std::vector<AccessEvent> Ten = patternEvents(10);
    W.onBatch(Ten.data(), Ten.size());
    W.finish();
    ASSERT_TRUE(W.ok()) << W.error();
    Short = SS.str();
  }
  // The footer's event count, the 1-byte varint before the 16-byte tail.
  ASSERT_EQ(Short[Short.size() - 17], '\x0a');
  std::string Over = Short, Under = Short;
  Over[Short.size() - 17] = '\x0b';
  Under[Short.size() - 17] = '\x09';

  struct ErrorCase {
    const char *Name;
    std::string Bytes;
    TraceError Code;
    std::string Want[2]; // the message after the path, at 1 and 4 threads
  };
  const ErrorCase Cases[] = {
      {"truncated",
       Data.substr(0, Data.size() - 4),
       TraceError::Truncated,
       {": missing the seekable tail (truncated or unfinished capture)",
        ": missing the seekable tail (truncated or unfinished capture)"}},
      {"corrupt",
       BadTag,
       TraceError::Corrupt,
       {"[chunks 2..4): invalid event tag 127 after event 36",
        "[chunks 3..4): invalid event tag 127 after event 4"}},
      {"over-promising",
       Over,
       TraceError::Corrupt,
       {"[chunks 0..1): end-of-events marker inside a shard after 10 of 11 "
        "events",
        "[chunks 0..1): end-of-events marker inside a shard after 10 of 11 "
        "events"}},
      {"under-promising",
       Under,
       TraceError::Corrupt,
       {"[chunks 0..1): shard decode ends at byte 63 but the index places "
        "the boundary at byte 67",
        "[chunks 0..1): shard decode ends at byte 63 but the index places "
        "the boundary at byte 67"}},
  };
  for (const ErrorCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    const std::string Path =
        tmpPath(std::string("decode_error_") + C.Name + ".sprof.trace");
    writeBytes(Path, C.Bytes);
    for (const unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(Threads));
      TraceReplayOptions Opts;
      Opts.EvaluateWorkload = false;
      Opts.Threads = Threads;
      const TraceReplayResult R = replayTraceFile(Path, Opts);
      EXPECT_FALSE(R.Ok);
      EXPECT_EQ(R.ErrorCode, C.Code);
      EXPECT_EQ(R.Error, Path + C.Want[Threads == 1 ? 0 : 1]);
      EXPECT_EQ(R.Source, Path);
    }
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Stream primitives and synthetic generators
//===----------------------------------------------------------------------===//

TEST(Stream, VectorSourceDrainAndReset) {
  const std::vector<AccessEvent> Events = patternEvents(300);
  VectorSource Src(Events, 5, "unit");
  CollectSink Sink;
  EXPECT_EQ(drainStream(Src, Sink, 64), Events.size());
  expectSameEvents(Events, Sink.events());
  // A drained source stays empty until reset().
  AccessEvent Buf[4];
  EXPECT_EQ(Src.pull(Buf, 4), 0u);
  ASSERT_TRUE(Src.reset());
  expectSameEvents(Events, drainAll(Src));
}

TEST(Stream, SyntheticGeneratorsAreDeterministic) {
  SyntheticTraceConfig Config;
  Config.Events = 4000;
  Config.Seed = 7;
  for (const std::string &Name : syntheticTraceNames()) {
    SCOPED_TRACE(Name);
    auto A = makeSyntheticTrace(Name, Config);
    auto B = makeSyntheticTrace(Name, Config);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    EXPECT_GT(A->numSites(), 0u);
    const std::vector<AccessEvent> EA = drainAll(*A);
    expectSameEvents(EA, drainAll(*B));
    // Events counts the loads; prefetch-kind events ride on top.
    size_t Loads = 0;
    for (const AccessEvent &E : EA) {
      Loads += E.Kind == AccessKind::Load;
      EXPECT_LT(E.SiteId, A->numSites());
    }
    EXPECT_EQ(Loads, Config.Events);
    // reset() replays the identical sequence.
    ASSERT_TRUE(A->reset());
    expectSameEvents(EA, drainAll(*A));
  }
  // stream-mixed is the kind-filtering fixture: it must contain prefetch
  // events for the Load-only profiler filter to have something to drop.
  auto Mixed = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Mixed, nullptr);
  size_t Prefetches = 0;
  for (const AccessEvent &E : drainAll(*Mixed))
    Prefetches += E.Kind == AccessKind::Prefetch;
  EXPECT_GT(Prefetches, 0u);
}

TEST(Stream, ProfilerConsumeDropsPrefetchKindEvents) {
  std::vector<AccessEvent> Events;
  for (size_t I = 0; I != 15; ++I) {
    AccessEvent E;
    E.Address = 0x1000 + 64 * I;
    E.SiteId = 0;
    E.Kind = I < 10 ? AccessKind::Load : AccessKind::Prefetch;
    Events.push_back(E);
  }
  VectorSource Src(std::move(Events), 1);
  StrideProfiler P(1, StrideProfilerConfig());
  P.consume(Src);
  EXPECT_EQ(P.totalInvocations(), 10u);
}

// consume profiles an in-memory source's runs of loads where they lie and
// pulls any other source in batches; both give the profile, the cost and
// the counts that per-batch profiling of the loads alone gives, and leave
// the source exhausted.
TEST(Stream, ProfilerConsumeInPlaceMatchesPulledBatches) {
  SyntheticTraceConfig Config;
  Config.Events = 30000;
  Config.Seed = 11;
  auto Gen = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Gen, nullptr);
  const uint32_t NumSites = Gen->numSites();
  const std::vector<AccessEvent> Events = drainAll(*Gen);

  /// A source that is not in memory as far as consume can tell.
  class Pulled final : public AccessSource {
  public:
    explicit Pulled(AccessSource &Inner) : Inner(Inner) {}
    size_t pull(AccessEvent *Buf, size_t Max) override {
      return Inner.pull(Buf, Max);
    }
    uint32_t numSites() const override { return Inner.numSites(); }
    AccessSource &Inner;
  };

  for (const bool Sampling : {false, true}) {
    SCOPED_TRACE(Sampling ? "sampling" : "no sampling");
    StrideProfilerConfig PC;
    PC.Sampling.Enabled = Sampling;
    std::vector<AccessEvent> Loads;
    for (const AccessEvent &E : Events)
      if (E.Kind == AccessKind::Load)
        Loads.push_back(E);
    StrideProfiler Want(NumSites, PC);
    const uint64_t WantCycles = Want.profileBatch(Loads.data(), Loads.size());
    const std::string WantText =
        strideProfileToJson(StrideProfile::fromProfiler(Want)).str();

    auto Check = [&](StrideProfiler &P, uint64_t Cycles) {
      EXPECT_EQ(Cycles, WantCycles);
      EXPECT_EQ(P.totalInvocations(), Want.totalInvocations());
      EXPECT_EQ(P.totalProcessed(), Want.totalProcessed());
      EXPECT_EQ(P.totalLfuCalls(), Want.totalLfuCalls());
      EXPECT_EQ(strideProfileToJson(StrideProfile::fromProfiler(P)).str(),
                WantText);
    };
    VectorSource Vec(Events, NumSites);
    StrideProfiler InPlace(NumSites, PC);
    Check(InPlace, InPlace.consume(Vec));
    AccessEvent Probe;
    EXPECT_EQ(Vec.pull(&Probe, 1), 0u);
    SpanSource Span(Events, NumSites);
    StrideProfiler FromSpan(NumSites, PC);
    Check(FromSpan, FromSpan.consume(Span));
    EXPECT_EQ(Span.pull(&Probe, 1), 0u);
    for (size_t Batch : {1u, 7u, 256u}) {
      SCOPED_TRACE(Batch);
      VectorSource Inner(Events, NumSites);
      Pulled Src(Inner);
      StrideProfiler P(NumSites, PC);
      Check(P, P.consume(Src, Batch));
    }
  }
}

TEST(Stream, ReplayAccessStreamAccountsEveryEvent) {
  const std::vector<AccessEvent> Events = patternEvents(1000);
  size_t Loads = 0;
  for (const AccessEvent &E : Events)
    Loads += E.Kind == AccessKind::Load;
  VectorSource Src(Events, 5);
  MemoryHierarchy MH((MemoryConfig()));
  const StreamReplayStats S = replayAccessStream(MH, Src);
  EXPECT_EQ(S.Events, Events.size());
  EXPECT_EQ(S.Loads, Loads);
  EXPECT_EQ(S.Prefetches, Events.size() - Loads);
  EXPECT_EQ(MH.stats().DemandAccesses, Loads);
  EXPECT_GT(S.Cycles, 0u);
}

//===----------------------------------------------------------------------===//
// Capture -> replay fidelity (the acceptance bar)
//===----------------------------------------------------------------------===//

// Every profiling method on both engines: a capture of the live profile
// run replays to a bit-identical stride profile, edge profile, and
// strideProf call accounting. The same holds for every suite workload at
// edge-check on the Decoded engine.
TEST(TraceReplay, ReplayedProfilesMatchLiveAcrossMethodsAndEngines) {
  auto Check = [](const Workload &W, InterpreterConfig::Engine Engine,
                  ProfilingMethod Method) {
    const std::string Tag =
        W.info().Name + "/" +
        (Engine == InterpreterConfig::Engine::Reference ? "reference"
                                                        : "decoded") +
        "/" + profilingMethodName(Method);
    SCOPED_TRACE(Tag);
    std::string File = "diff_" + Tag + ".sprof.trace";
    std::replace(File.begin(), File.end(), '/', '_');
    const std::string Path = tmpPath(File);

    PipelineConfig C = engineConfig(Engine);
    C.TraceCapturePath = Path;
    Pipeline P(W, C);
    const ProfileRunResult Live =
        P.runProfile(Method, DataSet::Train, /*WithMemorySystem=*/false);
    ASSERT_TRUE(Live.Capture.Enabled);
    EXPECT_EQ(Live.Capture.Schema, TraceSchemaV2);
    // The capture records the complete pre-sampling invocation stream.
    EXPECT_EQ(Live.Capture.Events, Live.StrideInvocations);

    TraceReplayOptions Opts;
    Opts.Config = engineConfig(Engine);
    Opts.EvaluateWorkload = false;
    Opts.SimulateMemory = false;
    const TraceReplayResult Replay = replayTraceFile(Path, Opts);
    ASSERT_TRUE(Replay.Ok) << Replay.Error;
    EXPECT_EQ(Replay.Method, Method);
    EXPECT_EQ(Replay.Events, Live.StrideInvocations);

    EXPECT_EQ(strideProfileToJson(Replay.Profile.Strides).str(),
              strideProfileToJson(Live.Strides).str());
    EXPECT_EQ(edgeProfileToJson(Replay.Profile.Edges).str(),
              edgeProfileToJson(Live.Edges).str());
    EXPECT_EQ(Replay.Profile.StrideInvocations, Live.StrideInvocations);
    EXPECT_EQ(Replay.Profile.StrideProcessed, Live.StrideProcessed);
    EXPECT_EQ(Replay.Profile.LfuCalls, Live.LfuCalls);
    // The stream-driven profiler charges exactly what the live run booked
    // as runtime cycles.
    EXPECT_EQ(Replay.Profile.Stats.RuntimeCycles, Live.Stats.RuntimeCycles);
    // The serialized store -- what experiments persist -- is identical.
    const ProfileStore LiveStore({W.info().Name, profilingMethodName(Method),
                                  dataSetName(DataSet::Train)},
                                 Live.Edges, Live.Strides);
    const ProfileStore ReplayStore({W.info().Name,
                                    profilingMethodName(Method),
                                    dataSetName(DataSet::Train)},
                                   Replay.Profile.Edges,
                                   Replay.Profile.Strides);
    EXPECT_EQ(LiveStore.toString(), ReplayStore.toString());
    std::remove(Path.c_str());
  };

  std::unique_ptr<Workload> Mcf = makeWorkloadByName("181.mcf");
  ASSERT_NE(Mcf, nullptr);
  for (auto Engine : {InterpreterConfig::Engine::Reference,
                      InterpreterConfig::Engine::Decoded})
    for (ProfilingMethod Method : allProfilingMethods())
      Check(*Mcf, Engine, Method);
  for (const std::unique_ptr<Workload> &W : makeSpecIntSuite())
    Check(*W, InterpreterConfig::Engine::Decoded, ProfilingMethod::EdgeCheck);
}

// The full-evaluation half: replaying a capture whose provenance names a
// rebuildable workload reproduces the baseline and prefetched timed runs
// -- cycle accounting, classifier verdicts, and prefetch-outcome
// attribution -- bit for bit, on both engines.
TEST(TraceReplay, FullEvaluationMatchesLivePipeline) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (auto Engine : {InterpreterConfig::Engine::Reference,
                      InterpreterConfig::Engine::Decoded}) {
    SCOPED_TRACE(Engine == InterpreterConfig::Engine::Reference
                     ? "reference"
                     : "decoded");
    const std::string Path =
        tmpPath(Engine == InterpreterConfig::Engine::Reference
                    ? "full_ref.sprof.trace"
                    : "full_dec.sprof.trace");
    PipelineConfig C = engineConfig(Engine);
    C.Memory.EnableAttribution = true;
    C.TraceCapturePath = Path;
    Pipeline P(*W, C);
    const ProfileRunResult Live =
        P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train,
                     /*WithMemorySystem=*/false);
    ASSERT_TRUE(Live.Capture.Enabled);
    const RunStats LiveBaseline = P.runBaseline(DataSet::Train);
    const TimedRunResult LiveTimed =
        P.runPrefetched(DataSet::Train, Live.Edges, Live.Strides);

    TraceReplayOptions Opts;
    Opts.Config = engineConfig(Engine);
    Opts.Config.Memory.EnableAttribution = true;
    Opts.SimulateMemory = false;
    const TraceReplayResult Replay = replayTraceFile(Path, Opts);
    ASSERT_TRUE(Replay.Ok) << Replay.Error;
    ASSERT_TRUE(Replay.HasWorkload);
    EXPECT_EQ(Replay.Prov.Workload, W->info().Name);

    expectSameStats(LiveBaseline, Replay.Baseline);
    expectSameStats(LiveTimed.Stats, Replay.Timed.Stats);
    EXPECT_EQ(feedbackToJson(Replay.Timed.Feedback, Replay.Profile.Strides,
                             Opts.Config.Classifier)
                  .str(),
              feedbackToJson(LiveTimed.Feedback, Live.Strides,
                             C.Classifier)
                  .str());
    ASSERT_TRUE(LiveTimed.Attribution.Enabled);
    ASSERT_TRUE(Replay.Timed.Attribution.Enabled);
    EXPECT_EQ(attributionToJson(Replay.Timed.Attribution).str(),
              attributionToJson(LiveTimed.Attribution).str());
    EXPECT_DOUBLE_EQ(Replay.Speedup,
                     static_cast<double>(LiveBaseline.Cycles) /
                         static_cast<double>(LiveTimed.Stats.Cycles));
    std::remove(Path.c_str());
  }
}

// Workload-less streams (the trace-backed family) get the stream-only
// path: stride profiling, per-site classification, and the two-pass cache
// simulation with synthesized prefetches.
TEST(TraceReplay, StreamOnlyReplaySimulatesPrefetching) {
  SyntheticTraceConfig Config;
  Config.Events = 20000;
  Config.Seed = 3;
  auto Src = makeSyntheticTrace("stream-seq", Config);
  ASSERT_NE(Src, nullptr);

  TraceReplayOptions Opts;
  const TraceReplayResult R = replayStream(*Src, Opts, "stream-seq");
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.HasWorkload);
  ASSERT_TRUE(R.HasMemSim);
  EXPECT_GT(R.Profile.StrideInvocations, 0u);

  // stream-seq is one dominant stride per site: every site classifies,
  // and the synthesized prefetches must recover stall cycles.
  size_t Classified = 0;
  for (StrideClass SC : R.SiteClass)
    Classified += SC != StrideClass::None;
  EXPECT_GT(Classified, 0u);
  EXPECT_EQ(R.MemBaseline.Events, Config.Events);
  EXPECT_GT(R.MemBaseline.StallCycles, 0u);
  EXPECT_GT(R.MemPrefetched.Prefetches, 0u);
  EXPECT_LT(R.MemPrefetched.StallCycles, R.MemBaseline.StallCycles);
}

//===----------------------------------------------------------------------===//
// Parallel replay: bit-identical to serial (the tentpole's acceptance bar)
//===----------------------------------------------------------------------===//

namespace {

/// Every observable a replay produces, compared field by field so a
/// parallel divergence names exactly what broke.
void expectSameReplay(const TraceReplayResult &Serial,
                      const TraceReplayResult &Par) {
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  ASSERT_TRUE(Par.Ok) << Par.Error;
  EXPECT_EQ(Par.Events, Serial.Events);
  EXPECT_EQ(Par.Method, Serial.Method);
  EXPECT_EQ(strideProfileToJson(Par.Profile.Strides).str(),
            strideProfileToJson(Serial.Profile.Strides).str());
  EXPECT_EQ(edgeProfileToJson(Par.Profile.Edges).str(),
            edgeProfileToJson(Serial.Profile.Edges).str());
  EXPECT_EQ(Par.Profile.StrideInvocations, Serial.Profile.StrideInvocations);
  EXPECT_EQ(Par.Profile.StrideProcessed, Serial.Profile.StrideProcessed);
  EXPECT_EQ(Par.Profile.LfuCalls, Serial.Profile.LfuCalls);
  EXPECT_EQ(Par.Profile.Stats.RuntimeCycles,
            Serial.Profile.Stats.RuntimeCycles);
  ASSERT_EQ(Par.SiteClass.size(), Serial.SiteClass.size());
  for (size_t S = 0; S != Serial.SiteClass.size(); ++S)
    EXPECT_EQ(Par.SiteClass[S], Serial.SiteClass[S]) << "site " << S;
  EXPECT_EQ(Par.HasMemSim, Serial.HasMemSim);
  if (Serial.HasMemSim) {
    for (const auto &[P, S] :
         {std::pair(&Par.MemBaseline, &Serial.MemBaseline),
          std::pair(&Par.MemPrefetched, &Serial.MemPrefetched)}) {
      EXPECT_EQ(P->Events, S->Events);
      EXPECT_EQ(P->Loads, S->Loads);
      EXPECT_EQ(P->Prefetches, S->Prefetches);
      EXPECT_EQ(P->Cycles, S->Cycles);
      EXPECT_EQ(P->StallCycles, S->StallCycles);
    }
    EXPECT_EQ(memoryStatsToJson(Par.MemBaselineStats).str(),
              memoryStatsToJson(Serial.MemBaselineStats).str());
    EXPECT_EQ(memoryStatsToJson(Par.MemPrefetchedStats).str(),
              memoryStatsToJson(Serial.MemPrefetchedStats).str());
  }
}

} // namespace

// The differential bar: for every profiling method, with and without the
// stream-driven memory simulation, and for every synthetic generator, a
// threaded replay is bit-identical to the serial replay of the same file.
// Threads > 1 overlaps the demand-only cache pass with the profile shards
// and the prefetched pass, and from 3 threads on runs the prefetched pass
// set-sharded, so this also holds the schedule to the result.
TEST(TraceReplay, ParallelReplayMatchesSerialAcrossMethods) {
  const auto ReplayAtEveryThreadCount = [](const std::string &Path,
                                           TraceReplayOptions Opts) {
    Opts.Threads = 1;
    const TraceReplayResult Serial = replayTraceFile(Path, Opts);
    for (unsigned Threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(Threads));
      Opts.Threads = Threads;
      expectSameReplay(Serial, replayTraceFile(Path, Opts));
    }
  };

  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    const std::string Path =
        tmpPath("par_" + std::string(profilingMethodName(Method)) +
                ".sprof.trace");
    PipelineConfig C = engineConfig(InterpreterConfig::Engine::Decoded);
    C.TraceCapturePath = Path;
    Pipeline P(*W, C);
    const ProfileRunResult Live =
        P.runProfile(Method, DataSet::Train, /*WithMemorySystem=*/false);
    ASSERT_TRUE(Live.Capture.Enabled);

    for (bool MemSim : {false, true}) {
      SCOPED_TRACE(MemSim ? "memsim" : "profile-only");
      TraceReplayOptions Opts;
      Opts.Config = engineConfig(InterpreterConfig::Engine::Decoded);
      Opts.EvaluateWorkload = false;
      Opts.SimulateMemory = MemSim;
      ReplayAtEveryThreadCount(Path, Opts);
    }
    std::remove(Path.c_str());
  }

  // Every synthetic generator; a small index interval gives the parallel
  // decode many chunks. Attribution is requested, but stream replay reports
  // none, so the flag must not change either cache pass.
  SyntheticTraceConfig Config;
  Config.Events = 60000;
  Config.Seed = 3;
  for (const std::string &Name : syntheticTraceNames()) {
    SCOPED_TRACE(Name);
    auto Src = makeSyntheticTrace(Name, Config);
    ASSERT_NE(Src, nullptr);
    const std::string Path = tmpPath("par_" + Name + ".sprof.trace");
    std::string Err;
    auto Writer = TraceWriter::open(Path, Src->numSites(), {},
                                    /*Reserved=*/false, &Err,
                                    /*IndexInterval=*/4096);
    ASSERT_NE(Writer, nullptr) << Err;
    drainStream(*Src, *Writer);
    ASSERT_TRUE(Writer->ok()) << Writer->error();

    TraceReplayOptions Opts;
    Opts.EvaluateWorkload = false;
    Opts.Config.Memory.EnableAttribution = true;
    ReplayAtEveryThreadCount(Path, Opts);
    std::remove(Path.c_str());
  }
}

// The workload-evaluation half under threads: baseline/timed accounting,
// feedback, attribution, and speedup all match the serial replay.
TEST(TraceReplay, ParallelWorkloadEvaluationMatchesSerial) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  const std::string Path = tmpPath("par_eval.sprof.trace");
  PipelineConfig C = engineConfig(InterpreterConfig::Engine::Decoded);
  C.TraceCapturePath = Path;
  Pipeline P(*W, C);
  const ProfileRunResult Live =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train,
                   /*WithMemorySystem=*/false);
  ASSERT_TRUE(Live.Capture.Enabled);

  TraceReplayOptions Opts;
  Opts.Config = engineConfig(InterpreterConfig::Engine::Decoded);
  Opts.Config.Memory.EnableAttribution = true;
  Opts.SimulateMemory = false;
  const TraceReplayResult Serial = replayTraceFile(Path, Opts);
  Opts.Threads = 3;
  const TraceReplayResult Par = replayTraceFile(Path, Opts);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  ASSERT_TRUE(Par.Ok) << Par.Error;
  ASSERT_TRUE(Serial.HasWorkload);
  ASSERT_TRUE(Par.HasWorkload);

  expectSameReplay(Serial, Par);
  expectSameStats(Serial.Baseline, Par.Baseline);
  expectSameStats(Serial.Timed.Stats, Par.Timed.Stats);
  EXPECT_EQ(feedbackToJson(Par.Timed.Feedback, Par.Profile.Strides,
                           Opts.Config.Classifier)
                .str(),
            feedbackToJson(Serial.Timed.Feedback, Serial.Profile.Strides,
                           Opts.Config.Classifier)
                .str());
  ASSERT_TRUE(Serial.Timed.Attribution.Enabled);
  ASSERT_TRUE(Par.Timed.Attribution.Enabled);
  EXPECT_EQ(attributionToJson(Par.Timed.Attribution).str(),
            attributionToJson(Serial.Timed.Attribution).str());
  EXPECT_DOUBLE_EQ(Par.Speedup, Serial.Speedup);
  std::remove(Path.c_str());
}

namespace {

/// A source that cannot rewind: forwards a generator's events and keeps
/// AccessSource's default reset(), which returns false.
class OneShotSource final : public AccessSource {
public:
  explicit OneShotSource(std::unique_ptr<AccessSource> Inner)
      : Inner(std::move(Inner)) {}
  size_t pull(AccessEvent *Buf, size_t Max) override {
    return Inner->pull(Buf, Max);
  }
  uint32_t numSites() const override { return Inner->numSites(); }

private:
  std::unique_ptr<AccessSource> Inner;
};

} // namespace

// SimulateMemory works for any source: one that cannot rewind is read once
// and still gets both cache passes, identical to replaying the same events
// from a buffer, serial and threaded.
TEST(TraceReplay, OneShotSourceStillSimulatesMemory) {
  SyntheticTraceConfig Config;
  Config.Events = 30000;
  Config.Seed = 11;
  auto Gen = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Gen, nullptr);
  const uint32_t NumSites = Gen->numSites();
  const std::vector<AccessEvent> Events = drainAll(*Gen);

  for (const unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    TraceReplayOptions Opts;
    Opts.EvaluateWorkload = false;
    Opts.Threads = Threads;
    VectorSource Buffered(Events, NumSites);
    const TraceReplayResult Want = replayStream(Buffered, Opts, "mixed");
    OneShotSource OneShot(makeSyntheticTrace("stream-mixed", Config));
    const TraceReplayResult Got = replayStream(OneShot, Opts, "mixed");
    ASSERT_TRUE(Want.HasMemSim);
    ASSERT_TRUE(Got.HasMemSim);
    expectSameReplay(Want, Got);
  }
}

// profileEventsSharded's shards scan one contiguous buffer: a VectorSource's
// own storage, or any other source drained into a vector first. A
// file-backed reader, the same events in a VectorSource, and a serial
// StrideProfiler::consume all give the identical profile and accumulators.
TEST(ParallelReplay, NonContiguousSourceMatchesVectorSource) {
  SyntheticTraceConfig Config;
  Config.Events = 40000;
  Config.Seed = 9;
  auto Gen = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Gen, nullptr);
  const uint32_t NumSites = Gen->numSites();
  const std::vector<AccessEvent> Events = drainAll(*Gen);
  const std::string Path = tmpPath("sharded_source.sprof.trace");
  {
    std::string Err;
    auto W = TraceWriter::open(Path, NumSites, {}, /*Reserved=*/false, &Err);
    ASSERT_NE(W, nullptr) << Err;
    W->onBatch(Events.data(), Events.size());
    W->finish();
    ASSERT_TRUE(W->ok()) << W->error();
  }

  for (const bool Sampling : {false, true}) {
    SCOPED_TRACE(Sampling ? "sampling" : "no sampling");
    StrideProfilerConfig PC;
    PC.Sampling.Enabled = Sampling;
    StrideProfiler Serial(NumSites, PC);
    VectorSource SerialSrc(Events, NumSites);
    const uint64_t SerialCycles = Serial.consume(SerialSrc, 256);
    const std::string Want =
        strideProfileToJson(StrideProfile::fromProfiler(Serial)).str();

    for (const unsigned Threads : {1u, 3u}) {
      for (const unsigned Shards : {0u, 1u, 2u, 5u, 7u, 16u}) {
        SCOPED_TRACE("threads " + std::to_string(Threads) + " shards " +
                     std::to_string(Shards));
        auto Reader = TraceReader::openFile(Path);
        ASSERT_TRUE(Reader->ok()) << Reader->error();
        VectorSource Vec(Events, NumSites);
        for (AccessSource *Src : {static_cast<AccessSource *>(Reader.get()),
                                  static_cast<AccessSource *>(&Vec)}) {
          const ShardedProfileResult R =
              profileEventsSharded(*Src, PC, Threads, Shards);
          ASSERT_TRUE(R.Ok) << R.Error;
          EXPECT_EQ(strideProfileToJson(R.Strides).str(), Want);
          EXPECT_EQ(R.RuntimeCycles, SerialCycles);
          EXPECT_EQ(R.Invocations, Serial.totalInvocations());
          EXPECT_EQ(R.Processed, Serial.totalProcessed());
          EXPECT_EQ(R.LfuCalls, Serial.totalLfuCalls());
          // Both sources are left exhausted, as a serial consume leaves them.
          AccessEvent E;
          EXPECT_EQ(Src->pull(&E, 1), 0u);
        }
        EXPECT_TRUE(Reader->ok()) << Reader->error();
        EXPECT_TRUE(Reader->atEnd());
      }
    }
  }
  std::remove(Path.c_str());
}

// The site-sharded profile against serial StrideProfiler::consume for all
// eight profiling methods, on a trace where one site holds most loads (so
// one shard does most of the work) and prefetch-kind events are mixed in
// (they take no load index). Shard counts run past the site count, where
// they are clamped to one site per shard.
TEST(ParallelReplay, ShardedProfileMatchesSerialConsumeForAllMethods) {
  const uint32_t NumSites = 9;
  Rng R(2024);
  std::vector<uint64_t> Addr(NumSites);
  for (uint32_t S = 0; S != NumSites; ++S)
    Addr[S] = 0x100000 * (S + 1);
  std::vector<AccessEvent> Events(50000);
  for (size_t I = 0; I != Events.size(); ++I) {
    AccessEvent &E = Events[I];
    // Site 0 takes ~80% of the events; it strides by 8 with a phase
    // change every 1000 of its loads, the rest by site-specific strides.
    E.SiteId = R.chancePercent(80)
                   ? 0
                   : 1 + static_cast<uint32_t>(R.below(NumSites - 1));
    const int64_t Stride =
        E.SiteId == 0 ? ((I / 1000) % 2 ? 8 : -24)
                      : static_cast<int64_t>(16 * E.SiteId);
    Addr[E.SiteId] += static_cast<uint64_t>(Stride);
    E.Address = Addr[E.SiteId] + (R.chancePercent(5) ? 4096 : 0);
    E.GlobalRefIndex = R.chancePercent(10) ? 0 : I + 1;
    E.Kind = R.chancePercent(6) ? AccessKind::Prefetch : AccessKind::Load;
  }

  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    StrideProfilerConfig PC;
    PC.Sampling.Enabled = methodUsesSampling(Method);
    StrideProfiler Serial(NumSites, PC);
    const uint64_t SerialCycles = Serial.consume(Events);
    const std::string Want =
        strideProfileToJson(StrideProfile::fromProfiler(Serial)).str();
    for (const unsigned Shards : {1u, 2u, 3u, 5u, 7u, 16u}) {
      SCOPED_TRACE("shards " + std::to_string(Shards));
      const ShardedProfileResult Got =
          profileEventsSharded(Events, NumSites, PC, /*Threads=*/4, Shards);
      ASSERT_TRUE(Got.Ok) << Got.Error;
      EXPECT_EQ(strideProfileToJson(Got.Strides).str(), Want);
      EXPECT_EQ(Got.RuntimeCycles, SerialCycles);
      EXPECT_EQ(Got.Invocations, Serial.totalInvocations());
      EXPECT_EQ(Got.Processed, Serial.totalProcessed());
      EXPECT_EQ(Got.LfuCalls, Serial.totalLfuCalls());
    }
  }
}

namespace {

/// A small hierarchy of \p NumLevels levels drawn at random: 1-8 ways,
/// set counts both powers of two and not (CacheLevel rounds those up), and
/// a memory latency below every hit latency when \p FastMemory, else above.
MemoryConfig randomHierarchy(Rng &R, size_t NumLevels, bool FastMemory) {
  MemoryConfig MC;
  MC.Levels.clear();
  const unsigned LineBytes = R.chancePercent(50) ? 32 : 64;
  uint32_t MinHit = ~0u, MaxHit = 0;
  for (size_t L = 0; L != NumLevels; ++L) {
    CacheLevelConfig C;
    C.Name = "L";
    C.Name += std::to_string(L + 1);
    C.Associativity = 1 + static_cast<unsigned>(R.below(8));
    C.LineBytes = LineBytes;
    const uint64_t Sets = R.chancePercent(50) ? uint64_t(1) << R.below(5)
                                              : 3 + R.below(14);
    C.SizeBytes = Sets * C.Associativity * LineBytes;
    C.HitLatency = 1 + static_cast<uint32_t>(R.below(30));
    MinHit = std::min(MinHit, C.HitLatency);
    MaxHit = std::max(MaxHit, C.HitLatency);
    MC.Levels.push_back(C);
  }
  MC.MemoryLatency = FastMemory
                         ? static_cast<uint32_t>(R.below(MinHit))
                         : MaxHit + 1 + static_cast<uint32_t>(R.below(200));
  return MC;
}

} // namespace

// The decoupled prefetched pass against its spec, the inline pass on one
// MemoryHierarchy: identical StreamReplayStats and MemoryStats for random
// small hierarchies and the shipped one, every synthetic generator plus a
// stream dense in prefetch-kind events, random per-site strides, issue
// costs of 1 and 3, and every shard count up to the maximum. Streams span
// more windows than the pipeline holds, so shard buffers are reused. The
// runs must reach every branch of the timing scan at least once.
TEST(ParallelReplay, DecoupledCacheMatchesInline) {
  SyntheticTraceConfig GenConfig;
  GenConfig.Events = 33000;
  GenConfig.Seed = 5;
  struct Stream {
    std::string Name;
    std::vector<AccessEvent> Events;
    uint32_t NumSites;
  };
  std::vector<Stream> Streams;
  for (const std::string &Name : syntheticTraceNames()) {
    auto Gen = makeSyntheticTrace(Name, GenConfig);
    ASSERT_NE(Gen, nullptr);
    Streams.push_back({Name, drainAll(*Gen), Gen->numSites()});
  }
  // Prefetch-kind heavy: two of every three loads of stream-seq are
  // preceded by a prefetch of a line a few strides ahead.
  {
    const Stream &Seq = Streams.front();
    Stream Heavy{"prefetch-heavy", {}, Seq.NumSites};
    for (size_t I = 0; I != Seq.Events.size(); ++I) {
      AccessEvent E = Seq.Events[I];
      if (I % 3 != 0) {
        AccessEvent P = E;
        P.Kind = AccessKind::Prefetch;
        P.Address += 64 * (1 + I % 4);
        Heavy.Events.push_back(P);
      }
      Heavy.Events.push_back(E);
    }
    Streams.push_back(std::move(Heavy));
  }

  Rng R(20021);
  std::vector<MemoryConfig> Configs = {MemoryConfig()};
  for (size_t Levels = 1; Levels <= 4; ++Levels)
    Configs.push_back(randomHierarchy(R, Levels, Levels % 2 == 1));

  uint64_t Late = 0, InFlight = 0, Refresh = 0, Unused = 0;
  for (size_t CI = 0; CI != Configs.size(); ++CI) {
    const MemoryConfig &MC = Configs[CI];
    StreamReplayConfig SC;
    SC.IssueCost = CI % 2 ? 3 : 1;
    const unsigned Max = maxDecoupledShards(MC, SC);
    ASSERT_NE(Max, 0u);
    for (const Stream &St : Streams) {
      SCOPED_TRACE("hierarchy " + std::to_string(CI) + ", " + St.Name);
      std::vector<int64_t> Strides(St.NumSites);
      for (int64_t &Stride : Strides) {
        static constexpr int64_t Choices[] = {0, 0, 8, 64, -64, 192, 4096};
        Stride = Choices[R.below(std::size(Choices))];
      }
      MemoryHierarchy MH(MC);
      VectorSource Src(St.Events, St.NumSites);
      const StreamReplayStats Want =
          replayWithSyntheticPrefetch(MH, Src, SC, Strides, 4);
      const std::string WantMem = memoryStatsToJson(MH.stats()).str();
      for (unsigned Shards : {1u, 2u, 4u, 8u, Max}) {
        if (Shards > Max)
          continue;
        SCOPED_TRACE("shards " + std::to_string(Shards));
        const DecoupledReplayResult Got = replaySyntheticPrefetchDecoupled(
            St.Events, MC, SC, Strides, 4, Shards);
        EXPECT_EQ(Got.Stream.Events, Want.Events);
        EXPECT_EQ(Got.Stream.Loads, Want.Loads);
        EXPECT_EQ(Got.Stream.Prefetches, Want.Prefetches);
        EXPECT_EQ(Got.Stream.Cycles, Want.Cycles);
        EXPECT_EQ(Got.Stream.StallCycles, Want.StallCycles);
        EXPECT_EQ(memoryStatsToJson(Got.Mem).str(), WantMem);
        Late += Got.Mem.LatePrefetchHits;
        InFlight += Got.InFlightHits;
        Refresh += Got.RefreshFills;
        Unused += Got.Mem.PrefetchesUnused;
      }
    }
  }
  EXPECT_GT(Late, 0u);
  EXPECT_GT(InFlight, Late); // in-flight hits on demand-filled lines too
  EXPECT_GT(Refresh, 0u);
  EXPECT_GT(Unused, 0u);
}
