//===- tests/test_stream.cpp - Access-stream and trace capture/replay ------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream layer's contract: trace files round-trip every event bit for
/// bit (binary and text, including the ring-boundary batch sizes), read
/// errors come back as precise TraceError codes, the synthetic generators
/// are deterministic, and -- the load-bearing guarantee -- replaying a
/// capture of a live profile run reproduces the stride profile, classifier
/// verdicts, timed-run accounting, and attribution counters bit-identically
/// to the run that produced it, for every profiling method on both engines.
///
//===----------------------------------------------------------------------===//

#include "driver/ParallelReplay.h"
#include "driver/Pipeline.h"
#include "driver/TraceReplay.h"
#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "obs/Report.h"
#include "profile/ProfileData.h"
#include "profile/ProfileStore.h"
#include "profile/StrideProfiler.h"
#include "stream/AccessStream.h"
#include "stream/InterpreterSource.h"
#include "stream/SyntheticTrace.h"
#include "stream/TraceFile.h"
#include "workloads/TraceWorkload.h"
#include "workloads/Workload.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
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

/// Writes \p Events through a string-backed TraceWriter and decodes them
/// back, checking header and footer metadata along the way.
std::vector<AccessEvent> roundTrip(const std::vector<AccessEvent> &Events,
                                   uint32_t NumSites, bool Text) {
  std::stringstream SS;
  const TraceProvenance Prov{"unit.workload", "train", "edge-check"};
  {
    TraceWriter W(SS, NumSites, Prov, Text);
    W.onBatch(Events.data(), Events.size());
    W.finish();
    EXPECT_TRUE(W.ok()) << W.error();
    EXPECT_EQ(W.eventsWritten(), Events.size());
    EXPECT_GT(W.bytesWritten(), 0u);
  }
  TraceReader R(SS);
  EXPECT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.text(), Text);
  EXPECT_EQ(R.version(), Text ? 1u : TraceFormatVersion);
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

TEST(TraceFile, EmptyRoundTrip) {
  for (bool Text : {false, true}) {
    SCOPED_TRACE(Text ? "text" : "binary");
    expectSameEvents({}, roundTrip({}, 4, Text));
  }
}

TEST(TraceFile, SingleEventRoundTrip) {
  AccessEvent E;
  E.Address = 0xdeadbeef12345678ull;
  E.GlobalRefIndex = 42;
  E.SiteId = 7;
  E.Kind = AccessKind::Prefetch;
  for (bool Text : {false, true}) {
    SCOPED_TRACE(Text ? "text" : "binary");
    expectSameEvents({E}, roundTrip({E}, 8, Text));
  }
}

// The sizes that straddle the engines' stride-event ring (and the writer's
// internal batch): one below, exactly at, one above the default 256 window.
TEST(TraceFile, RingBoundaryRoundTrip) {
  for (size_t N : {size_t(255), size_t(256), size_t(257), size_t(1000)}) {
    const std::vector<AccessEvent> Events = patternEvents(N);
    for (bool Text : {false, true}) {
      SCOPED_TRACE((Text ? "text/" : "binary/") + std::to_string(N));
      expectSameEvents(Events, roundTrip(Events, 5, Text));
    }
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

  for (bool Text : {false, true}) {
    SCOPED_TRACE(Text ? "text" : "binary");
    std::stringstream SS;
    {
      TraceWriter W(SS, 1, {}, Text);
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
}

TEST(TraceFile, FileBackedResetReplaysTheStream) {
  const std::string Path = tmpPath("reset.sprof.trace");
  const std::vector<AccessEvent> Events = patternEvents(300);
  {
    std::string Err;
    auto W = TraceWriter::open(Path, 5, {}, /*Text=*/false, &Err);
    ASSERT_NE(W, nullptr) << Err;
    W->onBatch(Events.data(), Events.size());
    W->finish();
    ASSERT_TRUE(W->ok()) << W->error();
  }
  auto R = TraceReader::openFile(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  expectSameEvents(Events, drainAll(*R));
  ASSERT_TRUE(R->reset());
  expectSameEvents(Events, drainAll(*R));
  EXPECT_TRUE(R->ok()) << R->error();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The /2 shard index: seekable open and independent chunk decode
//===----------------------------------------------------------------------===//

TEST(TraceFile, ShardIndexRoundTripAndShardDecode) {
  const std::string Path = tmpPath("indexed.sprof.trace");
  const std::vector<AccessEvent> Events = patternEvents(1000);
  size_t Loads = 0;
  for (const AccessEvent &E : Events)
    Loads += E.Kind == AccessKind::Load;
  {
    std::string Err;
    auto W = TraceWriter::open(Path, 5, {}, /*Text=*/false, &Err,
                               /*IndexInterval=*/64);
    ASSERT_NE(W, nullptr) << Err;
    EXPECT_EQ(W->version(), 2u);
    EXPECT_STREQ(W->schema(), TraceSchemaV2);
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
    // Shard readers cannot rewind: the carried state is gone.
    EXPECT_FALSE(SR->reset());
  }

  // A shard range outside the index is rejected, not clamped.
  auto Bad = TraceReader::openShard(Path, Idx, Idx.numChunks(), 1);
  EXPECT_FALSE(Bad->ok());
  EXPECT_EQ(Bad->errorCode(), TraceError::Corrupt);
  std::remove(Path.c_str());
}

// IndexInterval 0 turns the index off and produces a version-1 container:
// the compatibility escape hatch, and the regression proof that /1 files
// remain readable unchanged.
TEST(TraceFile, IndexIntervalZeroWritesVersion1) {
  const std::string Path = tmpPath("v1compat.sprof.trace");
  const std::vector<AccessEvent> Events = patternEvents(300);
  {
    std::string Err;
    auto W = TraceWriter::open(Path, 5, {}, /*Text=*/false, &Err,
                               /*IndexInterval=*/0);
    ASSERT_NE(W, nullptr) << Err;
    EXPECT_EQ(W->version(), 1u);
    EXPECT_STREQ(W->schema(), TraceSchemaV1);
    W->onBatch(Events.data(), Events.size());
    W->finish();
    ASSERT_TRUE(W->ok()) << W->error();
  }
  auto R = TraceReader::openFile(Path);
  ASSERT_TRUE(R->ok()) << R->error();
  EXPECT_EQ(R->version(), 1u);
  expectSameEvents(Events, drainAll(*R));
  ASSERT_TRUE(R->ok()) << R->error();
  EXPECT_TRUE(R->atEnd());
  EXPECT_FALSE(R->index().Present);

  // Indexed open hands a /1 file back positioned for sequential decode.
  auto RI = TraceReader::openFileIndexed(Path);
  ASSERT_TRUE(RI->ok()) << RI->error();
  EXPECT_FALSE(RI->index().Present);
  expectSameEvents(Events, drainAll(*RI));
  EXPECT_TRUE(RI->ok()) << RI->error();
  std::remove(Path.c_str());
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
/// small strides, 32-bit site jumps, and address and ref deltas that need
/// all ten varint bytes (a 10th byte of 0x01, the largest legal one).
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
    E.SiteId = I % 11 == 10 ? 0xfffffff0u : static_cast<uint32_t>(I % 4);
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
        Events, 0xfffffff1u, {std::string(Pad, 'w'), "", ""}, Ends);
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

// The seekable tail's two failure modes: a chopped-off tail (unfinished or
// truncated capture) and an offset word that no longer points at the
// end-of-events marker (bit rot). Both must be loud, typed errors.
TEST(TraceFile, IndexedOpenRejectsDamagedTails) {
  std::stringstream SS;
  {
    TraceWriter W(SS, 5, {}, /*Text=*/false, /*IndexInterval=*/32);
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
  EXPECT_EQ(R->version(), TraceFormatVersion);
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

TEST(TraceReplay, ReadErrorsSurfaceThroughTheResult) {
  TraceReplayResult R =
      replayTraceFile(tmpPath("no_such_replay.sprof.trace"));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorCode, TraceError::Io);
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// Stream primitives and synthetic generators
//===----------------------------------------------------------------------===//

TEST(Stream, VectorSourceDrainAndTee) {
  const std::vector<AccessEvent> Events = patternEvents(300);
  VectorSource Src(Events, 5, "unit");
  CollectSink A, B;
  TeeSink Tee;
  Tee.add(&A);
  Tee.add(&B);
  EXPECT_EQ(drainStream(Src, Tee, 64), Events.size());
  expectSameEvents(Events, A.events());
  expectSameEvents(Events, B.events());
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

TEST(Stream, TraceWorkloadRegistry) {
  EXPECT_EQ(traceWorkloadNames(), syntheticTraceNames());
  EXPECT_TRUE(isTraceWorkloadName("stream-seq"));
  EXPECT_TRUE(isTraceWorkloadName("trace:/tmp/whatever.sprof.trace"));
  EXPECT_FALSE(isTraceWorkloadName("181.mcf"));
  EXPECT_EQ(makeAccessSourceByName("no-such-stream"), nullptr);
  auto Src = makeAccessSourceByName("stream-chase");
  ASSERT_NE(Src, nullptr);
  EXPECT_GT(drainAll(*Src).size(), 0u);
  // A "trace:" name with an unreadable file still resolves (the error
  // lives in the reader), it just produces no events.
  auto Bad = makeAccessSourceByName("trace:" + tmpPath("missing.sprof.trace"));
  ASSERT_NE(Bad, nullptr);
  EXPECT_EQ(drainAll(*Bad).size(), 0u);
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
// InterpreterSource: the engines as one source among several
//===----------------------------------------------------------------------===//

TEST(Stream, InterpreterSourceMatchesLiveProfiler) {
  for (auto Engine : {InterpreterConfig::Engine::Reference,
                      InterpreterConfig::Engine::Decoded}) {
    SCOPED_TRACE(Engine == InterpreterConfig::Engine::Reference
                     ? "reference"
                     : "decoded");
    uint32_t D, N;
    StrideProfilerConfig PC;
    PC.Sampling.Enabled = false;

    // Live: profiler attached to the run.
    Module MLive = test::makeChaseModule(D, N);
    instrumentModule(MLive, ProfilingMethod::EdgeCheck);
    SimMemory MemLive;
    test::fillChaseList(MemLive, 4096, 64);
    StrideProfiler Live(MLive.NumLoadSites, PC);
    InterpreterConfig IC;
    IC.Exec = Engine;
    Interpreter ILive(MLive, std::move(MemLive), TimingModel(), IC);
    ILive.attachProfiler(&Live);
    const RunStats LiveStats = ILive.run();
    ASSERT_TRUE(LiveStats.Completed);

    // Streamed: the same run wrapped as an AccessSource, consumed by a
    // fresh profiler.
    Module MSrc = test::makeChaseModule(D, N);
    instrumentModule(MSrc, ProfilingMethod::EdgeCheck);
    SimMemory MemSrc;
    test::fillChaseList(MemSrc, 4096, 64);
    Interpreter ISrc(MSrc, std::move(MemSrc), TimingModel(), IC);
    InterpreterSource Src(ISrc, MSrc.NumLoadSites);
    StrideProfiler Streamed(MSrc.NumLoadSites, PC);
    const uint64_t Cost = Streamed.consume(Src);

    ASSERT_TRUE(Src.ran());
    EXPECT_EQ(Src.stats().LoadRefs, LiveStats.LoadRefs);
    // The stream-driven profiler charges exactly what the live run booked
    // as runtime cycles, and harvests the identical profile.
    EXPECT_EQ(Cost, LiveStats.RuntimeCycles);
    EXPECT_EQ(Streamed.totalInvocations(), Live.totalInvocations());
    EXPECT_EQ(Streamed.totalProcessed(), Live.totalProcessed());
    EXPECT_EQ(Streamed.totalLfuCalls(), Live.totalLfuCalls());
    EXPECT_EQ(strideProfileToJson(StrideProfile::fromProfiler(Streamed)).str(),
              strideProfileToJson(StrideProfile::fromProfiler(Live)).str());
  }
}

//===----------------------------------------------------------------------===//
// Capture -> replay fidelity (the acceptance bar)
//===----------------------------------------------------------------------===//

// Every profiling method on both engines: a capture of the live profile
// run replays to a bit-identical stride profile, edge profile, and
// strideProf call accounting.
TEST(TraceReplay, ReplayedProfilesMatchLiveAcrossMethodsAndEngines) {
  std::unique_ptr<Workload> W = makeWorkloadByName("181.mcf");
  ASSERT_NE(W, nullptr);
  for (auto Engine : {InterpreterConfig::Engine::Reference,
                      InterpreterConfig::Engine::Decoded}) {
    for (ProfilingMethod Method : allProfilingMethods()) {
      const std::string Tag =
          std::string(Engine == InterpreterConfig::Engine::Reference
                          ? "reference"
                          : "decoded") +
          "/" + profilingMethodName(Method);
      SCOPED_TRACE(Tag);
      const std::string Path = tmpPath("diff_" +
                                       std::string(profilingMethodName(
                                           Method)) +
                                       (Engine ==
                                                InterpreterConfig::Engine::
                                                    Reference
                                            ? "_ref"
                                            : "_dec") +
                                       ".sprof.trace");

      PipelineConfig C = engineConfig(Engine);
      C.TraceCapturePath = Path;
      Pipeline P(*W, C);
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
      // The serialized store -- what experiments persist -- is identical.
      const ProfileStore LiveStore({W->info().Name,
                                    profilingMethodName(Method),
                                    dataSetName(DataSet::Train)},
                                   Live.Edges, Live.Strides);
      const ProfileStore ReplayStore({W->info().Name,
                                      profilingMethodName(Method),
                                      dataSetName(DataSet::Train)},
                                     Replay.Profile.Edges,
                                     Replay.Profile.Strides);
      EXPECT_EQ(LiveStore.toString(), ReplayStore.toString());
      std::remove(Path.c_str());
    }
  }
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
// and the prefetched pass, so this also holds the schedule to the result.
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

  // Every synthetic generator, attribution on for the prefetched pass; a
  // small index interval gives the parallel decode many chunks.
  SyntheticTraceConfig Config;
  Config.Events = 60000;
  Config.Seed = 3;
  for (const std::string &Name : syntheticTraceNames()) {
    SCOPED_TRACE(Name);
    auto Src = makeSyntheticTrace(Name, Config);
    ASSERT_NE(Src, nullptr);
    const std::string Path = tmpPath("par_" + Name + ".sprof.trace");
    std::string Err;
    auto Writer = TraceWriter::open(Path, Src->numSites(), {}, false, &Err,
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

// The shard count is an implementation knob, not an observable: any value,
// on any method, produces the identical profile as the serial replay --
// the commutative-merge contract at the options level.
TEST(TraceReplay, ProfileShardCountIsObservationallyInvisible) {
  SyntheticTraceConfig Config;
  Config.Events = 30000;
  Config.Seed = 11;
  auto Src = makeSyntheticTrace("stream-mixed", Config);
  ASSERT_NE(Src, nullptr);

  for (ProfilingMethod Method : allProfilingMethods()) {
    SCOPED_TRACE(profilingMethodName(Method));
    TraceReplayOptions Base;
    Base.Method = Method;
    Base.EvaluateWorkload = false;
    Base.SimulateMemory = false;
    ASSERT_TRUE(Src->reset());
    const TraceReplayResult Serial = replayStream(*Src, Base, "mixed");
    ASSERT_TRUE(Serial.Ok) << Serial.Error;
    for (unsigned Shards : {1u, 2u, 5u, 16u}) {
      SCOPED_TRACE("shards " + std::to_string(Shards));
      TraceReplayOptions O = Base;
      O.Threads = 3;
      O.ProfileShards = Shards;
      ASSERT_TRUE(Src->reset());
      const TraceReplayResult R = replayStream(*Src, O, "mixed");
      expectSameReplay(Serial, R);
    }
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
    auto W = TraceWriter::open(Path, NumSites, {}, false, &Err);
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
      for (const unsigned Shards : {0u, 2u, 7u}) {
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
