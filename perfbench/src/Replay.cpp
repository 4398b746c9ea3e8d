//===- perfbench/src/Replay.cpp - The "trace-replay" workload -------------===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream path: a seeded stream-mixed synthetic trace, generated in
/// set-up, written each pass with TraceWriter (sprof.trace/2) and replayed
/// with replayTraceFile (parallel decode, site-sharded profile, both cache
/// model passes). It skips interp, instrument and workloads entirely, and
/// drives memsys and strideProf through their stream entry points, so a
/// live-path gain that costs the stream path shows up here.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Traced.h"

#include "driver/ParallelReplay.h"
#include "driver/TraceReplay.h"
#include "obs/Report.h"
#include "stream/SyntheticTrace.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <iostream>

using namespace sprof;

namespace perfbench {

namespace {

/// Events in the set-up trace: 48 MB in memory. A 10M-event trace made the
/// replay bound by memory bandwidth, which other tenants of a shared host
/// perturb, and its wall time spread wider from run to run (measured on a
/// 4-vCPU x86 VM).
constexpr uint64_t TraceEvents = 2'000'000;
constexpr size_t BatchEvents = 4096;

/// Serialized replay outputs: the profile, the per-site classes, and both
/// cache-model passes.
std::string replayDigest(const TraceReplayResult &R) {
  std::string D = std::string(R.Ok ? "ok " : "failed ") +
                  std::to_string(R.Events) + " " +
                  std::to_string(R.NumSites) + " " +
                  std::to_string(R.Profile.Stats.RuntimeCycles) + " " +
                  std::to_string(R.Profile.StrideInvocations) + " " +
                  std::to_string(R.Profile.StrideProcessed) + " " +
                  std::to_string(R.Profile.LfuCalls) + "\n";
  D += profileText(R.Profile.Edges, R.Profile.Strides);
  for (StrideClass C : R.SiteClass)
    D += std::to_string(static_cast<unsigned>(C));
  D += "\n";
  for (const StreamReplayStats *S : {&R.MemBaseline, &R.MemPrefetched})
    D += std::to_string(S->Events) + " " + std::to_string(S->Loads) + " " +
         std::to_string(S->Prefetches) + " " + std::to_string(S->Cycles) +
         " " + std::to_string(S->StallCycles) + "\n";
  D += memoryStatsToJson(R.MemBaselineStats).str(0) + "\n";
  D += memoryStatsToJson(R.MemPrefetchedStats).str(0) + "\n";
  return D;
}

class ReplayBench final : public BenchWorkload {
public:
  ReplayBench(uint64_t Seed, unsigned Threads, std::string WorkDir)
      : Seed(Seed), Threads(Threads), WorkDir(std::move(WorkDir)),
        TracePath(this->WorkDir + "/replay.sprof.trace") {}
  ~ReplayBench() override { std::remove(TracePath.c_str()); }

  void setup() override;
  PassResult pass(Checks &C) override;
  std::string digest() const override { return replayDigest(Last); }
  PassResult tracedPass(Tracer &T, TracedExtras &X, Checks &C) override;
  void check(Checks &C) override;
  void measureExtras(TracedExtras &X, Checks &C) override;

private:
  /// Writes the set-up events to TracePath; returns false on I/O failure.
  bool encode(uint64_t &Bytes) const;
  TraceReplayOptions options(unsigned ReplayThreads) const;
  void summarize(PassResult &R) const;

  uint64_t Seed;
  unsigned Threads;
  std::string WorkDir;
  std::string TracePath;
  PipelineConfig Config;
  std::vector<AccessEvent> Events;
  uint32_t NumSites = 0;
  TraceReplayResult Last;
};

void ReplayBench::setup() {
  std::vector<AccessEvent>().swap(Events);
  std::unique_ptr<AccessSource> Src =
      makeSyntheticTrace("stream-mixed", {TraceEvents, Seed});
  NumSites = Src->numSites();
  Events.resize(TraceEvents);
  size_t N = 0;
  while (N < Events.size()) {
    const size_t K = Src->pull(Events.data() + N,
                               std::min(BatchEvents, Events.size() - N));
    if (K == 0)
      break;
    N += K;
  }
  Events.resize(N);
}

bool ReplayBench::encode(uint64_t &Bytes) const {
  std::string Err;
  std::unique_ptr<TraceWriter> W =
      TraceWriter::open(TracePath, NumSites, {}, /*Text=*/false, &Err);
  if (!W) {
    std::cerr << "perfbench: " << Err << "\n";
    return false;
  }
  for (size_t I = 0; I < Events.size(); I += BatchEvents)
    W->onBatch(Events.data() + I, std::min(BatchEvents, Events.size() - I));
  W->finish();
  Bytes = W->bytesWritten();
  return W->ok();
}

TraceReplayOptions ReplayBench::options(unsigned ReplayThreads) const {
  TraceReplayOptions O;
  O.Config = Config;
  O.Threads = ReplayThreads;
  O.SimulateMemory = true;
  O.EvaluateWorkload = false;
  return O;
}

void ReplayBench::summarize(PassResult &R) const {
  const StreamReplayStats &B = Last.MemBaseline, &P = Last.MemPrefetched;
  R.SimOps = B.Loads + B.Prefetches + P.Loads + P.Prefetches;
  R.Events = Last.Events;
  // The stream-only evaluation: demand-only cycles over cycles with the
  // synthesized prefetches, and the strideProf runtime's simulated cost
  // over the demand-only stream.
  R.SimSpeedup = P.Cycles ? static_cast<double>(B.Cycles) /
                                static_cast<double>(P.Cycles)
                          : 0.0;
  R.SimOverheadPct = B.Cycles ? 100.0 *
                                    static_cast<double>(
                                        Last.Profile.Stats.RuntimeCycles) /
                                    static_cast<double>(B.Cycles)
                              : 0.0;
}

PassResult ReplayBench::pass(Checks &C) {
  PassResult R;
  uint64_t Bytes = 0;
  const bool Wrote = encode(Bytes);
  const Clock::time_point T0 = Clock::now();
  Last = replayTraceFile(TracePath, options(Threads));
  R.JobMs.push_back(secondsSince(T0) * 1000.0);
  C.addJobs(2, (Wrote ? 0 : 1) + (Last.Ok ? 0 : 1));
  if (!Last.Ok)
    std::cerr << "perfbench: replay failed: " << Last.Error << "\n";
  summarize(R);
  return R;
}

PassResult ReplayBench::tracedPass(Tracer &T, TracedExtras &X, Checks &C) {
  PassResult R;
  X.Lanes = 1;
  LayerCounts &L = T.Counts;
  TraceReplayResult Res;
  {
    JobScope J(T, "trace-replay");
    uint64_t Bytes = 0;
    const bool Wrote = J.layer("stream.encode", [&] { return encode(Bytes); });
    L.EncodedEvents += Events.size();
    L.EncodedBytes += Bytes;

    // replayTraceFileParallel, call by call: indexed open and sharded
    // decode, then replayStream's stream-only passes.
    std::vector<AccessEvent> Decoded;
    std::unique_ptr<TraceReader> Reader;
    bool DecodedOk = false;
    J.layer("stream.decode", [&] {
      Reader = TraceReader::openFileIndexed(TracePath);
      std::string Err;
      TraceError Code = TraceError::None;
      DecodedOk = Reader->ok() && Reader->index().Present &&
                  decodeTraceParallel(TracePath, *Reader, Threads, Decoded,
                                      Err, Code);
    });
    L.DecodedEvents += Decoded.size();
    C.addJobs(2, (Wrote ? 0 : 1) + (DecodedOk ? 0 : 1));

    Res.Source = TracePath;
    Res.NumSites = Reader->numSites();
    Res.Events = Decoded.size();
    Res.Method = ProfilingMethod::EdgeCheck;
    VectorSource Src(std::move(Decoded), Res.NumSites, TracePath);

    StrideProfilerConfig PC = Config.Profiler;
    PC.Sampling.Enabled = methodUsesSampling(Res.Method);
    ShardedProfileResult SP = J.layer(
        "profile", [&] { return profileEventsSharded(Src, PC, Threads); });
    Res.Ok = SP.Ok;
    Res.Profile.Method = Res.Method;
    Res.Profile.Stats.RuntimeCycles = SP.RuntimeCycles;
    Res.Profile.Stats.Cycles = SP.RuntimeCycles;
    Res.Profile.Stats.Completed = SP.Ok;
    Res.Profile.Strides = std::move(SP.Strides);
    Res.Profile.StrideInvocations = SP.Invocations;
    Res.Profile.StrideProcessed = SP.Processed;
    Res.Profile.LfuCalls = SP.LfuCalls;
    if (Reader->edgeSection().Present)
      Res.Profile.Edges = edgeProfileFromSection(Reader->edgeSection());
    L.ProfileEvents += SP.Invocations;
    L.ProfileProcessed += SP.Processed;
    L.LfuCalls += SP.LfuCalls;

    std::vector<int64_t> SiteStride;
    J.layer("feedback", [&] {
      Res.SiteClass.assign(Res.Profile.Strides.numSites(), StrideClass::None);
      for (uint32_t S = 0; S != Res.Profile.Strides.numSites(); ++S)
        Res.SiteClass[S] = classifyStrideSummary(Res.Profile.Strides.site(S),
                                                 Config.Classifier);
    });
    J.layer("prefetch", [&] {
      SiteStride.assign(Res.SiteClass.size(), 0);
      for (uint32_t S = 0; S != Res.SiteClass.size(); ++S) {
        const StrideClass Cls = Res.SiteClass[S];
        if (Cls == StrideClass::SSST || Cls == StrideClass::PMST ||
            (Cls == StrideClass::WSST && Config.Classifier.EnableWsstPrefetch))
          SiteStride[S] = Res.Profile.Strides.site(S).top1Stride();
      }
    });
    for (int64_t Stride : SiteStride)
      if (Stride != 0) {
        ++L.Decisions;
        ++L.Inserted;
      }

    StreamReplayConfig SC;
    SC.HiddenLatency = Config.Timing.FlatLoadLatency;
    SC.BatchSize = Config.Interp.StrideBatchWindow;
    MemoryHierarchy Base(Config.Memory);
    Src.reset();
    Res.MemBaseline =
        J.layer("memsys", [&] { return replayAccessStream(Base, Src, SC); });
    L.MemsysNs += static_cast<int64_t>(J.lastNs());
    Res.MemBaselineStats = Base.stats();
    countMemory(L, Res.MemBaselineStats);

    // The prefetched pass of TraceReplay.cpp: every load at a site with a
    // synthesized stride also prefetches Distance strides ahead. The
    // traced-vs-untraced digest check holds this copy to the original.
    MemoryHierarchy Pf(Config.Memory);
    Src.reset();
    Res.MemPrefetched = J.layer("memsys", [&] {
      StreamReplayStats S;
      const unsigned Distance = TraceReplayOptions().StreamPrefetchDistance;
      std::vector<AccessEvent> Buf(SC.BatchSize);
      uint64_t Now = 0;
      while (size_t N = Src.pull(Buf.data(), Buf.size())) {
        for (size_t I = 0; I < N; ++I) {
          const AccessEvent &E = Buf[I];
          Now += SC.IssueCost;
          if (E.Kind == AccessKind::Prefetch) {
            Pf.prefetch(E.Address, Now, E.SiteId);
            ++S.Prefetches;
          } else {
            const uint64_t Latency = Pf.demandAccess(E.Address, Now, E.SiteId);
            const uint64_t Stall =
                Latency > SC.HiddenLatency ? Latency - SC.HiddenLatency : 0;
            Now += Stall;
            S.StallCycles += Stall;
            ++S.Loads;
            const int64_t Stride =
                E.SiteId < SiteStride.size() ? SiteStride[E.SiteId] : 0;
            if (Stride != 0) {
              Now += SC.IssueCost;
              Pf.prefetch(E.Address + static_cast<uint64_t>(Stride) * Distance,
                          Now, E.SiteId);
              ++S.Prefetches;
            }
          }
          ++S.Events;
        }
      }
      S.Cycles = Now;
      return S;
    });
    L.MemsysNs += static_cast<int64_t>(J.lastNs());
    Res.MemPrefetchedStats = Pf.stats();
    Res.HasMemSim = true;
    countMemory(L, Res.MemPrefetchedStats);
  }
  Last = std::move(Res);
  summarize(R);
  // The pass is one job on one lane: it is its own critical path.
  const Span &Job = T.jobs().back().Spans.front();
  R.Driver.Jobs = 1;
  R.Driver.BusyMs = static_cast<double>(Job.EndNs - Job.StartNs) / 1e6;
  R.Driver.CriticalPathMs = R.Driver.BusyMs;

  return R;
}

void ReplayBench::measureExtras(TracedExtras &X, Checks &C) {
  // driver.replay_parallel_speedup: the same replay at one thread over the
  // replay at the pass's thread count, both untraced.
  Clock::time_point T0 = Clock::now();
  TraceReplayResult One = replayTraceFile(TracePath, options(1));
  const double SerialS = secondsSince(T0);
  T0 = Clock::now();
  TraceReplayResult Many = replayTraceFile(TracePath, options(Threads));
  const double ParallelS = secondsSince(T0);
  X.ReplayParallelSpeedup = ParallelS > 0 ? SerialS / ParallelS : 0.0;
  C.expect(replayDigest(One) == replayDigest(Many),
           "trace-replay: 1-thread and N-thread replays agree");
}

void ReplayBench::check(Checks &C) {
  C.expect(Events.size() == TraceEvents,
           "trace-replay: the generator produced every event");
  C.expect(Last.Ok && Last.Events == Events.size(),
           "trace-replay: the replay decoded every event");
  C.expect(replayDigest(replayTraceFile(TracePath, options(1))) ==
               replayDigest(Last),
           "trace-replay: the 1-thread replay matches the N-thread replay");

  // A captured live edge-check run must replay to its live profile.
  std::vector<std::unique_ptr<Workload>> Suite = makeSpecIntSuite();
  Rng Pick(Seed * 0x9e3779b97f4a7c15ULL + 41);
  const Workload &W = *Suite[Pick.below(Suite.size())];
  const std::string CapturePath = WorkDir + "/live.sprof.trace";
  PipelineConfig Capture = Config;
  Capture.WorkloadSeedOffset = Seed;
  Capture.TraceCapturePath = CapturePath;
  ProfileRunResult Live =
      Pipeline(W, Capture).runProfile(ProfilingMethod::EdgeCheck,
                                      DataSet::Train);
  TraceReplayOptions O = options(Threads);
  O.SimulateMemory = false;
  TraceReplayResult Replayed = replayTraceFile(CapturePath, O);
  std::remove(CapturePath.c_str());
  const std::string Tag = "trace-replay: live " + W.info().Name +
                          "/edge-check/train capture ";
  C.expect(Live.Capture.Enabled && Replayed.Ok, Tag + "writes and reads");
  C.expect(profileText(Live.Edges, Live.Strides) ==
               profileText(Replayed.Profile.Edges, Replayed.Profile.Strides),
           Tag + "replays to its live profile");
  C.expect(Live.StrideInvocations == Replayed.Profile.StrideInvocations &&
               Live.StrideProcessed == Replayed.Profile.StrideProcessed &&
               Live.LfuCalls == Replayed.Profile.LfuCalls,
           Tag + "replays to its live strideProf call counts");
}

} // namespace

std::unique_ptr<BenchWorkload> makeReplayBench(uint64_t Seed, unsigned Threads,
                                               std::string WorkDir) {
  return std::make_unique<ReplayBench>(Seed, Threads, std::move(WorkDir));
}

} // namespace perfbench
