//===- bench/bench_runtime.cpp - Profiling-runtime micro-benchmarks ---------===//
//
// Part of the StrideProf project (see bench_fig16_speedup.cpp for the
// project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-suite for the profiling runtime itself: the LFU
/// value profiler under different value diversities, the strideProf fast
/// paths (zero-stride shortcut, sampling early-outs), and the coarsening
/// enhancement -- the host-machine counterparts of the simulated cost
/// model in StrideCostModel.
///
/// `bench_runtime --compare` switches to the wall-clock engine harness:
/// Reference vs Decoded execution cores over real workloads, median-of-N
/// wall time and instructions/sec, written to BENCH_runtime.json so the
/// perf trajectory stays machine-readable across PRs
/// (docs/PERFORMANCE.md). The two engines are cross-checked for
/// bit-identical simulated accounting.
/// `--with-telemetry` adds a fully-instrumented Decoded series per
/// workload (live ObsSession with the background TelemetrySampler and the
/// engine self-profiler) and gates the measured overhead: warn above
/// --telemetry-warn (default 2%), fail above --telemetry-fail (default 5%).
///
//===----------------------------------------------------------------------===//

#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "memsys/Cache.h"
#include "obs/Json.h"
#include "obs/Obs.h"
#include "obs/Sampler.h"
#include "obs/SelfProfiler.h"
#include "profile/LfuValueProfiler.h"
#include "profile/ProfileData.h"
#include "profile/ProfileStore.h"
#include "profile/StrideProfiler.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace sprof;

namespace {

// Deterministic pseudo-random sequence for stride streams.
uint64_t nextRand(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

void BM_LfuSingleValue(benchmark::State &State) {
  LfuValueProfiler L;
  for (auto _ : State)
    benchmark::DoNotOptimize(L.add(128));
}
BENCHMARK(BM_LfuSingleValue);

void BM_LfuFewValues(benchmark::State &State) {
  LfuValueProfiler L;
  uint64_t R = 0x1234;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.add(static_cast<int64_t>((nextRand(R) & 3) * 64)));
}
BENCHMARK(BM_LfuFewValues);

void BM_LfuManyValues(benchmark::State &State) {
  // Worst case: values rarely repeat, every add scans the whole temp
  // buffer and churns the LFU entry.
  LfuValueProfiler L;
  uint64_t R = 0x1234;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.add(static_cast<int64_t>(nextRand(R) & 0xFFFF)));
}
BENCHMARK(BM_LfuManyValues);

void BM_LfuCoarsened(benchmark::State &State) {
  // Same many-value stream but with the paper's 16-byte coarsening: the
  // effective value diversity (and thus cost) drops.
  LfuConfig C;
  C.CoarsenShift = 8;
  LfuValueProfiler L(C);
  uint64_t R = 0x1234;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        L.add(static_cast<int64_t>(nextRand(R) & 0xFFFF)));
}
BENCHMARK(BM_LfuCoarsened);

void BM_StrideProfConstantStride(benchmark::State &State) {
  StrideProfilerConfig C;
  StrideProfiler P(1, C);
  uint64_t Addr = 0x100000;
  for (auto _ : State) {
    benchmark::DoNotOptimize(P.profile(0, Addr));
    Addr += 128;
  }
}
BENCHMARK(BM_StrideProfConstantStride);

void BM_StrideProfZeroStride(benchmark::State &State) {
  // The zero-stride shortcut: never reaches LFU.
  StrideProfilerConfig C;
  StrideProfiler P(1, C);
  for (auto _ : State)
    benchmark::DoNotOptimize(P.profile(0, 0x100000));
}
BENCHMARK(BM_StrideProfZeroStride);

void BM_StrideProfRandomStride(benchmark::State &State) {
  StrideProfilerConfig C;
  StrideProfiler P(1, C);
  uint64_t R = 0x9e3779b9;
  for (auto _ : State)
    benchmark::DoNotOptimize(P.profile(0, nextRand(R) & 0xFFFFFF));
}
BENCHMARK(BM_StrideProfRandomStride);

void BM_StrideProfConstantStrideTelemetry(benchmark::State &State) {
  // Constant-stride stream with a live ObsSession attached: measures the
  // cost of the telemetry sinks (cached-pointer counter bumps + one
  // histogram record per call) against BM_StrideProfConstantStride.
  ObsConfig OC;
  OC.Enabled = true;
  ObsSession Session(OC);
  StrideProfilerConfig C;
  StrideProfiler P(1, C);
  P.attachObs(&Session);
  uint64_t Addr = 0x100000;
  for (auto _ : State) {
    benchmark::DoNotOptimize(P.profile(0, Addr));
    Addr += 128;
  }
}
BENCHMARK(BM_StrideProfConstantStrideTelemetry);

// A synthetic but realistically shaped profile shard: NumSites stride
// tables populated through the real profiler, plus an edge profile with a
// handful of counters per function. \p Salt perturbs counts/strides so
// different shards do not collapse to identical tables.
ProfileStore makeShard(uint32_t NumSites, uint64_t Salt) {
  StrideProfilerConfig C;
  StrideProfiler P(NumSites, C);
  uint64_t R = 0x1234 + Salt;
  for (uint32_t Site = 0; Site != NumSites; ++Site) {
    uint64_t Addr = 0x100000;
    uint64_t Stride = 8 * (1 + ((Site + Salt) & 7));
    for (unsigned I = 0; I != 64; ++I) {
      P.profile(Site, Addr);
      Addr += (nextRand(R) & 15) ? Stride : (nextRand(R) & 0xFFF);
    }
  }
  EdgeProfile Edges(4);
  for (uint32_t F = 0; F != 4; ++F) {
    Edges.setEntryCount(F, 100 + Salt + F);
    for (uint32_t B = 0; B != 8; ++B)
      Edges.setFrequency(F, Edge{B, 0}, (B + 1) * 10 + Salt);
  }
  return ProfileStore({"bench.synthetic", "edge-check", "train"},
                      std::move(Edges), StrideProfile::fromProfiler(P));
}

void BM_ProfileStoreMerge(benchmark::State &State) {
  // Shard merge throughput: union 8 shards' stride tables and edge
  // counters, then one LFU-style truncation — the per-aggregation cost of
  // the sharded-profile workflow.
  const uint32_t NumSites = static_cast<uint32_t>(State.range(0));
  std::vector<ProfileStore> Shards;
  for (uint64_t S = 0; S != 8; ++S)
    Shards.push_back(makeShard(NumSites, S));
  std::vector<const ProfileStore *> Ptrs;
  for (const ProfileStore &S : Shards)
    Ptrs.push_back(&S);
  for (auto _ : State) {
    ProfileStore Merged;
    bool Ok = ProfileStore::mergeShards(Ptrs, 8, Merged);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Merged);
  }
}
BENCHMARK(BM_ProfileStoreMerge)->Arg(16)->Arg(256);

void BM_ProfileStoreSaveLoad(benchmark::State &State) {
  // Serialization round-trip: text write + parse of one mid-size store.
  ProfileStore Store = makeShard(256, 0);
  for (auto _ : State) {
    std::string Text = Store.toString();
    ProfileStore Loaded;
    bool Ok = ProfileStore::loadString(Text, Loaded);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Loaded);
  }
}
BENCHMARK(BM_ProfileStoreSaveLoad);

void BM_StrideProfSampled(benchmark::State &State) {
  // With sampling, most invocations exit at the chunk/fine checks.
  StrideProfilerConfig C;
  C.Sampling.Enabled = true;
  StrideProfiler P(1, C);
  uint64_t Addr = 0x100000;
  for (auto _ : State) {
    benchmark::DoNotOptimize(P.profile(0, Addr));
    Addr += 128;
  }
}
BENCHMARK(BM_StrideProfSampled);

/// One full Decoded-engine execution of \p Name on the train input;
/// workload (re)build excluded from the timing, matching the --compare
/// harness's convention. \p Session, when non-null, is attached for the
/// whole run.
void runDecodedOnce(benchmark::State &State, const Workload &W,
                    ObsSession *Session) {
  State.PauseTiming();
  Program Prog = W.build({DataSet::Train});
  InterpreterConfig IC;
  IC.Exec = InterpreterConfig::Engine::Decoded;
  Interpreter I(Prog.M, std::move(Prog.Memory), TimingModel(), IC);
  if (Session)
    I.attachObs(Session);
  State.ResumeTiming();
  RunStats S = I.run();
  benchmark::DoNotOptimize(S.Cycles);
}

void BM_DecodedEngineRun(benchmark::State &State) {
  // Whole-engine throughput baseline: decode + execute a real workload on
  // the Decoded engine, no telemetry attached.
  std::unique_ptr<Workload> W = makeWorkloadByName("164.gzip");
  for (auto _ : State)
    runDecodedOnce(State, *W, nullptr);
}
BENCHMARK(BM_DecodedEngineRun)->Unit(benchmark::kMillisecond);

void BM_DecodedEngineRunTelemetry(benchmark::State &State) {
  // Telemetry twin of BM_DecodedEngineRun (the engine-level counterpart of
  // BM_StrideProfConstantStrideTelemetry): a live ObsSession is attached,
  // so the delta against the plain run is the whole-run cost of the
  // engine's telemetry sinks.
  ObsConfig OC;
  OC.Enabled = true;
  ObsSession Session(OC);
  std::unique_ptr<Workload> W = makeWorkloadByName("164.gzip");
  for (auto _ : State)
    runDecodedOnce(State, *W, &Session);
}
BENCHMARK(BM_DecodedEngineRunTelemetry)->Unit(benchmark::kMillisecond);

// -- Engine compare harness (--compare) -----------------------------------

/// One engine's measurement over one workload.
struct EngineTiming {
  double MedianMs = 0.0;
  double InstructionsPerSec = 0.0;
  RunStats Stats; ///< first run's stats (identical across runs)
};

struct CompareOptions {
  std::vector<std::string> Workloads = {"181.mcf", "254.gap"};
  unsigned Runs = 5;
  DataSet DS = DataSet::Train;
  bool WithMemsys = false;
  /// Instrument the workload and attach a StrideProfiler, so the timed
  /// runs exercise the profiling runtime (the Decoded engine's batched
  /// strideProf path when no hierarchy is attached).
  bool WithProfiler = false;
  ProfilingMethod ProfMethod = ProfilingMethod::SampleEdgeCheck;
  std::string JsonPath = "BENCH_runtime.json";
  bool WriteJson = true;
  double MinSpeedup = 0.0;
  /// Add the telemetry-overhead series: interleaved plain/instrumented
  /// Decoded runs with a live ObsSession (sampler + self-profiler), the
  /// measured overhead gated against the thresholds below.
  bool WithTelemetry = false;
  double TelemetryWarn = 0.02;
  double TelemetryFail = 0.05;
  /// Sampler interval and self-profiler window for the telemetry series.
  /// The defaults keep the instrumentation cost well under the warn
  /// threshold even on a single-core host.
  uint64_t TelemetryIntervalUs = 2000;
  uint32_t TelemetryWindow = 4096;
  /// Artifact paths for the first workload's telemetry series.
  std::string TimeSeriesPath = "BENCH_timeseries.json";
  std::string FoldedPath = "BENCH_profile.folded";
};

/// Profile observables harvested from one profiled run; the engines must
/// agree on every field (the profiled-mode differential check).
struct ProfiledObservables {
  uint64_t Invocations = 0;
  uint64_t Processed = 0;
  uint64_t LfuCalls = 0;
  std::string ProfileText;

  bool operator==(const ProfiledObservables &O) const {
    return Invocations == O.Invocations && Processed == O.Processed &&
           LfuCalls == O.LfuCalls && ProfileText == O.ProfileText;
  }
};

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// One timed execution of \p W on \p Engine (workload build and, in
/// profiled mode, instrumentation excluded; decode, when the engine
/// pre-decodes, included -- it is part of the engine's per-run cost).
/// \p Prof, when non-null and profiling is on, receives the run's profile
/// observables for the cross-engine equality check.
double timeOneRun(const Workload &W, DataSet DS,
                  InterpreterConfig::Engine Engine,
                  const CompareOptions &Opts, RunStats &StatsOut,
                  ProfiledObservables *Prof = nullptr,
                  ObsSession *Obs = nullptr) {
  Program Prog = W.build({DS});
  if (Opts.WithProfiler)
    instrumentModule(Prog.M, Opts.ProfMethod);
  InterpreterConfig IC;
  IC.Exec = Engine;
  Interpreter I(Prog.M, std::move(Prog.Memory), TimingModel(), IC);
  if (Obs)
    I.attachObs(Obs);
  MemoryHierarchy MH{MemoryConfig()};
  if (Opts.WithMemsys)
    I.attachMemory(&MH);
  std::optional<StrideProfiler> SP;
  if (Opts.WithProfiler) {
    StrideProfilerConfig PC;
    PC.Sampling.Enabled = methodUsesSampling(Opts.ProfMethod);
    SP.emplace(Prog.M.NumLoadSites, PC);
    I.attachProfiler(&*SP);
  }
  auto T0 = std::chrono::steady_clock::now();
  StatsOut = I.run();
  auto T1 = std::chrono::steady_clock::now();
  if (Prof && SP) {
    Prof->Invocations = SP->totalInvocations();
    Prof->Processed = SP->totalProcessed();
    Prof->LfuCalls = SP->totalLfuCalls();
    std::ostringstream OS;
    StrideProfile::fromProfiler(*SP).print(OS);
    Prof->ProfileText = OS.str();
  }
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

void finishTiming(EngineTiming &E, std::vector<double> &WallMs) {
  E.MedianMs = medianOf(WallMs);
  E.InstructionsPerSec =
      E.MedianMs > 0.0 ? static_cast<double>(E.Stats.Instructions) /
                             (E.MedianMs / 1000.0)
                       : 0.0;
}

/// Times both engines over \p Runs rounds, alternating engines within
/// each round so slow environmental drift (thermal throttling, noisy
/// neighbours) biases no side.
void timeEngines(const Workload &W, const CompareOptions &Opts,
                 EngineTiming &Ref, EngineTiming &Dec,
                 ProfiledObservables &RefProf, ProfiledObservables &DecProf) {
  std::vector<double> RefMs, DecMs;
  for (unsigned R = 0; R != Opts.Runs; ++R) {
    RunStats S;
    RefMs.push_back(timeOneRun(W, Opts.DS,
                               InterpreterConfig::Engine::Reference, Opts, S,
                               R == 0 ? &RefProf : nullptr));
    if (R == 0)
      Ref.Stats = S;
    DecMs.push_back(timeOneRun(W, Opts.DS,
                               InterpreterConfig::Engine::Decoded, Opts, S,
                               R == 0 ? &DecProf : nullptr));
    if (R == 0)
      Dec.Stats = S;
  }
  finishTiming(Ref, RefMs);
  finishTiming(Dec, DecMs);
}

/// Telemetry-overhead measurement of one workload on the Decoded engine.
struct TelemetryTiming {
  double PlainMinMs = 0.0;   ///< interleaved uninstrumented control runs
  double MinMs = 0.0;        ///< runs with the live ObsSession attached
  double Overhead = 0.0;     ///< median of per-round with/plain ratios - 1
  uint64_t SamplesTaken = 0; ///< sampler snapshots over the series
  uint64_t SelfSamples = 0;  ///< self-profiler samples over the series
  std::string TopOp;         ///< hottest dispatch op by sample count
};

/// Times interleaved (plain, instrumented) Decoded pairs -- at least nine
/// rounds, more when --runs asks for more -- with one ObsSession (the
/// background sampler and the engine self-profiler both live) attached
/// across the instrumented runs. The overhead estimate is the median of
/// the per-round instrumented/plain ratios: pairing cancels drift that
/// spans a round, and the median discards rounds where a scheduler spike
/// hit one member. When \p WriteArtifacts is set the session's timeseries
/// and folded-profile artifacts are written to the configured paths.
TelemetryTiming timeTelemetry(const Workload &W, const CompareOptions &Opts,
                              bool WriteArtifacts) {
  ObsConfig OC;
  OC.Enabled = true;
  OC.SampleIntervalUs = Opts.TelemetryIntervalUs;
  OC.SelfProfile = true;
  OC.SelfProfileWindow = Opts.TelemetryWindow;
  if (WriteArtifacts) {
    OC.TimeSeriesOutputPath = Opts.TimeSeriesPath;
    OC.FoldedProfilePath = Opts.FoldedPath;
  }
  ObsSession Session(OC);

  if (EngineSelfProfiler *SP = Session.selfProfiler())
    SP->setContext(W.info().Name, "bench");

  // Each measured unit is a batch of runs, so a single scheduler spike is
  // amortized over ~10ms of work instead of dominating one ~2ms run.
  const unsigned Batch = 4;
  auto TimeBatch = [&](ObsSession *Obs) {
    double Total = 0.0;
    for (unsigned B = 0; B != Batch; ++B) {
      RunStats S;
      Total += timeOneRun(W, Opts.DS, InterpreterConfig::Engine::Decoded,
                          Opts, S, nullptr, Obs);
    }
    return Total;
  };

  TelemetryTiming T;
  std::vector<double> PlainMs, TelMs, Ratios;
  // The true overhead target is percent-scale while single-invocation
  // noise on a busy host is a few percent, so the gate needs many rounds
  // for the median to converge; 15 rounds of 2x4 runs is ~300ms per
  // workload.
  const unsigned Rounds = std::max(Opts.Runs, 15u);
  for (unsigned R = 0; R != Rounds; ++R) {
    PlainMs.push_back(TimeBatch(nullptr));
    TelMs.push_back(TimeBatch(&Session));
    if (PlainMs.back() > 0.0)
      Ratios.push_back(TelMs.back() / PlainMs.back());
  }
  Session.stopSampling();
  T.PlainMinMs = *std::min_element(PlainMs.begin(), PlainMs.end()) / Batch;
  T.MinMs = *std::min_element(TelMs.begin(), TelMs.end()) / Batch;
  T.Overhead = Ratios.empty() ? 0.0 : medianOf(Ratios) - 1.0;
  if (const TelemetrySampler *Sampler = Session.sampler())
    T.SamplesTaken = Sampler->samplesTaken();
  if (const EngineSelfProfiler *SP = Session.selfProfiler()) {
    T.SelfSamples = SP->totalSamples();
    std::vector<EngineSelfProfiler::Entry> Entries = SP->entries();
    if (!Entries.empty())
      T.TopOp = SP->slotName(Entries.front().Slot);
  }
  if (WriteArtifacts && !Session.writeArtifacts())
    std::cerr << "warning: could not write telemetry artifacts ("
              << Opts.TimeSeriesPath << ", " << Opts.FoldedPath << ")\n";
  return T;
}

/// One untimed attributed run: same workload, attribution enabled, so the
/// engines' prefetch-outcome and per-site miss attribution can be diffed.
AttributionData attributedRun(const Workload &W, DataSet DS,
                              InterpreterConfig::Engine Engine) {
  Program Prog = W.build({DS});
  InterpreterConfig IC;
  IC.Exec = Engine;
  Interpreter I(Prog.M, std::move(Prog.Memory), TimingModel(), IC);
  MemoryHierarchy MH{MemoryConfig()};
  MH.enableAttribution(Prog.M.NumLoadSites);
  I.attachMemory(&MH);
  I.run();
  MH.finalizeAttribution();
  return MH.attribution();
}

bool sameOutcomes(const PrefetchOutcomeCounts &A,
                  const PrefetchOutcomeCounts &B) {
  return A.Useful == B.Useful && A.Late == B.Late && A.Early == B.Early &&
         A.Redundant == B.Redundant;
}

bool sameAttribution(const AttributionData &A, const AttributionData &B) {
  if (!sameOutcomes(A.Total, B.Total) ||
      A.PerSite.size() != B.PerSite.size() ||
      A.SiteMiss.size() != B.SiteMiss.size())
    return false;
  for (size_t I = 0; I != A.PerSite.size(); ++I)
    if (!sameOutcomes(A.PerSite[I], B.PerSite[I]))
      return false;
  for (size_t I = 0; I != A.SiteMiss.size(); ++I) {
    const SiteMissStats &X = A.SiteMiss[I], &Y = B.SiteMiss[I];
    if (X.Accesses != Y.Accesses || X.L1Misses != Y.L1Misses ||
        X.FullMisses != Y.FullMisses || X.StallCycles != Y.StallCycles)
      return false;
  }
  return true;
}

/// Returns true when the engines' simulated accounting agrees -- the
/// harness doubles as a coarse differential check on real workloads.
bool sameAccounting(const RunStats &A, const RunStats &B) {
  return A.Completed == B.Completed && A.Instructions == B.Instructions &&
         A.Cycles == B.Cycles && A.BaseCycles == B.BaseCycles &&
         A.MemStallCycles == B.MemStallCycles &&
         A.LoadRefs == B.LoadRefs && A.ExitValue == B.ExitValue;
}

int runCompare(const CompareOptions &Opts) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "sprof.bench_runtime_compare/3");
  Root.set("dataset", Opts.DS == DataSet::Train ? "train" : "ref");
  Root.set("runs", Opts.Runs);
  Root.set("with_memsys", Opts.WithMemsys);
  Root.set("with_profiler", Opts.WithProfiler);
  if (Opts.WithProfiler)
    Root.set("profiler_method", profilingMethodName(Opts.ProfMethod));
  JsonValue Rows = JsonValue::array();

  std::cout << "engine compare: Reference vs Decoded, median of "
            << Opts.Runs << " runs, "
            << (Opts.DS == DataSet::Train ? "train" : "ref") << " input"
            << (Opts.WithMemsys ? ", cache hierarchy on" : "");
  if (Opts.WithProfiler)
    std::cout << ", stride profiler on ("
              << profilingMethodName(Opts.ProfMethod) << ")";
  std::cout << "\n";
  std::printf("%-14s %14s %12s %8s\n", "workload", "reference(ms)",
              "decoded(ms)", "speedup");

  bool Ok = true;
  double LogSum = 0.0;
  unsigned Count = 0;
  double WorstOverhead = -1.0; // overhead is a ratio - 1, so >= -1 always
  bool FirstTelemetry = true;
  for (const std::string &Name : Opts.Workloads) {
    std::unique_ptr<Workload> W = makeWorkloadByName(Name);
    if (!W) {
      std::cerr << "error: unknown workload '" << Name << "'\n";
      return 2;
    }
    EngineTiming Ref, Dec;
    ProfiledObservables RefProf, DecProf;
    timeEngines(*W, Opts, Ref, Dec, RefProf, DecProf);
    if (!sameAccounting(Ref.Stats, Dec.Stats)) {
      std::cerr << "error: engines disagree on " << Name
                << " (simulated accounting differs; run the differential "
                   "test suite)\n";
      Ok = false;
    }
    bool ProfileIdentical = true;
    if (Opts.WithProfiler) {
      ProfileIdentical = RefProf == DecProf;
      if (!ProfileIdentical) {
        std::cerr << "error: engines disagree on " << Name
                  << " (profiles differ between Reference and Decoded; "
                     "run the differential test suite)\n";
        Ok = false;
      }
    }
    bool AttributionIdentical = true;
    if (Opts.WithMemsys) {
      // Untimed attributed runs: attribution must not diverge between the
      // engines either (it rides the same demandAccess/prefetch stream).
      AttributionData RefAttr =
          attributedRun(*W, Opts.DS, InterpreterConfig::Engine::Reference);
      AttributionIdentical = sameAttribution(
          RefAttr,
          attributedRun(*W, Opts.DS, InterpreterConfig::Engine::Decoded));
      if (!AttributionIdentical) {
        std::cerr << "error: engines disagree on " << Name
                  << " (prefetch/miss attribution differs)\n";
        Ok = false;
      }
    }
    double Speedup = Dec.MedianMs > 0.0 ? Ref.MedianMs / Dec.MedianMs : 0.0;
    LogSum += std::log(Speedup > 0.0 ? Speedup : 1.0);
    ++Count;
    std::printf("%-14s %14.2f %12.2f %7.2fx\n", Name.c_str(), Ref.MedianMs,
                Dec.MedianMs, Speedup);
    if (Opts.MinSpeedup > 0.0 && Speedup < Opts.MinSpeedup) {
      std::cerr << "error: " << Name << " speedup " << Speedup
                << "x below the --min-speedup gate of " << Opts.MinSpeedup
                << "x\n";
      Ok = false;
    }

    TelemetryTiming Tel;
    if (Opts.WithTelemetry) {
      Tel = timeTelemetry(*W, Opts, Opts.WriteJson && FirstTelemetry);
      FirstTelemetry = false;
      WorstOverhead = std::max(WorstOverhead, Tel.Overhead);
      std::printf("%-14s %14.2f %14.2f %+9.1f%% %16s\n",
                  "  +telemetry", Tel.PlainMinMs, Tel.MinMs,
                  Tel.Overhead * 100.0,
                  Tel.TopOp.empty() ? "-" : Tel.TopOp.c_str());
      if (Tel.Overhead > Opts.TelemetryFail) {
        std::cerr << "error: " << Name << " telemetry overhead "
                  << Tel.Overhead * 100.0 << "% above the --telemetry-fail "
                  << "gate of " << Opts.TelemetryFail * 100.0 << "%\n";
        Ok = false;
      } else if (Tel.Overhead > Opts.TelemetryWarn) {
        std::cerr << "warning: " << Name << " telemetry overhead "
                  << Tel.Overhead * 100.0 << "% above the --telemetry-warn "
                  << "threshold of " << Opts.TelemetryWarn * 100.0 << "%\n";
      }
    }

    JsonValue Row = JsonValue::object();
    Row.set("name", Name);
    JsonValue RefJ = JsonValue::object();
    RefJ.set("median_ms", Ref.MedianMs);
    RefJ.set("instructions_per_sec", Ref.InstructionsPerSec);
    JsonValue DecJ = JsonValue::object();
    DecJ.set("median_ms", Dec.MedianMs);
    DecJ.set("instructions_per_sec", Dec.InstructionsPerSec);
    Row.set("reference", std::move(RefJ));
    Row.set("decoded", std::move(DecJ));
    Row.set("speedup", Speedup);
    Row.set("instructions", Dec.Stats.Instructions);
    Row.set("simulated_cycles", Dec.Stats.Cycles);
    Row.set("accounting_identical", sameAccounting(Ref.Stats, Dec.Stats));
    if (Opts.WithMemsys)
      Row.set("attribution_identical", AttributionIdentical);
    if (Opts.WithProfiler) {
      JsonValue ProfJ = JsonValue::object();
      ProfJ.set("invocations", DecProf.Invocations);
      ProfJ.set("processed", DecProf.Processed);
      ProfJ.set("lfu_calls", DecProf.LfuCalls);
      ProfJ.set("profile_identical", ProfileIdentical);
      Row.set("profiled", std::move(ProfJ));
    }
    if (Opts.WithTelemetry) {
      JsonValue TelJ = JsonValue::object();
      TelJ.set("plain_min_ms", Tel.PlainMinMs);
      TelJ.set("min_ms", Tel.MinMs);
      TelJ.set("overhead", Tel.Overhead);
      TelJ.set("samples_taken", Tel.SamplesTaken);
      TelJ.set("self_profile_samples", Tel.SelfSamples);
      TelJ.set("top_op", Tel.TopOp);
      Row.set("telemetry", std::move(TelJ));
    }
    Rows.push(std::move(Row));
  }
  double Geomean = Count ? std::exp(LogSum / Count) : 0.0;
  std::printf("%-14s %14s %12s %7.2fx\n", "geomean", "", "", Geomean);

  Root.set("workloads", std::move(Rows));
  Root.set("geomean_speedup", Geomean);
  if (Opts.WithTelemetry)
    Root.set("telemetry_overhead", WorstOverhead);
  if (Opts.WriteJson) {
    if (!writeJsonFile(Opts.JsonPath, Root)) {
      std::cerr << "error: could not write " << Opts.JsonPath << "\n";
      return 1;
    }
    std::cerr << "compare report written to " << Opts.JsonPath << "\n";
  }
  return Ok ? 0 : 1;
}

/// Parses the --compare family; returns nullopt when --compare is absent
/// (micro-benchmark mode).
std::optional<CompareOptions> parseCompareArgs(int Argc, char **Argv) {
  bool Compare = false;
  CompareOptions Opts;
  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    auto Value = [&](const std::string &Prefix) -> std::optional<std::string> {
      if (Arg.rfind(Prefix, 0) == 0)
        return Arg.substr(Prefix.size());
      return std::nullopt;
    };
    if (Arg == "--compare") {
      Compare = true;
    } else if (auto V = Value("--workloads=")) {
      Opts.Workloads.clear();
      std::stringstream SS(*V);
      std::string Item;
      while (std::getline(SS, Item, ','))
        if (!Item.empty())
          Opts.Workloads.push_back(Item);
    } else if (auto V = Value("--runs=")) {
      Opts.Runs = std::max(1, std::atoi(V->c_str()));
    } else if (auto V = Value("--dataset=")) {
      Opts.DS = (*V == "ref") ? DataSet::Ref : DataSet::Train;
    } else if (Arg == "--with-memsys") {
      Opts.WithMemsys = true;
    } else if (Arg == "--with-profiler") {
      Opts.WithProfiler = true;
    } else if (auto V = Value("--with-profiler=")) {
      Opts.WithProfiler = true;
      bool Known = false;
      for (ProfilingMethod M : allProfilingMethods())
        if (*V == profilingMethodName(M)) {
          Opts.ProfMethod = M;
          Known = true;
        }
      if (!Known) {
        std::cerr << "error: unknown profiling method '" << *V << "'\n";
        std::exit(2);
      }
    } else if (auto V = Value("--json=")) {
      Opts.JsonPath = *V;
    } else if (Arg == "--no-json") {
      Opts.WriteJson = false;
    } else if (auto V = Value("--min-speedup=")) {
      Opts.MinSpeedup = std::atof(V->c_str());
    } else if (Arg == "--with-telemetry") {
      Opts.WithTelemetry = true;
    } else if (auto V = Value("--telemetry-warn=")) {
      Opts.TelemetryWarn = std::atof(V->c_str());
    } else if (auto V = Value("--telemetry-fail=")) {
      Opts.TelemetryFail = std::atof(V->c_str());
    } else if (auto V = Value("--telemetry-interval-us=")) {
      Opts.TelemetryIntervalUs =
          static_cast<uint64_t>(std::max(0L, std::atol(V->c_str())));
    } else if (auto V = Value("--telemetry-window=")) {
      Opts.TelemetryWindow =
          static_cast<uint32_t>(std::max(1L, std::atol(V->c_str())));
    } else if (auto V = Value("--telemetry-timeseries=")) {
      Opts.TimeSeriesPath = *V;
    } else if (auto V = Value("--telemetry-folded=")) {
      Opts.FoldedPath = *V;
    }
  }
  if (!Compare)
    return std::nullopt;
  return Opts;
}

} // namespace

// Like BENCHMARK_MAIN(), plus the SPROF_BENCH_JSON hook: when the
// environment variable names a file, the run also emits google-benchmark's
// machine-readable JSON there (equivalent to passing --benchmark_out=...).
// `--compare` skips the micro-suite entirely and runs the engine harness.
int main(int argc, char **argv) {
  if (std::optional<CompareOptions> Opts = parseCompareArgs(argc, argv))
    return runCompare(*Opts);

  std::vector<char *> Args(argv, argv + argc);
  std::string OutArg, FormatArg;
  if (const char *Path = std::getenv("SPROF_BENCH_JSON")) {
    OutArg = std::string("--benchmark_out=") + Path;
    FormatArg = "--benchmark_out_format=json";
    Args.push_back(OutArg.data());
    Args.push_back(FormatArg.data());
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
