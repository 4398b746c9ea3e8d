//===- bench/telemetry_overhead.cpp - In-loop telemetry overhead gate ------===//
//
// Part of the StrideProf project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the full observability stack costs in the loop: 164.gzip
/// (train input) timed plain and with a live ObsSession attached (the
/// background TelemetrySampler at 2000 us and the engine self-profiler at
/// a 4096-dispatch window), in two series:
///
///   * engine: an uninstrumented run on the Decoded engine;
///   * profiled: a naive-all profiling run without a cache model
///     (Pipeline::runProfile), where strideProf records its per-event
///     telemetry.
///
/// The budget is 2% per series: above it the program warns; above 10% it
/// exits 1. The hard gate is looser than the budget because shared hosts
/// add one-sided scheduler spikes that the paired-median estimator cannot
/// fully cancel.
///
/// Takes no arguments; prints each series' lines and the verdict.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "obs/Obs.h"
#include "obs/Sampler.h"
#include "obs/SelfProfiler.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace sprof;

namespace {

constexpr const char *WorkloadName = "164.gzip";
constexpr unsigned Rounds = 15;
/// Runs per timed unit, so one scheduler spike is amortized over ~10 ms of
/// work instead of dominating one ~2 ms run.
constexpr unsigned Batch = 4;
constexpr uint64_t SampleIntervalUs = 2000;
constexpr uint32_t SelfProfileWindow = 4096;
constexpr double WarnOverhead = 0.02;
constexpr double FailOverhead = 0.10;

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// One timed Decoded run of \p W. The workload build is excluded; decode
/// is included, as it is part of the engine's per-run cost.
double timeOneRun(const Workload &W, ObsSession *Obs) {
  Program Prog = W.build({DataSet::Train});
  InterpreterConfig IC;
  IC.Exec = InterpreterConfig::Engine::Decoded;
  Interpreter I(Prog.M, std::move(Prog.Memory), TimingModel(), IC);
  if (Obs)
    I.attachObs(Obs);
  const auto T0 = std::chrono::steady_clock::now();
  I.run();
  const auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// One timed naive-all profiling run of \p W without a cache model:
/// build, instrumentation, execution and strideProf.
double timeOneProfileRun(const Workload &W, ObsSession *Obs) {
  Pipeline P(W, PipelineConfig(), Obs);
  const auto T0 = std::chrono::steady_clock::now();
  P.runProfile(ProfilingMethod::NaiveAll, DataSet::Train,
               /*WithMemorySystem=*/false);
  const auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Times \p Run plain and with \p Session in interleaved batches and
/// prints the series. \returns the median per-round overhead.
double measureSeries(const char *Name,
                     const std::function<double(ObsSession *)> &Run,
                     ObsSession &Session) {
  auto TimeBatch = [&](ObsSession *Obs) {
    double Total = 0.0;
    for (unsigned B = 0; B != Batch; ++B)
      Total += Run(Obs);
    return Total;
  };

  // Interleaved (plain, instrumented) batches: pairing cancels drift that
  // spans a round, and the median of the per-round ratios discards rounds
  // where a scheduler spike hit one member.
  // One untimed round first, so page faults, allocator growth and clock
  // ramp-up land in neither series.
  TimeBatch(nullptr);
  TimeBatch(&Session);
  std::vector<double> PlainMs, TelMs, Ratios;
  for (unsigned R = 0; R != Rounds; ++R) {
    PlainMs.push_back(TimeBatch(nullptr));
    TelMs.push_back(TimeBatch(&Session));
    if (PlainMs.back() > 0.0)
      Ratios.push_back(TelMs.back() / PlainMs.back());
  }
  const double Overhead = Ratios.empty() ? 0.0 : medianOf(Ratios) - 1.0;
  std::printf("  %s series\n", Name);
  std::printf("    plain min        %8.3f ms/run\n",
              *std::min_element(PlainMs.begin(), PlainMs.end()) / Batch);
  std::printf("    telemetry min    %8.3f ms/run\n",
              *std::min_element(TelMs.begin(), TelMs.end()) / Batch);
  std::printf("    overhead         %+7.2f%% (median of per-round ratios)\n",
              Overhead * 100.0);
  return Overhead;
}

} // namespace

int main() {
  std::unique_ptr<Workload> W = makeWorkloadByName(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", WorkloadName);
    return 2;
  }

  ObsConfig OC;
  OC.Enabled = true;
  OC.SampleIntervalUs = SampleIntervalUs;
  OC.SelfProfile = true;
  OC.SelfProfileWindow = SelfProfileWindow;
  ObsSession Session(OC);
  if (EngineSelfProfiler *SP = Session.selfProfiler())
    SP->setContext(WorkloadName, "bench");

  std::printf("telemetry overhead: %s, train input, %u rounds of %u runs "
              "per series\n",
              WorkloadName, Rounds, Batch);
  struct Series {
    const char *Name;
    std::function<double(ObsSession *)> Run;
    double Overhead = 0.0;
  };
  Series All[] = {
      {"engine (Decoded, uninstrumented)",
       [&](ObsSession *Obs) { return timeOneRun(*W, Obs); }},
      {"profiled (naive-all, no cache model)",
       [&](ObsSession *Obs) { return timeOneProfileRun(*W, Obs); }},
  };
  for (Series &S : All)
    S.Overhead = measureSeries(S.Name, S.Run, Session);
  Session.stopSampling();

  uint64_t SamplesTaken = 0, SelfSamples = 0;
  std::string TopOp = "-";
  if (const TelemetrySampler *Sampler = Session.sampler())
    SamplesTaken = Sampler->samplesTaken();
  if (const EngineSelfProfiler *SP = Session.selfProfiler()) {
    SelfSamples = SP->totalSamples();
    const std::vector<EngineSelfProfiler::Entry> Entries = SP->entries();
    if (!Entries.empty())
      TopOp = SP->slotName(Entries.front().Slot);
  }
  std::printf("  session: %llu sampler snapshots, %llu self-profile samples, "
              "top op %s\n",
              static_cast<unsigned long long>(SamplesTaken),
              static_cast<unsigned long long>(SelfSamples), TopOp.c_str());
  std::fflush(stdout);

  int Status = 0;
  for (const Series &S : All) {
    if (S.Overhead > FailOverhead) {
      std::fprintf(stderr,
                   "error: %s: telemetry overhead %.2f%% above the %.0f%% "
                   "gate\n",
                   S.Name, S.Overhead * 100.0, FailOverhead * 100.0);
      Status = 1;
    } else if (S.Overhead > WarnOverhead) {
      std::fprintf(stderr,
                   "warning: %s: telemetry overhead %.2f%% above the %.0f%% "
                   "budget\n",
                   S.Name, S.Overhead * 100.0, WarnOverhead * 100.0);
    }
  }
  return Status;
}
