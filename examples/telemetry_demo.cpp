//===- examples/telemetry_demo.cpp - Telemetry end to end -------------------===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer end to end: run the quickstart's pointer-chase
/// workload through the full pipeline with telemetry enabled, then write
///
///   * a machine-readable run report (schema "sprof.run_report/5") with the
///     profiles, classification verdicts, prefetch-outcome attribution, a
///     profile-accuracy diff against a sampled profiling run, and every
///     registry metric,
///   * a second run report for the sampled run (so `sprof-inspect diff`
///     has a report pair to compare),
///   * a Chrome trace_event file (load it at chrome://tracing or
///     https://ui.perfetto.dev) with the nested phase spans plus "C"
///     counter samples from the background TelemetrySampler,
///   * the sampler's sprof.timeseries/1 artifact (render with
///     `sprof-inspect timeseries`),
///   * the engine self-profiler's folded-stack file (feed to
///     flamegraph.pl, or `sprof-inspect hotspots` on the run report), and
///   * a sprof.trace/2 capture of the profile run's access-event stream
///     (inspect with `sprof-inspect trace`), which the demo immediately
///     replays through the stream frontend and checks for bit-identical
///     stride and edge profiles.
///
/// Usage: telemetry_demo [report.json [trace.json [sampled_report.json
///                       [timeseries.json [profile.folded
///                       [capture.sprof.trace]]]]]]
/// (defaults: telemetry_report.json, telemetry_trace.json,
/// telemetry_sampled_report.json, telemetry_timeseries.json,
/// telemetry_profile.folded, telemetry_capture.sprof.trace — written
/// under build/ when the demo runs from a checkout with a build tree, so
/// default runs never strand artifacts in the repo root)
///
//===----------------------------------------------------------------------===//

#include "driver/TraceReplay.h"
#include "ir/IRBuilder.h"
#include "obs/Report.h"
#include "obs/Sampler.h"
#include "obs/SelfProfiler.h"
#include "support/Random.h"
#include "workloads/Builders.h"

#include <fstream>
#include <iostream>

using namespace sprof;

namespace {

/// The quickstart workload: one pointer-chasing loop over a 64-byte-stride
/// list with 5% allocation noise, re-entered three times.
class ChaseDemo final : public Workload {
public:
  WorkloadInfo info() const override {
    return {"telemetry.chase", "IR", "Figure 3 pointer chase"};
  }

  Program build(const BuildRequest &Req) const override {
    const DataSet DS = Req.DS;
    const uint64_t Count = DS == DataSet::Ref ? 60000 : 20000;
    Program Prog;
    Prog.M.Name = "telemetry";
    BumpAllocator Alloc;
    Rng R(42);

    ListSpec Spec;
    Spec.Count = Count;
    Spec.NodeBytes = 64;
    Spec.NoisePercent = 5;
    uint64_t Head = buildList(Prog.Memory, Alloc, R, Spec);

    IRBuilder B(Prog.M);
    B.startFunction("main", 0);
    Reg Acc = B.movImm(0);
    emitCountedLoop(B, Operand::imm(3), [&](IRBuilder &OB, Reg) {
      Reg P = OB.mov(Operand::imm(static_cast<int64_t>(Head)));
      emitPointerLoop(OB, P, [&](IRBuilder &IB, Reg Node) {
        Reg D = IB.load(Node, 8);  // D = P->data
        IB.add(Operand::reg(Acc), Operand::reg(D), Acc);
        IB.load(Node, 0, Node);    // P = P->next
      });
    });
    B.halt();
    return Prog;
  }
};

} // namespace

/// Default artifact location: the common no-argument invocation is
/// `./build/examples/telemetry_demo` from the repo root, which used to
/// strand six artifacts (including the .sprof.trace capture) in the
/// checkout. When a build tree sits next to the cwd, default artifacts
/// land under it; explicit paths are always taken verbatim.
static std::string defaultOut(const char *Name) {
  std::ifstream Probe("build/CMakeCache.txt");
  return Probe ? std::string("build/") + Name : std::string(Name);
}

int main(int Argc, char **Argv) {
  const std::string ReportPath =
      Argc > 1 ? Argv[1] : defaultOut("telemetry_report.json");
  const std::string TracePath =
      Argc > 2 ? Argv[2] : defaultOut("telemetry_trace.json");
  const std::string SampledReportPath =
      Argc > 3 ? Argv[3] : defaultOut("telemetry_sampled_report.json");
  const std::string TimeSeriesPath =
      Argc > 4 ? Argv[4] : defaultOut("telemetry_timeseries.json");
  const std::string FoldedPath =
      Argc > 5 ? Argv[5] : defaultOut("telemetry_profile.folded");
  const std::string CapturePath =
      Argc > 6 ? Argv[6] : defaultOut("telemetry_capture.sprof.trace");

  ChaseDemo Demo;
  PipelineConfig Config;
  Config.Obs.Enabled = true;
  Config.Obs.TraceOutputPath = TracePath;
  // Background time-series sampling: snapshot every counter/gauge every
  // 200us into a bounded ring, emitted both as Chrome-trace "C" events and
  // as the standalone sprof.timeseries/1 artifact.
  Config.Obs.SampleIntervalUs = 200;
  Config.Obs.TimeSeriesOutputPath = TimeSeriesPath;
  // Engine self-profiling: window-sample the dispatch loop and export the
  // folded-stack attribution (rendered by `sprof-inspect hotspots`).
  Config.Obs.SelfProfile = true;
  Config.Obs.FoldedProfilePath = FoldedPath;
  Config.Memory.EnableAttribution = true;
  // Capture the profile run's access-event stream into a replayable
  // sprof.trace/2 file (reported in profile_run.trace).
  Config.TraceCapturePath = CapturePath;
  Pipeline P(Demo, Config);

  // The full pipeline under one telemetry session: profile on train,
  // baseline + prefetched timing on ref.
  ProfileRunResult Prof =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train);
  RunStats Baseline = P.runBaseline(DataSet::Ref);
  TimedRunResult Timed =
      P.runPrefetched(DataSet::Ref, Prof.Edges, Prof.Strides);

  // A second, sampled profiling run of the same workload, and the
  // Figures 23-25 accuracy diff of its profile against the exhaustive one.
  // A separate capture-free pipeline on the same telemetry session keeps
  // the captured trace describing the exhaustive run.
  PipelineConfig SampledConfig = Config;
  SampledConfig.TraceCapturePath.clear();
  Pipeline PS(Demo, SampledConfig, P.obs());
  ProfileRunResult Sampled =
      PS.runProfile(ProfilingMethod::SampleEdgeCheck, DataSet::Train);
  ProfileDiffResult Diff =
      diffStrideProfiles(Prof.Strides, Sampled.Strides, Config.Classifier);

  // Aggregate accounting across all three runs (RunStats::operator+=).
  RunStats Suite = Prof.Stats;
  Suite += Baseline;
  Suite += Timed.Stats;
  std::cout << "ran 3 pipeline stages, "
            << Suite.Instructions << " instructions / "
            << Suite.Cycles << " cycles total\n";

  JsonValue Report = buildRunReport(Demo.info().Name, P.config(), &Prof,
                                    &Timed, &Baseline, P.obs(), &Diff);
  if (!writeJsonFile(ReportPath, Report)) {
    std::cerr << "error: cannot write " << ReportPath << "\n";
    return 1;
  }
  // The sampled run's own report (no timed half) gives sprof-inspect a
  // report pair: `sprof-inspect diff <report> <sampled_report>`.
  JsonValue SampledReport = buildRunReport(Demo.info().Name, P.config(),
                                           &Sampled, nullptr, nullptr,
                                           nullptr);
  if (!writeJsonFile(SampledReportPath, SampledReport)) {
    std::cerr << "error: cannot write " << SampledReportPath << "\n";
    return 1;
  }
  if (!P.obs()->writeArtifacts()) {
    std::cerr << "error: cannot write " << TracePath << "\n";
    return 1;
  }

  const TraceCollector &Trace = P.obs()->trace();
  std::cout << "run report: " << ReportPath << "\n"
            << "chrome trace: " << TracePath << " (" << Trace.events().size()
            << " spans; open at chrome://tracing)\n";

  // The sampler must have observed the run (stop() always takes a final
  // snapshot, so even an instant run yields >= 1 sample), and the decoded
  // engine must have fed the self-profiler.
  const TelemetrySampler *Sampler = P.obs()->sampler();
  if (!Sampler || Sampler->samplesTaken() == 0) {
    std::cerr << "error: telemetry sampler took no samples\n";
    return 1;
  }
  std::cout << "timeseries: " << TimeSeriesPath << " ("
            << Sampler->samples().size() << " samples, "
            << Sampler->dropped() << " dropped)\n";
  const EngineSelfProfiler *SelfProf = P.obs()->selfProfiler();
  if (!SelfProf || SelfProf->totalSamples() == 0) {
    std::cerr << "error: engine self-profiler took no samples\n";
    return 1;
  }
  std::cout << "folded profile: " << FoldedPath << " ("
            << SelfProf->totalSamples() << " samples over "
            << SelfProf->entries().size() << " hot cells)\n";

  // The phases the pipeline must have traced; failure here means the
  // instrumentation points regressed.
  for (const char *Phase : {"run-profile", "instrument", "execute",
                            "strideprof-harvest", "run-baseline",
                            "timed-run", "classify", "prefetch-insert"}) {
    if (!Trace.hasSpan(Phase)) {
      std::cerr << "error: missing trace span '" << Phase << "'\n";
      return 1;
    }
  }
  // The attribution identity must hold exactly; a drifting sum means the
  // memsys stopped retiring every prefetch mark exactly once.
  const PrefetchOutcomeCounts &O = Timed.Attribution.Total;
  if (O.issued() != Timed.Stats.Mem.PrefetchesIssued) {
    std::cerr << "error: attribution sum " << O.issued()
              << " != prefetches issued "
              << Timed.Stats.Mem.PrefetchesIssued << "\n";
    return 1;
  }
  std::cout << "prefetches: " << O.issued() << " issued, " << O.Useful
            << " useful / " << O.Late << " late / " << O.Early
            << " early / " << O.Redundant << " redundant\n";
  std::cout << "sampled-profile accuracy: " << Diff.WeightedAccuracy * 100.0
            << "% over " << Diff.SitesCompared << " sites ("
            << SampledReportPath << ")\n";

  // The capture must have recorded every strideProf event the profiler
  // saw, and replaying it must reproduce the profiles bit for bit.
  if (!Prof.Capture.Enabled ||
      Prof.Capture.Events != Prof.StrideInvocations) {
    std::cerr << "error: trace capture recorded " << Prof.Capture.Events
              << " events, expected " << Prof.StrideInvocations << "\n";
    return 1;
  }
  TraceReplayOptions ReplayOpts;
  ReplayOpts.SimulateMemory = false; // keep the demo quick
  TraceReplayResult Replay = replayTraceFile(CapturePath, ReplayOpts);
  if (!Replay.Ok) {
    std::cerr << "error: trace replay failed: " << Replay.Error << "\n";
    return 1;
  }
  if (strideProfileToJson(Replay.Profile.Strides).str() !=
          strideProfileToJson(Prof.Strides).str() ||
      edgeProfileToJson(Replay.Profile.Edges).str() !=
          edgeProfileToJson(Prof.Edges).str()) {
    std::cerr << "error: replayed profiles differ from the live run\n";
    return 1;
  }
  std::cout << "trace capture: " << CapturePath << " ("
            << Prof.Capture.Events << " events, " << Prof.Capture.Bytes
            << " bytes; replay bit-identical)\n";

  double Speedup = static_cast<double>(Baseline.Cycles) /
                   static_cast<double>(Timed.Stats.Cycles);
  std::cout << "speedup: " << Speedup << "x\n";
  return Speedup > 1.0 ? 0 : 1;
}
