//===- examples/sweep_demo.cpp - Sweep observability demo -----------------===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the sweep-scale observability surface end to end:
///
///   * a small job graph (a three-stage chain that forces a known critical
///     path, plus independent profile -> feedback pairs) runs on the
///     ExperimentEngine with causal tracing on — the Chrome trace carries
///     flow events along dependency edges, and the sweep report
///     ("sprof.sweep_report/1") carries queue-wait vs run time, the
///     critical path, and per-worker utilization;
///   * the three feedback jobs each time the same baseline run through the
///     engine's run memo: one executes, two replay it, and the report's
///     scheduler.run_memo section counts them;
///   * the flight recorder rides along and can be dumped on request
///     (--dump-flight), on a fatal signal (--crash raises SIGSEGV from a
///     job), or by the hang watchdog (--hang --watchdog=SEC exits with
///     FlightRecorder::WatchdogExitCode after dumping).
///
/// Usage: sweep_demo [--threads=N] [--report=PATH] [--trace=PATH]
///                   [--flight=PATH] [--watchdog=SEC] [--crash] [--hang]
///                   [--dump-flight]
///
/// Default artifacts (sweep_report.json, sweep_trace.json,
/// sweep_flight.json) land under build/ when the demo runs from a checkout
/// with a build tree next to the cwd. Exits nonzero when a sweep-report
/// invariant does not hold; --crash dies by SIGSEGV after the dump and
/// --hang (with a watchdog) exits 42.
///
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "obs/FlightRecorder.h"
#include "obs/Trace.h"
#include "workloads/Builders.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

using namespace sprof;

namespace {

std::string defaultOut(const char *Name) {
  std::ifstream Probe("build/CMakeCache.txt");
  return Probe ? std::string("build/") + Name : std::string(Name);
}

void busyFor(unsigned Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

/// A 512-node pointer chase: the timed run the feedback jobs share stays
/// far shorter than the stage chain, even under sanitizers, so the chain
/// remains the critical path.
class SmallChase final : public Workload {
public:
  WorkloadInfo info() const override {
    return {"demo.chase", "IR", "small pointer chase"};
  }
  Program build(const BuildRequest &Req) const override {
    Program Prog;
    BumpAllocator A;
    Rng R(Req.seed(0xde30));
    ListSpec Spec;
    Spec.Count = 512;
    Spec.NodeBytes = 64;
    uint64_t Head = buildList(Prog.Memory, A, R, Spec);
    IRBuilder B(Prog.M);
    B.startFunction("main", 0);
    Reg P = B.mov(Operand::imm(static_cast<int64_t>(Head)));
    emitPointerLoop(B, P, [](IRBuilder &IB, Reg Node) {
      IB.load(Node, 0, Node);
    });
    B.halt();
    return Prog;
  }
};

struct Options {
  unsigned Threads = 2;
  std::string ReportPath = defaultOut("sweep_report.json");
  std::string TracePath = defaultOut("sweep_trace.json");
  std::string FlightPath = defaultOut("sweep_flight.json");
  uint64_t WatchdogSec = 0;
  bool Crash = false;
  bool Hang = false;
  bool DumpFlight = false;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--threads=", 10) == 0)
      O.Threads = static_cast<unsigned>(std::strtoul(A + 10, nullptr, 10));
    else if (std::strncmp(A, "--report=", 9) == 0)
      O.ReportPath = A + 9;
    else if (std::strncmp(A, "--trace=", 8) == 0)
      O.TracePath = A + 8;
    else if (std::strncmp(A, "--flight=", 9) == 0)
      O.FlightPath = A + 9;
    else if (std::strncmp(A, "--watchdog=", 11) == 0)
      O.WatchdogSec = std::strtoull(A + 11, nullptr, 10);
    else if (std::strcmp(A, "--crash") == 0)
      O.Crash = true;
    else if (std::strcmp(A, "--hang") == 0)
      O.Hang = true;
    else if (std::strcmp(A, "--dump-flight") == 0)
      O.DumpFlight = true;
    else {
      std::fprintf(stderr, "sweep_demo: unknown argument '%s'\n", A);
      return false;
    }
  }
  if (O.Threads == 0)
    O.Threads = 1;
  return true;
}

bool check(bool Cond, const char *What) {
  if (!Cond)
    std::fprintf(stderr, "sweep_demo: FAILED: %s\n", What);
  return Cond;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 1;

  EngineOptions Opts;
  Opts.Threads = O.Threads;
  Opts.WatchdogSec = O.WatchdogSec;
  Opts.Obs.Enabled = true;
  Opts.Obs.TraceOutputPath = O.TracePath;
  Opts.Obs.SweepReportOutputPath = O.ReportPath;
  Opts.Obs.FlightRecorder = true;
  Opts.Obs.FlightRecorderDumpPath = O.FlightPath;
  ExperimentEngine Engine(Opts);

  // A three-stage chain of the longest jobs in the graph: the critical
  // path must run through it regardless of thread count.
  JobId Prev = 0;
  for (int Stage = 0; Stage < 3; ++Stage) {
    std::string Name = "stage:" + std::to_string(Stage);
    std::vector<JobId> Deps;
    if (Stage > 0)
      Deps.push_back(Prev);
    Prev = Engine.addJob(Name, "stage-job",
                         [](ObsSession *JobObs) {
                           TraceSpan S(JobObs, "execute", "stage-job");
                           busyFor(20);
                         },
                         std::move(Deps));
  }

  // Independent profile -> feedback pairs that parallel workers can
  // overlap with the chain. Every feedback job times the same small
  // baseline, so the run memo executes it once.
  SmallChase Timed;
  RunMemo *Memo = Engine.runMemo();
  for (int W = 0; W < 3; ++W) {
    std::string Tag = ":w" + std::to_string(W);
    JobId Run = Engine.addJob("profile" + Tag, "run-job",
                              [](ObsSession *JobObs) {
                                TraceSpan S(JobObs, "execute", "run-job");
                                busyFor(6);
                              });
    Engine.addJob("feedback" + Tag, "feedback-job",
                  [&Timed, Memo](ObsSession *JobObs) {
                    TraceSpan S(JobObs, "execute", "feedback-job");
                    busyFor(4);
                    Pipeline(Timed, {}, JobObs, Memo)
                        .runBaseline(DataSet::Train);
                  },
                  {Run});
  }

  if (O.Crash)
    Engine.addJob("crash:boom", "demo-fault",
                  [](ObsSession *JobObs) {
                    TraceSpan S(JobObs, "execute", "demo-fault");
                    busyFor(5);
                    // Die mid-job: the flight recorder's signal hook dumps
                    // the black box, then the default action kills us.
                    std::raise(SIGSEGV);
                  });
  if (O.Hang)
    Engine.addJob("hang:wedge", "demo-fault", [](ObsSession *JobObs) {
      TraceSpan S(JobObs, "execute", "demo-fault");
      // Never finishes; only the watchdog gets us out.
      for (;;)
        busyFor(100);
    });

  Engine.run();

  if (!check(Engine.writeArtifacts(), "writing sweep artifacts"))
    return 1;
  if (O.DumpFlight && Engine.flightRecorder() &&
      !check(Engine.flightRecorder()->dumpFile(O.FlightPath.c_str(),
                                               "request"),
             "dumping the flight recorder"))
    return 1;

  // Validate the invariants the sweep report promises.
  JsonValue Report = Engine.sweepReport();
  const JsonValue *Jobs = Report.get("jobs");
  const JsonValue *Crit = Report.get("critical_path");
  const JsonValue *Sched = Report.get("scheduler");
  bool Ok = true;
  Ok &= check(Report.get("schema") &&
                  Report.get("schema")->asString() == SweepReportSchemaV1,
              "schema is sprof.sweep_report/1");
  Ok &= check(Jobs && Jobs->isArray() && Jobs->size() == 9,
              "jobs array covers the whole graph");
  Ok &= check(Crit && Crit->get("jobs") && Crit->get("jobs")->size() >= 3,
              "critical path spans the stage chain");
  if (Crit && Crit->get("duration_us") && Crit->get("wall_us"))
    Ok &= check(Crit->get("duration_us")->asUInt() <=
                    Crit->get("wall_us")->asUInt(),
                "critical path duration bounded by wall time");
  Ok &= check(Sched && Sched->get("workers") &&
                  Sched->get("workers")->size() == O.Threads,
              "scheduler section has one entry per worker");
  const JsonValue *MemoJson = Sched ? Sched->get("run_memo") : nullptr;
  Ok &= check(MemoJson && MemoJson->get("misses") && MemoJson->get("hits") &&
                  MemoJson->get("misses")->asUInt() == 1 &&
                  MemoJson->get("hits")->asUInt() == 2,
              "the run memo executed the shared baseline once");
  Ok &= check(Engine.obs()->trace().flowEdges().size() >= 5,
              "flow events recorded along dependency edges");
  if (!Ok)
    return 1;

  const JsonValue *Wall = Crit->get("wall_us");
  std::printf("sweep_demo: %zu jobs on %u threads, wall %.1f ms, "
              "critical path %.1f ms (%zu jobs)\n",
              Jobs->size(), O.Threads,
              Wall ? Wall->asUInt() / 1000.0 : 0.0,
              Crit->get("duration_us")->asUInt() / 1000.0,
              Crit->get("jobs")->size());
  std::printf("sweep_demo: run memo %llu hits, %llu misses, %llu parks\n",
              static_cast<unsigned long long>(MemoJson->get("hits")->asUInt()),
              static_cast<unsigned long long>(
                  MemoJson->get("misses")->asUInt()),
              static_cast<unsigned long long>(
                  MemoJson->get("parks")->asUInt()));
  std::printf("sweep_demo: report=%s trace=%s%s\n", O.ReportPath.c_str(),
              O.TracePath.c_str(),
              O.DumpFlight ? (" flight=" + O.FlightPath).c_str() : "");
  return 0;
}
