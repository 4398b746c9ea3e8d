//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
///           [--work-dir DIR] [--spans FILE]
///
/// Sets the workload up five times (setup_s is the median), then either
/// times passes until --seconds have elapsed and checks the outputs against
/// independent references (--trace 0, the end-to-end metrics), or runs one
/// untraced and one traced pass and reports the per-layer ledger
/// (--trace 1), writing the traced pass's spans to --spans when given.
/// Human-readable lines come first; the last line of stdout
/// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
/// exit code is nonzero when any check or job failed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Options {
  std::string Workload;
  std::optional<uint64_t> Seed;
  double Seconds = 10;
  int Trace = 0;
  std::string WorkDir = "perfbench-work";
  std::string SpansPath; ///< where a traced run writes its spans
};

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload repro|profile-naive|"
               "trace-replay --seed N [--seconds S] [--trace 0|1] "
               "[--work-dir DIR] [--spans FILE]\n";
  std::exit(2);
}

bool parseUInt(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return errno == 0;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], Value;
    const size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      usage("missing value for " + Arg);
    }
    uint64_t N = 0;
    if (Arg == "--workload")
      O.Workload = Value;
    else if (Arg == "--seed" && parseUInt(Value, N))
      O.Seed = N;
    else if (Arg == "--seconds" && parseUInt(Value, N) && N >= 1 && N <= 3600)
      O.Seconds = static_cast<double>(N);
    else if (Arg == "--trace" && (Value == "0" || Value == "1"))
      O.Trace = Value == "1";
    else if (Arg == "--work-dir" && !Value.empty())
      O.WorkDir = Value;
    else if (Arg == "--spans" && !Value.empty())
      O.SpansPath = Value;
    else
      usage("bad argument " + Arg + " " + Value);
  }
  if (!O.Seed)
    usage("--seed is required");
  return O;
}

/// Sum of each layer's self time (span minus the part its children cover)
/// over every job, by span name, in nanoseconds; job spans excluded.
std::map<std::string, uint64_t> layerSelfNs(const Tracer &T,
                                            uint64_t &CoveredNs) {
  std::map<std::string, uint64_t> Self;
  CoveredNs = 0;
  for (const JobTrace &J : T.jobs()) {
    std::vector<uint64_t> ChildNs(J.Spans.size(), 0);
    for (const Span &S : J.Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    for (size_t I = 0; I != J.Spans.size(); ++I) {
      const Span &S = J.Spans[I];
      if (S.Parent < 0)
        continue;
      const uint64_t Dur = S.EndNs - S.StartNs;
      Self[S.Name] += Dur - std::min(Dur, ChildNs[I]);
      if (S.Parent == 0) // top-level layer spans tile the covered time
        CoveredNs += Dur;
    }
  }
  return Self;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

std::vector<Metric> ledgerMetrics(const Tracer &T, const TracedExtras &X,
                                  const PassResult &P, double TracedS,
                                  double UntracedS) {
  uint64_t CoveredNs = 0;
  std::map<std::string, uint64_t> Self = layerSelfNs(T, CoveredNs);
  auto Ms = [&](const char *Layer) {
    auto It = Self.find(Layer);
    return It == Self.end() ? 0.0 : static_cast<double>(It->second) / 1e6;
  };
  const LayerCounts &L = T.Counts;
  const double MemsysMs =
      std::max<int64_t>(0, L.MemsysNs.load()) / 1e6;
  const double Accesses =
      static_cast<double>(L.MemDemand.load() + L.PfIssued.load());
  const double Lanes = static_cast<double>(std::max(1u, X.Lanes));
  auto D = [](const std::atomic<uint64_t> &A) {
    return static_cast<double>(A.load());
  };
  return {
      {"workloads.build_ms", Ms("workloads"), "ms"},
      {"workloads.builds", D(L.Builds), "count"},
      {"instrument.ms", Ms("instrument"), "ms"},
      {"instrument.calls", D(L.InstrumentCalls), "count"},
      {"instrument.profiled_sites", D(L.ProfiledSites), "count"},
      {"interp.ms", Ms("interp"), "ms"},
      {"interp.sim_instr", D(L.SimInstr), "count"},
      {"interp.ns_per_instr", ratio(Ms("interp") * 1e6, D(L.SimInstr)), "ns"},
      {"profile.ms", Ms("profile"), "ms"},
      {"profile.events", D(L.ProfileEvents), "count"},
      {"profile.ns_per_event", ratio(Ms("profile") * 1e6, D(L.ProfileEvents)),
       "ns"},
      {"profile.processed_ratio", ratio(D(L.ProfileProcessed),
                                        D(L.ProfileEvents)),
       "ratio"},
      {"profile.lfu_calls", D(L.LfuCalls), "count"},
      {"memsys.ms", MemsysMs, "ms"},
      {"memsys.accesses", Accesses, "count"},
      {"memsys.ns_per_access", ratio(MemsysMs * 1e6, Accesses), "ns"},
      {"memsys.l1_hit_ratio", ratio(D(L.L1Hits), D(L.MemDemand)), "ratio"},
      {"memsys.prefetch_useful_ratio",
       ratio(D(L.PfUseful), D(L.PfIssued) - D(L.PfRedundant)), "ratio"},
      {"feedback.ms", Ms("feedback"), "ms"},
      {"feedback.decisions", D(L.Decisions), "count"},
      {"prefetch.ms", Ms("prefetch"), "ms"},
      {"prefetch.inserted", D(L.Inserted), "count"},
      {"analysis.ms", Ms("analysis"), "ms"},
      {"stream.encode_ms", Ms("stream.encode"), "ms"},
      {"stream.bytes_per_event", ratio(D(L.EncodedBytes), D(L.EncodedEvents)),
       "B/event"},
      {"stream.decode_ms", Ms("stream.decode"), "ms"},
      {"stream.decode_mevps",
       ratio(D(L.DecodedEvents), Ms("stream.decode") * 1e3), "Mevents/s"},
      {"driver.jobs", static_cast<double>(P.Driver.Jobs), "count"},
      {"driver.queue_wait_ms", P.Driver.QueueWaitMs, "ms"},
      {"driver.busy_frac", ratio(P.Driver.BusyMs, TracedS * 1e3 * Lanes),
       "ratio"},
      {"driver.critical_path_ms", P.Driver.CriticalPathMs, "ms"},
      {"driver.duplicate_runs", static_cast<double>(T.duplicateRuns()),
       "count"},
      {"driver.replay_parallel_speedup", X.ReplayParallelSpeedup, "x"},
      {"ledger.trace_overhead_frac", ratio(TracedS - UntracedS, UntracedS),
       "ratio"},
      {"ledger.unattributed_frac",
       1.0 - ratio(static_cast<double>(CoveredNs), TracedS * 1e9 * Lanes),
       "ratio"},
  };
}

/// The traced pass's spans, one entry per job (spans share the job's id).
bool writeSpans(const Tracer &T, const std::string &Path) {
  using sprof::JsonValue;
  JsonValue Jobs = JsonValue::array();
  for (const JobTrace &J : T.jobs()) {
    JsonValue Spans = JsonValue::array();
    for (const Span &S : J.Spans) {
      JsonValue V = JsonValue::object();
      V.set("name", S.Name)
          .set("start_ns", S.StartNs)
          .set("end_ns", S.EndNs)
          .set("parent", static_cast<int64_t>(S.Parent));
      Spans.push(std::move(V));
    }
    JsonValue V = JsonValue::object();
    V.set("id", static_cast<uint64_t>(J.Id))
        .set("name", J.Name)
        .set("spans", std::move(Spans));
    Jobs.push(std::move(V));
  }
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", "perfbench.spans/1").set("jobs", std::move(Jobs));
  return sprof::writeJsonFile(Path, Doc);
}

void printResult(const Checks &C, const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-32s %18.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()));
  std::string Json = "{\"correct\": ";
  Json += C.failed() == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(C.attempted());
  Json += ", \"failed\": " + std::to_string(C.failed());
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  const unsigned Threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const uint64_t Seed = *O.Seed;

  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  if (EC)
    usage("cannot create work directory " + O.WorkDir);

  std::unique_ptr<BenchWorkload> W;
  if (O.Workload == "repro")
    W = makeReproBench(Seed, Threads);
  else if (O.Workload == "profile-naive")
    W = makeProfileNaiveBench(Seed, Threads);
  else if (O.Workload == "trace-replay")
    W = makeReplayBench(Seed, Threads, O.WorkDir);
  else
    usage("unknown workload '" + O.Workload + "'");

  std::printf("perfbench: workload %s, seed %llu, %u threads, trace %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(Seed),
              Threads, O.Trace);

  // Set-up runs several times so its median is steady; the last one's
  // inputs are kept.
  std::vector<double> Setups;
  for (int I = 0; I != 5; ++I) {
    const Clock::time_point T0 = Clock::now();
    W->setup();
    Setups.push_back(secondsSince(T0));
  }

  Checks C;
  std::vector<Metric> Metrics;
  if (O.Trace == 0) {
    std::vector<double> Walls, Cpus, Mips, Mevps, JobMs;
    PassResult P;
    std::string FirstDigest;
    const Clock::time_point Start = Clock::now();
    do {
      const double Cpu0 = processCpuSeconds();
      const Clock::time_point T0 = Clock::now();
      P = W->pass(C);
      const double Wall = secondsSince(T0);
      Walls.push_back(Wall);
      Cpus.push_back(processCpuSeconds() - Cpu0);
      Mips.push_back(static_cast<double>(P.SimOps) / Wall / 1e6);
      Mevps.push_back(static_cast<double>(P.Events) / Wall / 1e6);
      JobMs.insert(JobMs.end(), P.JobMs.begin(), P.JobMs.end());
      // Every pass must reproduce the first bit for bit.
      std::string Digest = W->digest();
      if (FirstDigest.empty())
        FirstDigest = std::move(Digest);
      else
        C.expect(Digest == FirstDigest,
                 "pass " + std::to_string(Walls.size()) +
                     " repeats the first pass's outputs");
    } while (secondsSince(Start) < O.Seconds);
    // Peak memory of set-up and the timed passes, before the checks.
    const double PeakRss = peakRssMb();
    W->check(C);

    std::printf("set-up s:");
    for (double S : Setups)
      std::printf(" %.4f", S);
    std::printf("\npasses: %zu; job latency samples: %zu; pass wall s:",
                Walls.size(), JobMs.size());
    for (double Wall : Walls)
      std::printf(" %.3f", Wall);
    std::printf("\n");
    Metrics = {
        {"wall_s", median(Walls), "s"},
        {"cpu_s", median(Cpus), "s"},
        {"setup_s", median(Setups), "s"},
        {"peak_rss_mb", PeakRss, "MB"},
        {"job_p50_ms", quantile(JobMs, 0.5), "ms"},
        {"sim_mips", median(Mips), "Mops/s"},
        {"replay_mevps", median(Mevps), "Mevents/s"},
        {"sim_speedup_geomean", P.SimSpeedup, "x"},
        {"sim_overhead_pct", P.SimOverheadPct, "%"},
    };
  } else {
    // Untraced, traced, untraced: the first pass warms the process (heap,
    // page cache), the last is the baseline of ledger.trace_overhead_frac.
    // job_p95_ms comes from the two untraced passes' jobs.
    std::vector<double> JobMs = W->pass(C).JobMs;
    const std::string Untraced = W->digest();
    Tracer T;
    TracedExtras X;
    Clock::time_point T0 = Clock::now();
    PassResult P = W->tracedPass(T, X, C);
    const double TracedS = secondsSince(T0);
    C.expect(W->digest() == Untraced,
             "the traced pass reproduces the untraced pass's outputs");
    T0 = Clock::now();
    const std::vector<double> Baseline = W->pass(C).JobMs;
    const double UntracedS = secondsSince(T0);
    JobMs.insert(JobMs.end(), Baseline.begin(), Baseline.end());
    C.expect(W->digest() == Untraced, "the untraced passes agree");
    W->measureExtras(X, C);
    if (!O.SpansPath.empty())
      C.expect(writeSpans(T, O.SpansPath), "spans written to " + O.SpansPath);
    std::printf("untraced pass %.3f s, traced pass %.3f s, %zu traced jobs\n",
                UntracedS, TracedS, T.jobs().size());
    Metrics = ledgerMetrics(T, X, P, TracedS, UntracedS);
    Metrics.push_back({"job_p95_ms", quantile(JobMs, 0.95), "ms"});
  }

  for (const Metric &M : Metrics)
    C.expect(std::isfinite(M.Value), M.Name + " is a finite number");
  W.reset();
  std::filesystem::remove_all(O.WorkDir, EC);
  printResult(C, Metrics);
  return C.failed() == 0 ? 0 : 1;
}
