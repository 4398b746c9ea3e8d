//===- perfbench/src/Bench.h - Benchmark shared pieces ----------*- C++ -*-===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three benchmark workloads share: timing helpers, correctness
/// accounting, the in-memory span recorder of the traced run, the per-wave
/// scheduler accounting, and the workload interface the main loop drives.
///
/// The benchmark calls only public entry points of the StrideProf libraries.
/// Spans are recorded here, around those calls, never inside the program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "driver/Engine.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0);
/// User + system CPU seconds of the whole process, all threads.
double processCpuSeconds();
/// Peak resident set size of the process, in MiB.
double peakRssMb();

/// Linear-interpolation quantile (\p Q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// 64-bit FNV-1a of \p Text: a compact digest for bit-identity checks.
uint64_t fnv1a(const std::string &Text);

/// Field-by-field equality of two runs' accounting, per-site counts and
/// memory statistics included.
bool sameRunStats(const sprof::RunStats &A, const sprof::RunStats &B);

/// The profiles in the text form writeProfiles serializes them to.
std::string profileText(const sprof::EdgeProfile &Edges,
                        const sprof::StrideProfile &Strides);

/// Correctness accounting behind the result line's attempted/failed pair.
/// Every job the engine runs and every checked output counts once.
class Checks {
public:
  /// Records one checked output; a failure is described on stderr.
  void expect(bool Ok, const std::string &What);
  void addJobs(uint64_t Attempted, uint64_t Failed) {
    Tried += Attempted;
    Bad += Failed;
  }
  uint64_t attempted() const { return Tried; }
  uint64_t failed() const { return Bad; }

private:
  uint64_t Tried = 0;
  uint64_t Bad = 0;
};

// -- Traced run ------------------------------------------------------------

/// One span: a layer call inside a job, or the job itself (Parent == -1).
/// Times are nanoseconds since the traced pass began.
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;
};

/// The spans of one job, which all share the job's id.
struct JobTrace {
  uint32_t Id = 0;
  std::string Name;
  std::vector<Span> Spans;
};

/// Deterministic work counted at the same boundaries the spans mark.
struct LayerCounts {
  std::atomic<uint64_t> Builds{0};
  std::atomic<uint64_t> InstrumentCalls{0};
  std::atomic<uint64_t> ProfiledSites{0};
  std::atomic<uint64_t> SimInstr{0};
  std::atomic<uint64_t> ProfileEvents{0};
  std::atomic<uint64_t> ProfileProcessed{0};
  std::atomic<uint64_t> LfuCalls{0};
  std::atomic<uint64_t> MemDemand{0};
  std::atomic<uint64_t> L1Hits{0};
  std::atomic<uint64_t> PfUseful{0};
  std::atomic<uint64_t> PfIssued{0};
  std::atomic<uint64_t> PfRedundant{0};
  std::atomic<uint64_t> Decisions{0};
  std::atomic<uint64_t> Inserted{0};
  std::atomic<uint64_t> EncodedEvents{0};
  std::atomic<uint64_t> EncodedBytes{0};
  std::atomic<uint64_t> DecodedEvents{0};
  /// memsys time by difference: each run with the cache model attached
  /// minus the same job's bare interpreter run (and its consume, when the
  /// cache-model run also profiled). Signed: noise can undershoot.
  std::atomic<int64_t> MemsysNs{0};
};

/// Collects the spans and counters of one traced pass. Jobs may open
/// concurrently; each job then writes only its own JobTrace.
class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Origin)
            .count());
  }

  /// Registers a new job; the reference stays valid for the tracer's life.
  JobTrace &openJob(std::string Name);

  /// Notes one pipeline run by identity; returns true when an identical
  /// run was already executed in this pass (driver.duplicate_runs).
  bool noteRun(const std::string &Key);

  const std::deque<JobTrace> &jobs() const { return Jobs; }
  uint64_t duplicateRuns() const { return Duplicates; }

  LayerCounts Counts;

private:
  Clock::time_point Origin;
  std::mutex Mu;
  std::deque<JobTrace> Jobs;
  std::set<std::string> Runs;
  uint64_t Duplicates = 0;
};

/// A job of the traced pass: opens the job span on construction, closes it
/// on destruction, and wraps each layer call in a child span.
class JobScope {
public:
  JobScope(Tracer &T, std::string Name);
  ~JobScope();
  JobScope(const JobScope &) = delete;
  JobScope &operator=(const JobScope &) = delete;

  /// Runs \p F inside a span named \p Layer and returns its result.
  template <class Fn> decltype(auto) layer(const char *Layer, Fn &&F) {
    Guard G(*this, Layer);
    return F();
  }

  /// Duration of the most recently closed layer span.
  uint64_t lastNs() const { return LastNs; }
  Tracer &tracer() { return T; }

private:
  struct Guard {
    Guard(JobScope &S, const char *Name);
    ~Guard();
    JobScope &S;
    size_t Index;
  };

  Tracer &T;
  JobTrace &J;
  uint64_t LastNs = 0;
};

// -- Scheduling ------------------------------------------------------------

/// Scheduler accounting of the jobs a pass ran, summed over its waves
/// (each ExperimentEngine::run drain is one wave).
struct DriverStats {
  uint64_t Jobs = 0;
  double QueueWaitMs = 0;
  double BusyMs = 0;         ///< summed job run time
  double CriticalPathMs = 0; ///< longest dependency chain, summed per wave
};

/// Engine options with \p Threads workers and everything else default.
inline sprof::EngineOptions engineOptions(unsigned Threads) {
  sprof::EngineOptions O;
  O.Threads = Threads;
  return O;
}

/// Folds one drained wave into \p Stats and \p JobMs. \p Deps gives each
/// job's dependencies (empty when unknown: the critical path then is the
/// longest single job).
void accountWave(const std::vector<sprof::JobOutcome> &Outcomes,
                 const std::vector<std::vector<sprof::JobId>> &Deps,
                 DriverStats &Stats, std::vector<double> &JobMs, Checks &C);

/// One wave of traced jobs on an ExperimentEngine. It remembers each job's
/// dependencies so the wave's critical path can be computed after it
/// drains.
class Wave {
public:
  explicit Wave(unsigned Threads) : Engine(engineOptions(Threads)) {}

  /// Schedules \p F(JobScope &) after \p Deps; the job span carries the
  /// job's name.
  template <class Fn>
  sprof::JobId addTraced(Tracer &T, std::string Name, std::string Category,
                         Fn F, std::vector<sprof::JobId> Deps = {}) {
    this->Deps.push_back(Deps);
    std::string Label = Name;
    return Engine.addJob(
        std::move(Name), std::move(Category),
        [&T, Label = std::move(Label), F](sprof::ObsSession *) {
          JobScope J(T, Label);
          F(J);
        },
        std::move(Deps));
  }

  /// Drains the wave; job failures are counted, not rethrown.
  void run(DriverStats &Stats, std::vector<double> &JobMs, Checks &C);

private:
  sprof::ExperimentEngine Engine;
  std::vector<std::vector<sprof::JobId>> Deps;
};

// -- Workloads -------------------------------------------------------------

/// What one timed pass reports to the main loop.
struct PassResult {
  std::vector<double> JobMs;
  /// Simulated instructions (memory operations for trace-replay): the
  /// sim_mips numerator.
  uint64_t SimOps = 0;
  /// Access events processed: the replay_mevps numerator.
  uint64_t Events = 0;
  double SimSpeedup = 0;
  double SimOverheadPct = 0;
  DriverStats Driver;
};

/// Layer metrics one traced pass adds beyond what the spans and counters
/// give (workload-specific measurements).
struct TracedExtras {
  double ReplayParallelSpeedup = 0;
  /// Lanes that run layer calls concurrently: the ledger's denominator is
  /// traced wall time times this.
  unsigned Lanes = 1;
};

class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;

  /// Builds the workload's inputs from the seed. Repeatable; the main loop
  /// times several set-ups and keeps the last.
  virtual void setup() = 0;

  /// One timed pass. Job failures land in \p C.
  virtual PassResult pass(Checks &C) = 0;

  /// Serialized outputs of the most recent pass (traced or not), for the
  /// cross-pass and traced-vs-untraced identity checks.
  virtual std::string digest() const = 0;

  /// The same pipeline runs as pass(), composed from layer calls with a
  /// span around each.
  virtual PassResult tracedPass(Tracer &T, TracedExtras &X, Checks &C) = 0;

  /// Independent-reference checks of the most recent untraced pass.
  virtual void check(Checks &C) = 0;

  /// Layer measurements a traced run takes outside the traced pass itself.
  virtual void measureExtras(TracedExtras &, Checks &) {}
};

std::unique_ptr<BenchWorkload> makeReproBench(uint64_t Seed, unsigned Threads);
std::unique_ptr<BenchWorkload> makeProfileNaiveBench(uint64_t Seed,
                                                     unsigned Threads);
std::unique_ptr<BenchWorkload> makeReplayBench(uint64_t Seed, unsigned Threads,
                                               std::string WorkDir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
