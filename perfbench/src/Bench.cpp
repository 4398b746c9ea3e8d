//===- perfbench/src/Bench.cpp - Benchmark shared pieces ------------------===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <iostream>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

uint64_t fnv1a(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char Ch : Text) {
    H ^= Ch;
    H *= 0x100000001b3ULL;
  }
  return H;
}

bool sameRunStats(const sprof::RunStats &A, const sprof::RunStats &B) {
  const sprof::MemoryStats &MA = A.Mem, &MB = B.Mem;
  if (MA.Levels.size() != MB.Levels.size())
    return false;
  for (size_t I = 0; I != MA.Levels.size(); ++I)
    if (MA.Levels[I].Hits != MB.Levels[I].Hits ||
        MA.Levels[I].Misses != MB.Levels[I].Misses)
      return false;
  return A.Completed == B.Completed && A.Instructions == B.Instructions &&
         A.Cycles == B.Cycles && A.BaseCycles == B.BaseCycles &&
         A.MemStallCycles == B.MemStallCycles &&
         A.InstrumentationCycles == B.InstrumentationCycles &&
         A.RuntimeCycles == B.RuntimeCycles && A.LoadRefs == B.LoadRefs &&
         A.SiteCounts == B.SiteCounts && A.ExitValue == B.ExitValue &&
         MA.DemandAccesses == MB.DemandAccesses &&
         MA.PrefetchesIssued == MB.PrefetchesIssued &&
         MA.PrefetchesRedundant == MB.PrefetchesRedundant &&
         MA.LatePrefetchHits == MB.LatePrefetchHits &&
         MA.PrefetchesUseful == MB.PrefetchesUseful &&
         MA.PrefetchesUnused == MB.PrefetchesUnused &&
         MA.StallCycles == MB.StallCycles;
}

std::string profileText(const sprof::EdgeProfile &Edges,
                        const sprof::StrideProfile &Strides) {
  std::ostringstream OS;
  sprof::writeProfiles(Edges, Strides, OS);
  return OS.str();
}

void Checks::expect(bool Ok, const std::string &What) {
  ++Tried;
  if (!Ok) {
    ++Bad;
    std::cerr << "perfbench: check failed: " << What << "\n";
  }
}

JobTrace &Tracer::openJob(std::string Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  JobTrace &J = Jobs.emplace_back();
  J.Id = static_cast<uint32_t>(Jobs.size() - 1);
  J.Name = std::move(Name);
  return J;
}

bool Tracer::noteRun(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Runs.insert(Key).second)
    return false;
  ++Duplicates;
  return true;
}

JobScope::JobScope(Tracer &T, std::string Name)
    : T(T), J(T.openJob(std::move(Name))) {
  J.Spans.push_back({"job", T.nowNs(), 0, -1});
}

JobScope::~JobScope() { J.Spans.front().EndNs = T.nowNs(); }

JobScope::Guard::Guard(JobScope &S, const char *Name)
    : S(S), Index(S.J.Spans.size()) {
  S.J.Spans.push_back({Name, S.T.nowNs(), 0, 0});
}

JobScope::Guard::~Guard() {
  Span &Sp = S.J.Spans[Index];
  Sp.EndNs = S.T.nowNs();
  S.LastNs = Sp.EndNs - Sp.StartNs;
}

void accountWave(const std::vector<sprof::JobOutcome> &Outcomes,
                 const std::vector<std::vector<sprof::JobId>> &Deps,
                 DriverStats &Stats, std::vector<double> &JobMs, Checks &C) {
  uint64_t Failed = 0;
  std::vector<double> Finish(Outcomes.size(), 0.0);
  double Critical = 0.0;
  for (size_t Id = 0; Id != Outcomes.size(); ++Id) {
    const sprof::JobOutcome &O = Outcomes[Id];
    if (!O.Ok)
      ++Failed;
    if (!O.Ran)
      continue;
    const double Ms = static_cast<double>(O.DurationUs) / 1000.0;
    JobMs.push_back(Ms);
    Stats.BusyMs += Ms;
    Stats.QueueWaitMs +=
        static_cast<double>(O.StartUs > O.ReadyUs ? O.StartUs - O.ReadyUs
                                                  : 0) /
        1000.0;
    // Insertion order is a topological order, so every dependency's chain
    // is final by the time a job is visited.
    double Before = 0.0;
    if (Id < Deps.size())
      for (sprof::JobId D : Deps[Id])
        Before = std::max(Before, Finish[D]);
    Finish[Id] = Before + Ms;
    Critical = std::max(Critical, Finish[Id]);
  }
  Stats.Jobs += Outcomes.size();
  Stats.CriticalPathMs += Critical;
  C.addJobs(Outcomes.size(), Failed);
}

void Wave::run(DriverStats &Stats, std::vector<double> &JobMs, Checks &C) {
  try {
    Engine.run();
  } catch (const std::exception &E) {
    std::cerr << "perfbench: job failed: " << E.what() << "\n";
  }
  accountWave(Engine.lastOutcomes(), Deps, Stats, JobMs, C);
  Deps.clear();
}

} // namespace perfbench
