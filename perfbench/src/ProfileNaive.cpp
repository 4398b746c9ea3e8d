//===- perfbench/src/ProfileNaive.cpp - The "profile-naive" workload ------===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling run's host cost (the paper's Figures 20-22 subject):
/// instrumented train-input runs of all 12 workloads under naive-all,
/// naive-loop and sample-naive-all, with no cache model and no feedback,
/// over several workload seed offsets so that a pass lasts a few seconds.
/// Work splits between the interpreter and strideProf/LFU; memsys does
/// none, so a memsys change must leave this workload unchanged.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Traced.h"

#include "driver/Experiments.h"
#include "interp/ProgramCache.h"
#include "ir/Verifier.h"
#include "support/Random.h"
#include "support/Stats.h"

#include <iostream>
#include <map>

using namespace sprof;

namespace perfbench {

namespace {

/// Seed offsets per pass: enough replicas that a pass lasts a few seconds
/// (about 2 s at 4 threads on 4 x86 cores).
constexpr uint64_t Replicas = 16;

class ProfileNaiveBench final : public BenchWorkload {
public:
  ProfileNaiveBench(uint64_t Seed, unsigned Threads)
      : Seed(Seed), Threads(Threads) {}

  void setup() override;
  PassResult pass(Checks &C) override;
  std::string digest() const override;
  PassResult tracedPass(Tracer &T, TracedExtras &X, Checks &C) override;
  void check(Checks &C) override;

private:
  /// sim_* figures of the most recent pass's cells.
  void summarize(PassResult &R) const;

  uint64_t Seed;
  unsigned Threads;
  std::vector<std::unique_ptr<Workload>> Suite;
  SweepSpec Spec;
  bool InputsOk = false;
  SweepResult Last;
};

void ProfileNaiveBench::setup() {
  Suite = makeSpecIntSuite();
  Spec = SweepSpec();
  Spec.Workloads = workloadPointers(Suite);
  Spec.Methods = {ProfilingMethod::NaiveAll, ProfilingMethod::NaiveLoop,
                  ProfilingMethod::SampleNaiveAll};
  Spec.ProfileInputs = {DataSet::Train};
  Spec.SeedOffsets.clear();
  for (uint64_t I = 0; I != Replicas; ++I)
    Spec.SeedOffsets.push_back(Seed * Replicas + I);
  Spec.WithMemorySystem = false;
  InputsOk = true;
  for (const Workload *W : Spec.Workloads)
    for (uint64_t Off : Spec.SeedOffsets)
      InputsOk &= isWellFormed(W->build({DataSet::Train, Off}).M);
}

void ProfileNaiveBench::summarize(PassResult &R) const {
  // sim_speedup_geomean: how much cheaper (in simulated cycles) sampling
  // makes the naive-all profiling run; sim_overhead_pct: instrumentation
  // plus runtime cycles over the program's own cycles, mean over cells.
  std::map<std::pair<const Workload *, uint64_t>, std::pair<uint64_t, uint64_t>>
      AllVsSampled;
  std::vector<double> Overheads;
  for (const SweepCell &Cell : Last.Cells) {
    const RunStats &S = Cell.Profile.Stats;
    R.SimOps += S.Instructions;
    R.Events += Cell.Profile.StrideInvocations;
    const uint64_t Added = S.InstrumentationCycles + S.RuntimeCycles;
    if (S.Cycles > Added)
      Overheads.push_back(100.0 * static_cast<double>(Added) /
                          static_cast<double>(S.Cycles - Added));
    auto &Pair = AllVsSampled[{Cell.W, Cell.SeedOffset}];
    if (Cell.Method == ProfilingMethod::NaiveAll)
      Pair.first = S.Cycles;
    else if (Cell.Method == ProfilingMethod::SampleNaiveAll)
      Pair.second = S.Cycles;
  }
  std::vector<double> Ratios;
  for (const auto &[Key, Pair] : AllVsSampled)
    if (Pair.second != 0)
      Ratios.push_back(static_cast<double>(Pair.first) /
                       static_cast<double>(Pair.second));
  R.SimSpeedup = Ratios.empty() ? 0.0 : geomean(Ratios);
  R.SimOverheadPct = Overheads.empty() ? 0.0 : mean(Overheads);
}

PassResult ProfileNaiveBench::pass(Checks &C) {
  PassResult R;
  ProgramCache::global().clear();
  ExperimentEngine E(engineOptions(Threads));
  try {
    Last = E.runSweep(Spec);
  } catch (const std::exception &Ex) {
    std::cerr << "perfbench: profile-naive sweep failed: " << Ex.what()
              << "\n";
    Last = SweepResult();
  }
  accountWave(E.lastOutcomes(), {}, R.Driver, R.JobMs, C);
  summarize(R);
  return R;
}

std::string ProfileNaiveBench::digest() const {
  std::string D;
  for (const SweepCell &Cell : Last.Cells) {
    const ProfileRunResult &P = Cell.Profile;
    D += Cell.W->info().Name + " " + profilingMethodName(Cell.Method) + " " +
         std::to_string(Cell.SeedOffset) + " " +
         std::to_string(P.Stats.Cycles) + " " +
         std::to_string(P.Stats.Instructions) + " " +
         std::to_string(P.StrideInvocations) + " " +
         std::to_string(P.StrideProcessed) + " " +
         std::to_string(P.LfuCalls) + " " +
         std::to_string(fnv1a(profileText(P.Edges, P.Strides))) + "\n";
  }
  return D;
}

PassResult ProfileNaiveBench::tracedPass(Tracer &T, TracedExtras &X,
                                         Checks &C) {
  PassResult R;
  X.Lanes = Threads;
  ProgramCache::global().clear();
  // runSweep's jobs, in its order and under its names.
  SweepResult Result;
  Result.Cells.resize(Spec.Workloads.size() * Spec.SeedOffsets.size() *
                      Spec.Methods.size());
  Wave Wv(Threads);
  size_t Idx = 0;
  for (const Workload *W : Spec.Workloads)
    for (uint64_t Off : Spec.SeedOffsets)
      for (ProfilingMethod M : Spec.Methods) {
        SweepCell *Cell = &Result.Cells[Idx++];
        Cell->W = W;
        Cell->Method = M;
        Cell->SeedOffset = Off;
        std::string Tag = "profile:" + W->info().Name + "/" +
                          profilingMethodName(M) + "/train";
        if (Off != 0)
          Tag += "/seed" + std::to_string(Off);
        Wv.addTraced(T, Tag, "run-job", [Cell, this](JobScope &J) {
          PipelineConfig Config = Spec.Config;
          Config.WorkloadSeedOffset = Cell->SeedOffset;
          Cell->Profile =
              tracedRunProfile(J, *Cell->W, Config, Cell->Method,
                               DataSet::Train, Spec.WithMemorySystem);
        });
      }
  Wv.run(R.Driver, R.JobMs, C);
  Last = std::move(Result);
  summarize(R);
  return R;
}

void ProfileNaiveBench::check(Checks &C) {
  C.expect(InputsOk, "profile-naive: every program builds well-formed");
  C.expect(Last.Cells.size() == Spec.Workloads.size() *
                                    Spec.SeedOffsets.size() *
                                    Spec.Methods.size(),
           "profile-naive: the sweep produced every cell");
  if (Last.Cells.empty())
    return;
  // A seeded sample of cells re-executed under the Reference engine: the
  // accounting and both profiles must match bit for bit.
  Rng Pick(Seed * 0x9e3779b97f4a7c15ULL + 29);
  for (unsigned Sample = 0; Sample != 4; ++Sample) {
    const SweepCell &Cell = Last.Cells[Pick.below(Last.Cells.size())];
    PipelineConfig Config = Spec.Config;
    Config.WorkloadSeedOffset = Cell.SeedOffset;
    Config.Interp.Exec = InterpreterConfig::Engine::Reference;
    ProfileRunResult Ref = Pipeline(*Cell.W, Config)
                               .runProfile(Cell.Method, DataSet::Train,
                                           Spec.WithMemorySystem);
    const std::string Tag = "profile-naive: " + Cell.W->info().Name + "/" +
                            profilingMethodName(Cell.Method) + "/seed" +
                            std::to_string(Cell.SeedOffset) +
                            " under Reference: ";
    C.expect(sameRunStats(Ref.Stats, Cell.Profile.Stats),
             Tag + "RunStats match");
    C.expect(profileText(Ref.Edges, Ref.Strides) ==
                 profileText(Cell.Profile.Edges, Cell.Profile.Strides),
             Tag + "profiles match");
    C.expect(Ref.StrideInvocations == Cell.Profile.StrideInvocations &&
                 Ref.StrideProcessed == Cell.Profile.StrideProcessed &&
                 Ref.LfuCalls == Cell.Profile.LfuCalls,
             Tag + "strideProf call counts match");
  }
}

} // namespace

std::unique_ptr<BenchWorkload> makeProfileNaiveBench(uint64_t Seed,
                                                     unsigned Threads) {
  return std::make_unique<ProfileNaiveBench>(Seed, Threads);
}

} // namespace perfbench
