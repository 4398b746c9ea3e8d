//===- perfbench/src/Repro.cpp - The "repro" workload ---------------------===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full paper reproduction: the data behind Figures 15-25 and the
/// prefetch-quality table, computed as the figure binaries compute it. Each
/// figure gets its own ExperimentEngine and a cold ProgramCache, as each
/// binary starts a fresh process, and each suite driver runs as many times
/// as the binaries call it (measureSuite x5, sensitivity x3, population
/// x2), so cross-figure recomputation stays visible.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Traced.h"

#include "driver/Experiments.h"
#include "interp/ProgramCache.h"
#include "ir/Verifier.h"
#include "obs/Report.h"
#include "support/Random.h"
#include "support/Stats.h"

#include <functional>
#include <iostream>

using namespace sprof;

namespace perfbench {

namespace {

/// Seed-0 values of the committed trajectory point
/// bench/trajectory/BENCH_2026-08-08.json (geomean_speedup and
/// profiling_overhead): the canonical seed must reproduce them exactly.
constexpr double CanonicalGeomean = 1.072423843336032;
constexpr double CanonicalOverhead = 0.13899911256709074;

/// One member per figure binary.
struct ReproResults {
  std::vector<BaselineMeasurement> Fig15;
  std::vector<BenchMeasurement> Fig16;
  std::vector<double> Fig17; ///< in-loop share of dynamic loads, percent
  std::vector<PopulationRow> Fig18, Fig19;
  std::vector<BenchMeasurement> Fig20, Fig21, Fig22;
  std::vector<SensitivityMeasurement> Fig23, Fig24, Fig25;
  std::vector<BenchMeasurement> Quality;
};

/// Figure 16's edge-check speedups, geomean over the suite.
double edgeCheckGeomean(const std::vector<BenchMeasurement> &Fig16) {
  std::vector<double> S;
  for (const BenchMeasurement &BM : Fig16)
    S.push_back(BM.Methods.at(ProfilingMethod::EdgeCheck).Speedup);
  return S.empty() ? 0.0 : geomean(S);
}

/// Figure 20's sample-edge-check overhead over edge profiling, suite mean.
double sampleEdgeCheckOverhead(const std::vector<BenchMeasurement> &Fig20) {
  std::vector<double> O;
  for (const BenchMeasurement &BM : Fig20) {
    const double Base = static_cast<double>(BM.EdgeOnlyTrainCycles);
    const double Prof = static_cast<double>(
        BM.Methods.at(ProfilingMethod::SampleEdgeCheck).ProfiledCycles);
    if (Base != 0)
      O.push_back((Prof - Base) / Base);
  }
  return O.empty() ? 0.0 : mean(O);
}

/// Figure 17's statistic: percent of dynamic loads from in-loop sites.
double inLoopShare(const RunStats &S, const std::vector<bool> &InLoop) {
  uint64_t In = 0, Out = 0;
  for (size_t Site = 0; Site != InLoop.size(); ++Site)
    (InLoop[Site] ? In : Out) += S.SiteCounts[Site];
  return percent(static_cast<double>(In), static_cast<double>(In + Out));
}

/// One Figure 18/19 row from a naive-all ref profile (as Experiments.cpp).
PopulationRow populationRow(const std::string &Name,
                            const ProfileRunResult &PR,
                            const std::vector<bool> &InLoop,
                            bool InLoopWanted, const ClassifierConfig &CC) {
  PopulationRow Row;
  Row.Bench = Name;
  uint64_t Total = 0;
  uint64_t ByClass[4] = {0, 0, 0, 0}; // None, SSST, PMST, WSST
  for (uint32_t Site = 0; Site != InLoop.size(); ++Site) {
    uint64_t Refs = PR.Stats.SiteCounts[Site];
    Total += Refs;
    if (InLoop[Site] != InLoopWanted)
      continue;
    StrideClass C = classifyStrideSummary(PR.Strides.site(Site), CC);
    ByClass[static_cast<unsigned>(C)] += Refs;
  }
  const double T = static_cast<double>(Total);
  Row.NonePct = percent(static_cast<double>(ByClass[0]), T);
  Row.SsstPct = percent(static_cast<double>(ByClass[1]), T);
  Row.PmstPct = percent(static_cast<double>(ByClass[2]), T);
  Row.WsstPct = percent(static_cast<double>(ByClass[3]), T);
  return Row;
}

class ReproBench final : public BenchWorkload {
public:
  ReproBench(uint64_t Seed, unsigned Threads) : Seed(Seed), Threads(Threads) {
    Config.WorkloadSeedOffset = Seed;
  }

  void setup() override;
  PassResult pass(Checks &C) override;
  std::string digest() const override;
  PassResult tracedPass(Tracer &T, TracedExtras &X, Checks &C) override;
  void check(Checks &C) override;

private:
  std::vector<double> loadMix(ExperimentEngine &E, uint64_t &Instr) const;

  // Traced mirrors of the Experiments.h suite drivers and the Figure 17
  // jobs: same jobs, names and dependencies, each drained through \p D.
  using Drain = std::function<void(Wave &)>;
  std::vector<BaselineMeasurement> tracedBaselines(Tracer &T, Drain &D) const;
  std::vector<BenchMeasurement>
  tracedSuite(Tracer &T, Drain &D,
              const std::vector<ProfilingMethod> &Methods) const;
  std::vector<double> tracedLoadMix(Tracer &T, Drain &D) const;
  std::vector<PopulationRow> tracedPopulation(Tracer &T, Drain &D,
                                              bool InLoopWanted) const;
  std::vector<SensitivityMeasurement> tracedSensitivity(Tracer &T,
                                                        Drain &D) const;

  uint64_t Seed;
  unsigned Threads;
  PipelineConfig Config;
  std::vector<std::unique_ptr<Workload>> Suite;
  std::vector<const Workload *> WL;
  bool InputsOk = false;
  ReproResults Last;
};

void ReproBench::setup() {
  Suite = makeSpecIntSuite();
  WL = workloadPointers(Suite);
  // The inputs are the suite's programs built from the seed; a malformed
  // build fails here, before anything is timed.
  InputsOk = true;
  for (const Workload *W : WL)
    for (DataSet DS : {DataSet::Train, DataSet::Ref})
      InputsOk &= isWellFormed(W->build({DS, Seed}).M);
}

std::vector<double> ReproBench::loadMix(ExperimentEngine &E,
                                        uint64_t &Instr) const {
  // Figure 17's jobs, as bench_fig17_loadmix schedules them.
  std::vector<double> Shares(WL.size(), 0.0);
  std::vector<uint64_t> Instrs(WL.size(), 0);
  for (size_t WI = 0; WI != WL.size(); ++WI) {
    const Workload *W = WL[WI];
    double *Share = &Shares[WI];
    uint64_t *Ins = &Instrs[WI];
    const uint64_t S = Seed;
    E.addJob("loadmix:" + W->info().Name, "run-job",
             [W, Share, Ins, S](ObsSession *) {
               Program Prog = W->build({DataSet::Ref, S});
               Interpreter I(Prog.M, std::move(Prog.Memory));
               RunStats Stats = I.run();
               *Ins = Stats.Instructions;
               *Share = inLoopShare(Stats, siteInLoop(Prog.M));
             });
  }
  E.run();
  for (uint64_t N : Instrs)
    Instr += N;
  return Shares;
}

PassResult ReproBench::pass(Checks &C) {
  PassResult R;
  ReproResults Res;
  // One figure binary: a fresh engine over a cold program cache. Metrics
  // (no trace spans) count the simulated instructions and strideProf
  // events behind sim_mips and replay_mevps.
  auto Figure = [&](auto Body) {
    ProgramCache::global().clear();
    EngineOptions Opts = engineOptions(Threads);
    Opts.Obs.Enabled = true;
    Opts.Obs.CollectTrace = false;
    ExperimentEngine E(Opts);
    try {
      Body(E);
    } catch (const std::exception &Ex) {
      std::cerr << "perfbench: repro figure failed: " << Ex.what() << "\n";
    }
    accountWave(E.lastOutcomes(), {}, R.Driver, R.JobMs, C);
    MetricsRegistry &Reg = E.obs()->registry();
    R.SimOps += Reg.counter("interp.instructions").value();
    R.Events += Reg.counter("strideprof.invocations").value();
  };
  const std::vector<ProfilingMethod> Paper = paperStrideMethods();
  Figure([&](ExperimentEngine &E) {
    Res.Fig15 = measureSuiteBaselines(E, WL, Config);
  });
  Figure([&](ExperimentEngine &E) {
    Res.Fig16 = measureSuite(E, WL, Config, Paper);
  });
  Figure([&](ExperimentEngine &E) { Res.Fig17 = loadMix(E, R.SimOps); });
  Figure([&](ExperimentEngine &E) {
    Res.Fig18 = classifySuitePopulation(E, WL, false, Config);
  });
  Figure([&](ExperimentEngine &E) {
    Res.Fig19 = classifySuitePopulation(E, WL, true, Config);
  });
  for (auto *Fig : {&Res.Fig20, &Res.Fig21, &Res.Fig22})
    Figure([&](ExperimentEngine &E) {
      *Fig = measureSuite(E, WL, Config, Paper);
    });
  for (auto *Fig : {&Res.Fig23, &Res.Fig24, &Res.Fig25})
    Figure([&](ExperimentEngine &E) {
      *Fig = measureSuiteSensitivity(E, WL, Config);
    });
  Figure([&](ExperimentEngine &E) {
    Res.Quality = measureSuite(E, WL, Config, {ProfilingMethod::EdgeCheck});
  });

  R.SimSpeedup = edgeCheckGeomean(Res.Fig16);
  R.SimOverheadPct = 100.0 * sampleEdgeCheckOverhead(Res.Fig20);
  Last = std::move(Res);
  return R;
}

std::string ReproBench::digest() const {
  auto Rows = [](const auto &V, auto ToJson) {
    JsonValue A = JsonValue::array();
    for (const auto &Row : V)
      A.push(ToJson(Row));
    return A;
  };
  auto Share = [](double S) { return JsonValue(S); };
  JsonValue D = JsonValue::object();
  D.set("fig15", Rows(Last.Fig15, baselineMeasurementToJson));
  D.set("fig16", Rows(Last.Fig16, benchMeasurementToJson));
  D.set("fig17", Rows(Last.Fig17, Share));
  D.set("fig18", Rows(Last.Fig18, populationRowToJson));
  D.set("fig19", Rows(Last.Fig19, populationRowToJson));
  D.set("fig20", Rows(Last.Fig20, benchMeasurementToJson));
  D.set("fig21", Rows(Last.Fig21, benchMeasurementToJson));
  D.set("fig22", Rows(Last.Fig22, benchMeasurementToJson));
  D.set("fig23", Rows(Last.Fig23, sensitivityMeasurementToJson));
  D.set("fig24", Rows(Last.Fig24, sensitivityMeasurementToJson));
  D.set("fig25", Rows(Last.Fig25, sensitivityMeasurementToJson));
  D.set("quality", Rows(Last.Quality, benchMeasurementToJson));
  return D.str(0);
}

std::vector<BaselineMeasurement> ReproBench::tracedBaselines(Tracer &T,
                                                            Drain &D) const {
  Wave Wv(Threads);
  std::vector<BaselineMeasurement> Results(WL.size());
  for (size_t WI = 0; WI != WL.size(); ++WI) {
    const Workload *W = WL[WI];
    BaselineMeasurement *BM = &Results[WI];
    BM->Info = W->info();
    for (DataSet DS : {DataSet::Train, DataSet::Ref})
      Wv.addTraced(T, "baseline:" + BM->Info.Name + "/" + dataSetName(DS),
                   "baseline-job", [this, W, BM, DS](JobScope &J) {
                     (DS == DataSet::Train ? BM->Train : BM->Ref) =
                         tracedRunBaseline(J, *W, Config, DS);
                   });
  }
  D(Wv);
  return Results;
}

std::vector<BenchMeasurement>
ReproBench::tracedSuite(Tracer &T, Drain &D,
                        const std::vector<ProfilingMethod> &Methods) const {
  Wave Wv(Threads);
  std::vector<BenchMeasurement> Results(WL.size());
  // Profiles flow from each profile job to its feedback job.
  std::vector<ProfileRunResult> Profiles(WL.size() * Methods.size());
  for (size_t WI = 0; WI != WL.size(); ++WI) {
    const Workload *W = WL[WI];
    BenchMeasurement *BM = &Results[WI];
    BM->Name = W->info().Name;
    for (ProfilingMethod M : Methods)
      BM->Methods.emplace(M, MethodMeasurement{});

    Wv.addTraced(T, "baseline:" + BM->Name + "/ref", "baseline-job",
                 [this, W, BM](JobScope &J) {
                   BM->BaselineRefCycles =
                       tracedRunBaseline(J, *W, Config, DataSet::Ref).Cycles;
                 });
    Wv.addTraced(T, "profile:" + BM->Name + "/edge-only/train", "run-job",
                 [this, W, BM](JobScope &J) {
                   BM->EdgeOnlyTrainCycles =
                       tracedRunProfile(J, *W, Config,
                                        ProfilingMethod::EdgeOnly,
                                        DataSet::Train)
                           .Stats.Cycles;
                 });
    for (size_t MI = 0; MI != Methods.size(); ++MI) {
      ProfilingMethod M = Methods[MI];
      MethodMeasurement *MM = &BM->Methods.at(M);
      ProfileRunResult *PR = &Profiles[WI * Methods.size() + MI];
      std::string Tag = BM->Name + "/" + profilingMethodName(M) + "/train";
      JobId Run = Wv.addTraced(
          T, "profile:" + Tag, "run-job", [this, W, M, MM, PR](JobScope &J) {
            *PR = tracedRunProfile(J, *W, Config, M, DataSet::Train);
            MM->ProfiledCycles = PR->Stats.Cycles;
            MM->StrideInvocations = PR->StrideInvocations;
            MM->StrideProcessed = PR->StrideProcessed;
            MM->LfuCalls = PR->LfuCalls;
            MM->TrainLoadRefs = PR->Stats.LoadRefs;
          });
      Wv.addTraced(
          T, "feedback:" + Tag, "feedback-job",
          [this, W, MM, PR](JobScope &J) {
            TimedRunResult TR = tracedRunPrefetched(
                J, *W, Config, DataSet::Ref, PR->Edges, PR->Strides);
            MM->Prefetches = TR.Prefetches;
            MM->PrefetchedRefCycles = TR.Stats.Cycles;
            MM->RefMemory = TR.Stats.Mem;
          },
          {Run});
    }
  }
  D(Wv);
  for (BenchMeasurement &BM : Results)
    for (auto &[M, MM] : BM.Methods)
      if (MM.PrefetchedRefCycles != 0)
        MM.Speedup = static_cast<double>(BM.BaselineRefCycles) /
                     static_cast<double>(MM.PrefetchedRefCycles);
  return Results;
}

std::vector<double> ReproBench::tracedLoadMix(Tracer &T, Drain &D) const {
  Wave Wv(Threads);
  std::vector<double> Shares(WL.size(), 0.0);
  for (size_t WI = 0; WI != WL.size(); ++WI) {
    const Workload *W = WL[WI];
    double *Share = &Shares[WI];
    Wv.addTraced(T, "loadmix:" + W->info().Name, "run-job",
                 [this, W, Share](JobScope &J) {
                   Program Prog = tracedBuild(J, *W, Config, DataSet::Ref);
                   Interpreter I(Prog.M, std::move(Prog.Memory));
                   RunStats Stats = tracedBareRun(J, I);
                   std::vector<bool> InLoop = J.layer(
                       "analysis", [&] { return siteInLoop(Prog.M); });
                   *Share = inLoopShare(Stats, InLoop);
                 });
  }
  D(Wv);
  return Shares;
}

std::vector<PopulationRow>
ReproBench::tracedPopulation(Tracer &T, Drain &D, bool InLoopWanted) const {
  Wave Wv(Threads);
  std::vector<PopulationRow> Results(WL.size());
  for (size_t WI = 0; WI != WL.size(); ++WI) {
    const Workload *W = WL[WI];
    PopulationRow *Row = &Results[WI];
    Wv.addTraced(
        T, "classify:" + W->info().Name, "run-job",
        [this, W, Row, InLoopWanted](JobScope &J) {
          ProfileRunResult PR =
              tracedRunProfile(J, *W, Config, ProfilingMethod::NaiveAll,
                               DataSet::Ref, /*WithMemorySystem=*/false);
          Program Prog = tracedBuild(J, *W, Config, DataSet::Ref);
          std::vector<bool> InLoop =
              J.layer("analysis", [&] { return siteInLoop(Prog.M); });
          *Row = J.layer("feedback", [&] {
            return populationRow(W->info().Name, PR, InLoop, InLoopWanted,
                                 Config.Classifier);
          });
        });
  }
  D(Wv);
  return Results;
}

std::vector<SensitivityMeasurement>
ReproBench::tracedSensitivity(Tracer &T, Drain &D) const {
  Wave Wv(Threads);
  std::vector<SensitivityMeasurement> Results(WL.size());
  struct Slot {
    ProfileRunResult Train, Ref;
    uint64_t BaseCycles = 0;
    uint64_t Cycles[4] = {0, 0, 0, 0}; ///< train, ref, er-st, et-sr
  };
  std::vector<Slot> Slots(WL.size());
  for (size_t WI = 0; WI != WL.size(); ++WI) {
    const Workload *W = WL[WI];
    const std::string Name = W->info().Name;
    Results[WI].Name = Name;
    Slot *S = &Slots[WI];
    Wv.addTraced(T, "baseline:" + Name + "/ref", "baseline-job",
                 [this, W, S](JobScope &J) {
                   S->BaseCycles =
                       tracedRunBaseline(J, *W, Config, DataSet::Ref).Cycles;
                 });
    JobId TrainJob = Wv.addTraced(
        T, "profile:" + Name + "/sample-edge-check/train", "run-job",
        [this, W, S](JobScope &J) {
          S->Train = tracedRunProfile(J, *W, Config,
                                      ProfilingMethod::SampleEdgeCheck,
                                      DataSet::Train, false);
        });
    JobId RefJob = Wv.addTraced(
        T, "profile:" + Name + "/sample-edge-check/ref", "run-job",
        [this, W, S](JobScope &J) {
          S->Ref = tracedRunProfile(J, *W, Config,
                                    ProfilingMethod::SampleEdgeCheck,
                                    DataSet::Ref, false);
        });
    struct Combo {
      const char *Tag;
      bool EdgeFromTrain, StrideFromTrain;
      std::vector<JobId> Deps;
    };
    const Combo Combos[4] = {
        {"train", true, true, {TrainJob}},
        {"ref", false, false, {RefJob}},
        {"edge-ref.stride-train", false, true, {TrainJob, RefJob}},
        {"edge-train.stride-ref", true, false, {TrainJob, RefJob}},
    };
    for (unsigned CI = 0; CI != 4; ++CI) {
      const Combo &Co = Combos[CI];
      const bool ET = Co.EdgeFromTrain, ST = Co.StrideFromTrain;
      Wv.addTraced(
          T, "feedback:" + Name + "/" + Co.Tag, "feedback-job",
          [this, W, S, ET, ST, CI](JobScope &J) {
            const EdgeProfile &EP = ET ? S->Train.Edges : S->Ref.Edges;
            const StrideProfile &SP = ST ? S->Train.Strides : S->Ref.Strides;
            S->Cycles[CI] =
                tracedRunPrefetched(J, *W, Config, DataSet::Ref, EP, SP)
                    .Stats.Cycles;
          },
          Co.Deps);
    }
  }
  D(Wv);
  for (size_t WI = 0; WI != WL.size(); ++WI) {
    const Slot &S = Slots[WI];
    auto Ratio = [&](uint64_t Cycles) {
      return Cycles ? static_cast<double>(S.BaseCycles) /
                          static_cast<double>(Cycles)
                    : 1.0;
    };
    Results[WI].Train = Ratio(S.Cycles[0]);
    Results[WI].Ref = Ratio(S.Cycles[1]);
    Results[WI].EdgeRefStrideTrain = Ratio(S.Cycles[2]);
    Results[WI].EdgeTrainStrideRef = Ratio(S.Cycles[3]);
  }
  return Results;
}

PassResult ReproBench::tracedPass(Tracer &T, TracedExtras &X, Checks &C) {
  PassResult R;
  ReproResults Res;
  X.Lanes = Threads;
  // Drains one figure's wave into the pass accounting, on a cold program
  // cache as in pass().
  Drain D = [&](Wave &Wv) {
    ProgramCache::global().clear();
    Wv.run(R.Driver, R.JobMs, C);
  };
  const std::vector<ProfilingMethod> Paper = paperStrideMethods();
  Res.Fig15 = tracedBaselines(T, D);
  Res.Fig16 = tracedSuite(T, D, Paper);
  Res.Fig17 = tracedLoadMix(T, D);
  Res.Fig18 = tracedPopulation(T, D, false);
  Res.Fig19 = tracedPopulation(T, D, true);
  for (auto *Fig : {&Res.Fig20, &Res.Fig21, &Res.Fig22})
    *Fig = tracedSuite(T, D, Paper);
  for (auto *Fig : {&Res.Fig23, &Res.Fig24, &Res.Fig25})
    *Fig = tracedSensitivity(T, D);
  Res.Quality = tracedSuite(T, D, {ProfilingMethod::EdgeCheck});

  R.SimSpeedup = edgeCheckGeomean(Res.Fig16);
  R.SimOverheadPct = 100.0 * sampleEdgeCheckOverhead(Res.Fig20);
  R.SimOps = T.Counts.SimInstr;
  R.Events = T.Counts.ProfileEvents;
  Last = std::move(Res);
  return R;
}

void ReproBench::check(Checks &C) {
  C.expect(InputsOk, "repro: every suite program builds well-formed");
  if (Seed == 0) {
    C.expect(edgeCheckGeomean(Last.Fig16) == CanonicalGeomean,
             "repro: seed 0 reproduces the Figure 16 edge-check geomean");
    C.expect(sampleEdgeCheckOverhead(Last.Fig20) == CanonicalOverhead,
             "repro: seed 0 reproduces the Figure 20 sample-edge-check "
             "overhead");
  }
  if (Last.Fig16.size() != WL.size() || Last.Fig15.size() != WL.size() ||
      Last.Fig18.size() != WL.size()) {
    C.expect(false, "repro: every figure produced a row per workload");
    return;
  }

  // A seeded sample of the pass's pipeline runs, re-executed under the
  // Reference engine (the executable specification): Figure 16 profile and
  // feedback runs, the Figure 15 baseline, and one Figure 18 row.
  PipelineConfig RefConfig = Config;
  RefConfig.Interp.Exec = InterpreterConfig::Engine::Reference;
  const std::vector<ProfilingMethod> Paper = paperStrideMethods();
  Rng Pick(Seed * 0x9e3779b97f4a7c15ULL + 17);
  for (unsigned Sample = 0; Sample != 2; ++Sample) {
    const size_t WI = Pick.below(WL.size());
    const ProfilingMethod M = Paper[Pick.below(Paper.size())];
    const Workload &W = *WL[WI];
    const std::string Tag = "repro: " + W.info().Name + "/" +
                            profilingMethodName(M) + " under Reference: ";
    const BenchMeasurement &BM = Last.Fig16[WI];
    const MethodMeasurement &MM = BM.Methods.at(M);
    Pipeline Ref(W, RefConfig);

    ProfileRunResult PR = Ref.runProfile(M, DataSet::Train);
    C.expect(PR.Stats.Cycles == MM.ProfiledCycles &&
                 PR.StrideInvocations == MM.StrideInvocations &&
                 PR.StrideProcessed == MM.StrideProcessed &&
                 PR.LfuCalls == MM.LfuCalls &&
                 PR.Stats.LoadRefs == MM.TrainLoadRefs,
             Tag + "profile-run accounting matches Figure 16");
    ProfileRunResult Dec = Pipeline(W, Config).runProfile(M, DataSet::Train);
    C.expect(sameRunStats(PR.Stats, Dec.Stats),
             Tag + "RunStats match the Decoded engine");
    C.expect(profileText(PR.Edges, PR.Strides) ==
                 profileText(Dec.Edges, Dec.Strides),
             Tag + "profiles match the Decoded engine");

    TimedRunResult TR = Ref.runPrefetched(DataSet::Ref, PR.Edges, PR.Strides);
    C.expect(TR.Stats.Cycles == MM.PrefetchedRefCycles &&
                 memoryStatsToJson(TR.Stats.Mem).str(0) ==
                     memoryStatsToJson(MM.RefMemory).str(0) &&
                 TR.Prefetches.InstructionsAdded ==
                     MM.Prefetches.InstructionsAdded,
             Tag + "prefetched run matches Figure 16");

    RunStats Base = Ref.runBaseline(DataSet::Ref);
    C.expect(Base.Cycles == BM.BaselineRefCycles &&
                 sameRunStats(Base, Last.Fig15[WI].Ref),
             Tag + "baseline matches Figures 15 and 16");
  }
  const size_t PI = Pick.below(WL.size());
  C.expect(populationRowToJson(classifyLoadPopulation(*WL[PI], false,
                                                      RefConfig))
                   .str(0) == populationRowToJson(Last.Fig18[PI]).str(0),
           "repro: " + WL[PI]->info().Name +
               " Figure 18 row under Reference matches");
}

} // namespace

std::unique_ptr<BenchWorkload> makeReproBench(uint64_t Seed,
                                              unsigned Threads) {
  return std::make_unique<ReproBench>(Seed, Threads);
}

} // namespace perfbench
