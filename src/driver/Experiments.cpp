//===- driver/Experiments.cpp - Shared experiment helpers ------------------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/Experiments.h"

#include "analysis/LoopInfo.h"
#include "obs/Report.h"
#include "support/Stats.h"

#include <iostream>

using namespace sprof;

/// Both population rows of \p W (out-loop, in-loop) from one naive-all
/// ref run, against the telemetry scope \p Obs so engine jobs can run it
/// against their job session, taking the program from \p Memo.
static PopulationRows::value_type
classifyPopulationImpl(const Workload &W, const PipelineConfig &Config,
                       ObsSession *Obs, RunMemo &Memo) {
  Pipeline P(W, Config, Obs, &Memo);
  // Naive-all profiles every load; run on the reference input so the
  // population weights match the performance runs.
  ProfileRunResult PR = P.runProfile(ProfilingMethod::NaiveAll, DataSet::Ref,
                                     /*WithMemorySystem=*/false);

  // In-loop classification per site on the original module.
  const std::shared_ptr<const Module> M =
      Memo.module(W, {DataSet::Ref, Config.WorkloadSeedOffset});
  std::vector<bool> SiteInLoop = loadSitesInLoop(*M);

  uint64_t Total = 0;
  // Per in-loop flag: None, SSST, PMST, WSST.
  uint64_t ByClass[2][4] = {};
  for (uint32_t Site = 0; Site != M->NumLoadSites; ++Site) {
    uint64_t Refs = PR.Stats.SiteCounts[Site];
    Total += Refs;
    StrideClass C =
        classifyStrideSummary(PR.Strides.site(Site), Config.Classifier);
    ByClass[SiteInLoop[Site]][static_cast<unsigned>(C)] += Refs;
  }
  auto Row = [&](const uint64_t(&Counts)[4]) {
    PopulationRow R;
    R.Bench = W.info().Name;
    const double T = static_cast<double>(Total);
    R.NonePct = percent(static_cast<double>(Counts[0]), T);
    R.SsstPct = percent(static_cast<double>(Counts[1]), T);
    R.PmstPct = percent(static_cast<double>(Counts[2]), T);
    R.WsstPct = percent(static_cast<double>(Counts[3]), T);
    return R;
  };
  return {Row(ByClass[0]), Row(ByClass[1])};
}

PopulationRow sprof::classifyLoadPopulation(const Workload &W,
                                            bool InLoopWanted,
                                            const PipelineConfig &Config) {
  RunMemo Memo;
  PopulationRows::value_type Rows =
      classifyPopulationImpl(W, Config, /*Obs=*/nullptr, Memo);
  return InLoopWanted ? Rows.second : Rows.first;
}

std::vector<const Workload *> sprof::workloadPointers(
    const std::vector<std::unique_ptr<Workload>> &Suite) {
  std::vector<const Workload *> Ptrs;
  Ptrs.reserve(Suite.size());
  for (const auto &W : Suite)
    Ptrs.push_back(W.get());
  return Ptrs;
}

std::vector<BenchMeasurement>
sprof::measureSuite(ExperimentEngine &Engine,
                    const std::vector<const Workload *> &Workloads,
                    const PipelineConfig &Config,
                    const std::vector<ProfilingMethod> &Methods) {
  requireSharableConfig(Config, "measureSuite");
  std::vector<BenchMeasurement> Results(Workloads.size());
  // Profiles flow from each RunJob to its FeedbackJob through these
  // preallocated slots; nothing is shared between (workload, method)
  // pairs.
  std::vector<ProfileRunResult> Profiles(Workloads.size() * Methods.size());
  RunMemo *Memo = Engine.runMemo();
  // The methods of one instrumentation family share one execution, and
  // every train profile run of a workload takes its memory stall from one
  // memoized un-instrumented train run.
  ProfileGroups Groups(Engine, Config, /*WithMemorySystem=*/true);

  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Workload *W = Workloads[WI];
    BenchMeasurement &BM = Results[WI];
    BM.Name = W->info().Name;
    // Populate the method map up front: jobs then write through stable
    // references without mutating the map concurrently.
    for (ProfilingMethod M : Methods)
      BM.Methods.emplace(M, MethodMeasurement{});

    Engine.addJob("baseline:" + BM.Name + "/ref", "baseline-job",
                  [W, &Config, &BM, Memo](ObsSession *JobObs) {
                    Pipeline P(*W, Config, JobObs, Memo);
                    BM.BaselineRefCycles =
                        P.runBaseline(DataSet::Ref).Cycles;
                  });
    Engine.addJob("profile:" + BM.Name + "/edge-only/train", "run-job",
                  [W, &Config, &BM, Memo](ObsSession *JobObs) {
                    Pipeline P(*W, Config, JobObs, Memo);
                    BM.EdgeOnlyTrainCycles =
                        P.runProfile(ProfilingMethod::EdgeOnly,
                                     DataSet::Train)
                            .Stats.Cycles;
                  });

    for (size_t MI = 0; MI != Methods.size(); ++MI) {
      ProfilingMethod M = Methods[MI];
      MethodMeasurement *MM = &BM.Methods.at(M);
      ProfileRunResult *PR = &Profiles[WI * Methods.size() + MI];
      std::string Tag =
          BM.Name + "/" + profilingMethodName(M) + "/train";

      JobId Run = Groups.add(
          "profile:" + Tag, W, Config.WorkloadSeedOffset, M, DataSet::Train,
          [MM, PR](ProfileRunResult &R) {
            *PR = std::move(R);
            MM->ProfiledCycles = PR->Stats.Cycles;
            MM->StrideInvocations = PR->StrideInvocations;
            MM->StrideProcessed = PR->StrideProcessed;
            MM->LfuCalls = PR->LfuCalls;
            MM->TrainLoadRefs = PR->Stats.LoadRefs;
          });
      Engine.addJob(
          "feedback:" + Tag, "feedback-job",
          [W, &Config, MM, PR, Memo](ObsSession *JobObs) {
            Pipeline P(*W, Config, JobObs, Memo);
            TimedRunResult TR =
                P.runPrefetched(DataSet::Ref, PR->Edges, PR->Strides);
            MM->Prefetches = TR.Prefetches;
            MM->PrefetchedRefCycles = TR.Stats.Cycles;
            MM->RefMemory = TR.Stats.Mem;
          },
          {Run});
    }
  }

  Engine.run();

  for (BenchMeasurement &BM : Results)
    for (auto &[M, MM] : BM.Methods)
      if (MM.PrefetchedRefCycles != 0)
        MM.Speedup = static_cast<double>(BM.BaselineRefCycles) /
                     static_cast<double>(MM.PrefetchedRefCycles);
  return Results;
}

PopulationRows
sprof::classifySuitePopulations(ExperimentEngine &Engine,
                                const std::vector<const Workload *> &Workloads,
                                const PipelineConfig &Config) {
  requireSharableConfig(Config, "classifySuitePopulations");
  PopulationRows Results(Workloads.size());
  RunMemo *Memo = Engine.runMemo();
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Workload *W = Workloads[WI];
    PopulationRows::value_type *Rows = &Results[WI];
    Engine.addJob("classify:" + W->info().Name, "run-job",
                  [W, &Config, Rows, Memo](ObsSession *JobObs) {
                    *Rows = classifyPopulationImpl(*W, Config, JobObs, *Memo);
                  });
  }
  Engine.run();
  return Results;
}

std::vector<PopulationRow> sprof::classifySuitePopulation(
    ExperimentEngine &Engine, const std::vector<const Workload *> &Workloads,
    bool InLoopWanted, const PipelineConfig &Config) {
  std::vector<PopulationRow> Rows;
  for (auto &[OutLoop, InLoop] :
       classifySuitePopulations(Engine, Workloads, Config))
    Rows.push_back(std::move(InLoopWanted ? InLoop : OutLoop));
  return Rows;
}

std::vector<SensitivityMeasurement> sprof::measureSuiteSensitivity(
    ExperimentEngine &Engine, const std::vector<const Workload *> &Workloads,
    const PipelineConfig &Config) {
  requireSharableConfig(Config, "measureSuiteSensitivity");
  std::vector<SensitivityMeasurement> Results(Workloads.size());
  struct Slot {
    ProfileRunResult Train, Ref;
    uint64_t BaseCycles = 0;
    uint64_t Cycles[4] = {0, 0, 0, 0}; ///< train, ref, er-st, et-sr
  };
  std::vector<Slot> Slots(Workloads.size());
  RunMemo *Memo = Engine.runMemo();

  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Workload *W = Workloads[WI];
    const std::string Name = W->info().Name;
    Results[WI].Name = Name;
    Slot *S = &Slots[WI];

    Engine.addJob("baseline:" + Name + "/ref", "baseline-job",
                  [W, &Config, S, Memo](ObsSession *JobObs) {
                    Pipeline P(*W, Config, JobObs, Memo);
                    S->BaseCycles = P.runBaseline(DataSet::Ref).Cycles;
                  });
    JobId TrainJob = Engine.addJob(
        "profile:" + Name + "/sample-edge-check/train", "run-job",
        [W, &Config, S, Memo](ObsSession *JobObs) {
          Pipeline P(*W, Config, JobObs, Memo);
          S->Train = P.runProfile(ProfilingMethod::SampleEdgeCheck,
                                  DataSet::Train,
                                  /*WithMemorySystem=*/false);
        });
    JobId RefJob = Engine.addJob(
        "profile:" + Name + "/sample-edge-check/ref", "run-job",
        [W, &Config, S, Memo](ObsSession *JobObs) {
          Pipeline P(*W, Config, JobObs, Memo);
          S->Ref = P.runProfile(ProfilingMethod::SampleEdgeCheck,
                                DataSet::Ref,
                                /*WithMemorySystem=*/false);
        });

    // The four Figure 23-25 binaries: every edge × stride profile pairing,
    // each timed on the reference input.
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
      const Combo &C = Combos[CI];
      Engine.addJob(
          "feedback:" + Name + "/" + C.Tag, "feedback-job",
          [W, &Config, S, C, CI, Memo](ObsSession *JobObs) {
            Pipeline P(*W, Config, JobObs, Memo);
            const EdgeProfile &EP =
                C.EdgeFromTrain ? S->Train.Edges : S->Ref.Edges;
            const StrideProfile &SP =
                C.StrideFromTrain ? S->Train.Strides : S->Ref.Strides;
            S->Cycles[CI] =
                P.runPrefetched(DataSet::Ref, EP, SP).Stats.Cycles;
          },
          C.Deps);
    }
  }

  Engine.run();

  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
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

std::vector<BaselineMeasurement> sprof::measureSuiteBaselines(
    ExperimentEngine &Engine, const std::vector<const Workload *> &Workloads,
    const PipelineConfig &Config) {
  std::vector<BaselineMeasurement> Results(Workloads.size());
  RunMemo *Memo = Engine.runMemo();
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Workload *W = Workloads[WI];
    BaselineMeasurement *BM = &Results[WI];
    BM->Info = W->info();
    Engine.addJob("baseline:" + BM->Info.Name + "/train", "baseline-job",
                  [W, &Config, BM, Memo](ObsSession *JobObs) {
                    Pipeline P(*W, Config, JobObs, Memo);
                    BM->Train = P.runBaseline(DataSet::Train);
                  });
    Engine.addJob("baseline:" + BM->Info.Name + "/ref", "baseline-job",
                  [W, &Config, BM, Memo](ObsSession *JobObs) {
                    Pipeline P(*W, Config, JobObs, Memo);
                    BM->Ref = P.runBaseline(DataSet::Ref);
                  });
  }
  Engine.run();
  return Results;
}

JsonValue sprof::methodMeasurementToJson(const MethodMeasurement &M) {
  JsonValue J = JsonValue::object();
  J.set("speedup", M.Speedup);
  J.set("profiled_cycles", M.ProfiledCycles);
  J.set("stride_invocations", M.StrideInvocations);
  J.set("stride_processed", M.StrideProcessed);
  J.set("lfu_calls", M.LfuCalls);
  J.set("train_load_refs", M.TrainLoadRefs);
  J.set("prefetched_ref_cycles", M.PrefetchedRefCycles);
  JsonValue P = JsonValue::object();
  P.set("ssst", M.Prefetches.SsstPrefetches)
      .set("pmst", M.Prefetches.PmstPrefetches)
      .set("wsst", M.Prefetches.WsstPrefetches)
      .set("out_loop", M.Prefetches.OutLoopPrefetches)
      .set("dependent", M.Prefetches.DependentPrefetches)
      .set("instructions_added", M.Prefetches.InstructionsAdded);
  J.set("prefetches", std::move(P));
  // Cache/prefetch accounting of the prefetched ref run, so regression
  // gates can track prefetch usefulness without re-running the bench.
  J.set("ref_memory", memoryStatsToJson(M.RefMemory));
  return J;
}

JsonValue sprof::benchMeasurementToJson(const BenchMeasurement &BM) {
  JsonValue J = JsonValue::object();
  J.set("name", BM.Name);
  J.set("baseline_ref_cycles", BM.BaselineRefCycles);
  J.set("edge_only_train_cycles", BM.EdgeOnlyTrainCycles);
  JsonValue Methods = JsonValue::object();
  for (const auto &[M, MM] : BM.Methods)
    Methods.set(profilingMethodName(M), methodMeasurementToJson(MM));
  J.set("methods", std::move(Methods));
  return J;
}

JsonValue sprof::baselineMeasurementToJson(const BaselineMeasurement &BM) {
  JsonValue J = JsonValue::object();
  J.set("name", BM.Info.Name);
  J.set("lang", BM.Info.Lang);
  J.set("train", runStatsToJson(BM.Train));
  J.set("ref", runStatsToJson(BM.Ref));
  return J;
}

JsonValue sprof::populationRowToJson(const PopulationRow &R) {
  JsonValue J = JsonValue::object();
  J.set("name", R.Bench);
  J.set("ssst_pct", R.SsstPct);
  J.set("pmst_pct", R.PmstPct);
  J.set("wsst_pct", R.WsstPct);
  J.set("none_pct", R.NonePct);
  return J;
}

JsonValue sprof::sensitivityMeasurementToJson(
    const SensitivityMeasurement &M) {
  JsonValue J = JsonValue::object();
  J.set("name", M.Name);
  J.set("train", M.Train);
  J.set("ref", M.Ref);
  J.set("edge_ref_stride_train", M.EdgeRefStrideTrain);
  J.set("edge_train_stride_ref", M.EdgeTrainStrideRef);
  return J;
}

/// Writes a "sprof.bench_report/1" document whose payload \p Body sits
/// under \p Key; reports the outcome on stderr.
static bool writeBenchDocument(const std::string &Path,
                               const std::string &Figure, const char *Key,
                               JsonValue Body) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "sprof.bench_report/1");
  Root.set("figure", Figure);
  Root.set(Key, std::move(Body));
  if (!writeJsonFile(Path, Root)) {
    std::cerr << "error: could not write bench report to " << Path << "\n";
    return false;
  }
  std::cerr << "bench report written to " << Path << "\n";
  return true;
}

bool sprof::writeBenchRows(const std::string &Path,
                           const std::string &Figure, JsonValue Rows) {
  return writeBenchDocument(Path, Figure, "rows", std::move(Rows));
}

bool sprof::writeBenchReport(
    const std::string &Path, const std::string &Figure,
    const std::vector<BenchMeasurement> &Measurements) {
  JsonValue Benchmarks = JsonValue::array();
  for (const BenchMeasurement &BM : Measurements)
    Benchmarks.push(benchMeasurementToJson(BM));
  return writeBenchDocument(Path, Figure, "benchmarks", std::move(Benchmarks));
}

std::optional<double> sprof::paperFig16Speedup(const std::string &Bench) {
  if (Bench == "181.mcf")
    return 1.59;
  if (Bench == "254.gap")
    return 1.14;
  if (Bench == "197.parser")
    return 1.08;
  return std::nullopt;
}

std::optional<double> sprof::paperFig20Overhead(ProfilingMethod Method) {
  switch (Method) {
  case ProfilingMethod::EdgeCheck:
    return 0.58;
  case ProfilingMethod::NaiveLoop:
    return 2.72;
  case ProfilingMethod::NaiveAll:
    return 4.36;
  case ProfilingMethod::SampleEdgeCheck:
    return 0.17;
  case ProfilingMethod::SampleNaiveLoop:
    return 0.67;
  case ProfilingMethod::SampleNaiveAll:
    return 1.22;
  default:
    return std::nullopt;
  }
}

std::optional<double> sprof::paperFig21Processed(ProfilingMethod Method) {
  switch (Method) {
  case ProfilingMethod::EdgeCheck:
    return 11.0;
  case ProfilingMethod::NaiveLoop:
    return 60.0;
  case ProfilingMethod::NaiveAll:
    return 100.0;
  case ProfilingMethod::SampleEdgeCheck:
    return 1.0;
  case ProfilingMethod::SampleNaiveLoop:
    return 3.0;
  case ProfilingMethod::SampleNaiveAll:
    return 5.0;
  default:
    return std::nullopt;
  }
}
