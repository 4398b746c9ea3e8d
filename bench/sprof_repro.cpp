//===- bench/sprof_repro.cpp - Regenerate the paper's figures -------------===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper reproduction driver:
///
///   sprof-repro <figure>...|all [--threads=N] [--json=PATH|--no-json]
///
/// prints the tables of Figures 15-25, the design-choice ablations and the
/// prefetch-quality extension, and writes each figure's
/// "sprof.bench_report/1" to <stem>.json, where bench/golden/<stem>.txt is
/// its golden table (--json overrides the path when exactly one figure is
/// named; --no-json writes none). `--list` prints each figure's stem.
///
/// Figures render from suite bundles that are computed on first use, on
/// one ExperimentEngine, and shared by every later figure: Figs. 16, 20,
/// 21, 22 and the prefetch-quality table read one measureSuite run,
/// Figs. 18 and 19 one classifySuitePopulations run, and Figs. 23-25 one
/// measureSuiteSensitivity run. Tables are byte-identical
/// for any --threads value and any set of figures sharing the process.
///
/// Exit status: 0 ok, 1 a report could not be written, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "driver/Experiments.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "workloads/Builders.h"

#include <cstdlib>
#include <cstring>
#include <iostream>

using namespace sprof;

namespace {

/// Where a figure writes its report; nullopt under --no-json.
using ReportPath = std::optional<std::string>;

bool emit(const ReportPath &Path, const char *Figure,
          const std::vector<BenchMeasurement> &Measurements) {
  return !Path || writeBenchReport(*Path, Figure, Measurements);
}

bool emit(const ReportPath &Path, const char *Figure, JsonValue Rows) {
  return !Path || writeBenchRows(*Path, Figure, std::move(Rows));
}

/// The suite bundles the figures render from. Each is computed on first
/// use and shared by every later figure of the process.
class Bundles {
public:
  explicit Bundles(unsigned Threads)
      : Engine([Threads] {
          EngineOptions Opts;
          Opts.Threads = Threads;
          return Opts;
        }()) {}

  ExperimentEngine Engine;

  const std::vector<const Workload *> &suite() const { return WL; }

  const std::vector<BaselineMeasurement> &baselines() {
    return once(Baselines, [&] { return measureSuiteBaselines(Engine, WL); });
  }

  const std::vector<BenchMeasurement> &measurements() {
    return once(Measurements, [&] {
      return measureSuite(Engine, WL, {}, paperStrideMethods());
    });
  }

  const std::vector<SensitivityMeasurement> &sensitivity() {
    return once(Sensitivity,
                [&] { return measureSuiteSensitivity(Engine, WL); });
  }

  /// Figure 18's (out-loop) or Figure 19's (in-loop) rows; both come
  /// from one naive-all ref run per workload.
  std::vector<PopulationRow> population(bool InLoop) {
    const PopulationRows &Rows = once(
        Population, [&] { return classifySuitePopulations(Engine, WL); });
    std::vector<PopulationRow> Figure;
    for (const auto &[OutLoop, InLoopRow] : Rows)
      Figure.push_back(InLoop ? InLoopRow : OutLoop);
    return Figure;
  }

  /// Figure 17: per benchmark, the in-loop share (%) of the reference
  /// run's dynamic load references.
  const std::vector<double> &loadMix() {
    return once(LoadMix, [&] {
      // One self-contained job per benchmark: run the reference input
      // uninstrumented and split its dynamic loads by the loop nesting of
      // their sites.
      std::vector<double> Shares(WL.size(), 0.0);
      for (size_t WI = 0; WI != WL.size(); ++WI) {
        const Workload *W = WL[WI];
        double *Share = &Shares[WI];
        Engine.addJob("loadmix:" + W->info().Name, "run-job",
                      [W, Share](ObsSession *) {
                        Program Prog = W->build(DataSet::Ref);
                        Interpreter I(Prog.M, std::move(Prog.Memory));
                        RunStats S = I.run();
                        std::vector<bool> InLoop = loadSitesInLoop(Prog.M);
                        uint64_t In = 0, Out = 0;
                        for (uint32_t Site = 0; Site != Prog.M.NumLoadSites;
                             ++Site)
                          (InLoop[Site] ? In : Out) += S.SiteCounts[Site];
                        *Share = percent(static_cast<double>(In),
                                         static_cast<double>(In + Out));
                      });
      }
      Engine.run();
      return Shares;
    });
  }

private:
  template <typename T, typename ComputeFn>
  static const T &once(std::optional<T> &Slot, ComputeFn Compute) {
    if (!Slot)
      Slot = Compute();
    return *Slot;
  }

  std::vector<std::unique_ptr<Workload>> Suite = makeSpecIntSuite();
  std::vector<const Workload *> WL = workloadPointers(Suite);
  std::optional<std::vector<BaselineMeasurement>> Baselines;
  std::optional<std::vector<BenchMeasurement>> Measurements;
  std::optional<std::vector<SensitivityMeasurement>> Sensitivity;
  std::optional<PopulationRows> Population;
  std::optional<std::vector<double>> LoadMix;
};

// -- Figures 16, 20, 21, 22: one column per paper stride method ------------

using PerMethod = std::map<ProfilingMethod, std::vector<double>>;
using CellFmt = std::string (*)(double);

/// Value(BM, MM) of every benchmark, per paper stride method.
template <typename ValueFn>
PerMethod perMethod(const std::vector<BenchMeasurement> &Ms, ValueFn Value) {
  PerMethod PM;
  for (const BenchMeasurement &BM : Ms)
    for (ProfilingMethod M : paperStrideMethods())
      PM[M].push_back(Value(BM, BM.Methods.at(M)));
  return PM;
}

/// A table headed "benchmark", the method names, then \p Extra columns.
Table methodTable(const std::string &Title,
                  const std::vector<std::string> &Extra = {}) {
  Table T(Title);
  std::vector<std::string> Header = {"benchmark"};
  for (ProfilingMethod M : paperStrideMethods())
    Header.push_back(profilingMethodName(M));
  Header.insert(Header.end(), Extra.begin(), Extra.end());
  T.row(Header);
  return T;
}

/// One row per benchmark: \p Fmt of each method's value, then \p Tail.
void methodRows(Table &T, const std::vector<BenchMeasurement> &Ms,
                const PerMethod &PM, CellFmt Fmt,
                std::string (*Tail)(const BenchMeasurement &) = nullptr) {
  for (size_t WI = 0; WI != Ms.size(); ++WI) {
    std::vector<std::string> Row = {Ms[WI].Name};
    for (ProfilingMethod M : paperStrideMethods())
      Row.push_back(Fmt(PM.at(M)[WI]));
    if (Tail)
      Row.push_back(Tail(Ms[WI]));
    T.row(Row);
  }
}

/// \p Label, then \p Fmt of each method's mean.
std::vector<std::string> methodMeans(const std::string &Label,
                                     const PerMethod &PM, CellFmt Fmt) {
  std::vector<std::string> Row = {Label};
  for (ProfilingMethod M : paperStrideMethods())
    Row.push_back(Fmt(mean(PM.at(M))));
  return Row;
}

/// "paper avg", then \p Fmt of the paper's value per method ("-" if none).
std::vector<std::string> paperRow(std::optional<double> (*Paper)(
                                      ProfilingMethod),
                                  CellFmt Fmt) {
  std::vector<std::string> Row = {"paper avg"};
  for (ProfilingMethod M : paperStrideMethods()) {
    std::optional<double> V = Paper(M);
    Row.push_back(V ? Fmt(*V) : "-");
  }
  return Row;
}

std::string fmtSpeedup(double V) { return Table::fmt(V) + "x"; }
std::string fmtPct(double V) { return Table::fmtPercent(V); }

bool renderFig16(Bundles &B, const ReportPath &Path) {
  const std::vector<BenchMeasurement> &Ms = B.measurements();
  Table T = methodTable("Figure 16: speedup of stride prefetching "
                        "(profile=train, run=ref)",
                        {"paper(edge-check)"});
  PerMethod PM = perMethod(Ms, [](const BenchMeasurement &,
                                  const MethodMeasurement &MM) {
    return MM.Speedup;
  });
  methodRows(T, Ms, PM, fmtSpeedup, [](const BenchMeasurement &BM) {
    std::optional<double> Paper = paperFig16Speedup(BM.Name);
    return Paper ? fmtSpeedup(*Paper) : "-";
  });
  std::vector<std::string> Avg = methodMeans("average", PM, fmtSpeedup);
  Avg.push_back("1.07x");
  T.row(Avg);
  T.print(std::cout);
  return emit(Path, "figure-16-speedup", Ms);
}

bool renderFig20(Bundles &B, const ReportPath &Path) {
  const std::vector<BenchMeasurement> &Ms = B.measurements();
  Table T = methodTable("Figure 20: profiling overhead over edge profiling "
                        "alone (train input)");
  PerMethod PM = perMethod(Ms, [](const BenchMeasurement &BM,
                                  const MethodMeasurement &MM) {
    return ratio(static_cast<double>(MM.ProfiledCycles) -
                     static_cast<double>(BM.EdgeOnlyTrainCycles),
                 static_cast<double>(BM.EdgeOnlyTrainCycles));
  });
  CellFmt Fmt = [](double V) { return Table::fmtPercent(100.0 * V, 0); };
  methodRows(T, Ms, PM, Fmt);
  T.row(methodMeans("average", PM, Fmt));
  T.row(paperRow(paperFig20Overhead, Fmt));
  T.print(std::cout);
  return emit(Path, "figure-20-overhead", Ms);
}

bool renderFig21(Bundles &B, const ReportPath &Path) {
  const std::vector<BenchMeasurement> &Ms = B.measurements();
  Table T = methodTable("Figure 21: % of load references processed in "
                        "strideProf (after sampling, train input)");
  PerMethod PM = perMethod(Ms, [](const BenchMeasurement &,
                                  const MethodMeasurement &MM) {
    return percent(static_cast<double>(MM.StrideProcessed),
                   static_cast<double>(MM.TrainLoadRefs));
  });
  methodRows(T, Ms, PM, fmtPct);
  T.row(methodMeans("average", PM, fmtPct));
  T.row(paperRow(paperFig21Processed,
                 [](double V) { return "~" + Table::fmtPercent(V, 0); }));
  T.print(std::cout);
  return emit(Path, "figure-21-strideprof-rate", Ms);
}

bool renderFig22(Bundles &B, const ReportPath &Path) {
  const std::vector<BenchMeasurement> &Ms = B.measurements();
  Table T = methodTable("Figure 22: % of load references processed by the "
                        "LFU routine (train input)");
  PerMethod Lfu = perMethod(Ms, [](const BenchMeasurement &,
                                   const MethodMeasurement &MM) {
    return percent(static_cast<double>(MM.LfuCalls),
                   static_cast<double>(MM.TrainLoadRefs));
  });
  PerMethod ZeroShare = perMethod(Ms, [](const BenchMeasurement &,
                                         const MethodMeasurement &MM) {
    return percent(static_cast<double>(MM.StrideProcessed - MM.LfuCalls),
                   static_cast<double>(MM.StrideProcessed));
  });
  methodRows(T, Ms, Lfu, fmtPct);
  T.row(methodMeans("average", Lfu, fmtPct));
  T.row(methodMeans("zero-stride bypass", ZeroShare, fmtPct));
  T.print(std::cout);
  std::cout << "(paper: for naive-all, 100% of references reach strideProf"
            << " but only ~68% reach LFU; ~32% are zero strides)\n";
  return emit(Path, "figure-22-lfu-rate", Ms);
}

// -- The other suite figures -----------------------------------------------

bool renderFig15(Bundles &B, const ReportPath &Path) {
  Table T("Figure 15: SPECINT2000-shaped synthetic benchmarks");
  T.row({"program", "lang", "description", "train Minstr", "ref Minstr",
         "ref Mloads"});
  RunStats SuiteTrain, SuiteRef;
  SuiteTrain.Completed = SuiteRef.Completed = true;
  JsonValue Rows = JsonValue::array();
  for (const BaselineMeasurement &BM : B.baselines()) {
    SuiteTrain += BM.Train;
    SuiteRef += BM.Ref;
    T.row({BM.Info.Name, BM.Info.Lang, BM.Info.Description,
           Table::fmt(BM.Train.Instructions / 1e6, 1),
           Table::fmt(BM.Ref.Instructions / 1e6, 1),
           Table::fmt(BM.Ref.LoadRefs / 1e6, 1)});
    Rows.push(baselineMeasurementToJson(BM));
  }
  T.row({"suite total", "-", "-",
         Table::fmt(SuiteTrain.Instructions / 1e6, 1),
         Table::fmt(SuiteRef.Instructions / 1e6, 1),
         Table::fmt(SuiteRef.LoadRefs / 1e6, 1)});
  T.print(std::cout);
  return emit(Path, "figure-15-workloads", std::move(Rows));
}

bool renderFig17(Bundles &B, const ReportPath &Path) {
  Table T("Figure 17: in-loop vs out-loop dynamic load references (ref)");
  T.row({"benchmark", "in-loop", "out-loop"});
  const std::vector<double> &InLoopShares = B.loadMix();
  JsonValue Rows = JsonValue::array();
  for (size_t WI = 0; WI != InLoopShares.size(); ++WI) {
    const std::string &Name = B.suite()[WI]->info().Name;
    double InPct = InLoopShares[WI];
    T.row({Name, Table::fmtPercent(InPct), Table::fmtPercent(100.0 - InPct)});
    JsonValue R = JsonValue::object();
    R.set("name", Name);
    R.set("in_loop_pct", InPct);
    R.set("out_loop_pct", 100.0 - InPct);
    Rows.push(std::move(R));
  }
  double Avg = mean(InLoopShares);
  T.row({"average", Table::fmtPercent(Avg), Table::fmtPercent(100.0 - Avg)});
  T.row({"paper avg", "~60%", "~40%"});
  T.print(std::cout);
  return emit(Path, "figure-17-loadmix", std::move(Rows));
}

/// Figures 18 (out-loop) and 19 (in-loop): load references by stride class.
bool renderPopulation(Bundles &B, const ReportPath &Path, bool InLoop) {
  Table T(std::string("Figure ") + (InLoop ? "19: in" : "18: out") +
          "-loop load references by stride property "
          "(% of all load refs, naive-all profile)");
  T.row({"benchmark", "SSST", "PMST", "WSST", "no-stride"});
  std::vector<double> S, P, W, N;
  JsonValue Rows = JsonValue::array();
  for (const PopulationRow &R : B.population(InLoop)) {
    S.push_back(R.SsstPct);
    P.push_back(R.PmstPct);
    W.push_back(R.WsstPct);
    N.push_back(R.NonePct);
    T.row({R.Bench, Table::fmtPercent(R.SsstPct),
           Table::fmtPercent(R.PmstPct), Table::fmtPercent(R.WsstPct),
           Table::fmtPercent(R.NonePct)});
    Rows.push(populationRowToJson(R));
  }
  T.row({"average", Table::fmtPercent(mean(S)), Table::fmtPercent(mean(P)),
         Table::fmtPercent(mean(W)), Table::fmtPercent(mean(N))});
  if (!InLoop)
    T.row({"paper avg", "1.7%", "-", "-", "-"});
  T.print(std::cout);
  return emit(Path,
              InLoop ? "figure-19-inloop-classes" : "figure-18-outloop-classes",
              std::move(Rows));
}

/// Figures 23-25: the train-profile speedup beside one other profile
/// pairing, \p Field of the sensitivity bundle.
bool renderSensitivity(Bundles &B, const ReportPath &Path, const char *Title,
                       const char *Column,
                       double SensitivityMeasurement::*Field,
                       const char *Figure) {
  Table T(Title);
  T.row({"benchmark", "train", Column});
  std::vector<double> Train, Other;
  JsonValue Rows = JsonValue::array();
  for (const SensitivityMeasurement &R : B.sensitivity()) {
    Train.push_back(R.Train);
    Other.push_back(R.*Field);
    T.row({R.Name, fmtSpeedup(R.Train), fmtSpeedup(R.*Field)});
    Rows.push(sensitivityMeasurementToJson(R));
  }
  T.row({"average", fmtSpeedup(mean(Train)), fmtSpeedup(mean(Other))});
  T.print(std::cout);
  return emit(Path, Figure, std::move(Rows));
}

/// An evaluation extension the paper does not include but later prefetch
/// studies standardized: per-benchmark prefetch *quality* under the
/// edge-check-profile-guided transformation -- how many prefetches were
/// issued, how many were redundant (line already in L1), how many arrived
/// late (demand hit an in-flight fill), how many were used before eviction
/// (useful), and how many polluted the cache (evicted unused).
bool renderPrefetchQuality(Bundles &B, const ReportPath &Path) {
  Table T("Prefetch quality (edge-check profile, ref input)");
  T.row({"benchmark", "issued", "redundant", "late", "useful", "unused",
         "accuracy"});
  const std::vector<BenchMeasurement> &Ms = B.measurements();
  for (const BenchMeasurement &BM : Ms) {
    const MemoryStats &S =
        BM.Methods.at(ProfilingMethod::EdgeCheck).RefMemory;
    if (S.PrefetchesIssued == 0) {
      T.row({BM.Name, "0", "-", "-", "-", "-", "-"});
      continue;
    }
    double NonRedundant = static_cast<double>(S.PrefetchesIssued -
                                              S.PrefetchesRedundant);
    T.row({BM.Name, Table::fmtInt(S.PrefetchesIssued),
           Table::fmtInt(S.PrefetchesRedundant),
           Table::fmtInt(S.LatePrefetchHits),
           Table::fmtInt(S.PrefetchesUseful),
           Table::fmtInt(S.PrefetchesUnused),
           Table::fmtPercent(
               percent(static_cast<double>(S.PrefetchesUseful),
                       NonRedundant))});
  }
  T.print(std::cout);
  std::cout << "(accuracy = useful / non-redundant issued; 'unused' lines"
            << " were evicted from L1 before any demand use)\n";
  return emit(Path, "prefetch-quality", Ms);
}

// -- Ablations ---------------------------------------------------------------
//
// The design choices DESIGN.md calls out, on the three headline benchmarks
// (mcf, gap, parser):
//
//   1. WSST prefetching on/off -- the paper turns it off for lack of
//      benefit; we measure what turning it on does.
//   2. is_same_value coarsening on/off (Figure 7 enhancement).
//   3. Prefetch max distance C sweep.
//   4. Trip-count threshold TT sweep.
//   5. Block-check vs edge-check: same prefetch decisions (the paper's
//      equivalence claim), measured end to end.
//   6-8. The Section-6 extensions: dependent-load prefetching, allocation-
//      order sensitivity, and the use-distance filter.

/// A parameterized pointer chase over nodes holding pointers into a
/// *randomly allocated* payload region: the node chase is SSST, the
/// payload load has no stride of its own. Used by the dependent-prefetch
/// and allocation-order ablations.
class IndirectChase final : public Workload {
public:
  IndirectChase(unsigned NoisePercent, bool RandomPayload)
      : Noise(NoisePercent), RandomPayload(RandomPayload) {}

  WorkloadInfo info() const override {
    return {"ablation.chase", "IR", "parameterized indirect chase"};
  }

  Program build(const BuildRequest &Req) const override {
    const DataSet DS = Req.DS;
    const uint64_t Count = DS == DataSet::Ref ? 50000 : 16000;
    Program Prog;
    Prog.M.Name = "ablation.chase";
    BumpAllocator A;
    Rng R(0xAB1A710 + Noise);

    // Payload region, either allocated in traversal order (strided) or
    // shuffled (what a long-lived fragmented heap looks like).
    std::vector<uint64_t> Payloads(Count);
    for (uint64_t I = 0; I != Count; ++I)
      Payloads[I] = A.alloc(64, 8);
    if (RandomPayload)
      for (uint64_t I = Count; I > 1; --I)
        std::swap(Payloads[I - 1], Payloads[R.below(I)]);

    std::vector<uint64_t> Nodes;
    ListSpec Spec;
    Spec.Count = Count;
    Spec.NodeBytes = 64;
    Spec.NoisePercent = Noise;
    uint64_t Head = buildList(Prog.Memory, A, R, Spec, &Nodes);
    for (uint64_t I = 0; I != Count; ++I)
      Prog.Memory.write64(Nodes[I] + 8,
                          static_cast<int64_t>(Payloads[I]));

    IRBuilder B(Prog.M);
    B.startFunction("main", 0);
    Reg Acc = B.movImm(0);
    emitCountedLoop(B, Operand::imm(2), [&](IRBuilder &OB, Reg) {
      Reg P = OB.mov(Operand::imm(static_cast<int64_t>(Head)));
      emitPointerLoop(OB, P, [&](IRBuilder &IB, Reg Node) {
        Reg Ptr = IB.load(Node, 8);  // SSST base load
        Reg Val = IB.load(Ptr, 0);   // dependent payload load
        IB.add(Operand::reg(Acc), Operand::reg(Val), Acc);
        IB.load(Node, 0, Node);
      });
    });
    B.halt();
    return Prog;
  }

private:
  unsigned Noise;
  bool RandomPayload;
};

std::vector<std::string> headliners() {
  return {"181.mcf", "254.gap", "197.parser"};
}

/// Queues a train-input profile run on \p Engine and returns a handle to
/// the profile it will produce. Feedback-side ablations (classifier and
/// prefetch knobs) share one profile instead of re-profiling per
/// configuration.
struct ProfileHandle {
  std::shared_ptr<ProfileRunResult> Profile;
  JobId Job;
};

ProfileHandle queueProfile(ExperimentEngine &Engine, const std::string &Tag,
                           const Workload &W, const PipelineConfig &Config,
                           ProfilingMethod Method) {
  auto PR = std::make_shared<ProfileRunResult>();
  JobId Job = Engine.addJob(
      "profile:" + Tag, "run-job",
      [&W, Config, Method, PR](ObsSession *JobObs) {
        Pipeline P(W, Config, JobObs);
        *PR = P.runProfile(Method, DataSet::Train,
                           /*WithMemorySystem=*/false);
      });
  return {PR, Job};
}

/// Queues the timed half (baseline + prefetched run on ref) against an
/// already-queued profile; *Out receives the speedup after Engine.run().
/// Configurations share baselines (and often prefetched modules), so the
/// timed runs go through the engine's run memo.
void queueSpeedup(ExperimentEngine &Engine, const std::string &Tag,
                  const Workload &W, const PipelineConfig &Config,
                  const ProfileHandle &Profile, double *Out) {
  std::shared_ptr<ProfileRunResult> PR = Profile.Profile;
  RunMemo *Memo = Engine.runMemo();
  Engine.addJob(
      "feedback:" + Tag, "feedback-job",
      [&W, Config, PR, Out, Memo](ObsSession *JobObs) {
        Pipeline P(W, Config, JobObs, Memo);
        *Out = P.speedup(DataSet::Ref, PR->Edges, PR->Strides);
      },
      {Profile.Job});
}

/// queueProfile + queueSpeedup with the same configuration.
ProfileHandle queueChain(ExperimentEngine &Engine, const std::string &Tag,
                         const Workload &W, const PipelineConfig &Config,
                         double *Out,
                         ProfilingMethod Method = ProfilingMethod::EdgeCheck) {
  ProfileHandle H = queueProfile(Engine, Tag, W, Config, Method);
  queueSpeedup(Engine, Tag, W, Config, H, Out);
  return H;
}

bool renderAblation(Bundles &B, const ReportPath &Path) {
  // Every ablation below queues its runs on one engine wave; feedback-side
  // ablations (classifier/prefetch knobs) share the default train profile
  // of their benchmark instead of re-profiling per configuration, and all
  // independent runs overlap across --threads workers.
  ExperimentEngine &Engine = B.Engine;
  const std::vector<std::string> Names = headliners();
  const size_t NH = Names.size();

  std::vector<std::unique_ptr<Workload>> Owned;
  std::vector<const Workload *> HW;
  for (const std::string &Name : Names) {
    Owned.push_back(makeWorkloadByName(Name));
    HW.push_back(Owned.back().get());
  }

  // Default chain per headliner; its speedup is the shared "default"
  // column of ablations 1, 3 (C=8), 5 (edge-check), and 8.
  std::vector<double> DefaultSpeedup(NH, 1.0);
  std::vector<ProfileHandle> DefaultProfile(NH);
  for (size_t I = 0; I != NH; ++I)
    DefaultProfile[I] = queueChain(Engine, Names[I] + "/default", *HW[I],
                                   {}, &DefaultSpeedup[I]);

  // 1. WSST prefetching (classifier-side: shares the default profile).
  std::vector<double> WsstOn(NH, 1.0);
  for (size_t I = 0; I != NH; ++I) {
    PipelineConfig On;
    On.Classifier.EnableWsstPrefetch = true;
    queueSpeedup(Engine, Names[I] + "/wsst-on", *HW[I], On,
                 DefaultProfile[I], &WsstOn[I]);
  }

  // 2. is_same_value coarsening (profiler-side: needs its own profile).
  std::vector<double> Coarsen0(NH, 1.0);
  for (size_t I = 0; I != NH; ++I) {
    PipelineConfig Exact;
    Exact.Profiler.AddrCoarsenShift = 0;
    Exact.Profiler.Lfu.CoarsenShift = 0;
    queueChain(Engine, Names[I] + "/coarsen0", *HW[I], Exact,
               &Coarsen0[I]);
  }

  // 3. Prefetch distance sweep (prefetch-side: shares the default
  // profile; C=8 is the default chain itself).
  const unsigned Distances[] = {1u, 2u, 4u, 8u, 16u};
  std::vector<std::vector<double>> Dist(NH,
                                        std::vector<double>(5, 1.0));
  for (size_t I = 0; I != NH; ++I)
    for (size_t CI = 0; CI != 5; ++CI) {
      if (Distances[CI] == 8)
        continue;
      PipelineConfig Cfg;
      Cfg.Classifier.MaxPrefetchDistance = Distances[CI];
      queueSpeedup(Engine,
                   Names[I] + "/dist" + std::to_string(Distances[CI]),
                   *HW[I], Cfg, DefaultProfile[I], &Dist[I][CI]);
    }

  // 4. Trip-count threshold sweep (instrumentation-side: full chains;
  // TT=128 is the default chain).
  const uint64_t Trips[] = {32ull, 128ull, 512ull};
  std::vector<std::vector<double>> Tt(NH, std::vector<double>(3, 1.0));
  for (size_t I = 0; I != NH; ++I)
    for (size_t TI = 0; TI != 3; ++TI) {
      if (Trips[TI] == 128)
        continue;
      PipelineConfig Cfg;
      Cfg.Instrument.TripCountThreshold = Trips[TI];
      Cfg.Classifier.TripCountThreshold = Trips[TI];
      queueChain(Engine, Names[I] + "/tt" + std::to_string(Trips[TI]),
                 *HW[I], Cfg, &Tt[I][TI]);
    }

  // 5. Block-check vs edge-check (different instrumentation: full chain).
  std::vector<double> BlockCheck(NH, 1.0);
  for (size_t I = 0; I != NH; ++I)
    queueChain(Engine, Names[I] + "/block-check", *HW[I], {},
               &BlockCheck[I], ProfilingMethod::BlockCheck);

  // 6. Dependent-load prefetching (classifier-side: shared profile).
  IndirectChase ChaseRandom(/*NoisePercent=*/4, /*RandomPayload=*/true);
  double DepOff = 1.0, DepOn = 1.0;
  ProfileHandle ChaseProfile =
      queueChain(Engine, "chase/default", ChaseRandom, {}, &DepOff);
  {
    PipelineConfig Dep;
    Dep.Classifier.EnableDependentPrefetch = true;
    queueSpeedup(Engine, "chase/dependent", ChaseRandom, Dep,
                 ChaseProfile, &DepOn);
  }

  // 7. Allocation-order sensitivity: chain per noise level; the profile
  // also feeds the top1-share analysis after the run.
  const unsigned Noises[] = {0u, 5u, 15u, 30u, 50u};
  std::vector<std::unique_ptr<IndirectChase>> NoiseW;
  std::vector<double> NoiseSpeedup(5, 1.0);
  std::vector<ProfileHandle> NoiseProfile(5);
  for (size_t NI = 0; NI != 5; ++NI) {
    NoiseW.push_back(std::make_unique<IndirectChase>(
        Noises[NI], /*RandomPayload=*/false));
    NoiseProfile[NI] =
        queueChain(Engine, "chase/noise" + std::to_string(Noises[NI]),
                   *NoiseW[NI], {}, &NoiseSpeedup[NI]);
  }

  // 8. Use-distance filter (classifier-side: shared profile).
  std::vector<double> UseDistOn(NH, 1.0);
  for (size_t I = 0; I != NH; ++I) {
    PipelineConfig On;
    On.Classifier.EnableUseDistanceFilter = true;
    queueSpeedup(Engine, Names[I] + "/use-distance", *HW[I], On,
                 DefaultProfile[I], &UseDistOn[I]);
  }

  Engine.run();

  {
    Table T("Ablation 1: WSST prefetching (paper disables it)");
    T.row({"benchmark", "WSST off (default)", "WSST on"});
    for (size_t I = 0; I != NH; ++I)
      T.row({Names[I], Table::fmt(DefaultSpeedup[I]) + "x",
             Table::fmt(WsstOn[I]) + "x"});
    T.print(std::cout);
  }

  {
    Table T("Ablation 2: is_same_value coarsening (Figure 7)");
    T.row({"benchmark", "coarsen=4 (default)", "coarsen=0 (Figure 6)"});
    for (size_t I = 0; I != NH; ++I)
      T.row({Names[I], Table::fmt(DefaultSpeedup[I]) + "x",
             Table::fmt(Coarsen0[I]) + "x"});
    T.print(std::cout);
  }

  {
    Table T("Ablation 3: max prefetch distance C");
    T.row({"benchmark", "C=1", "C=2", "C=4", "C=8 (default)", "C=16"});
    for (size_t I = 0; I != NH; ++I) {
      std::vector<std::string> Row = {Names[I]};
      for (size_t CI = 0; CI != 5; ++CI)
        Row.push_back(Table::fmt(Distances[CI] == 8 ? DefaultSpeedup[I]
                                                    : Dist[I][CI]) +
                      "x");
      T.row(Row);
    }
    T.print(std::cout);
  }

  {
    Table T("Ablation 4: trip-count threshold TT");
    T.row({"benchmark", "TT=32", "TT=128 (default)", "TT=512"});
    for (size_t I = 0; I != NH; ++I) {
      std::vector<std::string> Row = {Names[I]};
      for (size_t TI = 0; TI != 3; ++TI)
        Row.push_back(Table::fmt(Trips[TI] == 128 ? DefaultSpeedup[I]
                                                  : Tt[I][TI]) +
                      "x");
      T.row(Row);
    }
    T.print(std::cout);
  }

  {
    Table T("Ablation 5: block-check vs edge-check (same profile claim)");
    T.row({"benchmark", "edge-check", "block-check"});
    for (size_t I = 0; I != NH; ++I)
      T.row({Names[I], Table::fmt(DefaultSpeedup[I]) + "x",
             Table::fmt(BlockCheck[I]) + "x"});
    T.print(std::cout);
  }

  {
    Table T("Ablation 6: dependent-load prefetching "
            "(indirect chase, randomly allocated payload)");
    T.row({"configuration", "speedup"});
    T.row({"stride prefetch only (paper system)",
           Table::fmt(DepOff) + "x"});
    T.row({"+ dependent prefetch (load.s chase)",
           Table::fmt(DepOn) + "x"});
    T.print(std::cout);
  }

  {
    Table T("Ablation 7: allocation-order sensitivity "
            "(indirect chase, strided payload, noise sweep)");
    T.row({"allocation noise", "top1 stride share", "speedup"});
    for (size_t NI = 0; NI != 5; ++NI) {
      const ProfileRunResult &PR = *NoiseProfile[NI].Profile;
      // Dominant-stride share of the noisiest hot site (the node chase;
      // the payload site stays at ~100% since only the node allocation is
      // perturbed).
      double Share = 1.0;
      for (uint32_t S = 0; S != PR.Strides.numSites(); ++S) {
        const StrideSiteSummary &Sum = PR.Strides.site(S);
        if (Sum.TotalStrides > 1000)
          Share = std::min(Share, double(Sum.top1Freq()) /
                                      double(Sum.TotalStrides));
      }
      T.row({std::to_string(Noises[NI]) + "%",
             Table::fmtPercent(100.0 * Share),
             Table::fmt(NoiseSpeedup[NI]) + "x"});
    }
    T.print(std::cout);
  }

  {
    Table T("Ablation 8: use-distance filter on the headliners "
            "(should not veto hot-loop prefetches)");
    T.row({"benchmark", "filter off", "filter on (gap<=64)"});
    for (size_t I = 0; I != NH; ++I)
      T.row({Names[I], Table::fmt(DefaultSpeedup[I]) + "x",
             Table::fmt(UseDistOn[I]) + "x"});
    T.print(std::cout);
  }

  auto PerBench = [&](const std::vector<double> &V) {
    JsonValue A = JsonValue::array();
    for (size_t I = 0; I != NH; ++I) {
      JsonValue R = JsonValue::object();
      R.set("name", Names[I]);
      R.set("speedup", V[I]);
      A.push(std::move(R));
    }
    return A;
  };
  JsonValue Groups = JsonValue::object();
  Groups.set("default", PerBench(DefaultSpeedup));
  Groups.set("wsst_on", PerBench(WsstOn));
  Groups.set("coarsen0", PerBench(Coarsen0));
  JsonValue DistJ = JsonValue::array();
  for (size_t I = 0; I != NH; ++I)
    for (size_t CI = 0; CI != 5; ++CI) {
      JsonValue R = JsonValue::object();
      R.set("name", Names[I]);
      R.set("distance", static_cast<uint64_t>(Distances[CI]));
      R.set("speedup",
            Distances[CI] == 8 ? DefaultSpeedup[I] : Dist[I][CI]);
      DistJ.push(std::move(R));
    }
  Groups.set("prefetch_distance", std::move(DistJ));
  JsonValue TtJ = JsonValue::array();
  for (size_t I = 0; I != NH; ++I)
    for (size_t TI = 0; TI != 3; ++TI) {
      JsonValue R = JsonValue::object();
      R.set("name", Names[I]);
      R.set("trip_count_threshold", Trips[TI]);
      R.set("speedup", Trips[TI] == 128 ? DefaultSpeedup[I] : Tt[I][TI]);
      TtJ.push(std::move(R));
    }
  Groups.set("trip_count_threshold", std::move(TtJ));
  Groups.set("block_check", PerBench(BlockCheck));
  JsonValue DepJ = JsonValue::object();
  DepJ.set("off", DepOff);
  DepJ.set("on", DepOn);
  Groups.set("dependent_prefetch", std::move(DepJ));
  JsonValue NoiseJ = JsonValue::array();
  for (size_t NI = 0; NI != 5; ++NI) {
    JsonValue R = JsonValue::object();
    R.set("noise_pct", static_cast<uint64_t>(Noises[NI]));
    R.set("speedup", NoiseSpeedup[NI]);
    NoiseJ.push(std::move(R));
  }
  Groups.set("allocation_noise", std::move(NoiseJ));
  Groups.set("use_distance_on", PerBench(UseDistOn));
  return emit(Path, "ablation", std::move(Groups));
}

// -- The figure table and the command line ---------------------------------

struct Figure {
  const char *Name; ///< command-line name
  const char *Stem; ///< golden file bench/golden/<Stem>.txt, report <Stem>.json
  bool (*Render)(Bundles &, const ReportPath &);
};

/// Every figure, in the order `all` renders them.
const Figure Figures[] = {
    {"fig15", "bench_fig15_workloads", renderFig15},
    {"fig16", "bench_fig16_speedup", renderFig16},
    {"fig17", "bench_fig17_loadmix", renderFig17},
    {"fig18", "bench_fig18_outloop_classes",
     [](Bundles &B, const ReportPath &P) {
       return renderPopulation(B, P, /*InLoop=*/false);
     }},
    {"fig19", "bench_fig19_inloop_classes",
     [](Bundles &B, const ReportPath &P) {
       return renderPopulation(B, P, /*InLoop=*/true);
     }},
    {"fig20", "bench_fig20_overhead", renderFig20},
    {"fig21", "bench_fig21_strideprof_rate", renderFig21},
    {"fig22", "bench_fig22_lfu_rate", renderFig22},
    {"fig23", "bench_fig23_train_vs_ref",
     [](Bundles &B, const ReportPath &P) {
       return renderSensitivity(B, P,
                                "Figure 23: train-profile vs ref-profile "
                                "speedups (sample-edge-check, run=ref)",
                                "ref", &SensitivityMeasurement::Ref,
                                "figure-23-train-vs-ref");
     }},
    {"fig24", "bench_fig24_edge_sensitivity",
     [](Bundles &B, const ReportPath &P) {
       return renderSensitivity(
           B, P,
           "Figure 24: train vs edge.ref-stride.train speedups "
           "(sample-edge-check, run=ref)",
           "edge.ref-stride.train",
           &SensitivityMeasurement::EdgeRefStrideTrain,
           "figure-24-edge-sensitivity");
     }},
    {"fig25", "bench_fig25_stride_sensitivity",
     [](Bundles &B, const ReportPath &P) {
       return renderSensitivity(
           B, P,
           "Figure 25: train vs edge.train-stride.ref speedups "
           "(sample-edge-check, run=ref)",
           "edge.train-stride.ref",
           &SensitivityMeasurement::EdgeTrainStrideRef,
           "figure-25-stride-sensitivity");
     }},
    {"ablation", "bench_ablation", renderAblation},
    {"prefetch_quality", "bench_prefetch_quality", renderPrefetchQuality},
};

int usage() {
  std::cerr << "usage: sprof-repro <figure>...|all [--threads=N] "
               "[--json=PATH|--no-json] | --list\n"
               "figures:";
  for (const Figure &F : Figures)
    std::cerr << " " << F.Name;
  std::cerr << "\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<const Figure *> Selected;
  unsigned Threads = 1;
  bool NoJson = false;
  ReportPath JsonOverride;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const char *ThreadsArg = nullptr;
    if (std::strcmp(Arg, "--list") == 0) {
      for (const Figure &F : Figures)
        std::cout << F.Name << " " << F.Stem << "\n";
      return 0;
    } else if (std::strcmp(Arg, "--no-json") == 0) {
      NoJson = true;
    } else if (std::strncmp(Arg, "--json=", 7) == 0) {
      JsonOverride = std::string(Arg + 7);
    } else if (std::strncmp(Arg, "--threads=", 10) == 0) {
      ThreadsArg = Arg + 10;
    } else if (std::strcmp(Arg, "--threads") == 0 && I + 1 < Argc) {
      ThreadsArg = Argv[++I];
    } else if (std::strcmp(Arg, "all") == 0) {
      for (const Figure &F : Figures)
        Selected.push_back(&F);
    } else {
      const Figure *Match = nullptr;
      for (const Figure &F : Figures)
        if (std::strcmp(Arg, F.Name) == 0)
          Match = &F;
      if (!Match) {
        std::cerr << "sprof-repro: unknown figure or option '" << Arg
                  << "'\n";
        return usage();
      }
      Selected.push_back(Match);
    }
    if (ThreadsArg) {
      char *End = nullptr;
      unsigned long N = std::strtoul(ThreadsArg, &End, 10);
      if (End == ThreadsArg || *End != '\0' || N < 1 || N > 1024) {
        std::cerr << "sprof-repro: bad thread count '" << ThreadsArg
                  << "'\n";
        return usage();
      }
      Threads = static_cast<unsigned>(N);
    }
  }
  if (Selected.empty())
    return usage();
  if (JsonOverride && Selected.size() != 1) {
    std::cerr << "sprof-repro: --json=PATH needs exactly one figure\n";
    return usage();
  }

  Bundles B(Threads);
  int Status = 0;
  for (const Figure *F : Selected) {
    ReportPath Path;
    if (!NoJson)
      Path = JsonOverride ? *JsonOverride : std::string(F->Stem) + ".json";
    if (!F->Render(B, Path))
      Status = 1;
  }
  return Status;
}
