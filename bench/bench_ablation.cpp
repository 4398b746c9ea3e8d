//===- bench/bench_ablation.cpp - Design-choice ablations --------------------===//
//
// Part of the StrideProf project (see bench_fig16_speedup.cpp for the
// project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations for the design choices DESIGN.md calls out, on the three
/// headline benchmarks (mcf, gap, parser):
///
///   1. WSST prefetching on/off -- the paper turns it off for lack of
///      benefit; we measure what turning it on does.
///   2. is_same_value coarsening on/off (Figure 7 enhancement).
///   3. Prefetch max distance C sweep.
///   4. Trip-count threshold TT sweep.
///   5. Block-check vs edge-check: same prefetch decisions (the paper's
///      equivalence claim), measured end to end.
///
//===----------------------------------------------------------------------===//

#include "driver/Experiments.h"
#include "support/Random.h"
#include "support/Table.h"
#include "workloads/Builders.h"

#include <iostream>

using namespace sprof;

namespace {

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

} // namespace

int main(int Argc, char **Argv) {
  // Every ablation below queues its runs on one engine graph; feedback-side
  // ablations (classifier/prefetch knobs) share the default train profile
  // of their benchmark instead of re-profiling per configuration, and all
  // independent runs overlap across --threads workers.
  ExperimentEngine Engine({benchThreads(Argc, Argv)});
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
  return emitBenchReport(Argc, Argv, "bench_ablation.json", "ablation",
                         std::move(Groups));
}
