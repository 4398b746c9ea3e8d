//===- obs/Report.cpp - Machine-readable run reports -----------------------===//
//
// Part of the StrideProf project (see Report.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include "obs/SelfProfiler.h"

using namespace sprof;

JsonValue sprof::runStatsToJson(const RunStats &Stats) {
  JsonValue J = JsonValue::object();
  J.set("completed", Stats.Completed);
  J.set("instructions", Stats.Instructions);
  J.set("cycles", Stats.Cycles);
  J.set("base_cycles", Stats.BaseCycles);
  J.set("mem_stall_cycles", Stats.MemStallCycles);
  J.set("instrumentation_cycles", Stats.InstrumentationCycles);
  J.set("runtime_cycles", Stats.RuntimeCycles);
  J.set("load_refs", Stats.LoadRefs);
  J.set("exit_value", Stats.ExitValue);
  J.set("memory", memoryStatsToJson(Stats.Mem));
  return J;
}

JsonValue sprof::memoryStatsToJson(const MemoryStats &Stats) {
  JsonValue J = JsonValue::object();
  JsonValue Levels = JsonValue::array();
  for (const MemoryStats::LevelStats &L : Stats.Levels) {
    JsonValue LJ = JsonValue::object();
    LJ.set("hits", L.Hits);
    LJ.set("misses", L.Misses);
    Levels.push(std::move(LJ));
  }
  J.set("levels", std::move(Levels));
  J.set("demand_accesses", Stats.DemandAccesses);
  J.set("prefetches_issued", Stats.PrefetchesIssued);
  J.set("prefetches_redundant", Stats.PrefetchesRedundant);
  J.set("late_prefetch_hits", Stats.LatePrefetchHits);
  J.set("prefetches_useful", Stats.PrefetchesUseful);
  J.set("prefetches_unused", Stats.PrefetchesUnused);
  J.set("stall_cycles", Stats.StallCycles);
  return J;
}

JsonValue sprof::edgeProfileToJson(const EdgeProfile &EP) {
  JsonValue J = JsonValue::object();
  J.set("functions", static_cast<uint64_t>(EP.numFunctions()));
  uint64_t Edges = 0, TotalCount = 0, EntryTotal = 0;
  JsonValue PerFunction = JsonValue::array();
  for (uint32_t F = 0; F != EP.numFunctions(); ++F) {
    uint64_t FuncCount = 0;
    for (const auto &[E, Count] : EP.functionEdges(F)) {
      ++Edges;
      FuncCount += Count;
    }
    TotalCount += FuncCount;
    EntryTotal += EP.entryCount(F);
    JsonValue FJ = JsonValue::object();
    FJ.set("entry_count", EP.entryCount(F));
    FJ.set("edges", static_cast<uint64_t>(EP.functionEdges(F).size()));
    FJ.set("edge_events", FuncCount);
    PerFunction.push(std::move(FJ));
  }
  J.set("edges", Edges);
  J.set("edge_events", TotalCount);
  J.set("entry_events", EntryTotal);
  J.set("per_function", std::move(PerFunction));
  return J;
}

JsonValue sprof::strideProfileToJson(const StrideProfile &SP) {
  JsonValue J = JsonValue::object();
  J.set("num_sites", SP.numSites());
  JsonValue Sites = JsonValue::array();
  for (uint32_t S = 0; S != SP.numSites(); ++S) {
    const StrideSiteSummary &Sum = SP.site(S);
    if (Sum.TotalStrides == 0)
      continue;
    JsonValue SJ = JsonValue::object();
    SJ.set("site", S);
    SJ.set("total_strides", Sum.TotalStrides);
    SJ.set("zero_strides", Sum.NumZeroStride);
    SJ.set("zero_diffs", Sum.NumZeroDiff);
    SJ.set("top1_freq", Sum.top1Freq());
    SJ.set("top4_freq", Sum.top4Freq());
    SJ.set("avg_ref_gap", Sum.avgRefGap());
    JsonValue Top = JsonValue::array();
    for (size_t T = 0; T != Sum.TopStrides.size() && T != 4; ++T) {
      JsonValue TJ = JsonValue::object();
      TJ.set("stride", Sum.TopStrides[T].Value);
      TJ.set("count", Sum.TopStrides[T].Count);
      Top.push(std::move(TJ));
    }
    SJ.set("top_strides", std::move(Top));
    Sites.push(std::move(SJ));
  }
  J.set("sites", std::move(Sites));
  return J;
}

JsonValue sprof::prefetchStatsToJson(const PrefetchInsertionStats &Stats) {
  JsonValue J = JsonValue::object();
  J.set("ssst", Stats.SsstPrefetches);
  J.set("pmst", Stats.PmstPrefetches);
  J.set("wsst", Stats.WsstPrefetches);
  J.set("out_loop", Stats.OutLoopPrefetches);
  J.set("dependent", Stats.DependentPrefetches);
  J.set("instructions_added", Stats.InstructionsAdded);
  return J;
}

JsonValue sprof::feedbackToJson(const FeedbackResult &FB,
                                const StrideProfile &SP,
                                const ClassifierConfig &Config) {
  JsonValue J = JsonValue::object();

  JsonValue Thresholds = JsonValue::object();
  Thresholds.set("frequency", Config.FrequencyThreshold);
  Thresholds.set("trip_count", Config.TripCountThreshold);
  Thresholds.set("ssst_top1", Config.SsstThreshold);
  Thresholds.set("pmst_top4", Config.PmstThreshold);
  Thresholds.set("pmst_zero_diff", Config.PmstDiffThreshold);
  Thresholds.set("wsst_top1", Config.WsstThreshold);
  Thresholds.set("wsst_zero_diff", Config.WsstDiffThreshold);
  J.set("thresholds", std::move(Thresholds));

  uint64_t ByClass[4] = {0, 0, 0, 0};
  JsonValue Verdicts = JsonValue::array();
  for (uint32_t S = 0; S != FB.SiteClass.size(); ++S) {
    StrideClass C = FB.SiteClass[S];
    ++ByClass[static_cast<unsigned>(C)];
    if (C == StrideClass::None)
      continue;
    static const StrideSiteSummary Empty;
    const StrideSiteSummary &Sum = S < SP.numSites() ? SP.site(S) : Empty;
    JsonValue V = JsonValue::object();
    V.set("site", S);
    V.set("class", strideClassName(C));
    V.set("in_loop", S < FB.SiteInLoop.size() && FB.SiteInLoop[S]);
    V.set("trip_count",
          S < FB.SiteTripCount.size() ? FB.SiteTripCount[S] : 0.0);
    // The ratios the Figure-5 thresholds were compared against.
    double Total = static_cast<double>(Sum.TotalStrides);
    V.set("top1_ratio", Total ? static_cast<double>(Sum.top1Freq()) / Total
                              : 0.0);
    V.set("top4_ratio", Total ? static_cast<double>(Sum.top4Freq()) / Total
                              : 0.0);
    V.set("zero_diff_ratio",
          Total ? static_cast<double>(Sum.NumZeroDiff) / Total : 0.0);
    Verdicts.push(std::move(V));
  }
  JsonValue Counts = JsonValue::object();
  Counts.set("none", ByClass[0]);
  Counts.set("ssst", ByClass[1]);
  Counts.set("pmst", ByClass[2]);
  Counts.set("wsst", ByClass[3]);
  J.set("class_counts", std::move(Counts));
  J.set("verdicts", std::move(Verdicts));

  JsonValue Decisions = JsonValue::array();
  for (const PrefetchDecision &D : FB.Decisions) {
    JsonValue DJ = JsonValue::object();
    DJ.set("site", D.SiteId);
    DJ.set("class", strideClassName(D.Kind));
    DJ.set("in_loop", D.InLoop);
    DJ.set("stride", D.StrideValue);
    DJ.set("distance", D.Distance);
    Decisions.push(std::move(DJ));
  }
  J.set("decisions", std::move(Decisions));
  J.set("dependent_decisions",
        static_cast<uint64_t>(FB.DependentDecisions.size()));
  return J;
}

JsonValue sprof::pipelineConfigToJson(const PipelineConfig &Config) {
  JsonValue J = JsonValue::object();

  JsonValue Instr = JsonValue::object();
  Instr.set("trip_count_threshold", Config.Instrument.TripCountThreshold);
  J.set("instrument", std::move(Instr));

  const StrideProfilerConfig &PC = Config.Profiler;
  JsonValue Prof = JsonValue::object();
  JsonValue Sampling = JsonValue::object();
  Sampling.set("enabled", PC.Sampling.Enabled);
  Sampling.set("fine_interval", PC.Sampling.FineInterval);
  Sampling.set("chunk_skip", PC.Sampling.ChunkSkip);
  Sampling.set("chunk_profile", PC.Sampling.ChunkProfile);
  Prof.set("sampling", std::move(Sampling));
  JsonValue Lfu = JsonValue::object();
  Lfu.set("temp_size", PC.Lfu.TempSize);
  Lfu.set("final_size", PC.Lfu.FinalSize);
  Lfu.set("merge_interval", PC.Lfu.MergeInterval);
  Lfu.set("coarsen_shift", PC.Lfu.CoarsenShift);
  Prof.set("lfu", std::move(Lfu));
  Prof.set("addr_coarsen_shift", PC.AddrCoarsenShift);
  J.set("profiler", std::move(Prof));

  const ClassifierConfig &CC = Config.Classifier;
  JsonValue Cls = JsonValue::object();
  Cls.set("frequency_threshold", CC.FrequencyThreshold);
  Cls.set("trip_count_threshold", CC.TripCountThreshold);
  Cls.set("ssst_threshold", CC.SsstThreshold);
  Cls.set("pmst_threshold", CC.PmstThreshold);
  Cls.set("pmst_diff_threshold", CC.PmstDiffThreshold);
  Cls.set("wsst_threshold", CC.WsstThreshold);
  Cls.set("wsst_diff_threshold", CC.WsstDiffThreshold);
  Cls.set("max_prefetch_distance", CC.MaxPrefetchDistance);
  Cls.set("out_loop_prefetch_distance", CC.OutLoopPrefetchDistance);
  Cls.set("enable_wsst_prefetch", CC.EnableWsstPrefetch);
  Cls.set("enable_out_loop_prefetch", CC.EnableOutLoopPrefetch);
  Cls.set("enable_use_distance_filter", CC.EnableUseDistanceFilter);
  Cls.set("enable_dependent_prefetch", CC.EnableDependentPrefetch);
  J.set("classifier", std::move(Cls));

  JsonValue Obs = JsonValue::object();
  Obs.set("enabled", Config.Obs.Enabled);
  // Every session collects metrics and traces pipeline phases only; the
  // schema keeps both fields at those fixed values.
  Obs.set("collect_metrics", true);
  Obs.set("collect_trace", Config.Obs.CollectTrace);
  Obs.set("trace_detail", 1u);
  Obs.set("sample_interval_us", Config.Obs.SampleIntervalUs);
  Obs.set("sample_ring_capacity",
          static_cast<uint64_t>(SampleRingCapacity));
  Obs.set("self_profile", Config.Obs.SelfProfile);
  Obs.set("self_profile_window", Config.Obs.SelfProfileWindow);
  J.set("obs", std::move(Obs));
  return J;
}

namespace {

void setOutcomeFields(JsonValue &J, const PrefetchOutcomeCounts &O) {
  J.set("useful", O.Useful);
  J.set("late", O.Late);
  J.set("early", O.Early);
  J.set("redundant", O.Redundant);
  J.set("issued", O.issued());
}

void setMissFields(JsonValue &J, const SiteMissStats &M,
                   uint64_t Instructions) {
  J.set("accesses", M.Accesses);
  J.set("l1_misses", M.L1Misses);
  J.set("full_misses", M.FullMisses);
  J.set("stall_cycles", M.StallCycles);
  if (Instructions != 0) {
    double PerKilo = 1000.0 / static_cast<double>(Instructions);
    J.set("l1_mpki", static_cast<double>(M.L1Misses) * PerKilo);
    J.set("mem_mpki", static_cast<double>(M.FullMisses) * PerKilo);
  }
}

} // namespace

JsonValue sprof::attributionToJson(const AttributionData &Attr,
                                   const FeedbackResult *Feedback,
                                   uint64_t Instructions) {
  JsonValue J = JsonValue::object();
  J.set("enabled", Attr.Enabled);
  J.set("finalized", Attr.Finalized);
  J.set("num_sites", Attr.NumSites);
  JsonValue Outcomes = JsonValue::object();
  setOutcomeFields(Outcomes, Attr.Total);
  J.set("outcomes", std::move(Outcomes));

  // Per-class rollups of outcomes and misses; sites without a feedback
  // verdict (and the unattributed bucket) land in "none".
  PrefetchOutcomeCounts ClassOutcomes[NumStrideClasses];
  SiteMissStats ClassMisses[NumStrideClasses];
  SiteMissStats TotalMisses;

  JsonValue Sites = JsonValue::array();
  for (uint32_t S = 0; S != Attr.NumSites + 1 &&
                       S < static_cast<uint32_t>(Attr.PerSite.size());
       ++S) {
    const PrefetchOutcomeCounts &O = Attr.PerSite[S];
    const SiteMissStats &M = Attr.SiteMiss[S];
    TotalMisses += M;
    StrideClass C = StrideClass::None;
    if (S < Attr.NumSites && Feedback && S < Feedback->SiteClass.size())
      C = Feedback->SiteClass[S];
    ClassOutcomes[static_cast<size_t>(C)] += O;
    ClassMisses[static_cast<size_t>(C)] += M;
    if (O.issued() == 0 && M.Accesses == 0)
      continue;
    JsonValue SJ = JsonValue::object();
    if (S == Attr.NumSites)
      SJ.set("site", "unattributed");
    else
      SJ.set("site", S);
    SJ.set("class", strideClassName(C));
    setOutcomeFields(SJ, O);
    setMissFields(SJ, M, Instructions);
    Sites.push(std::move(SJ));
  }
  J.set("per_site", std::move(Sites));

  JsonValue ByClass = JsonValue::object();
  static const char *ClassKeys[NumStrideClasses] = {"none", "ssst", "pmst",
                                                    "wsst"};
  for (size_t C = 0; C != NumStrideClasses; ++C) {
    JsonValue CJ = JsonValue::object();
    setOutcomeFields(CJ, ClassOutcomes[C]);
    setMissFields(CJ, ClassMisses[C], Instructions);
    ByClass.set(ClassKeys[C], std::move(CJ));
  }
  J.set("by_class", std::move(ByClass));

  JsonValue Totals = JsonValue::object();
  setMissFields(Totals, TotalMisses, Instructions);
  J.set("demand_misses", std::move(Totals));
  return J;
}

JsonValue sprof::profileDiffToJson(const ProfileDiffResult &Diff) {
  JsonValue J = JsonValue::object();
  J.set("num_sites", Diff.NumSites);
  J.set("sites_compared", Diff.SitesCompared);
  J.set("top_stride_matches", Diff.TopStrideMatches);
  J.set("class_matches", Diff.ClassMatches);
  J.set("top_stride_agreement", Diff.TopStrideAgreement);
  J.set("class_agreement", Diff.ClassAgreement);
  J.set("weighted_accuracy", Diff.WeightedAccuracy);

  static const char *ClassKeys[NumStrideClasses] = {"none", "ssst", "pmst",
                                                    "wsst"};
  JsonValue Flips = JsonValue::object();
  for (size_t A = 0; A != NumStrideClasses; ++A) {
    JsonValue Row = JsonValue::object();
    for (size_t B = 0; B != NumStrideClasses; ++B)
      Row.set(ClassKeys[B], Diff.Flips[A][B]);
    Flips.set(ClassKeys[A], std::move(Row));
  }
  J.set("class_flips", std::move(Flips));

  JsonValue Sites = JsonValue::array();
  for (const SiteDiffEntry &E : Diff.Sites) {
    JsonValue SJ = JsonValue::object();
    SJ.set("site", E.Site);
    SJ.set("weight_a", E.WeightA);
    SJ.set("weight_b", E.WeightB);
    SJ.set("top_stride_a", E.TopStrideA);
    SJ.set("top_stride_b", E.TopStrideB);
    SJ.set("top_stride_match", E.TopStrideMatch);
    SJ.set("top4_overlap", E.Top4Overlap);
    SJ.set("class_a", strideClassName(E.ClassA));
    SJ.set("class_b", strideClassName(E.ClassB));
    SJ.set("score", E.Score);
    Sites.push(std::move(SJ));
  }
  J.set("sites", std::move(Sites));
  return J;
}

JsonValue sprof::selfProfileToJson(const EngineSelfProfiler &SP) {
  JsonValue J = JsonValue::object();
  J.set("window", SP.window());
  J.set("total_samples", SP.totalSamples());
  JsonValue Entries = JsonValue::array();
  for (const EngineSelfProfiler::Entry &E : SP.entries()) {
    JsonValue EJ = JsonValue::object();
    EJ.set("workload", E.Workload);
    EJ.set("phase", E.Phase);
    EJ.set("op", SP.slotName(E.Slot));
    EJ.set("samples", E.Samples);
    EJ.set("ns", E.Ns);
    Entries.push(std::move(EJ));
  }
  J.set("entries", std::move(Entries));
  return J;
}

JsonValue sprof::metricsToJson(const MetricsRegistry &Registry) {
  JsonValue J = JsonValue::object();

  JsonValue Counters = JsonValue::object();
  for (const auto &[Name, C] : Registry.counters())
    Counters.set(Name, C.value());
  J.set("counters", std::move(Counters));

  JsonValue Gauges = JsonValue::object();
  for (const auto &[Name, G] : Registry.gauges())
    Gauges.set(Name, G.value());
  J.set("gauges", std::move(Gauges));

  JsonValue Histograms = JsonValue::object();
  for (const auto &[Name, H] : Registry.histograms()) {
    JsonValue HJ = JsonValue::object();
    HJ.set("count", H.count());
    HJ.set("sum", H.sum());
    HJ.set("min", H.min());
    HJ.set("max", H.max());
    HJ.set("avg", H.average());
    JsonValue Bounds = JsonValue::array();
    for (uint64_t B : H.bounds())
      Bounds.push(B);
    HJ.set("bucket_upper_bounds", std::move(Bounds));
    JsonValue BucketCounts = JsonValue::array();
    for (uint64_t C : H.bucketCounts())
      BucketCounts.push(C);
    HJ.set("bucket_counts", std::move(BucketCounts));
    Histograms.set(Name, std::move(HJ));
  }
  J.set("histograms", std::move(Histograms));
  return J;
}

JsonValue sprof::jobRecordToJson(const JobRecord &Record) {
  JsonValue J = JsonValue::object();
  J.set("id", static_cast<uint64_t>(Record.Id));
  J.set("name", Record.Name);
  J.set("category", Record.Category);
  JsonValue Deps = JsonValue::array();
  for (size_t Dep : Record.Deps)
    Deps.push(static_cast<uint64_t>(Dep));
  J.set("deps", std::move(Deps));
  J.set("ready_us", Record.ReadyUs);
  J.set("start_us", Record.StartUs);
  J.set("duration_us", Record.DurationUs);
  J.set("worker", Record.Worker);
  J.set("ok", Record.Ok);
  if (!Record.Ok)
    J.set("error", Record.Error);
  J.set("metrics", metricsToJson(Record.Metrics));
  return J;
}

JsonValue sprof::jobsToJson(const ObsSession &Session) {
  JsonValue Jobs = JsonValue::array();
  for (const JobRecord &Record : Session.jobs())
    Jobs.push(jobRecordToJson(Record));
  return Jobs;
}

JsonValue sprof::traceCaptureToJson(const TraceCaptureInfo &Capture) {
  JsonValue J = JsonValue::object();
  J.set("path", Capture.Path);
  J.set("schema", Capture.Schema);
  J.set("events", Capture.Events);
  J.set("bytes", Capture.Bytes);
  return J;
}

JsonValue sprof::profileRunToJson(const ProfileRunResult &R) {
  JsonValue J = JsonValue::object();
  J.set("method", profilingMethodName(R.Method));
  J.set("stats", runStatsToJson(R.Stats));
  J.set("edge_profile", edgeProfileToJson(R.Edges));
  J.set("stride_profile", strideProfileToJson(R.Strides));
  J.set("profiled_sites",
        static_cast<uint64_t>(R.Instr.ProfiledSites.size()));
  J.set("stride_invocations", R.StrideInvocations);
  J.set("stride_processed", R.StrideProcessed);
  J.set("lfu_calls", R.LfuCalls);
  if (R.Capture.Enabled)
    J.set("trace", traceCaptureToJson(R.Capture));
  return J;
}

JsonValue sprof::timedRunToJson(const TimedRunResult &R,
                                const StrideProfile &SP,
                                const ClassifierConfig &Config) {
  JsonValue J = JsonValue::object();
  J.set("stats", runStatsToJson(R.Stats));
  J.set("prefetches", prefetchStatsToJson(R.Prefetches));
  J.set("classification", feedbackToJson(R.Feedback, SP, Config));
  return J;
}

JsonValue sprof::buildRunReport(const std::string &WorkloadName,
                                const PipelineConfig &Config,
                                const ProfileRunResult *Profile,
                                const TimedRunResult *Timed,
                                const RunStats *Baseline,
                                const ObsSession *Obs,
                                const ProfileDiffResult *Diff) {
  JsonValue J = JsonValue::object();
  J.set("schema", RunReportSchemaV5);
  J.set("workload", WorkloadName);
  J.set("config", pipelineConfigToJson(Config));
  if (Profile)
    J.set("profile_run", profileRunToJson(*Profile));
  if (Baseline)
    J.set("baseline_run", runStatsToJson(*Baseline));
  if (Timed) {
    // The classification ratios come from the profile that fed feedback;
    // an empty profile still yields a valid (ratio-less) section.
    static const StrideProfile EmptySP;
    const StrideProfile &SP = Profile ? Profile->Strides : EmptySP;
    J.set("timed_run",
          timedRunToJson(*Timed, SP, Config.Classifier));
    if (Baseline && Timed->Stats.Cycles != 0)
      J.set("speedup", static_cast<double>(Baseline->Cycles) /
                           static_cast<double>(Timed->Stats.Cycles));
    if (Timed->Attribution.Enabled)
      J.set("attribution",
            attributionToJson(Timed->Attribution, &Timed->Feedback,
                              Timed->Stats.Instructions));
  }
  if (Diff)
    J.set("profile_diff", profileDiffToJson(*Diff));
  if (Obs) {
    J.set("metrics", metricsToJson(Obs->registry()));
    if (!Obs->jobs().empty())
      J.set("jobs", jobsToJson(*Obs));
    if (const EngineSelfProfiler *SP = Obs->selfProfiler())
      if (SP->totalSamples() != 0)
        J.set("self_profile", selfProfileToJson(*SP));
  }
  return J;
}
