//===- tests/test_obs.cpp - Observability layer unit tests ------------------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the telemetry subsystem: metric semantics, sharded registry
/// folding, trace span nesting and Chrome trace emission, the background
/// time-series sampler, the engine self-profiler, JSON round-trips, the
/// versioned run report, and the guarantee that enabling telemetry does
/// not perturb profiles.
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Report.h"
#include "obs/Sampler.h"
#include "obs/SelfProfiler.h"
#include "obs/Trace.h"
#include "profile/ProfileData.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <thread>

using namespace sprof;

namespace {

/// The shared chase fixture as a Workload, so Pipeline can drive it: three
/// passes over a 64-byte-stride linked list.
class ChaseWorkload final : public Workload {
public:
  WorkloadInfo info() const override {
    return {"test.chase", "IR", "three-pass pointer chase"};
  }

  Program build(const BuildRequest &Req) const override {
    const DataSet DS = Req.DS;
    Program Prog;
    uint32_t DataSite = 0, NextSite = 0;
    Prog.M = test::makePassesChaseModule(3, DataSite, NextSite);
    test::fillChaseList(Prog.Memory, DS == DataSet::Ref ? 6000 : 2000, 64);
    return Prog;
  }
};

} // namespace

// -- Metrics ---------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeSemantics) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);

  Gauge G;
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
  G.set(1.5);
  G.set(2.5); // last write wins
  EXPECT_DOUBLE_EQ(G.value(), 2.5);
}

TEST(ObsMetrics, HistogramBucketsAndAggregates) {
  Histogram H({4, 16, 64});
  for (uint64_t Sample : {1, 4, 5, 100})
    H.record(Sample);

  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 110u);
  EXPECT_EQ(H.min(), 1u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_DOUBLE_EQ(H.average(), 27.5);

  // Bucket I counts samples <= bound I; the last bucket is overflow.
  ASSERT_EQ(H.bucketCounts().size(), 4u);
  EXPECT_EQ(H.bucketCounts()[0], 2u); // 1, 4
  EXPECT_EQ(H.bucketCounts()[1], 1u); // 5
  EXPECT_EQ(H.bucketCounts()[2], 0u);
  EXPECT_EQ(H.bucketCounts()[3], 1u); // 100
}

TEST(ObsMetrics, EmptyHistogramIsWellDefined) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_DOUBLE_EQ(H.average(), 0.0);
}

TEST(ObsMetrics, RegistryReturnsStableObjects) {
  MetricsRegistry R;
  Counter *A = &R.counter("a");
  A->inc(7);
  // Same name resolves to the same object; the address is stable even
  // after other insertions (node-based storage).
  for (int I = 0; I != 100; ++I)
    R.counter("filler." + std::to_string(I));
  EXPECT_EQ(&R.counter("a"), A);
  EXPECT_EQ(R.counter("a").value(), 7u);
  EXPECT_NE(&R.counter("b"), A);

  // Custom bounds apply only on creation.
  Histogram &H = R.histogram("h", {10, 20});
  EXPECT_EQ(R.histogram("h", {999}).bounds(), H.bounds());
}

TEST(ObsMetrics, SessionHandlesResolveIntoTheRegistry) {
  ObsConfig Config;
  Config.Enabled = true;
  ObsSession Session(Config);
  Counter *C = Session.counter("x");
  ASSERT_NE(C, nullptr);
  C->inc(3);
  EXPECT_EQ(C, &Session.registry().counter("x"));
  EXPECT_EQ(Session.registry().counter("x").value(), 3u);
  EXPECT_EQ(Session.gauge("g"), &Session.registry().gauge("g"));
  EXPECT_EQ(Session.histogram("h"), &Session.registry().histogram("h"));
}

// -- Time-series sampler ---------------------------------------------------

TEST(TelemetrySampler, FinalSnapshotMatchesRegistryTotals) {
  MetricsRegistry R;
  TraceCollector Clock;
  Counter &C = R.counter("work.items");
  Gauge &G = R.gauge("work.ratio");

  TelemetrySampler S(R, Clock, /*IntervalUs=*/100, /*RingCapacity=*/512);
  S.start();
  EXPECT_TRUE(S.running());
  for (int I = 0; I != 1000; ++I)
    C.inc(3);
  G.set(0.75);
  S.stop();
  EXPECT_FALSE(S.running());

  // stop() joins the thread and then snapshots, so the last ring entry
  // equals the end-of-run totals exactly -- however the sampling interval
  // interleaved with the producer.
  ASSERT_GE(S.samplesTaken(), 1u);
  ASSERT_FALSE(S.samples().empty());
  const TimeSeriesSample &Last = S.samples().back();
  bool SawCounter = false, SawGauge = false;
  for (const auto &[Name, V] : Last.Counters)
    if (Name == "work.items") {
      SawCounter = true;
      EXPECT_EQ(V, 3000u);
    }
  for (const auto &[Name, V] : Last.Gauges)
    if (Name == "work.ratio") {
      SawGauge = true;
      EXPECT_DOUBLE_EQ(V, 0.75);
    }
  EXPECT_TRUE(SawCounter);
  EXPECT_TRUE(SawGauge);

  // Timestamps are monotone on the shared trace clock.
  for (size_t I = 1; I < S.samples().size(); ++I)
    EXPECT_GE(S.samples()[I].TsUs, S.samples()[I - 1].TsUs);

  // stop() is idempotent: calling it again takes no extra snapshot.
  uint64_t Taken = S.samplesTaken();
  S.stop();
  EXPECT_EQ(S.samplesTaken(), Taken);

  // The serialized artifact mirrors the ring columnarly.
  JsonValue Doc = timeSeriesToJson(S);
  EXPECT_EQ(Doc.get("schema")->asString(), TimeSeriesSchemaV1);
  ASSERT_NE(Doc.get("timestamps_us"), nullptr);
  EXPECT_EQ(Doc.get("timestamps_us")->size(), S.samples().size());
  const JsonValue *Series = Doc.get("counters")->get("work.items");
  ASSERT_NE(Series, nullptr);
  ASSERT_EQ(Series->size(), S.samples().size());
  EXPECT_EQ(Series->at(Series->size() - 1).asUInt(), 3000u);
}

TEST(TelemetrySampler, RingIsBoundedAndCountsDrops) {
  MetricsRegistry R;
  TraceCollector Clock;
  R.counter("x").inc();

  TelemetrySampler S(R, Clock, /*IntervalUs=*/50, /*RingCapacity=*/2);
  S.start();
  // Oversample the two-slot ring for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  S.stop();

  EXPECT_LE(S.samples().size(), 2u);
  EXPECT_GT(S.samplesTaken(), 2u);
  EXPECT_EQ(S.dropped(), S.samplesTaken() - S.samples().size());
  EXPECT_GT(S.dropped(), 0u);
  // Drop-oldest: the final (stop) snapshot always survives.
  ASSERT_FALSE(S.samples().empty());
  EXPECT_EQ(S.samples().back().Counters.front().second, 1u);
}

TEST(ObsTrace, SamplerRingFoldsIntoTraceAsCounterEvents) {
  ObsConfig OC;
  OC.Enabled = true;
  OC.SampleIntervalUs = 100;
  ObsSession Session(OC);
  ASSERT_NE(Session.sampler(), nullptr);
  Session.counter("fold.me")->inc(5);

  // No output paths configured: writeArtifacts only stops the sampler and
  // folds its ring into the trace.
  ASSERT_TRUE(Session.writeArtifacts());
  const std::vector<CounterSample> &Samples =
      Session.trace().counterSamples();
  ASSERT_FALSE(Samples.empty());
  bool Saw = false;
  for (const CounterSample &CS : Samples)
    if (CS.Name == "fold.me" && CS.Value == 5.0)
      Saw = true;
  EXPECT_TRUE(Saw);

  std::ostringstream OS;
  Session.trace().writeChromeTrace(OS);
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(OS.str(), Doc));
  bool SawCounterEvent = false;
  for (const JsonValue &E : Doc.get("traceEvents")->items())
    if (E.get("ph")->asString() == "C")
      SawCounterEvent = true;
  EXPECT_TRUE(SawCounterEvent);
}

// -- Engine self-profiler --------------------------------------------------

TEST(ObsSelfProfiler, DeterministicAttributionAndFoldedExport) {
  static const char *const Names[] = {"alpha", "beta"};
  EngineSelfProfiler P(/*Window=*/4);
  EXPECT_EQ(P.window(), 4u);
  P.configureSlots(2, Names);
  P.setContext("wl", "phase1");
  P.sample(0);
  P.sample(0);
  P.sample(1);
  P.setContext("wl", "phase2");
  P.sample(1);

  EXPECT_EQ(P.totalSamples(), 4u);
  std::vector<EngineSelfProfiler::Entry> E = P.entries();
  ASSERT_EQ(E.size(), 3u);
  // Sorted by samples descending, ties by (workload, phase, slot).
  EXPECT_EQ(E[0].Samples, 2u);
  EXPECT_EQ(E[0].Phase, "phase1");
  EXPECT_EQ(E[0].Slot, 0u);
  EXPECT_EQ(E[1].Samples, 1u);
  EXPECT_EQ(E[1].Phase, "phase1");
  EXPECT_EQ(E[1].Slot, 1u);
  EXPECT_EQ(E[2].Phase, "phase2");
  EXPECT_EQ(P.slotName(0), "alpha");
  EXPECT_EQ(P.slotName(7), "op7"); // outside the installed table

  // merge() accumulates sample counts commutatively.
  EngineSelfProfiler Q(/*Window=*/4);
  Q.configureSlots(2, Names);
  Q.setContext("wl", "phase1");
  Q.sample(0);
  P.merge(Q);
  EXPECT_EQ(P.totalSamples(), 5u);

  std::ostringstream OS;
  P.writeFolded(OS);
  const std::string Folded = OS.str();
  EXPECT_NE(Folded.find("wl;phase1;alpha 3"), std::string::npos);
  EXPECT_NE(Folded.find("wl;phase1;beta 1"), std::string::npos);
  EXPECT_NE(Folded.find("wl;phase2;beta 1"), std::string::npos);
}

// -- Tracing ---------------------------------------------------------------

TEST(ObsTrace, NestedSpansRecordDepthAndDuration) {
  TraceCollector C;
  EXPECT_EQ(C.currentDepth(), 0u);
  {
    TraceSpan Outer(&C, "outer", "test");
    EXPECT_EQ(C.currentDepth(), 1u);
    {
      TraceSpan Inner(&C, "inner", "test");
      EXPECT_EQ(C.currentDepth(), 2u);
    }
    EXPECT_EQ(C.currentDepth(), 1u);
  }
  EXPECT_EQ(C.currentDepth(), 0u);

  ASSERT_EQ(C.events().size(), 2u);
  const TraceEvent &Outer = C.events()[0];
  const TraceEvent &Inner = C.events()[1];
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_EQ(Outer.Depth, 0u);
  EXPECT_EQ(Inner.Name, "inner");
  EXPECT_EQ(Inner.Depth, 1u);
  // Both spans completed, and the inner one nests inside the outer.
  ASSERT_NE(Outer.DurationUs, UINT64_MAX);
  ASSERT_NE(Inner.DurationUs, UINT64_MAX);
  EXPECT_GE(Inner.StartUs, Outer.StartUs);
  EXPECT_LE(Inner.StartUs + Inner.DurationUs,
            Outer.StartUs + Outer.DurationUs);
  EXPECT_TRUE(C.hasSpan("outer"));
  EXPECT_FALSE(C.hasSpan("missing"));
}

TEST(ObsTrace, ChromeTraceIsValidJson) {
  TraceCollector C;
  {
    TraceSpan A(&C, "phase-a", "pipeline");
    TraceSpan B(&C, "phase-b", "interp");
  }
  C.appendCounterSample("metric.x", 10, 42.0);
  std::ostringstream OS;
  C.writeChromeTrace(OS);

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(OS.str(), Doc, &Error)) << Error;
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->size(), 3u);
  unsigned Spans = 0, Counters = 0;
  for (const JsonValue &E : Events->items()) {
    EXPECT_NE(E.get("name"), nullptr);
    EXPECT_NE(E.get("ts"), nullptr);
    EXPECT_NE(E.get("pid"), nullptr);
    EXPECT_NE(E.get("tid"), nullptr);
    if (E.get("ph")->asString() == "X") {
      ++Spans;
      EXPECT_NE(E.get("dur"), nullptr);
    } else {
      // The only other event kind is a counter-track ("C") sample, which
      // carries its value in args.value instead of a duration.
      ++Counters;
      EXPECT_EQ(E.get("ph")->asString(), "C");
      EXPECT_EQ(E.get("name")->asString(), "metric.x");
      ASSERT_NE(E.get("args"), nullptr);
      EXPECT_DOUBLE_EQ(E.get("args")->get("value")->asDouble(), 42.0);
    }
  }
  EXPECT_EQ(Spans, 2u);
  EXPECT_EQ(Counters, 1u);
}

TEST(ObsTrace, CollectTraceGatesSessionSpans) {
  ObsConfig Config;
  Config.Enabled = true;
  ObsSession Session(Config);
  {
    TraceSpan S(&Session, "phase", "test");
    EXPECT_TRUE(S.active());
  }
  EXPECT_TRUE(Session.trace().hasSpan("phase"));

  Config.CollectTrace = false;
  ObsSession NoTrace(Config);
  {
    TraceSpan S(&NoTrace, "phase", "test");
    EXPECT_FALSE(S.active());
  }
  EXPECT_TRUE(NoTrace.trace().events().empty());

  // A null session is always inert.
  TraceSpan Null(static_cast<ObsSession *>(nullptr), "x");
  EXPECT_FALSE(Null.active());
}

// -- JSON ------------------------------------------------------------------

TEST(ObsJson, RoundTripPreservesValuesAndEscapes) {
  JsonValue Root = JsonValue::object();
  Root.set("int", int64_t{-42});
  Root.set("big", uint64_t{1} << 53);
  Root.set("double", 2.5);
  Root.set("bool", true);
  Root.set("null", JsonValue());
  Root.set("tricky", "quote \" backslash \\ newline \n tab \t");
  JsonValue Arr = JsonValue::array();
  Arr.push(1);
  Arr.push("two");
  Arr.push(JsonValue::object().set("nested", 3));
  Root.set("arr", std::move(Arr));

  JsonValue Back;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Root.str(), Back, &Error)) << Error;
  EXPECT_EQ(Back.get("int")->asInt(), -42);
  EXPECT_EQ(Back.get("big")->asUInt(), uint64_t{1} << 53);
  EXPECT_DOUBLE_EQ(Back.get("double")->asDouble(), 2.5);
  EXPECT_TRUE(Back.get("bool")->asBool());
  EXPECT_TRUE(Back.get("null")->isNull());
  EXPECT_EQ(Back.get("tricky")->asString(),
            "quote \" backslash \\ newline \n tab \t");
  ASSERT_EQ(Back.get("arr")->size(), 3u);
  EXPECT_EQ(Back.get("arr")->at(2).get("nested")->asInt(), 3);
  // Serialization is deterministic: a second round-trip is a fixpoint.
  EXPECT_EQ(Back.str(), Root.str());
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  JsonValue Out;
  std::string Error;
  EXPECT_FALSE(JsonValue::parse("{\"a\": }", Out, &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(JsonValue::parse("[1, 2", Out));
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing", Out));
  EXPECT_TRUE(JsonValue::parse("  [1, 2, 3]  ", Out));
}

// The parser recurses once per nesting level; input nested past
// JsonMaxDepth is a parse error, never a stack overflow.
TEST(ObsJson, NestingDeeperThanTheBoundIsAParseError) {
  auto Nested = [](unsigned Depth) {
    return std::string(Depth, '[') + std::string(Depth, ']');
  };
  JsonValue Out;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(Nested(JsonMaxDepth), Out, &Error)) << Error;

  const std::string Diagnostic = "nested deeper than " +
                                 std::to_string(JsonMaxDepth) + " levels";
  EXPECT_FALSE(JsonValue::parse(Nested(JsonMaxDepth + 1), Out, &Error));
  EXPECT_NE(Error.find(Diagnostic), std::string::npos) << Error;

  // Deep enough to overflow the stack of an unbounded recursive parser,
  // in an array and under an object key.
  EXPECT_FALSE(JsonValue::parse(Nested(20000), Out, &Error));
  EXPECT_NE(Error.find(Diagnostic), std::string::npos) << Error;
  std::string Object = "{\"summary\": " + Nested(100000) + "}";
  EXPECT_FALSE(JsonValue::parse(Object, Out, &Error));
  EXPECT_NE(Error.find(Diagnostic), std::string::npos) << Error;
}

// -- Run reports -----------------------------------------------------------

TEST(ObsReport, RunReportRoundTripsWithStableSchema) {
  ChaseWorkload W;
  PipelineConfig Config;
  Config.Obs.Enabled = true;
  Config.Memory.EnableAttribution = true;
  Pipeline P(W, Config);

  ProfileRunResult Prof =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train);
  RunStats Baseline = P.runBaseline(DataSet::Ref);
  TimedRunResult Timed =
      P.runPrefetched(DataSet::Ref, Prof.Edges, Prof.Strides);

  JsonValue Report = buildRunReport(W.info().Name, P.config(), &Prof,
                                    &Timed, &Baseline, P.obs());
  JsonValue Back;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Report.str(), Back, &Error)) << Error;

  EXPECT_EQ(Back.get("schema")->asString(), RunReportSchemaV5);
  EXPECT_EQ(Back.get("workload")->asString(), "test.chase");
  EXPECT_EQ(Back.get("profile_run")->get("method")->asString(),
            "edge-check");

  // Per-site stride sections carry at most the configured top-N strides
  // and the raw zero / zero-diff counts.
  const JsonValue *Sites =
      Back.get("profile_run")->get("stride_profile")->get("sites");
  ASSERT_NE(Sites, nullptr);
  ASSERT_GT(Sites->size(), 0u);
  for (const JsonValue &S : Sites->items()) {
    EXPECT_LE(S.get("top_strides")->size(), 4u);
    EXPECT_NE(S.get("zero_strides"), nullptr);
    EXPECT_NE(S.get("zero_diffs"), nullptr);
  }

  // Classification verdicts reference the thresholds block.
  const JsonValue *Classification =
      Back.get("timed_run")->get("classification");
  ASSERT_NE(Classification, nullptr);
  EXPECT_EQ(Classification->get("thresholds")->get("trip_count")->asUInt(),
            Config.Classifier.TripCountThreshold);
  ASSERT_GT(Classification->get("decisions")->size(), 0u);

  // Registry counters land in the report and agree with the pipeline's
  // own accounting.
  const JsonValue *Counters = Back.get("metrics")->get("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->get("strideprof.invocations")->asUInt(),
            Prof.StrideInvocations);
  EXPECT_EQ(Counters->get("pipeline.profile_runs")->asUInt(), 1u);
  EXPECT_EQ(Counters->get("pipeline.baseline_runs")->asUInt(), 1u);
  EXPECT_EQ(Counters->get("pipeline.timed_runs")->asUInt(), 1u);

  EXPECT_GT(Back.get("speedup")->asDouble(), 0.0);

  // The /2 attribution section: outcome classes partition the issued
  // prefetches exactly, and the report agrees with the in-memory stats.
  const JsonValue *Attribution = Back.get("attribution");
  ASSERT_NE(Attribution, nullptr);
  const JsonValue *Outcomes = Attribution->get("outcomes");
  ASSERT_NE(Outcomes, nullptr);
  EXPECT_EQ(Outcomes->get("useful")->asUInt() +
                Outcomes->get("late")->asUInt() +
                Outcomes->get("early")->asUInt() +
                Outcomes->get("redundant")->asUInt(),
            Timed.Stats.Mem.PrefetchesIssued);
  EXPECT_EQ(Outcomes->get("issued")->asUInt(),
            Timed.Stats.Mem.PrefetchesIssued);
  EXPECT_TRUE(Attribution->get("finalized")->asBool());
  ASSERT_GT(Attribution->get("per_site")->size(), 0u);
  for (const JsonValue &S : Attribution->get("per_site")->items()) {
    EXPECT_NE(S.get("class"), nullptr);
    EXPECT_NE(S.get("l1_misses"), nullptr);
    EXPECT_NE(S.get("l1_mpki"), nullptr);
  }

  // The prefetch.outcome.* counters the pipeline flushed match the
  // attribution totals.
  EXPECT_EQ(Counters->get("prefetch.outcome.useful")->asUInt(),
            Timed.Attribution.Total.Useful);
  EXPECT_EQ(Counters->get("memsys.site_miss.accesses")->asUInt(),
            Timed.Stats.Mem.DemandAccesses);

  // Every pipeline phase left a trace span.
  for (const char *Phase : {"run-profile", "instrument", "execute",
                            "strideprof-harvest", "run-baseline",
                            "timed-run", "classify", "prefetch-insert"})
    EXPECT_TRUE(P.obs()->trace().hasSpan(Phase)) << Phase;
}

// A reader written against sprof.run_report/1 must keep working on /2
// documents: every /1 section is still present with its /1 shape, and the
// only additions are new optional top-level sections such a reader ignores.
TEST(ObsReport, ReportV2ParsesUnderV1Reader) {
  ChaseWorkload W;
  PipelineConfig Config;
  Config.Obs.Enabled = true;
  Config.Memory.EnableAttribution = true;
  Pipeline P(W, Config);

  ProfileRunResult Prof =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train);
  RunStats Baseline = P.runBaseline(DataSet::Ref);
  TimedRunResult Timed =
      P.runPrefetched(DataSet::Ref, Prof.Edges, Prof.Strides);
  ProfileDiffResult Diff =
      diffStrideProfiles(Prof.Strides, Prof.Strides, Config.Classifier);

  JsonValue Report =
      buildRunReport(W.info().Name, P.config(), &Prof, &Timed, &Baseline,
                     P.obs(), &Diff);
  JsonValue Back;
  ASSERT_TRUE(JsonValue::parse(Report.str(), Back));

  // Version negotiation a /1 reader can do: same family, newer minor.
  std::string Schema = Back.get("schema")->asString();
  EXPECT_EQ(Schema.rfind("sprof.run_report/", 0), 0u);

  // The exact /1 key set, with the /1 shapes the /1 test checks.
  for (const char *Key : {"workload", "config", "profile_run",
                          "baseline_run", "timed_run", "speedup", "metrics"})
    EXPECT_NE(Back.get(Key), nullptr) << Key;
  EXPECT_NE(Back.get("profile_run")->get("stride_profile"), nullptr);
  EXPECT_NE(Back.get("timed_run")->get("classification"), nullptr);
  EXPECT_NE(Back.get("baseline_run")->get("memory"), nullptr);

  // Everything beyond /1 is limited to the documented /2 and /3 additions,
  // so an ignore-unknown-keys reader sees nothing else new.
  for (const auto &[Key, Value] : Back.members()) {
    (void)Value;
    static const std::set<std::string> V1Keys = {
        "schema",    "workload",     "config", "profile_run",
        "baseline_run", "timed_run", "speedup", "metrics", "jobs"};
    if (V1Keys.count(Key))
      continue;
    EXPECT_TRUE(Key == "attribution" || Key == "profile_diff" ||
                Key == "self_profile")
        << Key;
  }

  // A self-diff scores perfect accuracy.
  EXPECT_DOUBLE_EQ(
      Back.get("profile_diff")->get("weighted_accuracy")->asDouble(), 1.0);
  EXPECT_EQ(Back.get("profile_diff")->get("class_flips")->get("ssst")
                ->get("wsst")->asUInt(),
            0u);
}

// PR 3 only asserted the Decoded engine's telemetry tallies; the span
// *nesting* contract matters too: pipeline phases at depth 0, the engine's
// execute span strictly inside them at depth 1, regardless of engine.
TEST(ObsTrace, DecodedEngineSpansNestInsidePipelinePhases) {
  ChaseWorkload W;
  PipelineConfig Config;
  Config.Obs.Enabled = true;
  Config.Interp.Exec = InterpreterConfig::Engine::Decoded;
  Pipeline P(W, Config);

  ProfileRunResult Prof =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train);
  (void)P.runPrefetched(DataSet::Ref, Prof.Edges, Prof.Strides);

  const std::vector<TraceEvent> &Events = P.obs()->trace().events();
  ASSERT_FALSE(Events.empty());

  auto Find = [&](const std::string &Name) -> const TraceEvent * {
    for (const TraceEvent &E : Events)
      if (E.Name == Name)
        return &E;
    return nullptr;
  };
  const TraceEvent *RunProfile = Find("run-profile");
  const TraceEvent *TimedRun = Find("timed-run");
  ASSERT_NE(RunProfile, nullptr);
  ASSERT_NE(TimedRun, nullptr);
  EXPECT_EQ(RunProfile->Depth, 0u);
  EXPECT_EQ(TimedRun->Depth, 0u);

  // Every execute span belongs to exactly one enclosing pipeline phase:
  // depth 1 and time-contained in run-profile or timed-run.
  unsigned Executes = 0;
  for (const TraceEvent &E : Events) {
    if (E.Name != "execute")
      continue;
    ++Executes;
    EXPECT_EQ(E.Depth, 1u);
    auto Inside = [&](const TraceEvent *Outer) {
      return E.StartUs >= Outer->StartUs &&
             E.StartUs + E.DurationUs <=
                 Outer->StartUs + Outer->DurationUs;
    };
    EXPECT_TRUE(Inside(RunProfile) || Inside(TimedRun));
  }
  EXPECT_EQ(Executes, 2u);
  // Inner phases of the profile run nest below the phase, too.
  const TraceEvent *Harvest = Find("strideprof-harvest");
  ASSERT_NE(Harvest, nullptr);
  EXPECT_EQ(Harvest->Depth, 1u);
}

TEST(ObsReport, DisabledTelemetryLeavesProfilesBitIdentical) {
  ChaseWorkload W;

  PipelineConfig Off;
  ASSERT_FALSE(Off.Obs.Enabled); // default off
  Pipeline POff(W, Off);

  PipelineConfig On;
  On.Obs.Enabled = true;
  Pipeline POn(W, On);

  ProfileRunResult ROff =
      POff.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train);
  ProfileRunResult ROn =
      POn.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train);

  // Identical profiles, byte for byte, and identical cycle accounting:
  // telemetry only observes.
  std::ostringstream SOff, SOn;
  writeProfiles(ROff.Edges, ROff.Strides, SOff);
  writeProfiles(ROn.Edges, ROn.Strides, SOn);
  EXPECT_EQ(SOff.str(), SOn.str());
  EXPECT_EQ(ROff.Stats.Cycles, ROn.Stats.Cycles);
  EXPECT_EQ(ROff.Stats.Instructions, ROn.Stats.Instructions);
  EXPECT_EQ(ROff.StrideInvocations, ROn.StrideInvocations);

  EXPECT_EQ(POff.obs(), nullptr);
  ASSERT_NE(POn.obs(), nullptr);
  EXPECT_GT(POn.obs()->trace().events().size(), 0u);
}

// -- RunStats accumulation -------------------------------------------------

TEST(ObsReport, RunStatsAccumulate) {
  RunStats A;
  A.Completed = true;
  A.Instructions = 100;
  A.Cycles = 500;
  A.BaseCycles = 300;
  A.MemStallCycles = 200;
  A.LoadRefs = 10;
  A.SiteCounts = {1, 2};
  A.Mem.Levels.resize(1);
  A.Mem.Levels[0].Hits = 5;
  A.ExitValue = 1;

  RunStats B;
  B.Completed = true;
  B.Instructions = 50;
  B.Cycles = 250;
  B.InstrumentationCycles = 25;
  B.LoadRefs = 5;
  B.SiteCounts = {10, 20, 30}; // wider than A
  B.Mem.Levels.resize(2);
  B.Mem.Levels[0].Misses = 3;
  B.ExitValue = 7;

  A += B;
  EXPECT_TRUE(A.Completed);
  EXPECT_EQ(A.Instructions, 150u);
  EXPECT_EQ(A.Cycles, 750u);
  EXPECT_EQ(A.BaseCycles, 300u);
  EXPECT_EQ(A.InstrumentationCycles, 25u);
  EXPECT_EQ(A.LoadRefs, 15u);
  ASSERT_EQ(A.SiteCounts.size(), 3u);
  EXPECT_EQ(A.SiteCounts[0], 11u);
  EXPECT_EQ(A.SiteCounts[1], 22u);
  EXPECT_EQ(A.SiteCounts[2], 30u);
  ASSERT_EQ(A.Mem.Levels.size(), 2u);
  EXPECT_EQ(A.Mem.Levels[0].Hits, 5u);
  EXPECT_EQ(A.Mem.Levels[0].Misses, 3u);
  EXPECT_EQ(A.ExitValue, 7);

  RunStats Incomplete;
  Incomplete.Completed = false;
  A += Incomplete;
  EXPECT_FALSE(A.Completed);
}
