//===- tests/test_engine.cpp - JobGraph and ExperimentEngine tests ----------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JobGraph scheduling semantics (ordering, failure propagation, dependent
/// skipping), engine reuse after failure, per-job telemetry aggregation,
/// and the engine's core guarantee: an N-thread sweep is bit-identical to
/// the serial one for every profiling method.
///
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "driver/Experiments.h"
#include "instrument/Instrumentation.h"
#include "obs/FlightRecorder.h"
#include "profile/ProfileStore.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace sprof;
using namespace sprof::test;

namespace {

/// \p Prefix followed by \p N. Appending keeps GCC 12's -O3 from raising
/// a false -Wrestrict on the inlined `"..." + std::to_string(N)`.
std::string numbered(std::string Prefix, uint64_t N) {
  Prefix += std::to_string(N);
  return Prefix;
}

// The chase workload from TestHelpers wrapped as a Workload; small enough
// that a full method sweep stays fast.
class ChaseWorkload : public Workload {
public:
  WorkloadInfo info() const override {
    return {"test.chase", "c", "pointer chase"};
  }
  Program build(const BuildRequest &Req) const override {
    Program P;
    uint32_t DataSite = 0, NextSite = 0;
    P.M = makeChaseModule(DataSite, NextSite);
    uint64_t Seed = Req.seed(0x51dee);
    uint64_t Count = (Req.DS == DataSet::Train ? 192 : 256) + (Seed & 31);
    fillChaseList(P.Memory, Count, 64);
    return P;
  }
};

EngineOptions withThreads(unsigned N) {
  EngineOptions Opts;
  Opts.Threads = N;
  return Opts;
}

std::string profileText(const SweepCell &Cell) {
  ProfileStore Store({Cell.W->info().Name,
                      profilingMethodName(Cell.Method),
                      dataSetName(Cell.ProfileDS)},
                     Cell.Profile.Edges, Cell.Profile.Strides);
  return Store.toString();
}

TEST(JobGraph, SerialRunsInInsertionOrder) {
  JobGraph G;
  std::vector<int> Order;
  for (int I = 0; I != 5; ++I)
    G.add("job" + std::to_string(I), "test",
          [&Order, I](uint32_t) { Order.push_back(I); });
  std::vector<JobOutcome> Outcomes = G.run(1);
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
  ASSERT_EQ(Outcomes.size(), 5u);
  for (const JobOutcome &O : Outcomes) {
    EXPECT_TRUE(O.Ran);
    EXPECT_TRUE(O.Ok);
  }
}

TEST(JobGraph, DependenciesCompleteBeforeDependents) {
  // A diamond per chain, run wide: every dependent asserts its
  // dependency's side effect is already visible.
  JobGraph G;
  constexpr int Chains = 8;
  std::atomic<int> DepDone[Chains];
  std::atomic<bool> OrderViolated{false};
  for (int I = 0; I != Chains; ++I)
    DepDone[I] = 0;
  for (int I = 0; I != Chains; ++I) {
    JobId A = G.add(numbered("a", I), "test",
                    [&DepDone, I](uint32_t) { DepDone[I] = 1; });
    JobId B = G.add(
        numbered("b", I), "test",
        [&DepDone, &OrderViolated, I](uint32_t) {
          if (DepDone[I] != 1)
            OrderViolated = true;
          DepDone[I] = 2;
        },
        {A});
    G.add(
        numbered("c", I), "test",
        [&DepDone, &OrderViolated, I](uint32_t) {
          if (DepDone[I] != 2)
            OrderViolated = true;
        },
        {B});
  }
  std::vector<JobOutcome> Outcomes = G.run(4);
  EXPECT_FALSE(OrderViolated);
  for (const JobOutcome &O : Outcomes)
    EXPECT_TRUE(O.Ok);
}

TEST(JobGraph, FailurePropagatesAndSkipsDependents) {
  JobGraph G;
  bool IndependentRan = false, DependentRan = false, TransitiveRan = false;
  JobId Bad = G.add("bad", "test", [](uint32_t) {
    throw std::runtime_error("boom");
  });
  JobId Dep = G.add(
      "dep", "test", [&DependentRan](uint32_t) { DependentRan = true; },
      {Bad});
  G.add(
      "transitive", "test",
      [&TransitiveRan](uint32_t) { TransitiveRan = true; }, {Dep});
  G.add("independent", "test",
        [&IndependentRan](uint32_t) { IndependentRan = true; });

  std::vector<JobOutcome> Outcomes = G.run(1);
  ASSERT_EQ(Outcomes.size(), 4u);

  EXPECT_TRUE(Outcomes[0].Ran);
  EXPECT_FALSE(Outcomes[0].Ok);
  EXPECT_EQ(Outcomes[0].Error, "boom");
  EXPECT_TRUE(static_cast<bool>(Outcomes[0].Exception));

  // Direct and transitive dependents are skipped with a pointer at the
  // root cause; unrelated jobs still run.
  EXPECT_FALSE(DependentRan);
  EXPECT_FALSE(TransitiveRan);
  EXPECT_FALSE(Outcomes[1].Ran);
  EXPECT_NE(Outcomes[1].Error.find("skipped"), std::string::npos);
  EXPECT_NE(Outcomes[1].Error.find("bad"), std::string::npos);
  EXPECT_FALSE(Outcomes[2].Ran);
  EXPECT_TRUE(IndependentRan);
  EXPECT_TRUE(Outcomes[3].Ok);
}

/// Spins until \p Cond holds; false after a generous deadline, so a broken
/// scheduler fails the test instead of hanging it.
template <typename Fn> bool spinUntil(Fn Cond) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!Cond()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::yield();
  }
  return true;
}

// A job that parks leaves its worker, re-runs from the start once woken,
// and only its finished re-run releases its dependents. The parked
// attempt's onPark actions run; the finished attempt's do not.
TEST(JobGraph, ParkedJobRerunsAfterWakeBeforeItsDependents) {
  for (unsigned Threads : {1u, 2u}) {
    SCOPED_TRACE(Threads);
    JobGraph G;
    std::atomic<int> Attempts{0}, Undone{0};
    std::atomic<bool> Subscribed{false}, Woken{false}, Finished{false};
    std::atomic<bool> DependentEarly{false};
    JobPending::WakeFn Wake;
    JobId Parker = G.add("parker", "test", [&](uint32_t) {
      JobGraph::onPark([&] { ++Undone; });
      if (++Attempts == 1)
        throw JobPending{[&](JobPending::WakeFn W) {
          Wake = std::move(W);
          Subscribed = true;
        }};
      if (!Woken)
        throw std::runtime_error("re-ran before its wake");
      Finished = true;
    });
    // The event the parker waits for, published by another job.
    G.add("waker", "test", [&](uint32_t) {
      if (!spinUntil([&] { return Subscribed.load(); }))
        throw std::runtime_error("parker never subscribed");
      Woken = true;
      Wake();
    });
    G.add(
        "dependent", "test",
        [&](uint32_t) { DependentEarly = !Finished; }, {Parker});

    std::vector<JobOutcome> Outcomes = G.run(Threads);
    for (const JobOutcome &O : Outcomes)
      EXPECT_TRUE(O.Ok) << O.Error;
    EXPECT_EQ(Attempts.load(), 2);
    EXPECT_EQ(Undone.load(), 1);
    EXPECT_FALSE(DependentEarly);
    EXPECT_EQ(G.schedStats().Parks, 1u);
    // One outcome over both attempts: it starts with the first and never
    // counts the parked time as its own.
    EXPECT_LE(Outcomes[Parker].StartUs + Outcomes[Parker].DurationUs,
              Outcomes[2].StartUs);
  }
}

// Subscribe may find the event already happened and wake at once, on the
// parking worker itself: the job goes straight back to the queue.
TEST(JobGraph, WakeInsideSubscribeRequeuesAtOnce) {
  JobGraph G;
  int Attempts = 0;
  bool DependentRan = false;
  JobId Job = G.add("parker", "test", [&](uint32_t) {
    if (++Attempts == 1)
      throw JobPending{[](JobPending::WakeFn Wake) { Wake(); }};
  });
  G.add(
      "dependent", "test",
      [&](uint32_t) { DependentRan = Attempts == 2; }, {Job});
  std::vector<JobOutcome> Outcomes = G.run(1);
  EXPECT_TRUE(Outcomes[Job].Ok);
  EXPECT_EQ(Attempts, 2);
  EXPECT_TRUE(DependentRan);
  EXPECT_EQ(G.schedStats().Parks, 1u);
}

TEST(ExperimentEngine, RethrowsFirstFailureAndStaysReusable) {
  ExperimentEngine Engine(withThreads(2));
  Engine.addJob("fails", "test", [](ObsSession *) {
    throw std::runtime_error("engine boom");
  });
  EXPECT_THROW(Engine.run(), std::runtime_error);
  ASSERT_EQ(Engine.lastOutcomes().size(), 1u);
  EXPECT_EQ(Engine.lastOutcomes()[0].Error, "engine boom");

  // The failed wave is drained; the engine accepts and runs new jobs.
  bool Ran = false;
  Engine.addJob("ok", "test", [&Ran](ObsSession *) { Ran = true; });
  Engine.run();
  EXPECT_TRUE(Ran);
  ASSERT_EQ(Engine.lastOutcomes().size(), 1u);
  EXPECT_TRUE(Engine.lastOutcomes()[0].Ok);
}

TEST(ExperimentEngine, FoldsJobTelemetryIntoSession) {
  EngineOptions Opts;
  Opts.Threads = 4;
  Opts.Obs.Enabled = true;
  ExperimentEngine Engine(Opts);
  ASSERT_NE(Engine.obs(), nullptr);

  for (int I = 0; I != 6; ++I)
    Engine.addJob("tick" + std::to_string(I), "test-job",
                  [](ObsSession *JobObs) {
                    ASSERT_NE(JobObs, nullptr);
                    JobObs->counter("test.ticks")->inc(10);
                  });
  Engine.run();

  // Counters from all six private job scopes merged into the session
  // registry.
  EXPECT_EQ(Engine.obs()->registry().counter("test.ticks").value(), 60u);

  // One JobRecord per job, in JobId order regardless of completion order,
  // each carrying its own metric scope.
  const std::vector<JobRecord> &Jobs = Engine.obs()->jobs();
  ASSERT_EQ(Jobs.size(), 6u);
  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_EQ(Jobs[I].Name, "tick" + std::to_string(I));
    EXPECT_EQ(Jobs[I].Category, "test-job");
    EXPECT_TRUE(Jobs[I].Ok);
    EXPECT_EQ(Jobs[I].Metrics.counters().at("test.ticks").value(), 10u);
  }

  // Each job stamped one span onto the session trace.
  EXPECT_TRUE(Engine.obs()->trace().hasSpan("tick0"));
  EXPECT_TRUE(Engine.obs()->trace().hasSpan("tick5"));
}

// Job metrics fold into the session in job-id order after the drain:
// whatever worker ran whatever job, the session registry holds the
// closed-form totals at every thread count, and a gauge holds the value of
// the highest job id that set it.
TEST(ExperimentEngine, JobIdFoldMatchesClosedFormTotals) {
  for (unsigned Threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(Threads);
    EngineOptions Opts;
    Opts.Threads = Threads;
    Opts.Obs.Enabled = true;
    ExperimentEngine Engine(Opts);
    for (int J = 0; J != 16; ++J)
      Engine.addJob("job" + std::to_string(J), "test-job",
                    [J](ObsSession *JobObs) {
                      JobObs->counter("fold.events")->inc(J + 1);
                      JobObs->histogram("fold.sizes")->record(J * 3 % 32);
                      JobObs->gauge("fold.last")->set(J);
                    });
    Engine.run();

    const MetricsRegistry &Reg = Engine.obs()->registry();
    EXPECT_EQ(Reg.counters().at("fold.events").value(), 136u); // 1 + ... + 16
    EXPECT_EQ(Reg.gauges().at("fold.last").value(), 15.0);     // job 15 last
    const Histogram &H = Reg.histograms().at("fold.sizes");
    EXPECT_EQ(H.count(), 16u);
    EXPECT_EQ(H.sum(), 200u); // sum of J * 3 % 32 over J < 16
  }
}

// Each job scope folds exactly once: a failed job's partial metrics count
// once, and a parked attempt's scope is dropped, so only the finished
// re-run's metrics reach the session.
TEST(ExperimentEngine, FailedJobFoldsOnceAndParkedAttemptNever) {
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(Threads);
    EngineOptions Opts = withThreads(Threads);
    Opts.Obs.Enabled = true;
    ExperimentEngine Engine(Opts);
    std::atomic<int> Attempts{0};
    Engine.addJob("ok", "test-job", [](ObsSession *JobObs) {
      JobObs->counter("fold.events")->inc(1);
    });
    Engine.addJob("fails", "test-job", [](ObsSession *JobObs) {
      JobObs->counter("fold.events")->inc(10);
      JobObs->gauge("fold.failed")->set(1);
      throw std::runtime_error("partial");
    });
    Engine.addJob("parks", "test-job", [&Attempts](ObsSession *JobObs) {
      const int Attempt = ++Attempts;
      JobObs->counter("fold.events")->inc(100 * Attempt);
      JobObs->counter("fold.attempt" + std::to_string(Attempt))->inc();
      if (Attempt == 1)
        throw JobPending{[](JobPending::WakeFn Wake) { Wake(); }};
    });
    EXPECT_THROW(Engine.run(), std::runtime_error);
    EXPECT_EQ(Attempts.load(), 2);

    const MetricsRegistry &Reg = Engine.obs()->registry();
    EXPECT_EQ(Reg.counters().at("fold.events").value(), 1u + 10u + 200u);
    EXPECT_EQ(Reg.gauges().at("fold.failed").value(), 1.0);
    EXPECT_EQ(Reg.counters().count("fold.attempt1"), 0u);
    EXPECT_EQ(Reg.counters().at("fold.attempt2").value(), 1u);
    EXPECT_EQ(Reg.counters().at("engine.run_memo.parks").value(), 1u);

    const std::vector<JobRecord> &Jobs = Engine.obs()->jobs();
    ASSERT_EQ(Jobs.size(), 3u);
    EXPECT_FALSE(Jobs[1].Ok);
    EXPECT_EQ(Jobs[1].Metrics.counters().at("fold.events").value(), 10u);
    EXPECT_TRUE(Jobs[2].Ok);
    EXPECT_EQ(Jobs[2].Metrics.counters().at("fold.events").value(), 200u);
  }
}

// A graph with a structurally forced critical path: a three-job chain of
// the longest jobs (ids 0..2) plus six quick independents. The chain's
// weight dwarfs every other path, so the report's critical path cannot
// depend on worker placement.
void addSweepShape(ExperimentEngine &Engine) {
  JobId Prev = 0;
  for (int Stage = 0; Stage != 3; ++Stage) {
    std::vector<JobId> Deps;
    if (Stage != 0)
      Deps.push_back(Prev);
    Prev = Engine.addJob(
        "stage" + std::to_string(Stage), "chain-job",
        [](ObsSession *) {
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        },
        std::move(Deps));
  }
  for (int I = 0; I != 6; ++I)
    Engine.addJob("quick" + std::to_string(I), "leaf-job",
                  [](ObsSession *) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                  });
}

// The deterministic projection of a sweep report: structure and outcomes,
// no timestamps and no worker placement.
std::string sweepReportShape(const JsonValue &Report) {
  std::ostringstream OS;
  const JsonValue *Jobs = Report.get("jobs");
  for (const JsonValue &J : Jobs->items()) {
    OS << J.get("id")->asUInt() << ":" << J.get("name")->asString() << ":"
       << J.get("category")->asString() << ":deps[";
    for (const JsonValue &D : J.get("deps")->items())
      OS << D.asUInt() << ",";
    OS << "]:" << (J.get("ok")->asBool() ? "ok" : "fail") << "\n";
  }
  OS << "critical:";
  for (const JsonValue &Id : Report.get("critical_path")->get("jobs")->items())
    OS << Id.asUInt() << ",";
  const JsonValue *Sched = Report.get("scheduler");
  OS << "\nsched:" << Sched->get("jobs_enqueued")->asUInt() << "/"
     << Sched->get("jobs_started")->asUInt() << "/"
     << Sched->get("jobs_finished")->asUInt() << "/"
     << Sched->get("jobs_failed")->asUInt() << "/"
     << Sched->get("jobs_skipped")->asUInt();
  return OS.str();
}

// The sweep report's deterministic projection — jobs, dependency edges,
// outcomes, the critical path, and the scheduler's job accounting — is
// identical whatever the thread count; only timestamps and placement may
// move.
TEST(ExperimentEngine, SweepReportShapeIdenticalSerialVsParallel) {
  auto Run = [](unsigned Threads) {
    EngineOptions Opts;
    Opts.Threads = Threads;
    Opts.Obs.Enabled = true;
    ExperimentEngine Engine(Opts);
    addSweepShape(Engine);
    Engine.run();
    return Engine.sweepReport();
  };
  JsonValue Serial = Run(1);
  std::string Shape = sweepReportShape(Serial);
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE(Threads);
    EXPECT_EQ(sweepReportShape(Run(Threads)), Shape);
  }
  // And the forced shape is actually forced: the chain is the path.
  const JsonValue *Chain = Serial.get("critical_path")->get("jobs");
  ASSERT_EQ(Chain->size(), 3u);
  EXPECT_EQ(Chain->at(0).asUInt(), 0u);
  EXPECT_EQ(Chain->at(1).asUInt(), 1u);
  EXPECT_EQ(Chain->at(2).asUInt(), 2u);
}

TEST(ExperimentEngine, SweepReportInvariantsAndSchedulerTelemetry) {
  EngineOptions Opts;
  Opts.Threads = 2;
  Opts.Obs.Enabled = true;
  ExperimentEngine Engine(Opts);
  addSweepShape(Engine);
  Engine.run();

  JsonValue Report = Engine.sweepReport();
  EXPECT_EQ(Report.get("schema")->asString(), SweepReportSchemaV1);
  const JsonValue *Jobs = Report.get("jobs");
  ASSERT_NE(Jobs, nullptr);
  ASSERT_EQ(Jobs->size(), 9u);
  for (const JsonValue &J : Jobs->items()) {
    uint64_t Id = J.get("id")->asUInt();
    EXPECT_EQ(J.get("finish_us")->asUInt(),
              J.get("start_us")->asUInt() + J.get("run_us")->asUInt());
    EXPECT_GE(J.get("start_us")->asUInt(), J.get("ready_us")->asUInt());
    EXPECT_EQ(J.get("queue_wait_us")->asUInt(),
              J.get("start_us")->asUInt() - J.get("ready_us")->asUInt());
    for (const JsonValue &D : J.get("deps")->items())
      EXPECT_LT(D.asUInt(), Id);
  }

  // sum(critical chain durations) == duration_us <= wall_us.
  const JsonValue *Crit = Report.get("critical_path");
  uint64_t ChainSum = 0;
  for (const JsonValue &Id : Crit->get("jobs")->items())
    ChainSum += Jobs->at(Id.asUInt()).get("run_us")->asUInt();
  EXPECT_EQ(Crit->get("duration_us")->asUInt(), ChainSum);
  EXPECT_LE(Crit->get("duration_us")->asUInt(),
            Crit->get("wall_us")->asUInt());

  const JsonValue *Sched = Report.get("scheduler");
  ASSERT_NE(Sched, nullptr);
  EXPECT_EQ(Sched->get("jobs_enqueued")->asUInt(), 9u);
  EXPECT_EQ(Sched->get("workers")->size(), 2u);

  // The same accounting flows into the session registry as engine.*
  // metrics.
  const MetricsRegistry &Reg = Engine.obs()->registry();
  EXPECT_EQ(Reg.counters().at("engine.jobs.enqueued").value(), 9u);
  EXPECT_EQ(Reg.counters().at("engine.jobs.finished").value(), 9u);
  EXPECT_EQ(Reg.counters().at("engine.jobs.failed").value(), 0u);
  EXPECT_EQ(Reg.histograms().at("engine.job.run_us").count(), 9u);
}

// The flight recorder's ring is bounded and its dump names the job that
// was in flight — the crash/hang post-mortem contract, minus the signal
// (scripts/check_flight_recorder.sh covers the real SIGSEGV/watchdog
// paths out of process).
TEST(FlightRecorder, DumpNamesInFlightJobAndKeepsNewestEvents) {
  FlightRecorder R(2, 8);
  R.bindThread(0);
  for (int I = 0; I != 40; ++I) {
    std::string Name = "job" + std::to_string(I);
    R.jobStart(0, Name.c_str(), "leaf-job");
    R.jobFinish(0, Name.c_str(), true);
  }
  R.jobStart(0, "wedged", "chain-job");
  FlightRecorder::unbindThread();

  std::string Path = testing::TempDir() + "flightrec_inflight.json";
  ASSERT_TRUE(R.dumpFile(Path.c_str(), "request"));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Buf.str(), Doc));
  EXPECT_EQ(Doc.get("schema")->asString(), FlightRecSchemaV1);
  EXPECT_EQ(Doc.get("reason")->asString(), "request");
  const JsonValue *Workers = Doc.get("workers");
  ASSERT_NE(Workers, nullptr);
  ASSERT_EQ(Workers->size(), 2u);

  const JsonValue &Lane = Workers->at(0);
  EXPECT_TRUE(Lane.get("in_flight")->asBool());
  EXPECT_EQ(Lane.get("current_job")->asString(), "wedged");
  const JsonValue *Events = Lane.get("events");
  ASSERT_NE(Events, nullptr);
  // Bounded: the ring holds at most 8 slots, and the newest event is the
  // wedged job's start; the earliest jobs were lapped away.
  EXPECT_LE(Events->size(), 8u);
  ASSERT_GT(Events->size(), 0u);
  EXPECT_EQ(Events->at(Events->size() - 1).get("name")->asString(),
            "wedged");
  for (const JsonValue &E : Events->items())
    EXPECT_NE(E.get("name")->asString(), "job0");
  // The idle lane dumped too, empty.
  EXPECT_FALSE(Workers->at(1).get("in_flight")->asBool());
}

// Writers on distinct lanes with concurrent dumps: the seqlock protocol
// must keep this race-free (TSan runs this in CI) and every completed
// dump parseable.
TEST(FlightRecorder, ConcurrentLanesAndDumpsStayConsistent) {
  constexpr unsigned Lanes = 4;
  FlightRecorder R(Lanes, 16);
  std::atomic<bool> Stop{false};
  // Every writer records its first job before the dumps begin, so no lane
  // is still empty when the writers are stopped, however late the
  // scheduler starts a writer thread.
  std::latch Started(Lanes);
  std::vector<std::thread> Writers;
  for (unsigned W = 0; W != Lanes; ++W)
    Writers.emplace_back([&R, W, &Stop, &Started] {
      R.bindThread(W);
      for (int I = 0; !Stop.load(std::memory_order_relaxed) && I != 4000;
           ++I) {
        std::string Name = numbered(numbered("w", W) + ":", I);
        R.jobStart(W, Name.c_str(), "race-job");
        FlightRecorder::notePhase("execute");
        R.jobFinish(W, Name.c_str(), true);
        if (I == 0)
          Started.count_down();
      }
      FlightRecorder::unbindThread();
    });

  // Dump repeatedly while the writers are spinning; a reader must never
  // block a writer or tear an event.
  Started.wait();
  std::string Path = testing::TempDir() + "flightrec_race.json";
  for (int D = 0; D != 20; ++D)
    ASSERT_TRUE(R.dumpFile(Path.c_str(), "request"));
  Stop = true;
  for (std::thread &T : Writers)
    T.join();

  ASSERT_TRUE(R.dumpFile(Path.c_str(), "request"));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Buf.str(), Doc));
  const JsonValue *Workers = Doc.get("workers");
  ASSERT_EQ(Workers->size(), Lanes);
  for (const JsonValue &Lane : Workers->items()) {
    EXPECT_FALSE(Lane.get("in_flight")->asBool());
    // Quiesced: every retained slot is stable, so the full ring dumps.
    EXPECT_GT(Lane.get("events")->size(), 0u);
  }
}

// For every profiling method, the profiles of a 4-thread sweep are
// byte-identical to the 1-thread sweep's (the timed half is
// ParallelSuiteMatchesSerialForAllMethods).
TEST(ExperimentEngine, ParallelSweepMatchesSerialForAllMethods) {
  ChaseWorkload W;
  SweepSpec Spec;
  Spec.Workloads = {&W};
  Spec.Methods = allProfilingMethods();
  Spec.WithMemorySystem = false;

  ExperimentEngine Serial(withThreads(1));
  ExperimentEngine Parallel(withThreads(4));
  SweepResult RS = Serial.runSweep(Spec);
  SweepResult RP = Parallel.runSweep(Spec);

  ASSERT_EQ(RS.Cells.size(), Spec.Methods.size());
  ASSERT_EQ(RP.Cells.size(), RS.Cells.size());

  for (size_t I = 0; I != RS.Cells.size(); ++I) {
    const SweepCell &S = RS.Cells[I];
    const SweepCell &P = RP.Cells[I];
    ASSERT_EQ(P.Method, S.Method);
    SCOPED_TRACE(profilingMethodName(S.Method));

    // Profiles serialize to the same bytes.
    EXPECT_EQ(profileText(P), profileText(S));
    EXPECT_EQ(P.Profile.Stats.Instructions, S.Profile.Stats.Instructions);
    EXPECT_EQ(P.Profile.StrideInvocations, S.Profile.StrideInvocations);
  }
}

TEST(ExperimentEngine, SeedOffsetZeroReproducesStandalonePipeline) {
  ChaseWorkload W;
  SweepSpec Spec;
  Spec.Workloads = {&W};
  Spec.Methods = {ProfilingMethod::EdgeCheck};
  Spec.SeedOffsets = {0, 1};
  Spec.WithMemorySystem = false;

  ExperimentEngine Engine(withThreads(2));
  SweepResult R = Engine.runSweep(Spec);
  ASSERT_EQ(R.Cells.size(), 2u);

  const SweepCell *Canonical =
      R.find(&W, ProfilingMethod::EdgeCheck, DataSet::Train, 0);
  const SweepCell *Replica =
      R.find(&W, ProfilingMethod::EdgeCheck, DataSet::Train, 1);
  ASSERT_NE(Canonical, nullptr);
  ASSERT_NE(Replica, nullptr);

  // Offset 0 is the canonical build: bit-identical to a plain Pipeline.
  Pipeline P(W);
  ProfileRunResult Direct =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train,
                   /*WithMemorySystem=*/false);
  ProfileStore DirectStore({W.info().Name, "edge-check", "train"},
                           Direct.Edges, Direct.Strides);
  EXPECT_EQ(profileText(*Canonical), DirectStore.toString());

  // A non-zero offset owns a different RNG stream, so its profile is a
  // genuine replica, not a copy.
  EXPECT_NE(profileText(*Replica), profileText(*Canonical));
}

// The chase re-entered from an outer pass loop, so the check methods'
// trip guards fire and some methods insert prefetches.
class PassesChaseWorkload : public Workload {
public:
  WorkloadInfo info() const override {
    return {"test.chase.passes", "c", "re-entered pointer chase"};
  }
  Program build(const BuildRequest &Req) const override {
    Program P;
    uint32_t DataSite = 0, NextSite = 0;
    P.M = makePassesChaseModule(4, DataSite, NextSite);
    uint64_t Count = (Req.DS == DataSet::Train ? 160 : 224) +
                     (Req.seed(0x9a55) & 15);
    fillChaseList(P.Memory, Count, 64);
    return P;
  }
};

/// Every counter, gauge and histogram outside the engine.* namespace (the
/// scheduler's own accounting), one per line.
std::string registryText(const MetricsRegistry &Reg) {
  auto Keep = [](const std::string &Name) {
    return Name.rfind("engine.", 0) != 0;
  };
  std::ostringstream OS;
  for (const auto &[Name, C] : Reg.counters())
    if (Keep(Name))
      OS << "counter " << Name << " " << C.value() << "\n";
  for (const auto &[Name, G] : Reg.gauges())
    if (Keep(Name))
      OS << "gauge " << Name << " " << G.value() << "\n";
  for (const auto &[Name, H] : Reg.histograms()) {
    if (!Keep(Name))
      continue;
    OS << "histogram " << Name << " " << H.count() << " " << H.sum() << " "
       << H.min() << " " << H.max();
    for (uint64_t B : H.bucketCounts())
      OS << " " << B;
    OS << "\n";
  }
  return OS.str();
}

/// \p Text, the registryText of runs that profiled alone, with counter
/// \p Name at \p N in its sorted place: the fan-out's pipeline.profile_*
/// counts of the same runs served by their family's execution.
std::string withCounter(std::string Text, const std::string &Name,
                        uint64_t N = 1) {
  size_t At = 0;
  while (Text.compare(At, 8, "counter ") == 0 &&
         Text.compare(At + 8, Name.size() + 1, Name + " ") < 0)
    At = Text.find('\n', At) + 1;
  Text.insert(At, numbered("counter " + Name + " ", N) + "\n");
  return Text;
}

/// withCounter for a naive-family fan-out's naive-loop-based method
/// \p Method: a derived naive-loop, a sliced sample-naive-loop; \p Text
/// unchanged for any other method.
std::string withFanOutCount(std::string Text, ProfilingMethod Method,
                            uint64_t N = 1) {
  if (Method == ProfilingMethod::NaiveLoop)
    return withCounter(std::move(Text), "pipeline.profile_derived", N);
  if (Method == ProfilingMethod::SampleNaiveLoop)
    return withCounter(std::move(Text), "pipeline.profile_sliced", N);
  return Text;
}

std::string measurementsText(const std::vector<BenchMeasurement> &BMs) {
  std::string Text;
  for (const BenchMeasurement &BM : BMs)
    Text += benchMeasurementToJson(BM).str(0) + "\n";
  return Text;
}

// For every profiling method, the timed half -- prefetches inserted per
// verdict class, prefetched cycles and speedups -- of a 4-thread suite is
// byte-identical to the 1-thread suite's.
TEST(ExperimentEngine, ParallelSuiteMatchesSerialForAllMethods) {
  ChaseWorkload Chase;
  PassesChaseWorkload Passes;
  const std::vector<const Workload *> WL = {&Chase, &Passes};
  ExperimentEngine Serial(withThreads(1));
  ExperimentEngine Parallel(withThreads(4));
  std::vector<BenchMeasurement> S =
      measureSuite(Serial, WL, {}, allProfilingMethods());
  std::vector<BenchMeasurement> P =
      measureSuite(Parallel, WL, {}, allProfilingMethods());
  ASSERT_EQ(S.size(), WL.size());
  EXPECT_EQ(measurementsText(P), measurementsText(S));
  for (const BenchMeasurement &BM : S) {
    ASSERT_EQ(BM.Methods.size(), allProfilingMethods().size());
    for (const auto &[M, MM] : BM.Methods)
      EXPECT_GT(MM.Speedup, 0.0) << BM.Name << " " << profilingMethodName(M);
  }
}

/// measureSuite's calls, in its job order, through one memo-free Pipeline
/// per workload reporting into \p Obs.
std::vector<BenchMeasurement>
measureWithoutMemo(const std::vector<const Workload *> &Workloads,
                   const std::vector<ProfilingMethod> &Methods,
                   ObsSession *Obs) {
  std::vector<BenchMeasurement> Results;
  for (const Workload *W : Workloads) {
    Pipeline P(*W, {}, Obs);
    BenchMeasurement BM;
    BM.Name = W->info().Name;
    BM.BaselineRefCycles = P.runBaseline(DataSet::Ref).Cycles;
    BM.EdgeOnlyTrainCycles =
        P.runProfile(ProfilingMethod::EdgeOnly, DataSet::Train).Stats.Cycles;
    for (ProfilingMethod M : Methods) {
      MethodMeasurement &MM = BM.Methods[M];
      ProfileRunResult PR = P.runProfile(M, DataSet::Train);
      MM.ProfiledCycles = PR.Stats.Cycles;
      MM.StrideInvocations = PR.StrideInvocations;
      MM.StrideProcessed = PR.StrideProcessed;
      MM.LfuCalls = PR.LfuCalls;
      MM.TrainLoadRefs = PR.Stats.LoadRefs;
      TimedRunResult TR = P.runPrefetched(DataSet::Ref, PR.Edges, PR.Strides);
      MM.Prefetches = TR.Prefetches;
      MM.PrefetchedRefCycles = TR.Stats.Cycles;
      MM.RefMemory = TR.Stats.Mem;
      MM.Speedup = static_cast<double>(BM.BaselineRefCycles) /
                   static_cast<double>(MM.PrefetchedRefCycles);
    }
    Results.push_back(std::move(BM));
  }
  return Results;
}

// The memo's contract: a memoized suite produces the results and the
// telemetry of the same calls made without it. Hits replay the first
// run's interp.* metric delta into their own job scope.
TEST(RunMemo, SuiteMatchesMemoFreePipelines) {
  ChaseWorkload Chase;
  PassesChaseWorkload Passes;
  const std::vector<const Workload *> WL = {&Chase, &Passes};
  const std::vector<ProfilingMethod> Methods = paperStrideMethods();

  EngineOptions Opts;
  Opts.Threads = 4;
  Opts.Obs.Enabled = true;
  ExperimentEngine Engine(Opts);
  std::vector<BenchMeasurement> Memoized =
      measureSuite(Engine, WL, {}, Methods);

  ObsConfig RefConfig;
  RefConfig.Enabled = true;
  ObsSession Ref(RefConfig);
  std::vector<BenchMeasurement> Plain = measureWithoutMemo(WL, Methods, &Ref);

  // The suite's naive-loop runs are derived from the naive-all profiler
  // of the naive family's execution, and its sample-naive-loop runs sliced
  // from it.
  EXPECT_EQ(measurementsText(Memoized), measurementsText(Plain));
  EXPECT_EQ(registryText(Engine.obs()->registry()),
            withCounter(withCounter(registryText(Ref.registry()),
                                    "pipeline.profile_derived", WL.size()),
                        "pipeline.profile_sliced", WL.size()));

  // The suite did repeat runs, and the memo caught them: per workload one
  // baseline plus one prefetched run per method, and the un-instrumented
  // train run behind the edge-only run and each family's execution (the
  // naive family and the edge-check pair).
  const SweepSchedulerStats &S = Engine.schedStats();
  EXPECT_EQ(S.RunMemoHits + S.RunMemoMisses,
            WL.size() * (1 + Methods.size() + 1 + 2));
  EXPECT_GT(S.RunMemoHits, 0u);
  EXPECT_GT(S.RunMemoSavedInstructions, 0u);
  const MetricsRegistry &Reg = Engine.obs()->registry();
  EXPECT_EQ(Reg.counters().at("engine.run_memo.hits").value(), S.RunMemoHits);
  EXPECT_EQ(Reg.counters().at("engine.run_memo.misses").value(),
            S.RunMemoMisses);
  EXPECT_EQ(Reg.counters().at("engine.run_memo.saved_instructions").value(),
            S.RunMemoSavedInstructions);
}

// Requests for a key still executing park until it publishes, so misses
// equal the distinct keys and parked attempts' requests never count: the
// counts are the same whatever the thread count.
TEST(RunMemo, CountsIdenticalAcrossThreadCounts) {
  ChaseWorkload Chase;
  PassesChaseWorkload Passes;
  auto Counts = [&](unsigned Threads) {
    ExperimentEngine Engine(withThreads(Threads));
    measureSuite(Engine, {&Chase, &Passes});
    measureSuiteSensitivity(Engine, {&Chase, &Passes});
    const SweepSchedulerStats &S = Engine.schedStats();
    return std::make_tuple(S.RunMemoHits, S.RunMemoMisses,
                           S.RunMemoSavedInstructions);
  };
  auto Serial = Counts(1);
  EXPECT_GT(std::get<0>(Serial), 0u);
  EXPECT_EQ(Counts(4), Serial);
}

// Eight same-key jobs on four workers: one executes, the requests that
// find it in flight park instead of blocking, and every job gets the run.
// The flight recorder logs each parked attempt as a "parked" mark.
TEST(RunMemo, ConcurrentRequestsExecuteOnce) {
  EngineOptions Opts = withThreads(4);
  Opts.Obs.FlightRecorder = true;
  Opts.Obs.FlightRecorderSignals = false;
  ExperimentEngine Engine(Opts);
  RunMemo *Memo = Engine.runMemo();
  RunMemoKey Key;
  std::atomic<int> Executions{0}, Parked{0};
  constexpr unsigned Jobs = 8;
  std::vector<uint64_t> Seen(Jobs, 0);
  for (unsigned J = 0; J != Jobs; ++J)
    Engine.addJob("request" + std::to_string(J), "test",
                  [&, J](ObsSession *) {
                    JobGraph::onPark([&] { ++Parked; });
                    Seen[J] = Memo->run(Key, [&] {
                                    ++Executions;
                                    // Hold the key in flight until some
                                    // request has parked on it.
                                    spinUntil([&] { return Parked > 0; });
                                    MemoizedRun R;
                                    R.Stats.Instructions = 42;
                                    return R;
                                  })
                                  ->Stats.Instructions;
                  });
  Engine.run();
  EXPECT_EQ(Executions.load(), 1);
  EXPECT_EQ(Seen, std::vector<uint64_t>(Jobs, 42));
  const SweepSchedulerStats &S = Engine.schedStats();
  EXPECT_EQ(S.RunMemoMisses, 1u);
  EXPECT_EQ(S.RunMemoHits, Jobs - 1);
  EXPECT_EQ(S.RunMemoSavedInstructions, 42u * (Jobs - 1));
  EXPECT_GT(S.RunMemoParks, 0u);
  EXPECT_EQ(S.RunMemoParks, static_cast<uint64_t>(Parked.load()));

  std::string Path = testing::TempDir() + "flightrec_parked.json";
  ASSERT_TRUE(Engine.flightRecorder()->dumpFile(Path.c_str(), "request"));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Buf.str(), Doc));
  uint64_t ParkMarks = 0, Finishes = 0;
  for (const JsonValue &Lane : Doc.get("workers")->items()) {
    EXPECT_FALSE(Lane.get("in_flight")->asBool());
    for (const JsonValue &E : Lane.get("events")->items()) {
      const std::string Kind = E.get("kind")->asString();
      ParkMarks += Kind == "mark" && E.get("name")->asString() == "parked";
      Finishes += Kind == "job-finish";
    }
  }
  EXPECT_EQ(ParkMarks, S.RunMemoParks);
  EXPECT_EQ(Finishes, Jobs);
}

// A job whose second request parks re-runs its first one too; the parked
// attempt withdraws that request, so it counts once, as in a serial run.
TEST(RunMemo, ParkedAttemptWithdrawsItsRequests) {
  ExperimentEngine Engine(withThreads(2));
  RunMemo *Memo = Engine.runMemo();
  RunMemoKey First, Second;
  Second.SeedOffset = 1;
  std::atomic<bool> Executing{false};
  std::atomic<int> Parked{0};
  auto Run = [](uint64_t Instructions) {
    MemoizedRun R;
    R.Stats.Instructions = Instructions;
    return R;
  };
  Engine.addJob("executor", "test", [&](ObsSession *) {
    Memo->run(Second, [&] {
      Executing = true;
      spinUntil([&] { return Parked > 0; });
      return Run(7);
    });
  });
  Engine.addJob("two-requests", "test", [&](ObsSession *) {
    JobGraph::onPark([&] { ++Parked; });
    Memo->run(First, [&] { return Run(5); });
    spinUntil([&] { return Executing.load(); });
    Memo->run(Second, [&] { return Run(7); });
  });
  Engine.run();
  const SweepSchedulerStats &S = Engine.schedStats();
  EXPECT_EQ(S.RunMemoParks, 1u);
  EXPECT_EQ(S.RunMemoMisses, 2u);
  EXPECT_EQ(S.RunMemoHits, 1u);
  EXPECT_EQ(S.RunMemoSavedInstructions, 7u);
}

// A failed execution fails every request parked on it with the same error,
// and their dependents are skipped.
TEST(RunMemo, ExecutorFailureFailsEveryParkedRequest) {
  ExperimentEngine Engine(withThreads(4));
  RunMemo *Memo = Engine.runMemo();
  RunMemoKey Key;
  std::atomic<bool> Executing{false};
  std::atomic<int> Parked{0};
  constexpr int Waiters = 3;
  Engine.addJob("executor", "test", [&](ObsSession *) {
    Memo->run(Key, [&]() -> MemoizedRun {
      Executing = true;
      spinUntil([&] { return Parked == Waiters; });
      throw std::runtime_error("timed run failed");
    });
  });
  std::vector<JobId> Requests;
  for (int I = 0; I != Waiters; ++I) {
    JobId R = Engine.addJob("request" + std::to_string(I), "test",
                            [&](ObsSession *) {
                              spinUntil([&] { return Executing.load(); });
                              JobGraph::onPark([&] { ++Parked; });
                              Memo->run(Key, [] { return MemoizedRun(); });
                            });
    Requests.push_back(R);
    Engine.addJob("dependent" + std::to_string(I), "test",
                  [](ObsSession *) {}, {R});
  }
  EXPECT_THROW(Engine.run(), std::runtime_error);

  const std::vector<JobOutcome> &Outcomes = Engine.lastOutcomes();
  EXPECT_EQ(Outcomes[0].Error, "timed run failed");
  for (JobId R : Requests) {
    EXPECT_TRUE(Outcomes[R].Ran);
    EXPECT_FALSE(Outcomes[R].Ok);
    EXPECT_EQ(Outcomes[R].Error, "timed run failed");
    EXPECT_FALSE(Outcomes[R + 1].Ran);
    EXPECT_NE(Outcomes[R + 1].Error.find("skipped"), std::string::npos);
  }
  EXPECT_EQ(Engine.schedStats().RunMemoParks,
            static_cast<uint64_t>(Waiters));
  EXPECT_EQ(Engine.schedStats().RunMemoMisses, 1u);
  EXPECT_EQ(Engine.schedStats().RunMemoHits, 0u);
}

/// A chase whose ref run is long next to the job prefix before it (build,
/// feedback, prefetch insertion, hashing), so same-key feedback jobs of one
/// workload overlap the executing run and park.
class LongRefChaseWorkload : public Workload {
public:
  WorkloadInfo info() const override {
    return {"test.chase.longref", "c", "pointer chase, long ref input"};
  }
  Program build(const BuildRequest &Req) const override {
    Program P;
    uint32_t DataSite = 0, NextSite = 0;
    P.M = makePassesChaseModule(Req.DS == DataSet::Train ? 4 : 64, DataSite,
                                NextSite);
    fillChaseList(P.Memory, Req.DS == DataSet::Train ? 160 : 2048, 64);
    return P;
  }
};

// Parks are invisible to results and telemetry: a 4-thread measureSuite
// wave whose jobs parked leaves the session registry, outside the
// schedule-dependent engine.* namespace, equal to the serial one.
TEST(RunMemo, ParkedWaveMatchesSerialRegistry) {
  LongRefChaseWorkload Long;
  PassesChaseWorkload Passes;
  const std::vector<const Workload *> WL = {&Long, &Passes};
  auto Run = [&](unsigned Threads, uint64_t &Parks) {
    EngineOptions Opts;
    Opts.Threads = Threads;
    Opts.Obs.Enabled = true;
    ExperimentEngine Engine(Opts);
    std::string Text = measurementsText(measureSuite(Engine, WL));
    Parks = Engine.schedStats().RunMemoParks;
    EXPECT_EQ(Engine.obs()->registry().counters().at(
                  "engine.run_memo.parks").value(),
              Parks);
    return Text + registryText(Engine.obs()->registry());
  };
  uint64_t SerialParks = 0;
  const std::string Serial = Run(1, SerialParks);
  EXPECT_EQ(SerialParks, 0u);
  // Parks depend on the schedule; retry until a wave parked.
  uint64_t Parks = 0;
  for (int Try = 0; Try != 20 && Parks == 0; ++Try)
    EXPECT_EQ(Run(4, Parks), Serial);
  EXPECT_GT(Parks, 0u);
}

// The key holds everything a timed run reads: a Reference-engine run never
// shares an entry with a Decoded one, and neither do runs under two memory
// configurations.
TEST(RunMemo, KeySeparatesEnginesAndMemoryConfigs) {
  ChaseWorkload W;
  PipelineConfig Decoded;
  PipelineConfig Reference;
  Reference.Interp.Exec = InterpreterConfig::Engine::Reference;
  PipelineConfig SlowMemory;
  SlowMemory.Memory.MemoryLatency *= 2;
  const PipelineConfig *Configs[] = {&Decoded, &Reference, &SlowMemory};

  ExperimentEngine Engine(withThreads(4));
  uint64_t Cycles[3][2] = {};
  for (unsigned CI = 0; CI != 3; ++CI)
    for (unsigned Rep = 0; Rep != 2; ++Rep) {
      uint64_t *Out = &Cycles[CI][Rep];
      const PipelineConfig *C = Configs[CI];
      RunMemo *Memo = Engine.runMemo();
      Engine.addJob("baseline", "baseline-job",
                    [&W, C, Out, Memo](ObsSession *JobObs) {
                      *Out = Pipeline(W, *C, JobObs, Memo)
                                 .runBaseline(DataSet::Ref)
                                 .Cycles;
                    });
    }
  Engine.run();

  EXPECT_EQ(Engine.schedStats().RunMemoMisses, 3u);
  EXPECT_EQ(Engine.schedStats().RunMemoHits, 3u);
  for (unsigned CI = 0; CI != 3; ++CI)
    EXPECT_EQ(Cycles[CI][0], Cycles[CI][1]);
  // Both engines account identically, yet each executed its own run.
  EXPECT_EQ(Cycles[1][0], Cycles[0][0]);
  EXPECT_GT(Cycles[2][0], Cycles[0][0]);

  // The memo is per wave: the next wave starts empty.
  Engine.addJob("baseline", "baseline-job",
                [&W, &Engine](ObsSession *JobObs) {
                  Pipeline(W, {}, JobObs, Engine.runMemo())
                      .runBaseline(DataSet::Ref);
                });
  Engine.run();
  EXPECT_EQ(Engine.schedStats().RunMemoMisses, 4u);
}

// Self-profiler samples belong to the run that took them, so a profiled
// session always executes.
TEST(RunMemo, SelfProfiledSessionBypassesTheMemo) {
  ChaseWorkload W;
  EngineOptions Opts;
  Opts.Obs.Enabled = true;
  Opts.Obs.SelfProfile = true;
  ExperimentEngine Engine(Opts);
  measureSuite(Engine, {&W}, {}, {ProfilingMethod::EdgeCheck});
  EXPECT_EQ(Engine.schedStats().RunMemoHits, 0u);
  EXPECT_EQ(Engine.schedStats().RunMemoMisses, 0u);
}

/// Counts the programs the wrapped workload builds.
class CountingWorkload : public Workload {
public:
  explicit CountingWorkload(const Workload &Inner) : Inner(Inner) {}
  WorkloadInfo info() const override { return Inner.info(); }
  Program build(const BuildRequest &Req) const override {
    ++Builds;
    return Inner.build(Req);
  }

  mutable std::atomic<uint64_t> Builds{0};

private:
  const Workload &Inner;
};

// The module cache: every run takes its module from the wave's memo and
// its memory image only when it executes, so a memo hit builds nothing.
// The first executing run takes the image its module's build left, runs
// that overlap it share it, and a run that overlaps none builds it again:
// per workload a one-method measureSuite wave builds at least one program
// per request (ref and train) and at most one per execution (the memo's
// misses and the two profile executions, edge-only and edge-check). The
// memo counts every build. Results agree at 1 and 4 threads.
TEST(RunMemo, ModuleCacheBuildsImagesOnlyOnMisses) {
  ChaseWorkload Chase;
  PassesChaseWorkload Passes;
  auto Run = [&](unsigned Threads) {
    CountingWorkload CountedChase(Chase), CountedPasses(Passes);
    const std::vector<const Workload *> WL = {&CountedChase, &CountedPasses};
    ExperimentEngine Engine(withThreads(Threads));
    const std::string Text = measurementsText(
        measureSuite(Engine, WL, {}, {ProfilingMethod::EdgeCheck}));
    const SweepSchedulerStats &S = Engine.schedStats();
    const uint64_t Builds = CountedChase.Builds + CountedPasses.Builds;
    EXPECT_EQ(Builds, S.RunMemoImageBuilds);
    EXPECT_GE(Builds, WL.size() * 2);
    EXPECT_LE(Builds, S.RunMemoMisses + WL.size() * 2);
    EXPECT_GT(S.RunMemoHits, 0u);
    return std::make_tuple(Text, S.RunMemoHits, S.RunMemoMisses);
  };
  EXPECT_EQ(Run(4), Run(1));
}

// Four runs of one request that execute at once on four workers share one
// base image: the module's build is the only build, the first run takes
// its image and the other three share it, and every run reads the same
// program off its own overlay.
TEST(RunMemo, FourConcurrentRunsOfOneRequestBuildOnce) {
  ChaseWorkload Chase;
  CountingWorkload Counted(Chase);
  ExperimentEngine Engine(withThreads(4));
  RunMemo *Memo = Engine.runMemo();
  constexpr unsigned Runs = 4;
  std::atomic<unsigned> Holding{0};
  std::vector<RunStats> Stats(Runs);
  for (unsigned J = 0; J != Runs; ++J)
    Engine.addJob("run" + std::to_string(J), "test", [&, J](ObsSession *) {
      const std::shared_ptr<const Module> M =
          Memo->module(Counted, DataSet::Ref);
      Interpreter I(*M, SimMemory(Memo->image(Counted, DataSet::Ref)));
      // Keep this run's image until every run holds one.
      ++Holding;
      ASSERT_TRUE(spinUntil([&] { return Holding == Runs; }));
      Stats[J] = I.run();
    });
  Engine.run();
  EXPECT_EQ(Counted.Builds.load(), 1u);
  const SweepSchedulerStats &S = Engine.schedStats();
  EXPECT_EQ(S.RunMemoImageBuilds, 1u);
  EXPECT_EQ(S.RunMemoImageShares, Runs - 1);
  for (const RunStats &R : Stats) {
    EXPECT_TRUE(R.Completed);
    EXPECT_EQ(R.Instructions, Stats[0].Instructions);
    EXPECT_EQ(R.ExitValue, Stats[0].ExitValue);
  }
}

// A request for a module another job is still building parks, and every
// job gets the one module built. The first image request takes the image
// that build left; the next one builds.
TEST(RunMemo, ModuleCacheParksConcurrentRequests) {
  ChaseWorkload Chase;
  CountingWorkload Counted(Chase);
  ExperimentEngine Engine(withThreads(4));
  RunMemo *Memo = Engine.runMemo();
  constexpr unsigned Jobs = 8;
  std::vector<std::shared_ptr<const Module>> Seen(Jobs);
  std::vector<JobId> Requests;
  for (unsigned J = 0; J != Jobs; ++J)
    Requests.push_back(Engine.addJob(
        "module" + std::to_string(J), "test", [&, J](ObsSession *) {
          Seen[J] = Memo->module(Counted, DataSet::Ref);
        }));
  uint64_t BuildsAfterModules = 0, BuildsAfterImages = 0;
  size_t LeftPages = 0, BuiltPages = 0;
  Engine.addJob(
      "images", "test",
      [&](ObsSession *) {
        BuildsAfterModules = Counted.Builds;
        LeftPages = Memo->image(Counted, DataSet::Ref)->numPages();
        BuiltPages = Memo->image(Counted, DataSet::Ref)->numPages();
        BuildsAfterImages = Counted.Builds;
      },
      Requests);
  Engine.run();
  EXPECT_EQ(BuildsAfterModules, 1u);
  for (const std::shared_ptr<const Module> &M : Seen)
    EXPECT_EQ(M, Seen[0]);
  EXPECT_EQ(BuildsAfterImages, 2u);
  EXPECT_NE(LeftPages, 0u);
  EXPECT_EQ(LeftPages, BuiltPages);

  // The next wave starts empty.
  Engine.addJob("module", "test",
                [&](ObsSession *) { Memo->module(Counted, DataSet::Ref); });
  Engine.run();
  EXPECT_EQ(Counted.Builds.load(), 3u);
}

// -- Profile fan-out ---------------------------------------------------------

std::string cellTag(const SweepCell &Cell) {
  std::string Tag = Cell.W->info().Name + "/" +
                    profilingMethodName(Cell.Method) + "/" +
                    dataSetName(Cell.ProfileDS);
  if (Cell.SeedOffset != 0)
    Tag += "/seed" + std::to_string(Cell.SeedOffset);
  return Tag;
}

// The chase behind one out-loop load, of the list head's data word, so
// naive-loop's trap stream is a proper slice of naive-all's.
class OutLoopChaseWorkload : public Workload {
public:
  WorkloadInfo info() const override {
    return {"test.chase.outloop", "c", "pointer chase after an out-loop load"};
  }
  Program build(const BuildRequest &Req) const override {
    Program P = ChaseWorkload().build(Req);
    Function &F = P.M.Functions[0];
    std::vector<Instruction> &Entry = F.Blocks[F.entryBlock()].Insts;
    Instruction Load;
    Load.Op = Opcode::Load;
    Load.Dst = F.newReg();
    Load.A = Operand::reg(Entry.front().Dst); // the list head
    Load.Imm = 8;
    Load.SiteId = P.M.newLoadSite();
    Entry.insert(Entry.begin() + 1, Load);
    return P;
  }
};

/// The fan-out group of a cell: cells of one workload, seed offset and
/// input whose methods share an instrumentation family.
using GroupKey =
    std::tuple<const Workload *, uint64_t, DataSet, ProfilingMethod>;

GroupKey groupKey(const SweepCell &Cell) {
  return {Cell.W, Cell.SeedOffset, Cell.ProfileDS,
          instrumentationFamily(Cell.Method)};
}

/// A memsys-free sweep whose cells share their family's execution gives
/// every cell, job name and per-job metric scope that one runProfile per
/// cell would, but for the profile_derived count of each naive-loop cell,
/// read off the naive-all profiler's in-loop sites, and the profile_sliced
/// count of each sample-naive-loop cell, which profiles the in-loop slice
/// of the naive-all run. Both with naive-all leading the naive family
/// (every method) and with naive-loop leading it (the paper's order).
TEST(ExperimentEngine, ProfileFanOutMatchesPerCellRunsAtAnyThreadCount) {
  ChaseWorkload Chase;
  PassesChaseWorkload Passes;
  OutLoopChaseWorkload OutLoop;
  SweepSpec Spec;
  Spec.Workloads = {&Chase, &Passes, &OutLoop};
  Spec.ProfileInputs = {DataSet::Train, DataSet::Ref};
  Spec.SeedOffsets = {0, 3};
  Spec.WithMemorySystem = false;
  // (workload, seed offset, input) triples.
  const size_t Triples = Spec.Workloads.size() * Spec.SeedOffsets.size() *
                         Spec.ProfileInputs.size();

  ObsConfig Plain;
  Plain.Enabled = true;
  for (const std::vector<ProfilingMethod> &Methods :
       {allProfilingMethods(), paperStrideMethods()}) {
    Spec.Methods = Methods;
    for (unsigned Threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(std::string(profilingMethodName(Methods[0])) + " first, " +
                   std::to_string(Threads) + " threads");
      EngineOptions Opts = withThreads(Threads);
      Opts.Obs.Enabled = true;
      ExperimentEngine Engine(Opts);
      SweepResult R = Engine.runSweep(Spec);
      ASSERT_EQ(R.Cells.size(), Triples * Spec.Methods.size());

      // One run job per cell, in cell order.
      const std::vector<JobRecord> &Records = Engine.obs()->jobs();
      ASSERT_EQ(Records.size(), R.Cells.size());
      std::map<GroupKey, size_t> Leaders;
      size_t Shared = 0, Derived = 0, Sliced = 0;
      for (size_t I = 0; I != R.Cells.size(); ++I) {
        const SweepCell &Cell = R.Cells[I];
        const std::string Tag = cellTag(Cell);
        SCOPED_TRACE(Tag);
        const JobRecord &Run = Records[I];
        EXPECT_EQ(Run.Name, "profile:" + Tag);
        EXPECT_TRUE(Run.Ok);
        EXPECT_EQ(Run.Category, "run-job");

        // The first cell of a family ran the execution; every other cell
        // of it waits on that cell's run job.
        const auto [Leader, First] = Leaders.try_emplace(groupKey(Cell), I);
        if (First) {
          EXPECT_TRUE(Run.Deps.empty());
        } else {
          ++Shared;
          ASSERT_EQ(Run.Deps.size(), 1u);
          EXPECT_EQ(Records[Run.Deps[0]].Name, Records[Leader->second].Name);
        }

        PipelineConfig C = Spec.Config;
        C.WorkloadSeedOffset = Cell.SeedOffset;
        ObsSession RunObs(Plain);
        ProfileRunResult Alone = Pipeline(*Cell.W, C, &RunObs)
                                     .runProfile(Cell.Method, Cell.ProfileDS,
                                                 /*WithMemorySystem=*/false);
        expectSameStats(Cell.Profile.Stats, Alone.Stats);
        EXPECT_EQ(profileText(Cell), profileText(SweepCell{
                                         .W = Cell.W,
                                         .Method = Cell.Method,
                                         .ProfileDS = Cell.ProfileDS,
                                         .Profile = Alone}));
        EXPECT_EQ(Cell.Profile.Instr.ProfiledSites, Alone.Instr.ProfiledSites);
        EXPECT_EQ(Cell.Profile.StrideInvocations, Alone.StrideInvocations);
        EXPECT_EQ(Cell.Profile.StrideProcessed, Alone.StrideProcessed);
        EXPECT_EQ(Cell.Profile.LfuCalls, Alone.LfuCalls);
        Derived += Cell.Method == ProfilingMethod::NaiveLoop;
        Sliced += Cell.Method == ProfilingMethod::SampleNaiveLoop;
        EXPECT_EQ(registryText(Run.Metrics),
                  withFanOutCount(registryText(RunObs.registry()),
                                  Cell.Method));
      }
      // Per (workload, seed offset, input): three followers in the naive
      // family and one in the edge-check pair; one derived naive-loop cell
      // and one sliced sample-naive-loop cell.
      EXPECT_EQ(Shared, 4 * Triples);
      EXPECT_EQ(Derived, Triples);
      EXPECT_EQ(Sliced, Triples);
      MetricsRegistry &Reg = Engine.obs()->registry();
      EXPECT_EQ(Reg.counter("pipeline.profile_derived").value(), Derived);
      EXPECT_EQ(Reg.counter("pipeline.profile_sliced").value(), Sliced);
    }
  }
}

/// With a cache model, the cells of one instrumentation family still share
/// one execution, which runs without the cache model and takes its stalls
/// from the workload's un-instrumented train run (one memoized execution
/// per workload); naive-loop's cells read their profiles off the naive-all
/// profiler's in-loop sites and sample-naive-loop's profile the in-loop
/// slice of the naive-all run, in the paper's order, where naive-loop
/// leads the naive family. Over every suite workload's train runs of the
/// paper's six methods, each cell's RunStats (cache statistics included),
/// profile, job name, dependency and per-job metric scope equal a lone
/// memsys-on runProfile (plus profile_derived for a derived naive-loop
/// cell and profile_sliced for a sliced one), at any thread count, and
/// every cell counts one memsys-derived run. Under the Reference engine,
/// the executable spec, each group's methods run alone with their own
/// instrumentation, with the same cells, jobs and metrics, and none is
/// derived or sliced.
TEST(ExperimentEngine, MemsysProfileFanOutMatchesLoneRuns) {
  const std::vector<std::unique_ptr<Workload>> Suite = makeSpecIntSuite();
  SweepSpec Spec;
  Spec.Workloads = workloadPointers(Suite);
  Spec.Methods = paperStrideMethods();
  Spec.WithMemorySystem = true;

  ObsConfig Plain;
  Plain.Enabled = true;
  struct Lone {
    ProfileRunResult Run;
    std::string Metrics;
  };
  // The lone runs spread over four threads to keep the suite quick; each
  // fills its own preallocated entry.
  std::map<std::pair<const Workload *, ProfilingMethod>, Lone> Alone;
  std::vector<std::pair<const std::pair<const Workload *, ProfilingMethod>,
                        Lone> *>
      Entries;
  for (const Workload *W : Spec.Workloads)
    for (ProfilingMethod M : Spec.Methods)
      Entries.push_back(&*Alone.try_emplace({W, M}).first);
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != 4; ++T)
    Workers.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Entries.size();) {
        auto &[Key, L] = *Entries[I];
        ObsSession RunObs(Plain);
        L.Run = Pipeline(*Key.first, {}, &RunObs)
                    .runProfile(Key.second, DataSet::Train,
                                /*WithMemorySystem=*/true);
        L.Metrics = registryText(RunObs.registry());
      }
    });
  for (std::thread &T : Workers)
    T.join();

  const std::string DerivedLine = "counter pipeline.profile_memsys_derived 1\n";
  // Per workload: the followers of the cells' groups, and the derived and
  // sliced naive-loop-based cells.
  auto Check = [&](const SweepSpec &S, unsigned Threads, size_t Followers,
                   size_t FannedOut) {
    const bool Derives =
        S.Config.Interp.Exec == InterpreterConfig::Engine::Decoded;
    EngineOptions Opts = withThreads(Threads);
    Opts.Obs.Enabled = true;
    ExperimentEngine Engine(Opts);
    SweepResult R = Engine.runSweep(S);
    ASSERT_EQ(R.Cells.size(), S.Workloads.size() * S.Methods.size());
    const std::vector<JobRecord> &Records = Engine.obs()->jobs();
    ASSERT_EQ(Records.size(), R.Cells.size());
    std::map<GroupKey, size_t> Leaders;
    size_t Shared = 0, Derived = 0, Sliced = 0;
    for (size_t I = 0; I != R.Cells.size(); ++I) {
      const SweepCell &Cell = R.Cells[I];
      const std::string Tag = cellTag(Cell);
      SCOPED_TRACE(Tag);
      const JobRecord &Run = Records[I];
      EXPECT_EQ(Run.Name, "profile:" + Tag);
      EXPECT_TRUE(Run.Ok);
      const auto [Leader, First] = Leaders.try_emplace(groupKey(Cell), I);
      if (First) {
        EXPECT_TRUE(Run.Deps.empty());
      } else {
        ++Shared;
        ASSERT_EQ(Run.Deps.size(), 1u);
        EXPECT_EQ(Records[Run.Deps[0]].Name, Records[Leader->second].Name);
      }

      const Lone &L = Alone.at({Cell.W, Cell.Method});
      expectSameStats(Cell.Profile.Stats, L.Run.Stats);
      EXPECT_NE(Cell.Profile.Stats.Mem.DemandAccesses, 0u);
      EXPECT_EQ(profileText(Cell), profileText(SweepCell{
                                       .W = Cell.W,
                                       .Method = Cell.Method,
                                       .ProfileDS = Cell.ProfileDS,
                                       .Profile = L.Run}));
      EXPECT_EQ(Cell.Profile.Instr.ProfiledSites, L.Run.Instr.ProfiledSites);
      EXPECT_EQ(Cell.Profile.StrideInvocations, L.Run.StrideInvocations);
      EXPECT_EQ(Cell.Profile.StrideProcessed, L.Run.StrideProcessed);
      EXPECT_EQ(Cell.Profile.LfuCalls, L.Run.LfuCalls);
      const size_t At = L.Metrics.find(DerivedLine);
      ASSERT_NE(At, std::string::npos);
      std::string Expected = L.Metrics;
      if (!Derives)
        Expected.erase(At, DerivedLine.size());
      if (Derives) {
        Derived += Cell.Method == ProfilingMethod::NaiveLoop;
        Sliced += Cell.Method == ProfilingMethod::SampleNaiveLoop;
        Expected = withFanOutCount(std::move(Expected), Cell.Method);
      }
      EXPECT_EQ(registryText(Run.Metrics), Expected);
    }
    EXPECT_EQ(Shared, S.Workloads.size() * Followers);
    EXPECT_EQ(Derived + Sliced, S.Workloads.size() * FannedOut);
    EXPECT_EQ(Derived, Sliced);
    MetricsRegistry &Reg = Engine.obs()->registry();
    EXPECT_EQ(Reg.counter("pipeline.profile_derived").value(), Derived);
    EXPECT_EQ(Reg.counter("pipeline.profile_sliced").value(), Sliced);
    // Every memsys-on profile run on the suite is derived, from one
    // un-instrumented train run per workload, whichever of its groups asked
    // first.
    EXPECT_EQ(Reg.counter("pipeline.profile_memsys_derived").value(),
              Derives ? R.Cells.size() : 0u);
    EXPECT_EQ(Engine.schedStats().RunMemoMisses,
              Derives ? S.Workloads.size() : 0u);
  };
  // Per workload, the naive family's three followers and sample-edge-
  // check; naive-loop derived and sample-naive-loop sliced.
  for (unsigned Threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(Threads);
    Check(Spec, Threads, 4, 2);
  }

  // Reference runs are slow: two workloads and three naive methods suffice
  // there.
  SweepSpec RefSpec = Spec;
  RefSpec.Config.Interp.Exec = InterpreterConfig::Engine::Reference;
  RefSpec.Workloads = {Spec.Workloads[0], Spec.Workloads[3]};
  RefSpec.Methods = {ProfilingMethod::NaiveLoop, ProfilingMethod::NaiveAll,
                     ProfilingMethod::SampleNaiveLoop};
  SCOPED_TRACE("reference");
  Check(RefSpec, 2, 2, 0);
}

/// Under the self-profiler every run's samples belong to its own job, so
/// no sweep shares an execution there, with or without a cache model.
TEST(ExperimentEngine, ProfileFanOutNotUnderSelfProfiler) {
  ChaseWorkload W;
  SweepSpec Spec;
  Spec.Workloads = {&W};
  Spec.Methods = {ProfilingMethod::NaiveAll, ProfilingMethod::SampleNaiveAll};
  for (bool Memsys : {true, false}) {
    SCOPED_TRACE(Memsys ? "memsys" : "memsys-free");
    Spec.WithMemorySystem = Memsys;
    EngineOptions Opts = withThreads(2);
    Opts.Obs.Enabled = true;
    Opts.Obs.SelfProfile = true;
    ExperimentEngine Engine(Opts);
    SweepResult R = Engine.runSweep(Spec);
    ASSERT_EQ(R.Cells.size(), 2u);
    for (const JobRecord &Job : Engine.obs()->jobs())
      EXPECT_TRUE(Job.Deps.empty()) << Job.Name;
    for (const SweepCell &Cell : R.Cells) {
      ProfileRunResult Alone =
          Pipeline(W).runProfile(Cell.Method, Cell.ProfileDS, Memsys);
      expectSameStats(Cell.Profile.Stats, Alone.Stats);
      EXPECT_EQ(Cell.Profile.Stats.Mem.DemandAccesses != 0, Memsys);
    }
  }
}

/// runProfiles reporting every method into one session records what the
/// separate runProfile calls would, metric for metric.
TEST(ExperimentEngine, RunProfilesIntoOneSessionMatchesSeparateRuns) {
  PassesChaseWorkload W;
  ObsConfig Config;
  Config.Enabled = true;
  const std::vector<ProfilingMethod> Methods = {
      ProfilingMethod::EdgeCheck, ProfilingMethod::SampleEdgeCheck};
  ObsSession Fused(Config), Separate(Config);
  Pipeline(W, {}, &Fused).runProfiles(Methods, DataSet::Train);
  for (ProfilingMethod M : Methods)
    Pipeline(W, {}, &Separate).runProfile(M, DataSet::Train, false);
  EXPECT_EQ(registryText(Fused.registry()), registryText(Separate.registry()));
}

/// Figures 18 and 19 come from one naive-all ref run per workload: one
/// classify job each, whose two rows equal the one-figure drivers' rows.
TEST(ExperimentEngine, PopulationFiguresShareOneRunPerWorkload) {
  ChaseWorkload Chase;
  PassesChaseWorkload Passes;
  const std::vector<const Workload *> WL = {&Chase, &Passes};
  ExperimentEngine Engine(withThreads(2));
  const PopulationRows Both = classifySuitePopulations(Engine, WL);
  ASSERT_EQ(Engine.lastOutcomes().size(), WL.size());
  ASSERT_EQ(Both.size(), WL.size());
  for (bool InLoop : {false, true}) {
    const std::vector<PopulationRow> One =
        classifySuitePopulation(Engine, WL, InLoop);
    ASSERT_EQ(One.size(), WL.size());
    for (size_t WI = 0; WI != WL.size(); ++WI) {
      const PopulationRow &Shared =
          InLoop ? Both[WI].second : Both[WI].first;
      EXPECT_EQ(populationRowToJson(Shared).str(0),
                populationRowToJson(One[WI]).str(0));
      EXPECT_EQ(populationRowToJson(Shared).str(0),
                populationRowToJson(classifyLoadPopulation(*WL[WI], InLoop))
                    .str(0));
    }
  }
}

/// Every concurrent job of a sweep or suite driver gets the same config, so
/// a trace-capture path would have them all truncate and write one file.
TEST(ExperimentEngine, RejectsTraceCaptureForConcurrentJobs) {
  ChaseWorkload W;
  const std::string Path =
      ::testing::TempDir() + "sprof_engine_rejected.sprof.trace";
  std::remove(Path.c_str());
  PipelineConfig Capture;
  Capture.TraceCapturePath = Path;
  SweepSpec Spec;
  Spec.Workloads = {&W};
  Spec.Config = Capture;
  Spec.WithMemorySystem = false;

  ExperimentEngine Engine(withThreads(2));
  try {
    Engine.runSweep(Spec);
    ADD_FAILURE() << "runSweep accepted a TraceCapturePath";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("runSweep"), std::string::npos);
    EXPECT_NE(std::string(E.what()).find(Path), std::string::npos);
  }
  EXPECT_THROW(measureSuite(Engine, {&W}, Capture), std::invalid_argument);
  EXPECT_THROW(classifySuitePopulation(Engine, {&W}, true, Capture),
               std::invalid_argument);
  EXPECT_THROW(measureSuiteSensitivity(Engine, {&W}, Capture),
               std::invalid_argument);
  EXPECT_FALSE(std::ifstream(Path).good());

  // Nothing was scheduled: the next sweep runs only its own jobs.
  Spec.Config = {};
  SweepResult R = Engine.runSweep(Spec);
  ASSERT_EQ(R.Cells.size(), 1u);
  EXPECT_EQ(Engine.lastOutcomes().size(), 1u);
}

} // namespace
