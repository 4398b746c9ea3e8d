//===- driver/Experiments.h - Shared experiment helpers ---------*- C++ -*-===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers behind the paper's tables and figures (bench/sprof_repro.cpp):
/// per-benchmark measurement bundles, their JSON reports, and the paper's
/// published reference numbers for side-by-side output.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_EXPERIMENTS_H
#define SPROF_DRIVER_EXPERIMENTS_H

#include "driver/Engine.h"
#include "driver/Pipeline.h"
#include "obs/Json.h"

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sprof {

/// Everything Figure 16 needs for one benchmark and one profiling method.
struct MethodMeasurement {
  double Speedup = 1.0;
  uint64_t ProfiledCycles = 0;   ///< instrumented train-run cycles
  uint64_t StrideInvocations = 0;
  uint64_t StrideProcessed = 0;
  uint64_t LfuCalls = 0;
  uint64_t TrainLoadRefs = 0;    ///< total dynamic loads in the train run
  uint64_t PrefetchedRefCycles = 0; ///< prefetched ref-run cycles
  PrefetchInsertionStats Prefetches;
  /// Cache/prefetch accounting of the prefetched reference run
  /// (coverage/accuracy tables).
  MemoryStats RefMemory;
};

/// Per-benchmark measurement bundle reused across figures.
struct BenchMeasurement {
  std::string Name;
  uint64_t BaselineRefCycles = 0;
  uint64_t EdgeOnlyTrainCycles = 0;
  std::map<ProfilingMethod, MethodMeasurement> Methods;
};

/// One row of Figures 18/19: shares of *all* dynamic load references that
/// come from loads of each stride class, restricted to out-loop (Figure
/// 18) or in-loop (Figure 19) loads. Classified from a naive-all profile
/// with no frequency/trip filtering, like the paper's population figures.
struct PopulationRow {
  std::string Bench;
  double SsstPct = 0, PmstPct = 0, WsstPct = 0, NonePct = 0;
};

PopulationRow classifyLoadPopulation(const Workload &W, bool InLoopWanted,
                                     const PipelineConfig &Config = {});

/// Figure 23-25 sensitivity bundle: speedups of four binaries built from
/// the cross product of edge/stride profiles collected on the train and
/// reference inputs, all measured on the reference input with
/// sample-edge-check profiling (paper Section 4.3).
struct SensitivityMeasurement {
  std::string Name;
  double Train = 1.0;              ///< edge.train + stride.train
  double Ref = 1.0;                ///< edge.ref + stride.ref
  double EdgeRefStrideTrain = 1.0; ///< edge.ref + stride.train
  double EdgeTrainStrideRef = 1.0; ///< edge.train + stride.ref
};

// -- Engine-based suite drivers -------------------------------------------
//
// Each expands the whole suite into one job graph on \p Engine, so
// independent runs overlap across the engine's worker threads. Results are
// identical to looping the single-workload helpers above, for any thread
// count (every job rebuilds its own Program and owns its seed). Timed runs
// go through the engine's run memo (driver/RunMemo.h), so identical ones
// within one call execute once. The drivers that profile reject a config
// with a TraceCapturePath up front (requireSharableConfig).

/// Borrow raw pointers from an owning suite (makeSpecIntSuite) for the
/// duration of an engine call.
std::vector<const Workload *>
workloadPointers(const std::vector<std::unique_ptr<Workload>> &Suite);

/// Runs the Figure 16/20/21/22 measurement set for each workload: an
/// edge-only train run, a baseline ref run, and per stride method one
/// instrumented train run plus one prefetched ref run. The methods of one
/// instrumentation family share one train execution (ProfileGroups: the
/// four naive methods, and edge-check with its sample- variant), and the
/// train runs take their memory stall from one memoized un-instrumented
/// train run per workload (Pipeline::runProfiles); profile jobs and
/// results are a lone run's.
///
/// \p Methods defaults to the paper's six stride methods.
std::vector<BenchMeasurement> measureSuite(
    ExperimentEngine &Engine, const std::vector<const Workload *> &Workloads,
    const PipelineConfig &Config = {},
    const std::vector<ProfilingMethod> &Methods = paperStrideMethods());

/// Per workload, its Figure 18 (out-loop) and Figure 19 (in-loop) rows.
using PopulationRows = std::vector<std::pair<PopulationRow, PopulationRow>>;

/// Both population figures from one naive-all ref run per workload: one
/// "classify:<workload>" job each.
PopulationRows
classifySuitePopulations(ExperimentEngine &Engine,
                         const std::vector<const Workload *> &Workloads,
                         const PipelineConfig &Config = {});

/// One population figure's rows (classifySuitePopulations' jobs).
std::vector<PopulationRow>
classifySuitePopulation(ExperimentEngine &Engine,
                        const std::vector<const Workload *> &Workloads,
                        bool InLoopWanted, const PipelineConfig &Config = {});

std::vector<SensitivityMeasurement>
measureSuiteSensitivity(ExperimentEngine &Engine,
                        const std::vector<const Workload *> &Workloads,
                        const PipelineConfig &Config = {});

/// One Figure-15 row: uninstrumented run accounting on both inputs.
struct BaselineMeasurement {
  WorkloadInfo Info;
  RunStats Train;
  RunStats Ref;
};

std::vector<BaselineMeasurement>
measureSuiteBaselines(ExperimentEngine &Engine,
                      const std::vector<const Workload *> &Workloads,
                      const PipelineConfig &Config = {});

/// Machine-readable bench output. The bundles serialize under the stable
/// schema "sprof.bench_report/1"; every figure sprof-repro renders emits
/// its raw measurements so downstream tooling (plots, regression gates)
/// need not scrape the tables.
JsonValue methodMeasurementToJson(const MethodMeasurement &M);
JsonValue benchMeasurementToJson(const BenchMeasurement &BM);
JsonValue baselineMeasurementToJson(const BaselineMeasurement &BM);
JsonValue populationRowToJson(const PopulationRow &R);
JsonValue sensitivityMeasurementToJson(const SensitivityMeasurement &M);

/// Writes {"schema", "figure", "benchmarks": [...]} to \p Path.
/// \returns false (and prints to stderr) when the file cannot be written.
bool writeBenchReport(const std::string &Path, const std::string &Figure,
                      const std::vector<BenchMeasurement> &Measurements);

/// Generic variant of writeBenchReport for figures whose rows are not
/// BenchMeasurements: writes {"schema", "figure", "rows": \p Rows} under
/// the same "sprof.bench_report/1" schema. \returns false (and prints the
/// path and failure to stderr) when the file cannot be written; callers
/// exit nonzero on failure so CI catches silently-missing artifacts.
bool writeBenchRows(const std::string &Path, const std::string &Figure,
                    JsonValue Rows);

/// Paper-published Figure 16 speedups (edge-check) where the text gives
/// them explicitly; nullopt elsewhere.
std::optional<double> paperFig16Speedup(const std::string &Bench);

/// Paper-published Figure 20 average overheads per method.
std::optional<double> paperFig20Overhead(ProfilingMethod Method);

/// Paper-published Figure 21 average strideProf-processed percentages.
std::optional<double> paperFig21Processed(ProfilingMethod Method);

} // namespace sprof

#endif // SPROF_DRIVER_EXPERIMENTS_H
