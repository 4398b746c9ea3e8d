//===- perfbench/src/Traced.h - Pipeline runs from layer calls --*- C++ -*-===//
//
// Part of the StrideProf benchmark (see perfbench/BENCHMARK.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's versions of Pipeline::runProfile, runBaseline and
/// runPrefetched. Each makes the layer calls Pipeline.cpp makes, with a
/// span around every call, and returns the same result the Pipeline method
/// would. Two extra calls split the interpreter's time from the layers it
/// drives:
///
///   * a bare run (no cache model, no profiler) of the same program, with
///     the strideProf event stream captured through attachEventSink: the
///     "interp" span;
///   * StrideProfiler::consume over that stream: the "profile" span, whose
///     profile is the run's profile (live equals replay).
///
/// A run that needs the cache model then executes once more with the
/// MemoryHierarchy attached (the "memsys" span); that run's RunStats are
/// the result, and memsys time is its duration minus the bare run (and the
/// consume, when a profiler rode along).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include "Bench.h"

#include "driver/Pipeline.h"

#include <vector>

namespace perfbench {

/// Adds one cache-model run's statistics to the memsys counters.
void countMemory(LayerCounts &L, const sprof::MemoryStats &S);

/// Workload::build inside a "workloads" span.
sprof::Program tracedBuild(JobScope &J, const sprof::Workload &W,
                           const sprof::PipelineConfig &Config,
                           sprof::DataSet DS);

/// Interpreter::run inside an "interp" span; \p I must have no cache model
/// or profiler attached.
sprof::RunStats tracedBareRun(JobScope &J, sprof::Interpreter &I);

sprof::ProfileRunResult tracedRunProfile(JobScope &J, const sprof::Workload &W,
                                         const sprof::PipelineConfig &Config,
                                         sprof::ProfilingMethod Method,
                                         sprof::DataSet DS,
                                         bool WithMemorySystem = true);

sprof::RunStats tracedRunBaseline(JobScope &J, const sprof::Workload &W,
                                  const sprof::PipelineConfig &Config,
                                  sprof::DataSet DS);

sprof::TimedRunResult tracedRunPrefetched(JobScope &J, const sprof::Workload &W,
                                          const sprof::PipelineConfig &Config,
                                          sprof::DataSet DS,
                                          const sprof::EdgeProfile &Edges,
                                          const sprof::StrideProfile &Strides);

/// Per load site of \p M: whether the site sits inside a (reducible) loop.
/// The loop analysis the Figure 17-19 jobs run on the original module.
std::vector<bool> siteInLoop(const sprof::Module &M);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
