//===- examples/explore_methods.cpp - Compare profiling methods -------------===//
//
// Part of the StrideProf project (see quickstart.cpp for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line explorer: run one SPECINT-like workload through every
/// profiling method and print, per method, the profiling overhead, the
/// share of references processed, and the resulting prefetch speedup --
/// the per-benchmark slice of Figures 16/20/21.
///
/// Usage: explore_methods [workload-name]     (default: 181.mcf)
///
//===----------------------------------------------------------------------===//

#include "driver/Experiments.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <iostream>

using namespace sprof;

int main(int Argc, char **Argv) {
  std::string Name = Argc > 1 ? Argv[1] : "181.mcf";
  auto W = makeWorkloadByName(Name);
  if (!W) {
    std::cerr << "unknown workload '" << Name << "'; available:\n";
    for (const auto &Known : makeSpecIntSuite())
      std::cerr << "  " << Known->info().Name << "\n";
    return 1;
  }

  ExperimentEngine Engine;
  BenchMeasurement BM = measureSuite(Engine, {W.get()}).front();
  Table T(Name + ": profiling methods compared (profile=train, run=ref)");
  T.row({"method", "overhead", "refs in strideProf", "refs in LFU",
         "speedup"});
  for (ProfilingMethod M : paperStrideMethods()) {
    const MethodMeasurement &MM = BM.Methods.at(M);
    double Overhead =
        ratio(static_cast<double>(MM.ProfiledCycles) -
                  static_cast<double>(BM.EdgeOnlyTrainCycles),
              static_cast<double>(BM.EdgeOnlyTrainCycles));
    T.row({profilingMethodName(M),
           Table::fmtPercent(100.0 * Overhead, 0),
           Table::fmtPercent(percent(
               static_cast<double>(MM.StrideProcessed),
               static_cast<double>(MM.TrainLoadRefs))),
           Table::fmtPercent(percent(
               static_cast<double>(MM.LfuCalls),
               static_cast<double>(MM.TrainLoadRefs))),
           Table::fmt(MM.Speedup) + "x"});
  }
  T.print(std::cout);
  std::cout << "(the paper recommends sample-edge-check: lowest overhead"
            << " at equal speedup)\n";
  return 0;
}
