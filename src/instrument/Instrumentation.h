//===- instrument/Instrumentation.h - Integrated profiling passes -*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integrated frequency + stride profiling instrumentation of paper
/// Section 3.2. One entry point instruments a module for one of the
/// profiling methods the paper evaluates:
///
///   * edge-only   -- classic edge-frequency profiling (the overhead
///                    baseline and the "frequency profile" producer).
///   * naive-all   -- edge profiling + strideProf before *every* load.
///   * naive-loop  -- edge profiling + strideProf before every in-loop load.
///   * block-check -- block counters + strideProf guarded by a trip-count
///                    predicate computed from block frequencies (Figure 11).
///   * edge-check  -- edge counters + strideProf guarded by a trip-count
///                    predicate computed from summed edge counters
///                    (Figures 12-14); pre-head frequency r1 is the sum of
///                    all loop-entering edge counters, header frequency r2
///                    the sum of the header's outgoing edge counters, and
///                    the comparison r2/r1 > TT is done without a divide as
///                    r1 < (r2 >> W), W = floor(log2 TT).
///
/// The sample-* variants of the paper use the same instrumentation; only
/// the runtime's SamplingConfig differs (see ProfilingMethod helpers).
///
/// The check methods also apply the two Section-3.2 refinements: loads with
/// loop-invariant addresses are not profiled, and equivalent-load sets
/// (Section 2.1) are reduced to one profiled representative.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_INSTRUMENT_INSTRUMENTATION_H
#define SPROF_INSTRUMENT_INSTRUMENTATION_H

#include "ir/Module.h"

#include <map>
#include <string>
#include <vector>

namespace sprof {

class ObsSession;

/// The profiling configurations evaluated in the paper (Section 4).
enum class ProfilingMethod {
  EdgeOnly,
  NaiveAll,
  NaiveLoop,
  BlockCheck,
  EdgeCheck,
  SampleNaiveAll,
  SampleNaiveLoop,
  SampleEdgeCheck,
};

/// Printable name ("edge-check", "sample-naive-all", ...).
const char *profilingMethodName(ProfilingMethod Method);

/// Inverse of profilingMethodName: parses \p Name into \p Method. Returns
/// false (leaving \p Method untouched) for unknown names. Trace replay
/// uses this to re-run a captured trace under its recorded method.
bool profilingMethodFromName(const std::string &Name,
                             ProfilingMethod &Method);

/// True for the sample-* methods (runtime sampling enabled).
bool methodUsesSampling(ProfilingMethod Method);

/// True when the method also profiles out-loop loads (naive-all family).
bool methodProfilesOutLoop(ProfilingMethod Method);

/// Strips the sampling wrapper: SampleEdgeCheck -> EdgeCheck etc.
ProfilingMethod baseMethod(ProfilingMethod Method);

/// The instrumentation family of \p Method, named by its widest base
/// method: NaiveAll for the four naive methods (naive-loop's ProfStrides
/// are naive-all's in-loop ones, and their counters are the same), and
/// baseMethod(Method) for every other method. Methods of one family can
/// share an instrumented execution (Pipeline::runProfiles).
ProfilingMethod instrumentationFamily(ProfilingMethod Method);

/// All eight methods in the order the paper's figures list them.
std::vector<ProfilingMethod> allProfilingMethods();

/// The six stride-profiling methods of Figures 16/20/21/22.
std::vector<ProfilingMethod> paperStrideMethods();

/// Instrumentation tunables.
struct InstrumentConfig {
  /// Trip-count threshold TT of the check methods (paper: 128). The shift
  /// W used in place of the division is floor(log2(TT)).
  uint64_t TripCountThreshold = 128;
};

/// What the instrumentation did; the feedback pass needs the counter maps
/// to reconstruct edge frequencies, and benches use ProfiledSites.
struct InstrumentationResult {
  ProfilingMethod Method = ProfilingMethod::EdgeOnly;

  /// Per function: CFG edge (in the *original* module's numbering) to
  /// counter id.
  std::vector<std::map<Edge, uint32_t>> EdgeCounters;

  /// Per function: block index to counter id (block-check method only).
  std::vector<std::map<uint32_t, uint32_t>> BlockCounters;

  /// Per function: counter id of the function-entry counter. Edges alone
  /// cannot reconstruct the frequency of a single-block function, which
  /// the Figure-5 FT filter needs for out-loop loads.
  std::vector<uint32_t> EntryCounters;

  /// Load sites instrumented with a strideProf call.
  std::vector<uint32_t> ProfiledSites;
};

/// Instruments \p M in place for \p Method. \p M must be an un-instrumented
/// module (no profiling pseudo-ops); call on a fresh copy. \p Obs
/// (optional) receives an "instrument" trace span and counter-insertion
/// metrics.
InstrumentationResult instrumentModule(Module &M, ProfilingMethod Method,
                                       const InstrumentConfig &Config = {},
                                       ObsSession *Obs = nullptr);

/// The counter-insertion metrics instrumentModule records for \p Result,
/// added to \p Obs (nullptr records nothing). Lets one instrumentation
/// serve several methods' telemetry (Pipeline::runProfiles).
void recordInstrumentation(ObsSession *Obs,
                           const InstrumentationResult &Result);

} // namespace sprof

#endif // SPROF_INSTRUMENT_INSTRUMENTATION_H
