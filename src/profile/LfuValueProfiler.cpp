//===- profile/LfuValueProfiler.cpp - Calder-style LFU value profiler ------===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "profile/LfuValueProfiler.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <stdexcept>
#include <string>

using namespace sprof;

namespace {

bool byCountThenValue(const ValueCount &A, const ValueCount &B) {
  if (A.Count != B.Count)
    return A.Count > B.Count;
  return A.Value < B.Value;
}

} // namespace

LfuValueProfiler::LfuValueProfiler(const LfuConfig &Config)
    : Config(Config), NumFpWords((Config.TempSize + 7) / 8),
      NextMergeAt(std::max(Config.MergeInterval, 1u)),
      ObsMerges(&dummyCounter()) {
  if (Config.TempSize == 0 || Config.TempSize > MaxTempSize)
    throw std::invalid_argument(
        "LfuConfig::TempSize must be in [1, " + std::to_string(MaxTempSize) +
        "], got " + std::to_string(Config.TempSize));
  if (Config.FinalSize == 0)
    throw std::invalid_argument("LfuConfig::FinalSize must be at least 1");
  Temp.assign(NumFpWords + 3 * size_t(Config.TempSize), 0);
  Final.reserve(Config.FinalSize + Config.TempSize);
  TopScratch.reserve(Config.FinalSize + Config.TempSize);
}

void LfuValueProfiler::attachObs(Counter *MergeCounter) {
  ObsMerges = MergeCounter ? MergeCounter : &dummyCounter();
}

unsigned LfuValueProfiler::merge() {
  ++NumMerges;
  ObsMerges->inc();
  NextMergeAt = TotalAdded + std::max(Config.MergeInterval, 1u);

  // Combine: fold temp entries, in slot order, into the final buffer,
  // coalescing values that compare equal under the coarsening shift.
  const uint64_t *Counts = counts();
  const uint64_t *Values = values();
  unsigned Work = 0;
  for (unsigned I = 0; I != TempN; ++I) {
    const ValueCount T{static_cast<int64_t>(Values[I]), Counts[I]};
    bool Found = false;
    for (ValueCount &F : Final) {
      ++Work;
      if (sameValue(F.Value, T.Value)) {
        F.Count += T.Count;
        Found = true;
        break;
      }
    }
    if (!Found)
      Final.push_back(T);
  }
  TempN = 0;
  MinCount = NoMinCount;
  MinMask = 0;

  // Keep the highest-frequency entries.
  std::sort(Final.begin(), Final.end(), byCountThenValue);
  if (Final.size() > Config.FinalSize)
    Final.resize(Config.FinalSize);
  Work += static_cast<unsigned>(Final.size());
  return Work;
}

std::vector<ValueCount> LfuValueProfiler::topValues() const {
  // Build the snapshot in the reused scratch buffer (capacity reserved at
  // construction, retained across calls); ordering is unchanged.
  TopScratch.clear();
  TopScratch.insert(TopScratch.end(), Final.begin(), Final.end());
  const uint64_t *Counts = counts();
  const uint64_t *Values = values();
  for (unsigned I = 0; I != TempN; ++I) {
    const ValueCount T{static_cast<int64_t>(Values[I]), Counts[I]};
    bool Found = false;
    for (ValueCount &F : TopScratch)
      if (sameValue(F.Value, T.Value)) {
        F.Count += T.Count;
        Found = true;
        break;
      }
    if (!Found)
      TopScratch.push_back(T);
  }
  std::sort(TopScratch.begin(), TopScratch.end(), byCountThenValue);
  if (TopScratch.size() > Config.FinalSize)
    TopScratch.resize(Config.FinalSize);
  return TopScratch;
}
