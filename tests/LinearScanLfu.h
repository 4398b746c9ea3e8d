//===- tests/LinearScanLfu.h - Executable spec of the LFU profiler -*- C++ -*-===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LFU value profiler of Calder, Feller and Eustace as the paper's
/// routine spells it out: a linear scan of the temp buffer for a match,
/// `std::min_element` for the replacement victim, and a work count of the
/// entries the scan touched. LfuValueProfiler must agree with it add by
/// add -- every add's work, the merge count, the add count and the top
/// values (test_profile.cpp, LfuOracle.*).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_TESTS_LINEARSCANLFU_H
#define SPROF_TESTS_LINEARSCANLFU_H

#include "profile/LfuValueProfiler.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sprof::test {

class LinearScanLfu {
public:
  explicit LinearScanLfu(const LfuConfig &Config) : Config(Config) {}

  unsigned add(int64_t Value) {
    ++TotalAdded;
    unsigned Work = 0;
    for (ValueCount &E : Temp) {
      ++Work;
      if (sameValue(E.Value, Value)) {
        ++E.Count;
        if (++UpdatesSinceMerge >= Config.MergeInterval)
          Work += merge();
        return Work;
      }
    }
    if (Temp.size() < Config.TempSize) {
      Temp.push_back(ValueCount{Value, 1});
    } else {
      auto Victim = std::min_element(
          Temp.begin(), Temp.end(),
          [](const ValueCount &A, const ValueCount &B) {
            return A.Count < B.Count;
          });
      Work += static_cast<unsigned>(Temp.size());
      *Victim = ValueCount{Value, 1};
    }
    if (++UpdatesSinceMerge >= Config.MergeInterval)
      Work += merge();
    return Work;
  }

  std::vector<ValueCount> topValues() const {
    std::vector<ValueCount> Out = Final;
    fold(Out, Temp);
    sortAndTrim(Out);
    return Out;
  }

  uint64_t totalAdded() const { return TotalAdded; }
  uint64_t numMerges() const { return NumMerges; }

private:
  bool sameValue(int64_t A, int64_t B) const {
    return (A >> Config.CoarsenShift) == (B >> Config.CoarsenShift);
  }

  /// Folds \p From into \p Into by coarsened equality; \returns the
  /// entries of \p Into examined.
  unsigned fold(std::vector<ValueCount> &Into,
                const std::vector<ValueCount> &From) const {
    unsigned Work = 0;
    for (const ValueCount &T : From) {
      bool Found = false;
      for (ValueCount &F : Into) {
        ++Work;
        if (sameValue(F.Value, T.Value)) {
          F.Count += T.Count;
          Found = true;
          break;
        }
      }
      if (!Found)
        Into.push_back(T);
    }
    return Work;
  }

  void sortAndTrim(std::vector<ValueCount> &V) const {
    std::sort(V.begin(), V.end(),
              [](const ValueCount &A, const ValueCount &B) {
                if (A.Count != B.Count)
                  return A.Count > B.Count;
                return A.Value < B.Value;
              });
    if (V.size() > Config.FinalSize)
      V.resize(Config.FinalSize);
  }

  unsigned merge() {
    ++NumMerges;
    UpdatesSinceMerge = 0;
    unsigned Work = fold(Final, Temp);
    Temp.clear();
    sortAndTrim(Final);
    return Work + static_cast<unsigned>(Final.size());
  }

  LfuConfig Config;
  std::vector<ValueCount> Temp;
  std::vector<ValueCount> Final;
  unsigned UpdatesSinceMerge = 0;
  uint64_t TotalAdded = 0;
  uint64_t NumMerges = 0;
};

} // namespace sprof::test

#endif // SPROF_TESTS_LINEARSCANLFU_H
