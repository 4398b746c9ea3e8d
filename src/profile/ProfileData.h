//===- profile/ProfileData.h - Profile stores and summaries ----*- C++ -*-===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile artifacts a profiling run feeds back to the compiler:
/// per-edge frequencies (the classic edge profile of [4]) and per-load-site
/// stride summaries. Both support a line-oriented text serialization so the
/// two-pass / cross-compilation workflow the paper discusses in Section 3.2
/// can be exercised end to end.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_PROFILE_PROFILEDATA_H
#define SPROF_PROFILE_PROFILEDATA_H

#include "ir/Function.h"
#include "ir/Module.h"
#include "profile/LfuValueProfiler.h"
#include "profile/StrideProfiler.h"

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace sprof {

/// Edge frequencies of a whole module: per function, a map from CFG edge to
/// execution count.
class EdgeProfile {
public:
  EdgeProfile() = default;
  explicit EdgeProfile(size_t NumFunctions)
      : PerFunction(NumFunctions), EntryCounts(NumFunctions, 0) {}

  void setFrequency(uint32_t Func, const Edge &E, uint64_t Count);
  uint64_t frequency(uint32_t Func, const Edge &E) const;

  /// Number of times function \p Func was entered (from a dedicated entry
  /// counter; edges alone cannot give the frequency of a single-block
  /// function).
  void setEntryCount(uint32_t Func, uint64_t Count);
  uint64_t entryCount(uint32_t Func) const;

  /// Frequency of a block: the sum of its outgoing edge frequencies when it
  /// has successors (mirroring the reconstruction in Figures 12/13);
  /// otherwise the sum of its incoming edge frequencies plus, for the
  /// entry block, the function entry count.
  uint64_t blockFrequency(const Function &F, uint32_t Func,
                          uint32_t Block) const;

  size_t numFunctions() const { return PerFunction.size(); }
  const std::map<Edge, uint64_t> &functionEdges(uint32_t Func) const {
    return PerFunction[Func];
  }

  void print(const Module &M, std::ostream &OS) const;

private:
  std::vector<std::map<Edge, uint64_t>> PerFunction;
  std::vector<uint64_t> EntryCounts;
};

/// Per-load-site stride profile summary, extracted from a StrideProfiler
/// after an instrumented run. This is the "prof_data" view Figure 5 reads.
struct StrideSiteSummary {
  uint32_t SiteId = NoId;
  uint64_t TotalStrides = 0;  ///< zero + non-zero strides observed
  uint64_t NumZeroStride = 0; ///< same-address occurrences
  uint64_t NumZeroDiff = 0;   ///< zero stride-differences (phase evidence)
  /// Use-distance statistic (Section 6 future work): total and count of
  /// inter-reference gaps, in dynamic memory references.
  uint64_t RefGapSum = 0;
  uint64_t RefGapCount = 0;
  /// Top non-zero strides, highest frequency first (freq[1..N]).
  std::vector<ValueCount> TopStrides;

  /// freq[1] of Figure 5.
  uint64_t top1Freq() const {
    return TopStrides.empty() ? 0 : TopStrides[0].Count;
  }
  /// freq[1]+...+freq[4] of Figure 5.
  uint64_t top4Freq() const;
  /// Dominant stride value (only meaningful when TopStrides is non-empty).
  int64_t top1Stride() const {
    return TopStrides.empty() ? 0 : TopStrides[0].Value;
  }
  /// Average references between successive visits (0 when unknown).
  double avgRefGap() const {
    return RefGapCount == 0
               ? 0.0
               : static_cast<double>(RefGapSum) /
                     static_cast<double>(RefGapCount);
  }
};

/// Stride profiles of a whole module, indexed by load site id. Sites that
/// were never profiled have default (all-zero) summaries.
class StrideProfile {
public:
  StrideProfile() = default;
  explicit StrideProfile(uint32_t NumSites);

  /// Builds the summary view of a finished profiling run. When the run used
  /// fine sampling with interval F, collected stride values are divided by
  /// F to recover the original strides (paper Section 3.1: S2 = S1 / F).
  /// With \p SubsetOnly, the profile of \p P's site subset, as a lone
  /// profiler fed only the subset's events reports it: the other sites
  /// stay empty (see StrideProfiler's file comment).
  static StrideProfile fromProfiler(const StrideProfiler &P,
                                    bool SubsetOnly = false);

  const StrideSiteSummary &site(uint32_t SiteId) const {
    return Sites[SiteId];
  }
  StrideSiteSummary &site(uint32_t SiteId) { return Sites[SiteId]; }
  uint32_t numSites() const { return static_cast<uint32_t>(Sites.size()); }

  void print(std::ostream &OS) const;

private:
  std::vector<StrideSiteSummary> Sites;
};

/// Accumulates \p Src into \p Dst, site by site (the profiles must have the
/// same site count): scalar statistics add, per-site top-stride tables merge
/// by union-by-value with counts summed. The operation is commutative and
/// associative on the *value level* (the multiset of (stride, count) pairs
/// per site is merge-order independent); on the representation level the
/// TopStrides vector keeps Dst's insertion order with Src's unseen values
/// appended, so merging into a default-initialized profile copies each
/// site's table in Src order verbatim. ParallelReplay relies on that: its
/// shards profile *disjoint* site sets, so folding them -- in any order --
/// into an empty profile reproduces the serial profiler's tables
/// byte-for-byte, no truncation or re-sort needed. Overlapping shards
/// (ProfileStore::mergeShards) canonicalize afterwards with
/// truncateTopStrides.
void mergeStrideProfile(StrideProfile &Dst, const StrideProfile &Src);

/// Canonicalizes every site's top-stride table: sorts by count descending
/// (ties: value ascending) and keeps at most \p TopN entries. Applying this
/// once after a fold makes any merge order produce identical bytes even for
/// overlapping shards.
void truncateTopStrides(StrideProfile &SP, unsigned TopN);

/// Serializes both profiles into a single text stream and parses them back.
/// The format is line oriented:
///   entry <func> <count>
///   edge <func> <from> <slot> <count>
///   site <id> total <n> zero <n> zerodiff <n> gap <sum> <count>
///        top <v>:<c> <v>:<c> ...        (one line per site)
void writeProfiles(const EdgeProfile &EP, const StrideProfile &SP,
                   std::ostream &OS);

/// Parses profiles previously written by writeProfiles. \p NumFunctions and
/// \p NumSites size the resulting stores. Returns false on malformed input.
bool readProfiles(std::istream &IS, size_t NumFunctions, uint32_t NumSites,
                  EdgeProfile &EP, StrideProfile &SP);

} // namespace sprof

#endif // SPROF_PROFILE_PROFILEDATA_H
