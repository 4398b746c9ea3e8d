//===- profile/LfuValueProfiler.h - Calder-style LFU value profiler -*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Least-Frequently-Used value profiler of Calder, Feller and Eustace
/// ("Value Profiling", MICRO-30, 1997), which the paper adopts for stride
/// collection (Section 3.1). Two buffers track recurrent values: a small
/// *temp* buffer absorbs the raw stream with LFU replacement, and a *final*
/// buffer receives the highest-frequency survivors at periodic merges.
///
/// The paper's enhancement (Figure 7) of treating nearly-equal strides as
/// equal is supported through a configurable coarsening shift: values are
/// compared by `(a >> Shift) == (b >> Shift)`.
///
/// Layout. The temp buffer is a structure of arrays in one allocation:
/// one fingerprint byte per slot (packed eight to a word), the coarsened
/// key, the count, and the first-seen value. Slots keep insertion order,
/// and a replacement reuses its victim's slot. A lookup broadcasts the
/// key's fingerprint, finds equal bytes with a SWAR zero-byte test, and
/// verifies the full key only at those slots; keys in temp are unique, so
/// the first verified slot is the match. The replacement victim is the
/// first slot of minimum count (`std::min_element` order), read in O(1)
/// from a maintained (MinCount, MinMask) pair that is recomputed only when
/// the last slot of the minimum count is incremented.
///
/// Work. Every operation reports an abstract *work* count so the
/// simulation can charge realistic profiling-overhead cycles (Figures
/// 20/22). It is the cost of the paper's linear-scan routine, computed
/// rather than scanned: `i + 1` for a hit at slot `i`; the number of
/// occupied slots for a miss, plus TempSize when the miss replaces an
/// entry; plus the merge's entry count when a merge triggers.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_PROFILE_LFUVALUEPROFILER_H
#define SPROF_PROFILE_LFUVALUEPROFILER_H

#include <bit>
#include <cstdint>
#include <vector>

namespace sprof {

class Counter;
class Histogram;

/// Configuration for the LFU value profiler.
struct LfuConfig {
  /// Entries in the temp buffer (LFU replacement); 1 to
  /// LfuValueProfiler::MaxTempSize.
  unsigned TempSize = 16;
  /// Entries kept in the final buffer at merges; at least 1.
  unsigned FinalSize = 8;
  /// Temp buffer is merged into the final buffer after this many updates.
  unsigned MergeInterval = 1024;
  /// Coarsening shift for value equality (0 = exact; the paper's
  /// `is_same_value` uses 4, i.e. values within the same 16-byte bucket
  /// compare equal).
  unsigned CoarsenShift = 0;
};

/// A profiled value and its frequency.
struct ValueCount {
  int64_t Value = 0;
  uint64_t Count = 0;
};

/// LFU-replacement top-value profiler.
class LfuValueProfiler {
public:
  /// Largest supported TempSize: the minimum-count slot set is one 64-bit
  /// mask.
  static constexpr unsigned MaxTempSize = 64;

  LfuValueProfiler() : LfuValueProfiler(LfuConfig()) {}
  /// \throws std::invalid_argument when TempSize is 0 or above
  /// MaxTempSize, or FinalSize is 0.
  explicit LfuValueProfiler(const LfuConfig &Config);

  /// Records one occurrence of \p Value.
  /// \returns the work units of the linear-scan routine (see the file
  /// comment), merge work included when a merge triggers.
  unsigned add(int64_t Value) {
    ++TotalAdded;
    const uint64_t Key = static_cast<uint64_t>(Value >> Config.CoarsenShift);
    const uint8_t Fp = fingerprint(static_cast<int64_t>(Key));
    uint64_t *Counts = counts();
    unsigned Work;
    const unsigned Hit = findSlot(Key, Fp);
    if (Hit != TempN) {
      Work = Hit + 1;
      const uint64_t Old = Counts[Hit]++;
      if (Old == MinCount) {
        MinMask &= ~(uint64_t(1) << Hit);
        // The slot just left the minimum class; when it was the last one
        // the new minimum is Old + 1 (every other slot already exceeded
        // Old), held at least by this slot.
        if (!MinMask)
          refreshMin(Old + 1);
      }
    } else {
      Work = TempN;
      unsigned Slot;
      if (TempN < Config.TempSize) {
        Slot = TempN++;
      } else {
        Slot = static_cast<unsigned>(std::countr_zero(MinMask));
        Work += Config.TempSize;
      }
      uint64_t &FpWord = fps()[Slot / 8];
      const unsigned Shift = 8 * (Slot % 8);
      FpWord = (FpWord & ~(uint64_t(0xFF) << Shift)) | (uint64_t(Fp) << Shift);
      keys()[Slot] = Key;
      Counts[Slot] = 1;
      values()[Slot] = static_cast<uint64_t>(Value);
      // Counts are at least 1, so a new entry always joins (or founds)
      // the minimum class.
      if (MinCount != 1) {
        MinCount = 1;
        MinMask = 0;
      }
      MinMask |= uint64_t(1) << Slot;
    }
    if (TotalAdded == NextMergeAt)
      Work += merge();
    return Work;
  }

  /// Snapshot of the current top values: final merged with temp, combined
  /// by (coarsened) equality, sorted by descending count. At most
  /// FinalSize entries.
  std::vector<ValueCount> topValues() const;

  /// Total number of values ever added.
  uint64_t totalAdded() const { return TotalAdded; }

  /// Number of merges performed (exposed for tests/benches).
  uint64_t numMerges() const { return NumMerges; }

  /// Telemetry sink (owned by an ObsSession's registry): the merge
  /// counter. A null pointer (the default) redirects to a
  /// statically-allocated dummy, so merge() writes unconditionally. The
  /// per-add work is the caller's to record (StrideProfiler tallies it).
  void attachObs(Counter *MergeCounter);

  const LfuConfig &config() const { return Config; }

  /// The temp buffer's one-byte fingerprint of a coarsened key. Public so
  /// tests can build streams of colliding keys.
  static uint8_t fingerprint(int64_t Key) {
    return static_cast<uint8_t>(
        (static_cast<uint64_t>(Key) * 0x9E3779B97F4A7C15ull) >> 56);
  }

private:
  static constexpr uint64_t NoMinCount = UINT64_MAX;

  bool sameValue(int64_t A, int64_t B) const {
    return (A >> Config.CoarsenShift) == (B >> Config.CoarsenShift);
  }

  uint64_t *fps() { return Temp.data(); }
  uint64_t *keys() { return Temp.data() + NumFpWords; }
  uint64_t *counts() { return keys() + Config.TempSize; }
  uint64_t *values() { return counts() + Config.TempSize; }
  const uint64_t *counts() const {
    return Temp.data() + NumFpWords + Config.TempSize;
  }
  const uint64_t *values() const { return counts() + Config.TempSize; }

  /// Slot of \p Key among the occupied slots, or TempN when absent.
  unsigned findSlot(uint64_t Key, uint8_t Fp) {
    constexpr uint64_t Ones = 0x0101010101010101ull;
    constexpr uint64_t Low7 = 0x7F7F7F7F7F7F7F7Full;
    const uint64_t *Words = fps();
    const uint64_t *Keys = keys();
    const uint64_t Pattern = Fp * Ones;
    for (unsigned Base = 0; Base < TempN; Base += 8) {
      const uint64_t X = Words[Base / 8] ^ Pattern;
      // 0x80 in exactly the bytes of X that are zero (no carry between
      // bytes, so no false positives).
      uint64_t Zero = ~(((X & Low7) + Low7) | X | Low7);
      if (TempN - Base < 8)
        Zero &= (uint64_t(1) << (8 * (TempN - Base))) - 1;
      for (; Zero; Zero &= Zero - 1) {
        const unsigned Slot = Base + (std::countr_zero(Zero) >> 3);
        if (Keys[Slot] == Key)
          return Slot;
      }
    }
    return TempN;
  }

  /// Rebuilds MinMask as the slots whose count is \p Count, the new
  /// minimum.
  void refreshMin(uint64_t Count) {
    const uint64_t *Counts = counts();
    uint64_t Mask = 0;
    for (unsigned I = 0; I != TempN; ++I)
      Mask |= uint64_t(Counts[I] == Count) << I;
    MinCount = Count;
    MinMask = Mask;
  }

  unsigned merge();

  LfuConfig Config;
  unsigned NumFpWords;
  /// Occupied temp slots, [0, TempN).
  unsigned TempN = 0;
  /// Smallest count among occupied slots (NoMinCount when empty) and the
  /// slots holding it.
  uint64_t MinCount = NoMinCount;
  uint64_t MinMask = 0;
  uint64_t TotalAdded = 0;
  /// TotalAdded value that triggers the next merge: every MergeInterval
  /// adds (every add when MergeInterval is 0).
  uint64_t NextMergeAt;
  /// The temp buffer: NumFpWords fingerprint words, then TempSize keys,
  /// counts and first-seen values (as uint64_t).
  std::vector<uint64_t> Temp;
  /// Never null: the registry counter when attached, a dummy when not.
  Counter *ObsMerges;
  uint64_t NumMerges = 0;
  std::vector<ValueCount> Final;
  /// Reused merge buffer for topValues(); grown once to its steady-state
  /// capacity instead of reallocating on every snapshot.
  mutable std::vector<ValueCount> TopScratch;
};

} // namespace sprof

#endif // SPROF_PROFILE_LFUVALUEPROFILER_H
