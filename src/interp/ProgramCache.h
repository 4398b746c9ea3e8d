//===- interp/ProgramCache.h - Shared decoded program cache ----*- C++ -*-===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide cache of decoded programs keyed by module *content*:
/// Pipeline::speedup repetitions, the baseline/prefetched pairs inside one
/// evaluation, and parallel ExperimentEngine jobs all execute structurally
/// identical modules (the driver clones a module per configuration), so
/// re-decoding each one is pure waste. The key is a 128-bit FNV hash over
/// everything decode reads -- opcodes, operands, targets, site ids,
/// attribution flags, entry function, id spaces -- and deliberately
/// excludes Module::Name and function/block names, which decode ignores.
///
/// DecodedProgram is immutable after construction, so handing one
/// shared_ptr to any number of concurrent interpreters is safe; the cache
/// itself is mutex-guarded and LRU-bounded.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_INTERP_PROGRAMCACHE_H
#define SPROF_INTERP_PROGRAMCACHE_H

#include "interp/DecodedProgram.h"

#include <memory>
#include <mutex>

namespace sprof {

class ProgramCache {
public:
  /// Host-side cache counters (reports/tests; monotonically increasing).
  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
  };

  /// The process-wide instance every Interpreter uses by default.
  static ProgramCache &global();

  explicit ProgramCache(size_t MaxEntries = 64) : MaxEntries(MaxEntries) {}

  /// Returns the cached decoded program for a module with \p M's content,
  /// decoding and inserting on first sight. Thread-safe; decoding runs
  /// outside the cache lock, and when two threads decode the same content
  /// at once both get the entry inserted first (Misses counts insertions,
  /// so the loser counts as a hit).
  std::shared_ptr<const DecodedProgram> get(const Module &M);

  /// Content fingerprint of everything the decoder reads from \p M.
  static std::pair<uint64_t, uint64_t> hashModule(const Module &M);

  CacheStats stats() const;

  /// Drops every entry (tests; outstanding shared_ptrs stay valid).
  void clear();

private:
  struct Node {
    uint64_t H1 = 0;
    uint64_t H2 = 0;
    uint64_t LastUse = 0;
    std::shared_ptr<const DecodedProgram> Program;
  };

  /// The entry for (\p H1, \p H2), refreshed and counted as a hit, or
  /// nullptr. Requires Mu.
  std::shared_ptr<const DecodedProgram> lookupLocked(uint64_t H1, uint64_t H2);

  mutable std::mutex Mu;
  std::vector<Node> Nodes;
  uint64_t UseClock = 0;
  size_t MaxEntries;
  CacheStats Counts;
};

} // namespace sprof

#endif // SPROF_INTERP_PROGRAMCACHE_H
