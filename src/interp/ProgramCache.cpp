//===- interp/ProgramCache.cpp - Shared decoded program cache -------------===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "interp/ProgramCache.h"

#include <algorithm>

using namespace sprof;

namespace {

/// Two independent FNV-1a streams (different offset bases, both fed every
/// word) give a 128-bit content key; a collision would need both 64-bit
/// streams to collide simultaneously.
struct Hash2 {
  uint64_t H1 = 14695981039346656037ull;
  uint64_t H2 = 0xcbf29ce484222325ull ^ 0x9e3779b97f4a7c15ull;

  void mix(uint64_t V) {
    H1 = (H1 ^ V) * 1099511628211ull;
    H2 = (H2 ^ (V + 0x9e3779b97f4a7c15ull)) * 0x100000001b3ull;
  }
  void mixOperand(const Operand &O) {
    mix(static_cast<uint64_t>(O.K));
    mix(static_cast<uint64_t>(O.V));
  }
};

} // namespace

std::pair<uint64_t, uint64_t> ProgramCache::hashModule(const Module &M) {
  Hash2 H;
  H.mix(M.EntryFunction);
  H.mix(M.NumLoadSites);
  H.mix(M.NumCounters);
  H.mix(M.Functions.size());
  for (const Function &F : M.Functions) {
    H.mix(F.NumParams);
    H.mix(F.NumRegs);
    H.mix(F.Blocks.size());
    for (const BasicBlock &B : F.Blocks) {
      H.mix(B.Insts.size());
      for (const Instruction &I : B.Insts) {
        H.mix(static_cast<uint64_t>(I.Op));
        H.mix(I.Dst);
        H.mixOperand(I.A);
        H.mixOperand(I.B);
        H.mixOperand(I.C);
        H.mix(static_cast<uint64_t>(I.Imm));
        H.mix(I.Pred);
        H.mix(I.Target0);
        H.mix(I.Target1);
        H.mix(I.Callee);
        H.mix(I.NumArgs);
        for (unsigned A = 0; A != I.NumArgs; ++A)
          H.mixOperand(I.Args[A]);
        H.mix(I.SiteId);
        H.mix(I.IsInstrumentation ? 1 : 0);
      }
    }
  }
  return {H.H1, H.H2};
}

ProgramCache &ProgramCache::global() {
  static ProgramCache Cache;
  return Cache;
}

std::shared_ptr<const DecodedProgram>
ProgramCache::lookupLocked(uint64_t H1, uint64_t H2) {
  ++UseClock;
  for (Node &N : Nodes)
    if (N.H1 == H1 && N.H2 == H2) {
      N.LastUse = UseClock;
      ++Counts.Hits;
      return N.Program;
    }
  return nullptr;
}

std::shared_ptr<const DecodedProgram> ProgramCache::get(const Module &M) {
  const auto [H1, H2] = hashModule(M);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (std::shared_ptr<const DecodedProgram> Hit = lookupLocked(H1, H2))
      return Hit;
  }

  // Decode outside the lock, so one worker's miss never stalls another
  // worker's lookup.
  auto Program = std::make_shared<const DecodedProgram>(M);

  std::lock_guard<std::mutex> Lock(Mu);
  // Another thread may have decoded the same content meanwhile: adopt the
  // entry inserted first, so every caller shares one program.
  if (std::shared_ptr<const DecodedProgram> Hit = lookupLocked(H1, H2))
    return Hit;
  ++Counts.Misses;
  Node N;
  N.H1 = H1;
  N.H2 = H2;
  N.LastUse = UseClock;
  N.Program = std::move(Program);
  if (Nodes.size() >= MaxEntries) {
    auto Oldest = std::min_element(
        Nodes.begin(), Nodes.end(),
        [](const Node &A, const Node &B) { return A.LastUse < B.LastUse; });
    *Oldest = std::move(N);
    ++Counts.Evictions;
    return Oldest->Program;
  }
  Nodes.push_back(std::move(N));
  return Nodes.back().Program;
}

ProgramCache::CacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts;
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Nodes.clear();
}
