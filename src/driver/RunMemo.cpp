//===- driver/RunMemo.cpp - Content-addressed timed-run memo --------------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/RunMemo.h"

using namespace sprof;

template <class T> JobPending RunMemo::parkOn(Slot<T> &S) {
  return JobPending{[this, &S](JobPending::WakeFn Wake) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!S.Done) {
        S.Waiters.push_back(std::move(Wake));
        return;
      }
    }
    Wake(); // published between the throw and this call
  }};
}

template <class T, class MakeFn>
void RunMemo::fill(Slot<T> &S, MakeFn &&Make) {
  std::shared_ptr<const T> Value;
  std::exception_ptr Error;
  try {
    Value = std::make_shared<const T>(Make());
  } catch (...) {
    Error = std::current_exception();
  }
  std::vector<JobPending::WakeFn> Waiters;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S.Value = std::move(Value);
    S.Error = std::move(Error);
    S.Done = true;
    Waiters.swap(S.Waiters);
  }
  for (JobPending::WakeFn &Wake : Waiters)
    Wake();
}

std::shared_ptr<const MemoizedRun>
RunMemo::run(const RunMemoKey &K,
             const std::function<MemoizedRun()> &Execute) {
  Entry *E = nullptr;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (Entry &Candidate : Entries)
      if (Candidate.Key == K) {
        E = &Candidate;
        break;
      }
    if (!E) {
      E = &Entries.emplace_back();
      E->Key = K;
    } else if (!E->Done) {
      // Executing on another worker: park this job until it publishes.
      throw parkOn(*E);
    } else {
      Hit = true;
    }
    ++E->Requests;
  }
  JobGraph::onPark([this, E] {
    std::lock_guard<std::mutex> Lock(Mu);
    --E->Requests;
  });

  if (!Hit)
    fill(*E, Execute);
  // Published, so no longer written.
  if (E->Error)
    std::rethrow_exception(E->Error);
  return E->Value;
}

RunMemo::ModuleEntry *RunMemo::findModule(const Workload &W,
                                          const BuildRequest &Req) {
  for (ModuleEntry &E : Modules)
    if (E.W == &W && E.DS == Req.DS && E.SeedOffset == Req.SeedOffset)
      return &E;
  return nullptr;
}

std::shared_ptr<const Module> RunMemo::module(const Workload &W,
                                              const BuildRequest &Req) {
  ModuleEntry *E = nullptr;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    E = findModule(W, Req);
    if (!E) {
      E = &Modules.emplace_back();
      E->W = &W;
      E->DS = Req.DS;
      E->SeedOffset = Req.SeedOffset;
    } else if (!E->Done) {
      throw parkOn(*E);
    } else {
      Hit = true;
    }
  }
  if (!Hit)
    fill(*E, [&] {
      Program P = W.build(Req);
      ++ImageBuilds;
      // Read only once the entry is published.
      E->Held = SimMemory::freeze(std::move(P.Memory));
      return std::move(P.M);
    });
  if (E->Error)
    std::rethrow_exception(E->Error);
  return E->Value;
}

std::shared_ptr<const MemoryImage> RunMemo::image(const Workload &W,
                                                  const BuildRequest &Req) {
  ModuleEntry *E = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    E = findModule(W, Req);
    if (E && !E->Done)
      E = nullptr; // still building: make a copy nobody shares
  }
  if (!E) {
    ++ImageBuilds;
    return SimMemory::freeze(W.build(Req).Memory);
  }
  std::lock_guard<std::mutex> ImageLock(E->ImageMu);
  if (E->Held) {
    E->Live = E->Held;
    return std::move(E->Held);
  }
  if (std::shared_ptr<const MemoryImage> Image = E->Live.lock()) {
    ++ImageShares;
    return Image;
  }
  // Building under the entry's lock makes an overlapping call wait for
  // this image instead of building its own; the build takes no lock.
  std::shared_ptr<const MemoryImage> Image =
      SimMemory::freeze(W.build(Req).Memory);
  ++ImageBuilds;
  E->Live = Image;
  return Image;
}

RunMemo::Counts RunMemo::counts() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Counts C;
  C.Misses = Entries.size();
  C.ImageBuilds = ImageBuilds;
  C.ImageShares = ImageShares;
  for (const Entry &E : Entries) {
    // A failed run replays its exception, not a run, to later requests.
    if (!E.Value || E.Requests == 0)
      continue;
    C.Hits += E.Requests - 1;
    C.SavedInstructions += (E.Requests - 1) * E.Value->Stats.Instructions;
  }
  return C;
}

void RunMemo::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Entries.clear();
  Modules.clear();
  ImageBuilds = 0;
  ImageShares = 0;
}
