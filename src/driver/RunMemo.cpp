//===- driver/RunMemo.cpp - Content-addressed timed-run memo --------------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/RunMemo.h"

using namespace sprof;

std::shared_ptr<const MemoizedRun>
RunMemo::run(const RunMemoKey &K,
             const std::function<MemoizedRun()> &Execute) {
  size_t Index = 0;
  std::shared_ptr<const MemoizedRun> Run;
  std::exception_ptr Error;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    while (Index != Entries.size() && !(Entries[Index].Key == K))
      ++Index;
    if (Index == Entries.size()) {
      Entries.emplace_back().Key = K;
    } else if (!Entries[Index].Done) {
      // Executing on another worker: park this job until it publishes.
      throw JobPending{[this, Index](JobPending::WakeFn Wake) {
        subscribe(Index, std::move(Wake));
      }};
    } else {
      Hit = true;
      Run = Entries[Index].Value;
      Error = Entries[Index].Error;
    }
    ++Entries[Index].Requests;
  }
  JobGraph::onPark([this, Index] {
    std::lock_guard<std::mutex> Lock(Mu);
    --Entries[Index].Requests;
  });

  if (!Hit) {
    try {
      Run = std::make_shared<const MemoizedRun>(Execute());
    } catch (...) {
      Error = std::current_exception();
    }
    publish(Index, Run, Error);
  }
  if (Error)
    std::rethrow_exception(Error);
  return Run;
}

void RunMemo::subscribe(size_t Index, JobPending::WakeFn Wake) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Entries[Index].Done) {
      Entries[Index].Waiters.push_back(std::move(Wake));
      return;
    }
  }
  Wake(); // published between the throw and this call
}

void RunMemo::publish(size_t Index, std::shared_ptr<const MemoizedRun> Value,
                      std::exception_ptr Error) {
  std::vector<JobPending::WakeFn> Waiters;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Entry &E = Entries[Index];
    E.Value = std::move(Value);
    E.Error = std::move(Error);
    E.Done = true;
    Waiters.swap(E.Waiters);
  }
  for (JobPending::WakeFn &Wake : Waiters)
    Wake();
}

RunMemo::Counts RunMemo::counts() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Counts C;
  C.Misses = Entries.size();
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
}
