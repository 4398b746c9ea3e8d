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
  std::promise<std::shared_ptr<const MemoizedRun>> Promise;
  Future Result;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const Entry &E : Entries)
      if (E.Key == K) {
        Result = E.Result;
        break;
      }
    if (!Result.valid()) {
      ++Stats.Misses;
      Entries.push_back({K, Promise.get_future().share()});
    }
  }

  if (Result.valid()) {
    // A hit: wait for the first request (on another worker, or already
    // done). That request is running, so the wait cannot deadlock.
    std::shared_ptr<const MemoizedRun> Run = Result.get();
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stats.Hits;
    Stats.SavedInstructions += Run->Stats.Instructions;
    return Run;
  }

  try {
    auto Run = std::make_shared<const MemoizedRun>(Execute());
    Promise.set_value(Run);
    return Run;
  } catch (...) {
    Promise.set_exception(std::current_exception());
    throw;
  }
}

RunMemo::Counts RunMemo::counts() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

void RunMemo::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Entries.clear();
  Stats = Counts();
}
