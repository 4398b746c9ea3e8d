//===- driver/JobGraph.cpp - Dependency-aware job scheduler ----------------===//
//
// Part of the StrideProf project (see JobGraph.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/JobGraph.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

using namespace sprof;

JobId JobGraph::add(std::string Name, std::string Category, WorkFn Work,
                    std::vector<JobId> Deps) {
  assert(!Executed && "graph already ran");
  JobId Id = Nodes.size();
  for (JobId Dep : Deps) {
    assert(Dep < Id && "dependency does not exist yet");
    Nodes[Dep].Dependents.push_back(Id);
  }
  Node N;
  N.Name = std::move(Name);
  N.Category = std::move(Category);
  N.Work = std::move(Work);
  N.Deps = std::move(Deps);
  Nodes.push_back(std::move(N));
  return Id;
}

namespace {

/// Shared scheduler state; workers coordinate through one mutex.
struct RunState {
  std::mutex Mu;
  std::condition_variable Ready;
  std::deque<JobId> Queue; ///< jobs whose dependencies all finished
  std::vector<unsigned> Indegree;
  std::vector<JobId> FailedDep; ///< first failed dependency, or NoDep
  size_t Remaining = 0;         ///< jobs not yet finished or skipped
  uint64_t QueueHighWater = 0;  ///< most jobs ever runnable at once
  uint64_t DequeueRetries = 0;  ///< worker wakeups that found no job
  uint64_t Parks = 0;           ///< attempts that threw JobPending

  static constexpr JobId NoDep = static_cast<JobId>(-1);

  /// Appends a runnable job; called with Mu held.
  void enqueue(JobId Id) {
    Queue.push_back(Id);
    QueueHighWater = std::max<uint64_t>(QueueHighWater, Queue.size());
  }
};

/// The onPark() actions of the attempt running on this thread, or null
/// outside a job.
thread_local std::vector<std::function<void()>> *AttemptUndo = nullptr;

uint64_t steadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

void JobGraph::onPark(std::function<void()> Undo) {
  if (AttemptUndo)
    AttemptUndo->push_back(std::move(Undo));
}

std::vector<JobOutcome> JobGraph::run(unsigned Threads) {
  assert(!Executed && "graph already ran");
  Executed = true;
  if (Threads == 0)
    Threads = 1;

  std::vector<JobOutcome> Outcomes(Nodes.size());
  RunState S;
  S.Indegree.resize(Nodes.size());
  S.FailedDep.assign(Nodes.size(), RunState::NoDep);
  S.Remaining = Nodes.size();

  const uint64_t EpochUs = steadyNowUs();

  for (JobId Id = 0; Id != Nodes.size(); ++Id) {
    S.Indegree[Id] = static_cast<unsigned>(Nodes[Id].Deps.size());
    if (S.Indegree[Id] == 0)
      S.enqueue(Id); // ready at run() entry: ReadyUs stays 0
  }

  // Called with S.Mu held after a job finished (or was skipped): release
  // the job's dependents, propagating the failure when it failed.
  auto finish = [&](JobId Id, bool Failed) {
    --S.Remaining;
    for (JobId Dep : Nodes[Id].Dependents) {
      if (Failed && S.FailedDep[Dep] == RunState::NoDep)
        S.FailedDep[Dep] = Id;
      if (--S.Indegree[Dep] == 0) {
        Outcomes[Dep].ReadyUs = steadyNowUs() - EpochUs;
        S.enqueue(Dep);
      }
    }
  };

  // Runs one attempt of a job; returns the subscribe hook when it parked.
  auto execute = [&](JobId Id, uint32_t Worker) {
    JobOutcome &O = Outcomes[Id];
    const uint64_t AttemptUs = steadyNowUs() - EpochUs;
    if (!O.Ran)
      O.StartUs = AttemptUs;
    O.Ran = true;
    O.Worker = Worker;
    std::function<void(JobPending::WakeFn)> Subscribe;
    std::vector<std::function<void()>> Undo;
    std::vector<std::function<void()>> *Outer =
        std::exchange(AttemptUndo, &Undo);
    try {
      Nodes[Id].Work(Worker);
      O.Ok = true;
    } catch (JobPending &P) {
      assert(P.Subscribe && "JobPending without a subscribe hook");
      for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
        (*It)();
      Subscribe = std::move(P.Subscribe);
    } catch (const std::exception &E) {
      O.Ok = false;
      O.Error = E.what();
      O.Exception = std::current_exception();
    } catch (...) {
      O.Ok = false;
      O.Error = "unknown exception";
      O.Exception = std::current_exception();
    }
    AttemptUndo = Outer;
    O.DurationUs += steadyNowUs() - EpochUs - AttemptUs;
    return Subscribe;
  };

  auto skip = [&](JobId Id) {
    JobOutcome &O = Outcomes[Id];
    O.Ran = false;
    O.Ok = false;
    O.StartUs = steadyNowUs() - EpochUs;
    O.Error = "skipped: dependency '" + Nodes[S.FailedDep[Id]].Name +
              "' failed";
  };

  auto worker = [&](uint32_t Worker) {
    std::unique_lock<std::mutex> Lock(S.Mu);
    while (true) {
      if (S.Queue.empty()) {
        // A parked job keeps Remaining above zero, so workers stay until
        // its wake requeues it.
        if (S.Remaining == 0)
          return; // all done
        S.Ready.wait(Lock);
        // Woke with nothing to take: a spurious wakeup, or another
        // worker drained the queue first. Counted as a dequeue retry.
        if (S.Queue.empty() && S.Remaining != 0)
          ++S.DequeueRetries;
        continue;
      }
      JobId Id = S.Queue.front();
      S.Queue.pop_front();
      if (S.FailedDep[Id] != RunState::NoDep) {
        skip(Id);
        finish(Id, /*Failed=*/true);
        S.Ready.notify_all();
        continue;
      }
      Lock.unlock();
      if (auto Subscribe = execute(Id, Worker)) {
        // The wake puts the job back at the tail of the ready queue. It
        // may run on any thread, or right here when the event has already
        // happened, so subscribe off the lock.
        Subscribe([&S, Id] {
          std::lock_guard<std::mutex> Lock(S.Mu);
          S.enqueue(Id);
          S.Ready.notify_all();
        });
        Lock.lock();
        ++S.Parks;
        continue;
      }
      Lock.lock();
      finish(Id, /*Failed=*/!Outcomes[Id].Ok);
      S.Ready.notify_all();
    }
  };

  if (Threads == 1 || Nodes.size() <= 1) {
    // Inline execution in deterministic topological order.
    worker(/*Worker=*/0);
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (uint32_t WI = 0; WI != Threads; ++WI)
      Pool.emplace_back(worker, WI);
    for (std::thread &T : Pool)
      T.join();
  }
  assert(S.Remaining == 0 && "cycle in job graph");
  Sched.QueueDepthHighWater = S.QueueHighWater;
  Sched.DequeueRetries = S.DequeueRetries;
  Sched.Parks = S.Parks;
  return Outcomes;
}
