//===- obs/FlightRecorder.h - Crash/hang post-mortem ring -------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, lock-free, per-worker ring of structured events (job
/// transitions, phase enters) that survives the sweep it observes: a
/// fatal-signal handler (SIGSEGV/SIGABRT) or the engine watchdog dumps it
/// as a "sprof.flightrec/1" JSON document, so a crashed or hung sweep
/// leaves a post-mortem naming the exact jobs in flight and the last
/// phases they entered.
///
/// Concurrency model: each worker lane has exactly one writer (the worker
/// thread the engine bound to it), so recording is wait-free — a
/// monotonic head counter plus a per-slot sequence guard (odd while the
/// slot is being written, even when stable). Readers (the signal handler,
/// possibly interrupting a write on the same thread; the watchdog on its
/// own thread) skip slots whose sequence is odd or changes under them.
/// The payload moves through release stores and acquire loads, so a reader
/// that sees any payload byte of a write also sees its odd sequence on
/// the re-check: a torn read is detected, never a data race. (No
/// standalone fences: ThreadSanitizer does not model them.)
/// The dump path allocates nothing and calls only async-signal-safe
/// functions (write, open, clock_gettime), formatting numbers by hand.
///
/// Event names are truncated into fixed char buffers — a post-mortem that
/// loses the tail of a long job name beats one that deadlocks in malloc.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_FLIGHTRECORDER_H
#define SPROF_OBS_FLIGHTRECORDER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace sprof {

/// Schema identifier stamped into every flight-recorder dump.
inline constexpr const char *FlightRecSchemaV1 = "sprof.flightrec/1";

/// What a flight-recorder event records.
enum class FlightEventKind : uint8_t {
  JobStart = 1,
  JobFinish = 2,
  JobFail = 3,
  Phase = 4, ///< pipeline phase span opened (instrument, execute, ...)
  Mark = 5,  ///< freeform caller annotation
};

const char *flightEventKindName(FlightEventKind Kind);

class FlightRecorder {
public:
  /// Capacity of the fixed name/detail buffers (including NUL).
  static constexpr size_t NameCap = 64;
  static constexpr size_t DetailCap = 48;

  /// Exit status of a watchdog-terminated process; distinctive so CI can
  /// tell "hung and dumped" from ordinary failure.
  static constexpr int WatchdogExitCode = 42;

  /// \p Workers lanes, each retaining the last \p RingSize events
  /// (rounded up to a power of two, minimum 8).
  FlightRecorder(unsigned Workers, size_t RingSize);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  unsigned workers() const { return static_cast<unsigned>(Lanes.size()); }

  /// Binds the calling thread to \p Worker's lane so notePhase() from
  /// inside job code lands on the right ring. The engine's job wrapper
  /// binds around each job; unbindThread() clears the association.
  void bindThread(uint32_t Worker);
  static void unbindThread();

  /// Records a phase enter on the calling thread's bound lane; no-op on
  /// unbound threads. Hooked into TraceCollector::beginSpan, so armed
  /// sweeps record phases with no producer changes.
  static void notePhase(const char *Name);
  static void notePhase(std::string_view Name); ///< bounded-copy variant

  /// Job transitions, recorded by the engine's wrapper. \p Detail is the
  /// job category (run-job, feedback-job, ...). jobFinish also feeds the
  /// watchdog heartbeat.
  void jobStart(uint32_t Worker, const char *Name, const char *Detail);
  void jobFinish(uint32_t Worker, const char *Name, bool Ok);
  /// The job's attempt parked (driver/JobGraph.h): a mark named "parked"
  /// with the job as detail, and the lane goes idle. Not a finish, so the
  /// watchdog heartbeat does not move.
  void jobParked(uint32_t Worker, const char *Name);

  /// Freeform annotation on an explicit lane.
  void mark(uint32_t Worker, const char *Name, const char *Detail);

  /// Async-signal-safe dump of every lane as "sprof.flightrec/1" JSON to
  /// \p Fd. \p Reason lands in the document ("signal:SIGSEGV",
  /// "watchdog", "request"). Returns false when a write failed.
  bool dumpFd(int Fd, const char *Reason) const;

  /// dumpFd to \p Path (O_CREAT|O_TRUNC); empty path means stderr.
  bool dumpFile(const char *Path, const char *Reason) const;

  /// Arms the process-wide SIGSEGV/SIGABRT handler to dump THIS recorder
  /// to \p Path (empty = stderr) before re-raising with the default
  /// disposition. One recorder owns the handler at a time; the last call
  /// wins, and the destructor disarms itself.
  void installSignalDump(const std::string &Path);

  /// Starts the watchdog: a thread that dumps to \p Path (empty = stderr)
  /// and calls _exit(WatchdogExitCode) when no job finishes for
  /// \p TimeoutSec seconds while at least one job is in flight. Stopped
  /// (joined) by stopWatchdog()/destructor.
  void startWatchdog(uint64_t TimeoutSec, const std::string &Path);
  void stopWatchdog();

  /// Resets the watchdog countdown; called on every job finish.
  void heartbeat();

  /// Microseconds since the recorder was created (monotonic clock).
  uint64_t nowUs() const;

private:
  struct Slot {
    std::atomic<uint64_t> Seq{0}; ///< odd while mid-write
    std::atomic<uint64_t> TsUs{0};
    std::atomic<FlightEventKind> Kind{FlightEventKind::Mark};
    std::atomic<bool> Ok{true};
    std::atomic<char> Name[NameCap] = {};
    std::atomic<char> Detail[DetailCap] = {};
  };

  struct Lane {
    std::atomic<uint64_t> Head{0}; ///< events ever recorded on this lane
    std::atomic<bool> InFlight{false};
    /// Last job started on the lane; guarded by JobSeq like a slot.
    std::atomic<uint64_t> JobSeq{0};
    std::atomic<char> CurrentJob[NameCap] = {};
    std::vector<Slot> Ring;
  };

  void record(uint32_t Worker, FlightEventKind Kind, const char *Name,
              const char *Detail, bool Ok);

  std::vector<Lane> Lanes;
  size_t RingMask = 0;
  uint64_t EpochNs = 0;
  char SignalDumpPath[512] = {0};

  std::atomic<uint64_t> LastFinishUs{0};
  std::thread Watchdog;
  std::mutex WatchdogMu;
  std::condition_variable WatchdogCv;
  bool WatchdogStop = false;
};

} // namespace sprof

#endif // SPROF_OBS_FLIGHTRECORDER_H
