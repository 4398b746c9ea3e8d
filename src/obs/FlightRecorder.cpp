//===- obs/FlightRecorder.cpp - Crash/hang post-mortem ring ----------------===//
//
// Part of the StrideProf project (see FlightRecorder.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace sprof;

const char *sprof::flightEventKindName(FlightEventKind Kind) {
  switch (Kind) {
  case FlightEventKind::JobStart:
    return "job-start";
  case FlightEventKind::JobFinish:
    return "job-finish";
  case FlightEventKind::JobFail:
    return "job-fail";
  case FlightEventKind::Phase:
    return "phase";
  case FlightEventKind::Mark:
    return "mark";
  }
  return "unknown";
}

namespace {

thread_local FlightRecorder *BoundRecorder = nullptr;
thread_local uint32_t BoundWorker = 0;

/// The recorder the fatal-signal handler dumps; armed by
/// installSignalDump, cleared by the owning recorder's destructor.
std::atomic<FlightRecorder *> SignalRecorder{nullptr};
std::atomic<bool> HandlersInstalled{false};

uint64_t monotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void copyStr(char *Dst, size_t Cap, const char *Src) {
  size_t N = 0;
  if (Src)
    for (; Src[N] && N + 1 < Cap; ++N)
      Dst[N] = Src[N];
  Dst[N] = '\0';
}

/// copyStr into a seqlock-guarded buffer, each byte a release store.
void storeStr(std::atomic<char> *Dst, size_t Cap, const char *Src) {
  size_t N = 0;
  if (Src)
    for (; Src[N] && N + 1 < Cap; ++N)
      Dst[N].store(Src[N], std::memory_order_release);
  Dst[N].store('\0', std::memory_order_release);
}

/// Snapshot of a seqlock-guarded buffer, always NUL-terminated.
void loadStr(char *Dst, const std::atomic<char> *Src, size_t Cap) {
  for (size_t N = 0; N != Cap; ++N)
    Dst[N] = Src[N].load(std::memory_order_acquire);
  Dst[Cap - 1] = '\0';
}

/// Buffered fd writer; every call is async-signal-safe (write(2) only).
struct FdWriter {
  int Fd;
  char Buf[1024];
  size_t Len = 0;
  bool Ok = true;

  explicit FdWriter(int Fd) : Fd(Fd) {}

  void flush() {
    size_t Off = 0;
    while (Off < Len) {
      ssize_t N = ::write(Fd, Buf + Off, Len - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Ok = false;
        break;
      }
      Off += static_cast<size_t>(N);
    }
    Len = 0;
  }
  void put(char C) {
    if (Len == sizeof(Buf))
      flush();
    Buf[Len++] = C;
  }
  void raw(const char *S) {
    for (; *S; ++S)
      put(*S);
  }
  void num(uint64_t V) {
    char Tmp[20];
    size_t N = 0;
    do {
      Tmp[N++] = static_cast<char>('0' + V % 10);
      V /= 10;
    } while (V != 0);
    while (N != 0)
      put(Tmp[--N]);
  }
  /// JSON string literal; control characters degrade to '?' instead of
  /// growing a \uXXXX encoder the dump path doesn't need.
  void str(const char *S) {
    put('"');
    for (; *S; ++S) {
      unsigned char C = static_cast<unsigned char>(*S);
      if (C == '"' || C == '\\') {
        put('\\');
        put(static_cast<char>(C));
      } else if (C < 0x20) {
        put('?');
      } else {
        put(static_cast<char>(C));
      }
    }
    put('"');
  }
};

void fatalSignalHandler(int Sig) {
  FlightRecorder *R = SignalRecorder.load(std::memory_order_acquire);
  if (R) {
    const char *Reason = Sig == SIGSEGV   ? "signal:SIGSEGV"
                         : Sig == SIGABRT ? "signal:SIGABRT"
                                          : "signal";
    R->dumpFile(nullptr, Reason); // nullptr: the recorder's armed path
  }
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (core dumps, wait status intact).
  signal(Sig, SIG_DFL);
  raise(Sig);
}

} // namespace

FlightRecorder::FlightRecorder(unsigned Workers, size_t RingSize)
    : EpochNs(monotonicNowNs()) {
  size_t Cap = 8;
  while (Cap < RingSize)
    Cap <<= 1;
  RingMask = Cap - 1;
  Lanes = std::vector<Lane>(Workers == 0 ? 1 : Workers);
  for (Lane &L : Lanes)
    L.Ring = std::vector<Slot>(Cap);
}

FlightRecorder::~FlightRecorder() {
  stopWatchdog();
  FlightRecorder *Self = this;
  SignalRecorder.compare_exchange_strong(Self, nullptr,
                                         std::memory_order_acq_rel);
}

uint64_t FlightRecorder::nowUs() const {
  return (monotonicNowNs() - EpochNs) / 1000;
}

void FlightRecorder::bindThread(uint32_t Worker) {
  BoundRecorder = this;
  BoundWorker = Worker < workers() ? Worker : 0;
}

void FlightRecorder::unbindThread() { BoundRecorder = nullptr; }

void FlightRecorder::notePhase(const char *Name) {
  if (FlightRecorder *R = BoundRecorder)
    R->record(BoundWorker, FlightEventKind::Phase, Name, "", true);
}

void FlightRecorder::notePhase(std::string_view Name) {
  FlightRecorder *R = BoundRecorder;
  if (!R)
    return; // the common case: unarmed sweeps pay one TL load + branch
  char Buf[NameCap];
  size_t N = Name.size() < NameCap - 1 ? Name.size() : NameCap - 1;
  for (size_t I = 0; I != N; ++I)
    Buf[I] = Name[I];
  Buf[N] = '\0';
  R->record(BoundWorker, FlightEventKind::Phase, Buf, "", true);
}

void FlightRecorder::jobStart(uint32_t Worker, const char *Name,
                              const char *Detail) {
  if (Worker >= workers())
    Worker = 0;
  Lane &L = Lanes[Worker];
  // CurrentJob gets the same odd/even guard as a ring slot so the dump
  // never reads a half-copied name.
  uint64_t Seq = L.JobSeq.load(std::memory_order_relaxed);
  L.JobSeq.store(Seq + 1, std::memory_order_relaxed);
  storeStr(L.CurrentJob, NameCap, Name);
  L.JobSeq.store(Seq + 2, std::memory_order_release);
  L.InFlight.store(true, std::memory_order_release);
  record(Worker, FlightEventKind::JobStart, Name, Detail, true);
}

void FlightRecorder::jobFinish(uint32_t Worker, const char *Name, bool Ok) {
  if (Worker >= workers())
    Worker = 0;
  record(Worker, Ok ? FlightEventKind::JobFinish : FlightEventKind::JobFail,
         Name, "", Ok);
  Lanes[Worker].InFlight.store(false, std::memory_order_release);
  heartbeat();
}

void FlightRecorder::jobParked(uint32_t Worker, const char *Name) {
  if (Worker >= workers())
    Worker = 0;
  record(Worker, FlightEventKind::Mark, "parked", Name, true);
  Lanes[Worker].InFlight.store(false, std::memory_order_release);
}

void FlightRecorder::mark(uint32_t Worker, const char *Name,
                          const char *Detail) {
  record(Worker < workers() ? Worker : 0, FlightEventKind::Mark, Name,
         Detail, true);
}

void FlightRecorder::record(uint32_t Worker, FlightEventKind Kind,
                            const char *Name, const char *Detail, bool Ok) {
  Lane &L = Lanes[Worker];
  uint64_t Idx = L.Head.load(std::memory_order_relaxed);
  Slot &S = L.Ring[Idx & RingMask];
  // Seqlock write: 2*Idx+1 while mid-write, 2*Idx+2 when stable. Tying
  // the sequence to the event index lets readers reject slots that a
  // lapped writer has already reused for a newer event.
  S.Seq.store(2 * Idx + 1, std::memory_order_relaxed);
  S.TsUs.store(nowUs(), std::memory_order_release);
  S.Kind.store(Kind, std::memory_order_release);
  S.Ok.store(Ok, std::memory_order_release);
  storeStr(S.Name, NameCap, Name);
  storeStr(S.Detail, DetailCap, Detail);
  S.Seq.store(2 * Idx + 2, std::memory_order_release);
  L.Head.store(Idx + 1, std::memory_order_release);
}

bool FlightRecorder::dumpFd(int Fd, const char *Reason) const {
  FdWriter W(Fd);
  W.raw("{\"schema\":");
  W.str(FlightRecSchemaV1);
  W.raw(",\"reason\":");
  W.str(Reason ? Reason : "request");
  W.raw(",\"wall_us\":");
  W.num(nowUs());
  W.raw(",\"workers\":[");
  for (size_t LI = 0; LI != Lanes.size(); ++LI) {
    const Lane &L = Lanes[LI];
    if (LI != 0)
      W.put(',');
    W.raw("{\"worker\":");
    W.num(LI);
    W.raw(",\"in_flight\":");
    W.raw(L.InFlight.load(std::memory_order_acquire) ? "true" : "false");
    char Job[NameCap];
    uint64_t S1 = L.JobSeq.load(std::memory_order_acquire);
    loadStr(Job, L.CurrentJob, NameCap);
    if ((S1 & 1) != 0 || L.JobSeq.load(std::memory_order_relaxed) != S1)
      Job[0] = '\0'; // torn copy; drop rather than mislead
    W.raw(",\"current_job\":");
    W.str(Job);
    W.raw(",\"events\":[");
    uint64_t Head = L.Head.load(std::memory_order_acquire);
    uint64_t Count = Head < L.Ring.size() ? Head : L.Ring.size();
    bool First = true;
    for (uint64_t Idx = Head - Count; Idx != Head; ++Idx) {
      const Slot &S = L.Ring[Idx & RingMask];
      uint64_t Want = 2 * Idx + 2;
      if (S.Seq.load(std::memory_order_acquire) != Want)
        continue; // mid-write or already lapped
      uint64_t TsUs = S.TsUs.load(std::memory_order_acquire);
      FlightEventKind Kind = S.Kind.load(std::memory_order_acquire);
      bool Ok = S.Ok.load(std::memory_order_acquire);
      char Name[NameCap], Detail[DetailCap];
      loadStr(Name, S.Name, NameCap);
      loadStr(Detail, S.Detail, DetailCap);
      if (S.Seq.load(std::memory_order_relaxed) != Want)
        continue; // changed under us
      if (!First)
        W.put(',');
      First = false;
      W.raw("{\"ts_us\":");
      W.num(TsUs);
      W.raw(",\"kind\":");
      W.str(flightEventKindName(Kind));
      W.raw(",\"name\":");
      W.str(Name);
      if (Detail[0] != '\0') {
        W.raw(",\"detail\":");
        W.str(Detail);
      }
      W.raw(",\"ok\":");
      W.raw(Ok ? "true" : "false");
      W.put('}');
    }
    W.raw("]}");
  }
  W.raw("]}\n");
  W.flush();
  return W.Ok;
}

bool FlightRecorder::dumpFile(const char *Path, const char *Reason) const {
  if (Path == nullptr)
    Path = SignalDumpPath; // armed path; may itself be empty
  if (Path[0] == '\0')
    return dumpFd(STDERR_FILENO, Reason);
  int Fd = ::open(Path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return dumpFd(STDERR_FILENO, Reason);
  bool Ok = dumpFd(Fd, Reason);
  ::close(Fd);
  return Ok;
}

void FlightRecorder::installSignalDump(const std::string &Path) {
  copyStr(SignalDumpPath, sizeof(SignalDumpPath), Path.c_str());
  SignalRecorder.store(this, std::memory_order_release);
  if (!HandlersInstalled.exchange(true)) {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = fatalSignalHandler;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = SA_NODEFER; // re-raise from the handler must deliver
    sigaction(SIGSEGV, &SA, nullptr);
    sigaction(SIGABRT, &SA, nullptr);
  }
}

void FlightRecorder::heartbeat() {
  LastFinishUs.store(nowUs(), std::memory_order_release);
}

void FlightRecorder::startWatchdog(uint64_t TimeoutSec,
                                   const std::string &Path) {
  stopWatchdog();
  {
    std::lock_guard<std::mutex> Lock(WatchdogMu);
    WatchdogStop = false;
  }
  heartbeat(); // the countdown starts now, not at the last real finish
  Watchdog = std::thread([this, TimeoutSec, Path] {
    const uint64_t TimeoutUs = TimeoutSec * 1000000;
    std::unique_lock<std::mutex> Lock(WatchdogMu);
    while (!WatchdogStop) {
      WatchdogCv.wait_for(Lock, std::chrono::milliseconds(100));
      if (WatchdogStop)
        return;
      bool AnyInFlight = false;
      for (const Lane &L : Lanes)
        AnyInFlight |= L.InFlight.load(std::memory_order_acquire);
      uint64_t Last = LastFinishUs.load(std::memory_order_acquire);
      if (AnyInFlight && nowUs() - Last > TimeoutUs) {
        // The sweep wedged: leave the post-mortem and kill the process
        // (exiting is the point — a hung 30-minute sweep should fail
        // loudly in CI, not sit until the job times out).
        dumpFile(Path.empty() ? nullptr : Path.c_str(), "watchdog");
        _exit(WatchdogExitCode);
      }
    }
  });
}

void FlightRecorder::stopWatchdog() {
  {
    std::lock_guard<std::mutex> Lock(WatchdogMu);
    WatchdogStop = true;
  }
  WatchdogCv.notify_all();
  if (Watchdog.joinable())
    Watchdog.join();
}
