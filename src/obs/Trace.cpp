//===- obs/Trace.cpp - Scoped phase tracing (Chrome trace events) ----------===//
//
// Part of the StrideProf project (see Trace.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Obs.h"

#include <cassert>
#include <chrono>
#include <fstream>
#include <ostream>

using namespace sprof;

static uint64_t steadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceCollector::TraceCollector() : EpochNs(steadyNowNs()) {}

uint64_t TraceCollector::nowUs() const {
  return (steadyNowNs() - EpochNs) / 1000;
}

size_t TraceCollector::beginSpan(std::string_view Name,
                                 std::string_view Category) {
  // Phase enters double as flight-recorder breadcrumbs on threads an
  // armed engine bound to a lane; a no-op everywhere else.
  FlightRecorder::notePhase(Name);
  TraceEvent E;
  E.Name = std::string(Name);
  E.Category = std::string(Category);
  E.StartUs = nowUs();
  E.Depth = Depth++;
  Events.push_back(std::move(E));
  return Events.size() - 1;
}

void TraceCollector::endSpan(size_t Id) {
  assert(Id < Events.size() && "bad span id");
  assert(Events[Id].DurationUs == UINT64_MAX && "span ended twice");
  assert(Depth > 0 && "unbalanced endSpan");
  Events[Id].DurationUs = nowUs() - Events[Id].StartUs;
  --Depth;
}

void TraceCollector::appendCompletedSpan(std::string_view Name,
                                         std::string_view Category,
                                         uint64_t StartUs,
                                         uint64_t DurationUs, uint32_t Track,
                                         uint32_t Depth) {
  TraceEvent E;
  E.Name = std::string(Name);
  E.Category = std::string(Category);
  E.StartUs = StartUs;
  E.DurationUs = DurationUs;
  E.Depth = Depth;
  E.Track = Track;
  Events.push_back(std::move(E));
}

void TraceCollector::appendForeign(const TraceCollector &Other,
                                   uint64_t ShiftUs, uint32_t Track,
                                   uint32_t DepthBase) {
  for (const TraceEvent &E : Other.Events) {
    if (E.DurationUs == UINT64_MAX)
      continue;
    TraceEvent Copy = E;
    Copy.StartUs += ShiftUs;
    Copy.Depth += DepthBase;
    Copy.Track = Track;
    Events.push_back(std::move(Copy));
  }
}

void TraceCollector::appendFlowEdge(std::string_view Name, uint64_t FromTsUs,
                                    uint32_t FromTrack, uint64_t ToTsUs,
                                    uint32_t ToTrack) {
  FlowEdge E;
  E.Name = std::string(Name);
  E.FromTsUs = FromTsUs;
  E.FromTrack = FromTrack;
  E.ToTsUs = ToTsUs;
  E.ToTrack = ToTrack;
  FlowEdges.push_back(std::move(E));
}

void TraceCollector::appendCounterSample(std::string_view Name,
                                         uint64_t TsUs, double Value) {
  CounterSample S;
  S.Name = std::string(Name);
  S.TsUs = TsUs;
  S.Value = Value;
  CounterSamples.push_back(std::move(S));
}

bool TraceCollector::hasSpan(std::string_view Name) const {
  for (const TraceEvent &E : Events)
    if (E.DurationUs != UINT64_MAX && E.Name == Name)
      return true;
  return false;
}

void TraceCollector::writeChromeTrace(std::ostream &OS) const {
  JsonValue Root = JsonValue::object();
  JsonValue EventsJson = JsonValue::array();
  for (const TraceEvent &E : Events) {
    if (E.DurationUs == UINT64_MAX)
      continue; // never ended; an aborted run
    JsonValue J = JsonValue::object();
    J.set("name", E.Name);
    J.set("cat", E.Category.empty() ? std::string("sprof") : E.Category);
    J.set("ph", "X");
    J.set("ts", E.StartUs);
    J.set("dur", E.DurationUs);
    J.set("pid", 1);
    J.set("tid", static_cast<uint64_t>(E.Track) + 1);
    EventsJson.push(std::move(J));
  }
  // Dependency arrows: one "s"/"f" pair per edge, matched by id. The
  // destination's bp:"e" binds the arrowhead to the enclosing slice so
  // the arrow lands on the consumer span instead of the next event.
  for (size_t I = 0; I != FlowEdges.size(); ++I) {
    const FlowEdge &E = FlowEdges[I];
    JsonValue Start = JsonValue::object();
    Start.set("name", E.Name);
    Start.set("cat", "job-dep");
    Start.set("ph", "s");
    Start.set("id", static_cast<uint64_t>(I) + 1);
    Start.set("ts", E.FromTsUs);
    Start.set("pid", 1);
    Start.set("tid", static_cast<uint64_t>(E.FromTrack) + 1);
    EventsJson.push(std::move(Start));
    JsonValue Finish = JsonValue::object();
    Finish.set("name", E.Name);
    Finish.set("cat", "job-dep");
    Finish.set("ph", "f");
    Finish.set("bp", "e");
    Finish.set("id", static_cast<uint64_t>(I) + 1);
    Finish.set("ts", E.ToTsUs);
    Finish.set("pid", 1);
    Finish.set("tid", static_cast<uint64_t>(E.ToTrack) + 1);
    EventsJson.push(std::move(Finish));
  }
  // Counter tracks render on a dedicated lane (tid 0) below the spans.
  for (const CounterSample &S : CounterSamples) {
    JsonValue J = JsonValue::object();
    J.set("name", S.Name);
    J.set("cat", "sprof");
    J.set("ph", "C");
    J.set("ts", S.TsUs);
    J.set("pid", 1);
    J.set("tid", 0);
    JsonValue Args = JsonValue::object();
    Args.set("value", S.Value);
    J.set("args", std::move(Args));
    EventsJson.push(std::move(J));
  }
  Root.set("traceEvents", std::move(EventsJson));
  Root.set("displayTimeUnit", "ms");
  Root.write(OS);
  OS << '\n';
}

bool TraceCollector::writeChromeTraceFile(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  writeChromeTrace(OS);
  return static_cast<bool>(OS);
}

TraceSpan::TraceSpan(ObsSession *Session, std::string_view Name,
                     std::string_view Category) {
  if (Session && Session->config().CollectTrace)
    open(Session->trace(), Name, Category);
}
