//===- obs/Obs.cpp - Observability session lifecycle -----------------------===//
//
// Part of the StrideProf project (see Obs.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "obs/Json.h"
#include "obs/Sampler.h"
#include "obs/SelfProfiler.h"

using namespace sprof;

ObsSession::ObsSession(ObsConfig InConfig) : Config(std::move(InConfig)) {
  if (Config.Enabled && Config.SampleIntervalUs > 0) {
    Sampler = std::make_unique<TelemetrySampler>(
        Registry, Trace, Config.SampleIntervalUs, SampleRingCapacity);
    Sampler->start();
  }
  if (Config.Enabled && Config.SelfProfile)
    SelfProf =
        std::make_unique<EngineSelfProfiler>(Config.SelfProfileWindow);
}

ObsSession::~ObsSession() {
  if (Sampler)
    Sampler->stop();
}

void ObsSession::stopSampling() {
  if (Sampler)
    Sampler->stop();
}

bool ObsSession::writeArtifacts() {
  stopSampling();
  bool Ok = true;
  if (Sampler && !CounterSamplesFolded) {
    // Fold the ring into the trace as counter ("C") events so the
    // time-series renders alongside the phase spans in Perfetto.
    CounterSamplesFolded = true;
    for (const TimeSeriesSample &S : Sampler->samples()) {
      for (const auto &[Name, V] : S.Counters)
        Trace.appendCounterSample(Name, S.TsUs, static_cast<double>(V));
      for (const auto &[Name, V] : S.Gauges)
        Trace.appendCounterSample(Name, S.TsUs, V);
    }
  }
  if (Sampler && !Config.TimeSeriesOutputPath.empty())
    Ok &= writeJsonFile(Config.TimeSeriesOutputPath,
                        timeSeriesToJson(*Sampler));
  if (SelfProf && !Config.FoldedProfilePath.empty())
    Ok &= SelfProf->writeFoldedFile(Config.FoldedProfilePath);
  if (!Config.TraceOutputPath.empty())
    Ok &= Trace.writeChromeTraceFile(Config.TraceOutputPath);
  return Ok;
}
