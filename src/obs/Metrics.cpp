//===- obs/Metrics.cpp - Low-overhead metrics registry ---------------------===//
//
// Part of the StrideProf project (see Metrics.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace sprof;

Histogram::Histogram(std::vector<uint64_t> UpperBounds)
    : UpperBounds(std::move(UpperBounds)) {
  assert(std::is_sorted(this->UpperBounds.begin(),
                        this->UpperBounds.end()) &&
         "histogram bounds must be ascending");
  Buckets.assign(this->UpperBounds.size() + 1, 0);
  Pow2Bounds = this->UpperBounds.size() <= 64 &&
               this->UpperBounds ==
                   exponentialBounds(1, static_cast<unsigned>(
                                            this->UpperBounds.size()));
}

size_t Histogram::searchBucket(uint64_t Sample) const {
  return static_cast<size_t>(
      std::lower_bound(UpperBounds.begin(), UpperBounds.end(), Sample) -
      UpperBounds.begin());
}

void Histogram::merge(const Histogram &Other) {
  if (Other.Count == 0)
    return;
  if (UpperBounds == Other.UpperBounds)
    for (size_t I = 0; I != Buckets.size(); ++I)
      Buckets[I] += Other.Buckets[I];
  Count += Other.Count;
  Sum += Other.Sum;
  Min = std::min(Min, Other.Min);
  Max = std::max(Max, Other.Max);
}

std::vector<uint64_t> Histogram::exponentialBounds(uint64_t Start,
                                                   unsigned NumBounds) {
  std::vector<uint64_t> Bounds;
  Bounds.reserve(NumBounds);
  uint64_t B = Start;
  for (unsigned I = 0; I != NumBounds; ++I) {
    Bounds.push_back(B);
    B *= 2;
  }
  return Bounds;
}

Counter &sprof::dummyCounter() {
  static thread_local Counter C;
  return C;
}

Histogram &sprof::dummyHistogram() {
  static thread_local Histogram H{std::vector<uint64_t>{}};
  return H;
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry &Other) {
  std::lock_guard<std::mutex> L(Other.Mu);
  Counters = Other.Counters;
  Gauges = Other.Gauges;
  Histograms = Other.Histograms;
}

MetricsRegistry &MetricsRegistry::operator=(const MetricsRegistry &Other) {
  if (this == &Other)
    return *this;
  std::scoped_lock L(Mu, Other.Mu);
  Counters = Other.Counters;
  Gauges = Other.Gauges;
  Histograms = Other.Histograms;
  return *this;
}

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), Counter()).first;
  return It->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), Gauge()).first;
  return It->second;
}

void MetricsRegistry::merge(const MetricsRegistry &Other) {
  // Other must be quiescent (no concurrent producers); this registry may
  // have a concurrent sampler, which the per-lookup lock tolerates.
  for (const auto &[Name, C] : Other.Counters)
    counter(Name).inc(C.value());
  for (const auto &[Name, G] : Other.Gauges)
    gauge(Name).set(G.value());
  for (const auto &[Name, H] : Other.Histograms)
    histogram(Name, H.bounds()).merge(H);
}

void MetricsRegistry::snapshotScalars(
    std::vector<std::pair<std::string, uint64_t>> &CountersOut,
    std::vector<std::pair<std::string, double>> &GaugesOut) const {
  std::lock_guard<std::mutex> L(Mu);
  CountersOut.clear();
  CountersOut.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    CountersOut.emplace_back(Name, C.value());
  GaugesOut.clear();
  GaugesOut.reserve(Gauges.size());
  for (const auto &[Name, G] : Gauges)
    GaugesOut.emplace_back(Name, G.value());
}

Histogram &MetricsRegistry::histogram(std::string_view Name,
                                      std::vector<uint64_t> UpperBounds) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms
             .emplace(std::string(Name),
                      UpperBounds.empty()
                          ? Histogram()
                          : Histogram(std::move(UpperBounds)))
             .first;
  return It->second;
}
