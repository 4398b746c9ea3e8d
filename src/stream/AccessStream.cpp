//===- stream/AccessStream.cpp - Abstract access-event streams ------------===//
//
// Part of the StrideProf project (see AccessStream.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "stream/AccessStream.h"

#include <algorithm>
#include <cstring>

namespace sprof {

AccessSource::~AccessSource() = default;
AccessSink::~AccessSink() = default;

uint64_t drainStream(AccessSource &Src, AccessSink &Sink, size_t BatchSize) {
  if (BatchSize == 0)
    BatchSize = 1;
  std::vector<AccessEvent> Buf(BatchSize);
  uint64_t Total = 0;
  while (size_t N = Src.pull(Buf.data(), Buf.size())) {
    Sink.onBatch(Buf.data(), N);
    Total += N;
  }
  Sink.finish();
  return Total;
}

/// Copies up to \p Max events of \p Events from \p Pos on into \p Buf and
/// advances \p Pos past them.
static size_t pullFrom(std::span<const AccessEvent> Events, size_t &Pos,
                       AccessEvent *Buf, size_t Max) {
  const size_t N = std::min(Max, Events.size() - Pos);
  if (N != 0)
    std::memcpy(Buf, Events.data() + Pos, N * sizeof(AccessEvent));
  Pos += N;
  return N;
}

size_t VectorSource::pull(AccessEvent *Buf, size_t Max) {
  return pullFrom(Events, Pos, Buf, Max);
}

size_t SpanSource::pull(AccessEvent *Buf, size_t Max) {
  return pullFrom(Events, Pos, Buf, Max);
}

std::optional<std::span<const AccessEvent>>
pullRestInPlace(AccessSource &Src) {
  if (auto *VS = dynamic_cast<VectorSource *>(&Src))
    return VS->pullRest();
  if (auto *SS = dynamic_cast<SpanSource *>(&Src))
    return SS->pullRest();
  return std::nullopt;
}

std::span<const AccessEvent> bufferRest(AccessSource &Src,
                                        std::vector<AccessEvent> &Storage) {
  if (std::optional<std::span<const AccessEvent>> Rest = pullRestInPlace(Src))
    return *Rest;
  std::vector<AccessEvent> Buf(4096);
  while (size_t N = Src.pull(Buf.data(), Buf.size()))
    Storage.insert(Storage.end(), Buf.begin(), Buf.begin() + N);
  return Storage;
}

} // namespace sprof
