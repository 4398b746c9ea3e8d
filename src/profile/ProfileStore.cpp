//===- profile/ProfileStore.cpp - Persistent, mergeable profiles -----------===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileStore.h"

#include "stream/TraceFile.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace sprof;

static void setError(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
}

void ProfileStore::save(std::ostream &OS) const {
  OS << ProfileFileSchemaV1 << '\n';
  if (!Meta.Workload.empty())
    OS << "workload " << Meta.Workload << '\n';
  if (!Meta.Method.empty())
    OS << "method " << Meta.Method << '\n';
  if (!Meta.DataSet.empty())
    OS << "dataset " << Meta.DataSet << '\n';
  OS << "shape " << numFunctions() << ' ' << numSites() << '\n';
  writeProfiles(Edges, Strides, OS);
}

bool ProfileStore::saveFile(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  save(OS);
  return static_cast<bool>(OS);
}

std::string ProfileStore::toString() const {
  std::ostringstream OS;
  save(OS);
  return OS.str();
}

bool ProfileStore::load(std::istream &IS, ProfileStore &Out,
                        std::string *Error) {
  std::string Line;
  if (!std::getline(IS, Line) || Line != ProfileFileSchemaV1) {
    setError(Error, "not a " + std::string(ProfileFileSchemaV1) +
                        " file (got \"" + Line + "\")");
    return false;
  }

  // Header: meta lines, terminated by the mandatory shape line.
  ProfileMeta Meta;
  size_t NumFunctions = 0;
  uint32_t NumSites = 0;
  bool SawShape = false;
  while (!SawShape) {
    if (!std::getline(IS, Line)) {
      setError(Error, "missing shape line");
      return false;
    }
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    std::string *MetaField = Key == "workload" ? &Meta.Workload
                             : Key == "method" ? &Meta.Method
                             : Key == "dataset" ? &Meta.DataSet
                                                : nullptr;
    if (MetaField) {
      *MetaField =
          Line.size() > Key.size() + 1 ? Line.substr(Key.size() + 1) : "";
    } else if (Key == "shape") {
      if (!(LS >> NumFunctions >> NumSites)) {
        setError(Error, "malformed shape line: \"" + Line + "\"");
        return false;
      }
      if (NumFunctions > ProfileMaxFunctions || NumSites > TraceMaxSites) {
        setError(Error, "shape line declares more than " +
                            std::to_string(ProfileMaxFunctions) +
                            " functions or " + std::to_string(TraceMaxSites) +
                            " sites: \"" + Line + "\"");
        return false;
      }
      SawShape = true;
    } else {
      setError(Error, "unknown header line: \"" + Line + "\"");
      return false;
    }
  }

  EdgeProfile EP;
  StrideProfile SP;
  if (!readProfiles(IS, NumFunctions, NumSites, EP, SP)) {
    setError(Error, "malformed profile body");
    return false;
  }
  Out = ProfileStore(std::move(Meta), std::move(EP), std::move(SP));
  return true;
}

bool ProfileStore::loadFile(const std::string &Path, ProfileStore &Out,
                            std::string *Error) {
  std::ifstream IS(Path);
  if (!IS) {
    setError(Error, "cannot open " + Path);
    return false;
  }
  return load(IS, Out, Error);
}

bool ProfileStore::loadString(const std::string &Text, ProfileStore &Out,
                              std::string *Error) {
  std::istringstream IS(Text);
  return load(IS, Out, Error);
}

bool ProfileStore::merge(const ProfileStore &Shard, std::string *Error) {
  if (Meta.Workload != Shard.Meta.Workload) {
    setError(Error, "workload mismatch: \"" + Meta.Workload + "\" vs \"" +
                        Shard.Meta.Workload + "\"");
    return false;
  }
  if (numFunctions() != Shard.numFunctions() ||
      numSites() != Shard.numSites()) {
    setError(Error, "shape mismatch: " + std::to_string(numFunctions()) +
                        "f/" + std::to_string(numSites()) + "s vs " +
                        std::to_string(Shard.numFunctions()) + "f/" +
                        std::to_string(Shard.numSites()) + "s");
    return false;
  }

  // Provenance that is not shared by every shard degrades to the empty
  // string, in any merge order.
  if (Meta.Method != Shard.Meta.Method)
    Meta.Method.clear();
  if (Meta.DataSet != Shard.Meta.DataSet)
    Meta.DataSet.clear();

  for (uint32_t F = 0, E = static_cast<uint32_t>(numFunctions()); F != E;
       ++F) {
    Edges.setEntryCount(F, Edges.entryCount(F) + Shard.Edges.entryCount(F));
    for (const auto &[Ed, Count] : Shard.Edges.functionEdges(F))
      Edges.setFrequency(F, Ed, Edges.frequency(F, Ed) + Count);
  }

  // The stride-side merge discipline (union-by-value, order-preserving)
  // lives in ProfileData so ParallelReplay's shard fold shares it.
  sprof::mergeStrideProfile(Strides, Shard.Strides);
  return true;
}

void ProfileStore::truncateTopStrides(unsigned TopN) {
  sprof::truncateTopStrides(Strides, TopN);
}

bool ProfileStore::mergeShards(
    const std::vector<const ProfileStore *> &Shards, unsigned TopN,
    ProfileStore &Out, std::string *Error) {
  if (Shards.empty()) {
    setError(Error, "no shards to merge");
    return false;
  }
  Out = *Shards.front();
  for (size_t I = 1; I != Shards.size(); ++I)
    if (!Out.merge(*Shards[I], Error))
      return false;
  Out.truncateTopStrides(TopN);
  return true;
}
