//===- profile/ProfileStore.h - Persistent, mergeable profiles -*- C++ -*-===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk form of a profiling run: one versioned text artifact
/// ("sprof.profile/1") bundling the edge profile, the stride profile, and
/// provenance metadata (workload, profiling method, data set). This is
/// what makes the paper's two-pass workflow (Section 3.2) real instead of
/// in-memory only: a train run can save its profiles, a later compile can
/// load them and feed them to the Figure-5 classifier, and profiles
/// collected in shards (one per data slice or seed replica) can be merged
/// deterministically into one aggregate, the way production FDO pipelines
/// combine raw profile shards.
///
/// Serialization is byte-deterministic: the same store always produces the
/// same text, so stores can be compared for bit-identity (the engine's
/// parallel-equals-serial guarantee is tested this way).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_PROFILE_PROFILESTORE_H
#define SPROF_PROFILE_PROFILESTORE_H

#include "profile/ProfileData.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace sprof {

/// Schema line at the top of every profile file.
inline constexpr const char *ProfileFileSchemaV1 = "sprof.profile/1";

/// Most functions a profile file's shape line may declare. load() sizes
/// the edge profile from the shape line before it reads an entry, so it
/// rejects a larger count (and a site count above TraceMaxSites) before
/// allocating anything. The suite's largest workload has 3 functions.
inline constexpr size_t ProfileMaxFunctions = size_t{1} << 16;

/// Provenance stamped into the file header. Free-form single-line strings;
/// merge() requires Workload (and the profile shapes) to match so shards
/// from different programs cannot combine silently.
struct ProfileMeta {
  std::string Workload; ///< Figure-15 name ("181.mcf")
  std::string Method;   ///< profilingMethodName() string
  std::string DataSet;  ///< dataSetName() string
};

/// One saved (or saveable) profiling run: metadata + both profiles.
class ProfileStore {
public:
  ProfileStore() = default;
  ProfileStore(ProfileMeta Meta, EdgeProfile Edges, StrideProfile Strides)
      : Meta(std::move(Meta)), Edges(std::move(Edges)),
        Strides(std::move(Strides)) {}

  const ProfileMeta &meta() const { return Meta; }
  ProfileMeta &meta() { return Meta; }
  const EdgeProfile &edges() const { return Edges; }
  const StrideProfile &strides() const { return Strides; }

  size_t numFunctions() const { return Edges.numFunctions(); }
  uint32_t numSites() const { return Strides.numSites(); }

  /// Writes the sprof.profile/1 text form. Deterministic byte for byte.
  void save(std::ostream &OS) const;
  bool saveFile(const std::string &Path) const;
  std::string toString() const;

  /// Parses a file previously written by save. On failure returns false,
  /// leaves \p Out unspecified, and describes the problem in \p Error
  /// (when non-null): unknown schema version, malformed header, or a
  /// malformed/out-of-range profile line.
  static bool load(std::istream &IS, ProfileStore &Out,
                   std::string *Error = nullptr);
  static bool loadFile(const std::string &Path, ProfileStore &Out,
                       std::string *Error = nullptr);
  static bool loadString(const std::string &Text, ProfileStore &Out,
                         std::string *Error = nullptr);

  /// Accumulates \p Shard into this store: entry/edge counters sum, stride
  /// scalar counters sum, and per-site top-stride tables union by stride
  /// value (counts of equal strides sum). The union is deliberately NOT
  /// truncated here; call truncateTopStrides once after the last shard so
  /// the result is independent of shard order. Fails (returning false,
  /// explaining in \p Error) when the workload name or either profile
  /// shape differs.
  bool merge(const ProfileStore &Shard, std::string *Error = nullptr);

  /// LFU-style re-merge of every site's top-stride table: sort by count
  /// descending (stride value ascending on ties) and keep the first
  /// \p TopN entries — the same ordering LfuValueProfiler::topValues()
  /// produces, so merged stores look like single-run stores downstream.
  void truncateTopStrides(unsigned TopN);

  /// Merges \p Shards into one store: union everything, then truncate each
  /// site to \p TopN once. Any permutation of \p Shards produces
  /// byte-identical output. Requires at least one shard.
  static bool mergeShards(const std::vector<const ProfileStore *> &Shards,
                          unsigned TopN, ProfileStore &Out,
                          std::string *Error = nullptr);

private:
  ProfileMeta Meta;
  EdgeProfile Edges;
  StrideProfile Strides;
};

} // namespace sprof

#endif // SPROF_PROFILE_PROFILESTORE_H
