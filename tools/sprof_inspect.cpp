//===- tools/sprof_inspect.cpp - Run-report inspector CLI ------------------===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders sprof telemetry artifacts (sprof.run_report/1..5 and
/// sprof.timeseries/1) as tables, so an artifact on disk answers the
/// questions people actually ask of it without jq gymnastics:
///
///   sprof-inspect summary <report.json>
///       Workload, speedup, classification counts, prefetch-outcome
///       attribution, and the top load sites by demand-stall cycles.
///
///   sprof-inspect diff <reference.json> <candidate.json> [--json=PATH]
///       Reconstructs both stride profiles from the reports, re-runs the
///       Figures 23-25 accuracy methodology (diffStrideProfiles) with the
///       reference report's classifier thresholds, and prints the per-site
///       agreement table, the classification-flip matrix, and the weighted
///       accuracy score. --json additionally writes the machine-readable
///       profile_diff section.
///
///   sprof-inspect timeseries <timeseries.json>
///       Renders a TelemetrySampler's sprof.timeseries/1 artifact as
///       per-metric sparkline tables: counters as per-interval rates,
///       gauges as raw values.
///
///   sprof-inspect hotspots <report.json> [--top=N]
///       The engine self-profiler's per-dispatch-op attribution from the
///       report's self_profile section, hottest first.
///
///   sprof-inspect trace <file.sprof.trace> [--top=N]
///       Decodes a sprof.trace/2 capture: provenance header, per-kind
///       event histogram, decode throughput, shard-index summary, address
///       span, edge-section summary, and the busiest sites. Unreadable,
///       truncated, corrupt, or wrong-version traces (sprof.trace/1
///       included) diagnose the precise failure and exit 1.
///
///   sprof-inspect import <log.txt> <out.sprof.trace>
///       Converts a cacheSight-style "addr,site,kind" text access log
///       ('-' reads stdin) into an indexed binary sprof.trace/2 file and
///       prints the import summary. Malformed lines and site ids at or
///       above TraceMaxSites diagnose with their line number and exit 1.
///
///   sprof-inspect sweep <sweep_report.json> [--top=N]
///       The engine's causal sweep view (sprof.sweep_report/1): per-job
///       timeline with queue wait separated from run time, the
///       dependency-weighted critical path, per-worker utilization, and
///       the straggler top-N.
///
///   sprof-inspect blackbox <flightrec.json>
///       Reads a flight-recorder dump (sprof.flightrec/1): why it was
///       written, which jobs were in flight, and each worker lane's last
///       recorded events.
///
/// Exit status: 0 on success, 1 on usage/IO/parse errors. Unknown
/// subcommands, malformed JSON, wrong-schema inputs, and documents whose
/// schema version is NEWER than this reader supports all diagnose to
/// stderr and exit 1; they never crash or silently succeed.
///
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Report.h"
#include "obs/SweepReport.h"
#include "profile/ProfileDiff.h"
#include "stream/TraceFile.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace sprof;

namespace {

/// Loads \p Path, parses it, checks the "schema" member starts with
/// \p SchemaPrefix, and rejects versions newer than \p MaxVersion — a /7
/// document may carry sections whose invariants this reader predates, so
/// skipping them silently would let a broken producer pass. Every failure
/// mode (unreadable file, malformed JSON, wrong document kind, too-new
/// version) prints a one-line diagnostic and returns false.
bool loadDocument(const std::string &Path, const char *SchemaPrefix,
                  unsigned MaxVersion, JsonValue &Out) {
  std::ifstream IS(Path);
  if (!IS) {
    std::cerr << "sprof-inspect: cannot open " << Path << "\n";
    return false;
  }
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  if (!IS.good() && !IS.eof()) {
    std::cerr << "sprof-inspect: error reading " << Path << "\n";
    return false;
  }
  std::string Error;
  if (!JsonValue::parse(Buf.str(), Out, &Error)) {
    std::cerr << "sprof-inspect: " << Path << ": parse error: " << Error
              << "\n";
    return false;
  }
  if (!Out.isObject()) {
    std::cerr << "sprof-inspect: " << Path
              << ": top-level value is not an object\n";
    return false;
  }
  const JsonValue *Schema = Out.get("schema");
  if (!Schema || !Schema->isString() ||
      Schema->asString().rfind(SchemaPrefix, 0) != 0) {
    std::cerr << "sprof-inspect: " << Path << ": not a " << SchemaPrefix
              << "* document (schema: "
              << (Schema && Schema->isString() ? Schema->asString()
                                               : std::string("<missing>"))
              << ")\n";
    return false;
  }
  const std::string &Full = Schema->asString();
  char *End = nullptr;
  unsigned long Version =
      std::strtoul(Full.c_str() + std::strlen(SchemaPrefix), &End, 10);
  if (!End || *End != '\0' || Version == 0) {
    std::cerr << "sprof-inspect: " << Path << ": malformed schema version '"
              << Full << "'\n";
    return false;
  }
  if (Version > MaxVersion) {
    std::cerr << "sprof-inspect: " << Path << ": schema " << Full
              << " is newer than this reader supports (max "
              << SchemaPrefix << MaxVersion
              << "); upgrade sprof-inspect\n";
    return false;
  }
  return true;
}

bool loadReport(const std::string &Path, JsonValue &Out) {
  return loadDocument(Path, "sprof.run_report/", 5, Out);
}

uint64_t uintAt(const JsonValue *Obj, const char *Key) {
  const JsonValue *V = Obj ? Obj->get(Key) : nullptr;
  return V ? V->asUInt() : 0;
}

double doubleAt(const JsonValue *Obj, const char *Key) {
  const JsonValue *V = Obj ? Obj->get(Key) : nullptr;
  return V ? V->asDouble() : 0.0;
}

std::string stringAt(const JsonValue *Obj, const char *Key,
                     const char *Default = "") {
  const JsonValue *V = Obj ? Obj->get(Key) : nullptr;
  return V && V->isString() ? V->asString() : std::string(Default);
}

// -- summary ---------------------------------------------------------------

void printOutcomeRow(Table &T, const std::string &Label,
                     const JsonValue *O) {
  uint64_t Issued = uintAt(O, "issued");
  auto Pct = [&](uint64_t N) {
    return Issued ? Table::fmtPercent(100.0 * static_cast<double>(N) /
                                      static_cast<double>(Issued))
                  : std::string("-");
  };
  uint64_t Useful = uintAt(O, "useful");
  T.row({Label, Table::fmtInt(Issued), Table::fmtInt(Useful), Pct(Useful),
         Table::fmtInt(uintAt(O, "late")), Table::fmtInt(uintAt(O, "early")),
         Table::fmtInt(uintAt(O, "redundant"))});
}

int runSummary(const std::string &Path) {
  JsonValue Report;
  if (!loadReport(Path, Report))
    return 1;

  std::cout << "report:   " << Path << "\n";
  std::cout << "schema:   " << stringAt(&Report, "schema") << "\n";
  std::cout << "workload: " << stringAt(&Report, "workload", "?") << "\n";

  const JsonValue *Timed = Report.get("timed_run");
  const JsonValue *Baseline = Report.get("baseline_run");
  if (const JsonValue *Speedup = Report.get("speedup"))
    std::cout << "speedup:  " << Table::fmt(Speedup->asDouble()) << "x\n";
  if (Timed) {
    const JsonValue *Stats = Timed->get("stats");
    std::cout << "cycles:   " << uintAt(Stats, "cycles")
              << " (baseline " << uintAt(Baseline, "cycles")
              << ", mem stall " << uintAt(Stats, "mem_stall_cycles")
              << ")\n";
  }
  std::cout << "\n";

  if (Timed) {
    const JsonValue *Counts = Timed->get("classification")
                                  ? Timed->get("classification")
                                        ->get("class_counts")
                                  : nullptr;
    if (Counts) {
      Table T("Stride classification (load sites)");
      T.row({"class", "sites"});
      for (const char *K : {"ssst", "pmst", "wsst", "none"})
        T.row({K, Table::fmtInt(uintAt(Counts, K))});
      T.print(std::cout);
      std::cout << "\n";
    }
  }

  const JsonValue *Attr = Report.get("attribution");
  if (Attr) {
    Table T("Prefetch outcomes");
    T.row({"scope", "issued", "useful", "useful%", "late", "early",
           "redundant"});
    printOutcomeRow(T, "total", Attr->get("outcomes"));
    if (const JsonValue *ByClass = Attr->get("by_class"))
      for (const char *K : {"ssst", "pmst", "wsst", "none"})
        printOutcomeRow(T, K, ByClass->get(K));
    T.print(std::cout);
    std::cout << "\n";

    const JsonValue *Sites = Attr->get("per_site");
    if (Sites && Sites->isArray() && Sites->size() != 0) {
      std::vector<const JsonValue *> Sorted;
      for (const JsonValue &S : Sites->items())
        Sorted.push_back(&S);
      std::stable_sort(Sorted.begin(), Sorted.end(),
                       [](const JsonValue *A, const JsonValue *B) {
                         return uintAt(A, "stall_cycles") >
                                uintAt(B, "stall_cycles");
                       });
      Table T2("Top load sites by demand-stall cycles");
      T2.row({"site", "class", "stall", "accesses", "l1_miss", "l1_mpki",
              "useful", "late", "early", "redundant"});
      size_t N = std::min<size_t>(Sorted.size(), 10);
      for (size_t I = 0; I != N; ++I) {
        const JsonValue *S = Sorted[I];
        const JsonValue *Id = S->get("site");
        T2.row({Id && Id->isString() ? Id->asString()
                                     : std::to_string(uintAt(S, "site")),
                stringAt(S, "class"),
                Table::fmtInt(uintAt(S, "stall_cycles")),
                Table::fmtInt(uintAt(S, "accesses")),
                Table::fmtInt(uintAt(S, "l1_misses")),
                Table::fmt(doubleAt(S, "l1_mpki")),
                Table::fmtInt(uintAt(S, "useful")),
                Table::fmtInt(uintAt(S, "late")),
                Table::fmtInt(uintAt(S, "early")),
                Table::fmtInt(uintAt(S, "redundant"))});
      }
      T2.print(std::cout);
      if (Sorted.size() > N)
        std::cout << "(" << Sorted.size() - N << " more sites)\n";
      std::cout << "\n";
    }
  } else {
    std::cout << "(no attribution section -- run with "
                 "Memory.EnableAttribution)\n\n";
  }

  if (const JsonValue *Diff = Report.get("profile_diff")) {
    std::cout << "profile diff: weighted accuracy "
              << Table::fmt(doubleAt(Diff, "weighted_accuracy") * 100.0, 1)
              << "% over " << uintAt(Diff, "sites_compared")
              << " sites (use `sprof-inspect diff` for the full table)\n";
  }
  return 0;
}

// -- diff ------------------------------------------------------------------

/// Rebuilds a StrideProfile from a report's profile_run.stride_profile
/// section. The serialized per-site fields (total/zero/zero-diff counts and
/// the top-stride list) are exactly the inputs classifyStrideSummary and
/// the top-4 overlap read, so the reconstruction is lossless for diffing.
bool profileFromReport(const JsonValue &Report, const std::string &Path,
                       StrideProfile &Out) {
  const JsonValue *PR = Report.get("profile_run");
  const JsonValue *SP = PR ? PR->get("stride_profile") : nullptr;
  const JsonValue *Sites = SP ? SP->get("sites") : nullptr;
  if (!Sites || !Sites->isArray()) {
    std::cerr << "sprof-inspect: " << Path
              << ": no profile_run.stride_profile section\n";
    return false;
  }
  Out = StrideProfile(static_cast<uint32_t>(uintAt(SP, "num_sites")));
  for (const JsonValue &SJ : Sites->items()) {
    uint32_t Id = static_cast<uint32_t>(uintAt(&SJ, "site"));
    if (Id >= Out.numSites())
      continue;
    StrideSiteSummary &Sum = Out.site(Id);
    Sum.SiteId = Id;
    Sum.TotalStrides = uintAt(&SJ, "total_strides");
    Sum.NumZeroStride = uintAt(&SJ, "zero_strides");
    Sum.NumZeroDiff = uintAt(&SJ, "zero_diffs");
    if (const JsonValue *Top = SJ.get("top_strides"))
      for (const JsonValue &TJ : Top->items()) {
        const JsonValue *V = TJ.get("stride");
        Sum.TopStrides.push_back(
            {V ? V->asInt() : 0, uintAt(&TJ, "count")});
      }
  }
  return true;
}

/// Classifier thresholds travel inside the report; reusing the reference
/// report's values keeps the re-classification faithful to the run.
ClassifierConfig classifierFromReport(const JsonValue &Report) {
  ClassifierConfig C;
  const JsonValue *Cfg = Report.get("config");
  const JsonValue *Cls = Cfg ? Cfg->get("classifier") : nullptr;
  if (!Cls)
    return C;
  C.FrequencyThreshold = uintAt(Cls, "frequency_threshold");
  C.TripCountThreshold = uintAt(Cls, "trip_count_threshold");
  C.SsstThreshold = doubleAt(Cls, "ssst_threshold");
  C.PmstThreshold = doubleAt(Cls, "pmst_threshold");
  C.PmstDiffThreshold = doubleAt(Cls, "pmst_diff_threshold");
  C.WsstThreshold = doubleAt(Cls, "wsst_threshold");
  C.WsstDiffThreshold = doubleAt(Cls, "wsst_diff_threshold");
  return C;
}

int runDiff(const std::string &PathA, const std::string &PathB,
            const std::string &JsonOut) {
  JsonValue RA, RB;
  if (!loadReport(PathA, RA) || !loadReport(PathB, RB))
    return 1;
  StrideProfile PA, PB;
  if (!profileFromReport(RA, PathA, PA) ||
      !profileFromReport(RB, PathB, PB))
    return 1;

  ProfileDiffResult Diff =
      diffStrideProfiles(PA, PB, classifierFromReport(RA));

  std::cout << "reference: " << PathA << " ("
            << stringAt(&RA, "workload", "?") << ")\n";
  std::cout << "candidate: " << PathB << " ("
            << stringAt(&RB, "workload", "?") << ")\n\n";

  Table Sum("Profile accuracy (reference vs candidate)");
  Sum.row({"metric", "value"});
  Sum.row({"sites compared", Table::fmtInt(Diff.SitesCompared)});
  Sum.row({"top-stride agreement",
           Table::fmtPercent(100.0 * Diff.TopStrideAgreement)});
  Sum.row({"class agreement",
           Table::fmtPercent(100.0 * Diff.ClassAgreement)});
  Sum.row({"weighted accuracy",
           Table::fmtPercent(100.0 * Diff.WeightedAccuracy)});
  Sum.print(std::cout);
  std::cout << "\n";

  static const char *ClassNames[NumStrideClasses] = {"none", "ssst", "pmst",
                                                     "wsst"};
  Table Flips("Classification flips (rows: reference, cols: candidate)");
  Flips.row({"ref\\cand", "none", "ssst", "pmst", "wsst"});
  for (size_t A = 0; A != NumStrideClasses; ++A)
    Flips.row({ClassNames[A], Table::fmtInt(Diff.Flips[A][0]),
               Table::fmtInt(Diff.Flips[A][1]),
               Table::fmtInt(Diff.Flips[A][2]),
               Table::fmtInt(Diff.Flips[A][3])});
  Flips.print(std::cout);
  std::cout << "\n";

  // Per-site table, heaviest reference sites first; disagreements are what
  // the reader is hunting, so they sort above same-weight agreements.
  std::vector<const SiteDiffEntry *> Order;
  for (const SiteDiffEntry &E : Diff.Sites)
    Order.push_back(&E);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const SiteDiffEntry *A, const SiteDiffEntry *B) {
                     if (A->WeightA != B->WeightA)
                       return A->WeightA > B->WeightA;
                     return A->Score < B->Score;
                   });
  Table Sites("Per-site accuracy (top 20 by reference weight)");
  Sites.row({"site", "weight", "stride(ref)", "stride(cand)", "top4",
             "class(ref)", "class(cand)", "score"});
  size_t N = std::min<size_t>(Order.size(), 20);
  for (size_t I = 0; I != N; ++I) {
    const SiteDiffEntry *E = Order[I];
    Sites.row({Table::fmtInt(E->Site), Table::fmtInt(E->WeightA),
               std::to_string(E->TopStrideA), std::to_string(E->TopStrideB),
               Table::fmtPercent(100.0 * E->Top4Overlap),
               strideClassName(E->ClassA), strideClassName(E->ClassB),
               Table::fmt(E->Score)});
  }
  Sites.print(std::cout);
  if (Order.size() > N)
    std::cout << "(" << Order.size() - N << " more sites)\n";

  if (!JsonOut.empty()) {
    if (!writeJsonFile(JsonOut, profileDiffToJson(Diff))) {
      std::cerr << "sprof-inspect: could not write " << JsonOut << "\n";
      return 1;
    }
    std::cout << "\ndiff written to " << JsonOut << "\n";
  }
  return 0;
}

// -- timeseries ------------------------------------------------------------

/// Eight-level block sparkline over \p Values, downsampled (bucket max) to
/// at most \p Width cells. Flat series render as a flat line.
std::string sparkline(const std::vector<double> &Values, size_t Width = 40) {
  static const char *Blocks[8] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (Values.empty())
    return "";
  std::vector<double> Cells;
  if (Values.size() <= Width) {
    Cells = Values;
  } else {
    Cells.resize(Width);
    for (size_t C = 0; C != Width; ++C) {
      size_t Lo = C * Values.size() / Width;
      size_t Hi = (C + 1) * Values.size() / Width;
      double M = Values[Lo];
      for (size_t I = Lo + 1; I < Hi; ++I)
        M = std::max(M, Values[I]);
      Cells[C] = M;
    }
  }
  double Min = *std::min_element(Cells.begin(), Cells.end());
  double Max = *std::max_element(Cells.begin(), Cells.end());
  double Span = Max - Min;
  std::string Out;
  for (double V : Cells) {
    size_t Level =
        Span > 0 ? static_cast<size_t>((V - Min) / Span * 7.0 + 0.5) : 0;
    Out += Blocks[std::min<size_t>(Level, 7)];
  }
  return Out;
}

int runTimeseries(const std::string &Path) {
  JsonValue Doc;
  if (!loadDocument(Path, "sprof.timeseries/", 1, Doc))
    return 1;

  const JsonValue *Ts = Doc.get("timestamps_us");
  if (!Ts || !Ts->isArray()) {
    std::cerr << "sprof-inspect: " << Path << ": no timestamps_us array\n";
    return 1;
  }
  size_t N = Ts->size();
  std::cout << "timeseries: " << Path << "\n";
  std::cout << "samples:    " << N << " (interval "
            << uintAt(&Doc, "interval_us") << " us, "
            << uintAt(&Doc, "dropped") << " dropped)\n";
  if (N != 0)
    std::cout << "span:       " << Ts->at(0).asUInt() << " us .. "
              << Ts->at(N - 1).asUInt() << " us\n";
  std::cout << "\n";

  auto SeriesOf = [N](const JsonValue &Arr) {
    std::vector<double> V;
    V.reserve(N);
    for (const JsonValue &X : Arr.items())
      V.push_back(X.asDouble());
    return V;
  };

  // Counters are monotone totals; the per-interval delta is the readable
  // shape (a flat sparkline means "idle", a burst means "hot phase").
  const JsonValue *Counters = Doc.get("counters");
  if (Counters && Counters->isObject() && Counters->size() != 0) {
    Table T("Counters (sparkline of per-interval increments)");
    T.row({"counter", "total", "trend"});
    for (const auto &[Name, Arr] : Counters->members()) {
      if (!Arr.isArray())
        continue;
      std::vector<double> Values = SeriesOf(Arr);
      std::vector<double> Deltas;
      for (size_t I = 1; I < Values.size(); ++I)
        Deltas.push_back(std::max(0.0, Values[I] - Values[I - 1]));
      if (Deltas.empty())
        Deltas = Values;
      T.row({Name,
             Table::fmtInt(Values.empty()
                               ? 0
                               : static_cast<uint64_t>(Values.back())),
             sparkline(Deltas)});
    }
    T.print(std::cout);
    std::cout << "\n";
  }

  const JsonValue *Gauges = Doc.get("gauges");
  if (Gauges && Gauges->isObject() && Gauges->size() != 0) {
    Table T("Gauges (sparkline of values)");
    T.row({"gauge", "last", "trend"});
    for (const auto &[Name, Arr] : Gauges->members()) {
      if (!Arr.isArray())
        continue;
      std::vector<double> Values = SeriesOf(Arr);
      T.row({Name, Table::fmt(Values.empty() ? 0.0 : Values.back()),
             sparkline(Values)});
    }
    T.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

// -- hotspots --------------------------------------------------------------

int runHotspots(const std::string &Path, size_t TopN) {
  JsonValue Report;
  if (!loadReport(Path, Report))
    return 1;
  const JsonValue *SP = Report.get("self_profile");
  if (!SP || !SP->isObject()) {
    std::cerr << "sprof-inspect: " << Path
              << ": no self_profile section (run with "
                 "ObsConfig::SelfProfile and the Decoded engine)\n";
    return 1;
  }
  const JsonValue *Entries = SP->get("entries");
  uint64_t Total = uintAt(SP, "total_samples");
  std::cout << "report:        " << Path << "\n";
  std::cout << "sample window: " << uintAt(SP, "window") << " dispatches\n";
  std::cout << "total samples: " << Total << "\n\n";
  if (!Entries || !Entries->isArray() || Entries->size() == 0 ||
      Total == 0) {
    std::cout << "(no samples recorded)\n";
    return 0;
  }

  Table T("Engine hotspots (sampled dispatch ops, hottest first)");
  T.row({"workload", "phase", "op", "samples", "samples%", "est ms"});
  size_t N = std::min<size_t>(Entries->size(), TopN);
  for (size_t I = 0; I != N; ++I) {
    const JsonValue &E = Entries->at(I);
    uint64_t Samples = uintAt(&E, "samples");
    T.row({stringAt(&E, "workload", "?"), stringAt(&E, "phase", "?"),
           stringAt(&E, "op", "?"), Table::fmtInt(Samples),
           Table::fmtPercent(100.0 * static_cast<double>(Samples) /
                             static_cast<double>(Total)),
           Table::fmt(static_cast<double>(uintAt(&E, "ns")) / 1e6)});
  }
  T.print(std::cout);
  if (Entries->size() > N)
    std::cout << "(" << Entries->size() - N << " more entries)\n";

  return 0;
}

// -- trace -----------------------------------------------------------------

int runTrace(const std::string &Path, size_t TopN) {
  std::unique_ptr<TraceReader> Reader = TraceReader::openFile(Path);

  struct SiteCount {
    uint64_t Loads = 0;
    uint64_t Prefetches = 0;
  };
  std::vector<SiteCount> Sites;
  if (Reader->ok())
    Sites.resize(Reader->numSites());
  uint64_t Loads = 0, Prefetches = 0;
  uint64_t MinAddr = UINT64_MAX, MaxAddr = 0;

  std::vector<AccessEvent> Buf(4096);
  const auto DecodeStart = std::chrono::steady_clock::now();
  while (size_t N = Reader->pull(Buf.data(), Buf.size())) {
    for (size_t I = 0; I != N; ++I) {
      const AccessEvent &E = Buf[I];
      SiteCount &S = Sites[E.SiteId];
      if (E.Kind == AccessKind::Prefetch) {
        ++Prefetches;
        ++S.Prefetches;
      } else {
        ++Loads;
        ++S.Loads;
      }
      MinAddr = std::min(MinAddr, E.Address);
      MaxAddr = std::max(MaxAddr, E.Address);
    }
  }
  const double DecodeSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    DecodeStart)
          .count();
  if (!Reader->ok()) {
    // The one-line contract CI leans on: the exact failure class
    // (traceErrorName) plus the reader's position-specific message.
    std::cerr << "sprof-inspect: " << Path << ": "
              << traceErrorName(Reader->errorCode()) << ": "
              << Reader->error() << "\n";
    return 1;
  }

  const TraceProvenance &Prov = Reader->provenance();
  std::cout << "trace:    " << Path << "\n";
  std::cout << "schema:   " << TraceSchemaV2 << "\n";
  std::cout << "workload: " << (Prov.Workload.empty() ? "?" : Prov.Workload)
            << " / " << (Prov.DataSet.empty() ? "?" : Prov.DataSet) << " / "
            << (Prov.Method.empty() ? "?" : Prov.Method) << "\n";
  std::cout << "sites:    " << Reader->numSites() << "\n";
  const uint64_t Total = Loads + Prefetches;
  std::cout << "events:   " << Table::fmtInt(Reader->eventCount()) << "\n";
  std::cout << "kinds:    load " << Table::fmtInt(Loads) << " ("
            << Table::fmt(Total ? 100.0 * Loads / Total : 0.0, 1)
            << "%), prefetch " << Table::fmtInt(Prefetches) << " ("
            << Table::fmt(Total ? 100.0 * Prefetches / Total : 0.0, 1)
            << "%)\n";
  if (DecodeSeconds > 0.0)
    std::cout << "decode:   "
              << Table::fmt(static_cast<double>(Total) / DecodeSeconds / 1e6,
                            2)
              << " Mev/s (" << Table::fmt(DecodeSeconds, 4) << " s)\n";
  // The shard index is parsed from the footer once the sequential decode
  // reaches it; a clean decode has one.
  const TraceShardIndex &Idx = Reader->index();
  const uint64_t Span = Idx.FooterStart - Idx.EventsStart;
  std::cout << "index:    " << Idx.numChunks() << " chunks, "
            << Table::fmtInt(Idx.Interval) << " events/chunk, event area "
            << Table::fmtInt(Span) << " bytes";
  if (Idx.numChunks() != 0)
    std::cout << " (~"
              << Table::fmtInt(Span / static_cast<uint64_t>(Idx.numChunks()))
              << " B/chunk)";
  std::cout << "\n";
  if (Total != 0)
    std::cout << "addrs:    [0x" << std::hex << MinAddr << ", 0x" << MaxAddr
              << std::dec << "]\n";
  const TraceEdgeSection &Edges = Reader->edgeSection();
  if (Edges.Present)
    std::cout << "edges:    " << Edges.Edges.size() << " edge counts over "
              << Edges.NumFunctions << " functions ("
              << Edges.Entries.size() << " entry counts)\n";
  else
    std::cout << "edges:    (no edge section)\n";

  std::vector<uint32_t> Order;
  for (uint32_t S = 0; S != Sites.size(); ++S)
    if (Sites[S].Loads + Sites[S].Prefetches != 0)
      Order.push_back(S);
  if (!Order.empty()) {
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       return Sites[A].Loads + Sites[A].Prefetches >
                              Sites[B].Loads + Sites[B].Prefetches;
                     });
    std::cout << "\n";
    Table T("Busiest sites");
    T.row({"site", "loads", "prefetches"});
    size_t N = std::min<size_t>(Order.size(), TopN);
    for (size_t I = 0; I != N; ++I)
      T.row({Table::fmtInt(Order[I]), Table::fmtInt(Sites[Order[I]].Loads),
             Table::fmtInt(Sites[Order[I]].Prefetches)});
    T.print(std::cout);
    if (Order.size() > N)
      std::cout << "(" << Order.size() - N << " more active sites)\n";
  }
  return 0;
}

// -- import ----------------------------------------------------------------

int runImport(const std::string &LogPath, const std::string &OutPath) {
  std::ifstream File;
  if (LogPath != "-") {
    File.open(LogPath);
    if (!File) {
      std::cerr << "sprof-inspect: cannot open " << LogPath << "\n";
      return 1;
    }
  }
  std::istream &In = LogPath == "-" ? std::cin : File;

  std::string Err;
  const std::optional<TraceImportResult> R =
      importAccessLog(In, OutPath, &Err);
  if (!R) {
    std::cerr << "sprof-inspect: " << LogPath << ": " << Err << "\n";
    return 1;
  }
  std::cout << "imported: " << LogPath << " -> " << OutPath << "\n";
  std::cout << "schema:   " << TraceSchemaV2 << "\n";
  std::cout << "events:   " << Table::fmtInt(R->Events) << " ("
            << Table::fmtInt(R->Loads) << " loads, "
            << Table::fmtInt(R->Prefetches) << " prefetches)\n";
  std::cout << "sites:    " << R->NumSites << "\n";
  std::cout << "bytes:    " << Table::fmtInt(R->Bytes) << "\n";
  return 0;
}

// -- sweep -----------------------------------------------------------------

int runSweepReport(const std::string &Path, size_t TopN) {
  JsonValue Doc;
  if (!loadDocument(Path, "sprof.sweep_report/", 1, Doc))
    return 1;

  const JsonValue *Jobs = Doc.get("jobs");
  if (!Jobs || !Jobs->isArray()) {
    std::cerr << "sprof-inspect: " << Path << ": no jobs array\n";
    return 1;
  }
  uint64_t WallUs = uintAt(&Doc, "wall_us");
  std::cout << "sweep:   " << Path << "\n";
  std::cout << "threads: " << uintAt(&Doc, "threads") << "\n";
  std::cout << "jobs:    " << Jobs->size() << "\n";
  std::cout << "wall:    " << Table::fmt(WallUs / 1000.0) << " ms\n\n";

  // Per-worker timeline, longest-running jobs first: with one row per
  // job the reader scans the stragglers before the noise.
  std::vector<const JsonValue *> Order;
  for (const JsonValue &J : Jobs->items())
    Order.push_back(&J);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const JsonValue *A, const JsonValue *B) {
                     return uintAt(A, "run_us") > uintAt(B, "run_us");
                   });
  Table T("Jobs (longest run first)");
  T.row({"id", "job", "category", "worker", "ready ms", "wait ms",
         "run ms", "ok"});
  size_t N = std::min<size_t>(Order.size(), TopN);
  for (size_t I = 0; I != N; ++I) {
    const JsonValue *J = Order[I];
    T.row({Table::fmtInt(uintAt(J, "id")), stringAt(J, "name", "?"),
           stringAt(J, "category", "?"),
           Table::fmtInt(uintAt(J, "worker")),
           Table::fmt(uintAt(J, "ready_us") / 1000.0),
           Table::fmt(uintAt(J, "queue_wait_us") / 1000.0),
           Table::fmt(uintAt(J, "run_us") / 1000.0),
           J->get("ok") && J->get("ok")->asBool() ? "yes" : "NO"});
  }
  T.print(std::cout);
  if (Order.size() > N)
    std::cout << "(" << Order.size() - N << " more jobs)\n";
  std::cout << "\n";

  if (const JsonValue *CP = Doc.get("critical_path")) {
    std::cout << "critical path: "
              << Table::fmt(uintAt(CP, "duration_us") / 1000.0) << " ms ("
              << Table::fmtPercent(doubleAt(CP, "fraction") * 100.0)
              << " of wall)\n";
    const JsonValue *Chain = CP->get("jobs");
    if (Chain && Chain->isArray() && Chain->size() != 0) {
      std::cout << "  ";
      for (size_t I = 0; I != Chain->size(); ++I) {
        uint64_t Id = Chain->at(I).asUInt();
        std::string Name =
            Id < Jobs->size() ? stringAt(&Jobs->at(Id), "name", "?") : "?";
        if (I != 0)
          std::cout << " -> ";
        std::cout << Name;
      }
      std::cout << "\n";
    }
    std::cout << "\n";
  }

  if (const JsonValue *Sched = Doc.get("scheduler")) {
    std::cout << "scheduler: queue high-water "
              << uintAt(Sched, "queue_depth_high_water")
              << ", wakeup retries " << uintAt(Sched, "wakeup_retries")
              << ", " << uintAt(Sched, "jobs_finished") << " finished / "
              << uintAt(Sched, "jobs_failed") << " failed / "
              << uintAt(Sched, "jobs_skipped") << " skipped\n";
    if (const JsonValue *Memo = Sched->get("run_memo"))
      std::cout << "run memo: " << uintAt(Memo, "hits") << " hits / "
                << uintAt(Memo, "misses") << " misses, "
                << uintAt(Memo, "saved_instructions")
                << " instructions not re-executed, " << uintAt(Memo, "parks")
                << " parks, " << uintAt(Memo, "image_builds")
                << " image builds / " << uintAt(Memo, "image_shares")
                << " shares\n";
    std::cout << "\n";
    const JsonValue *Workers = Sched->get("workers");
    if (Workers && Workers->isArray() && Workers->size() != 0) {
      Table W("Worker utilization");
      W.row({"worker", "jobs", "busy ms", "utilization"});
      for (const JsonValue &WJ : Workers->items())
        W.row({Table::fmtInt(uintAt(&WJ, "worker")),
               Table::fmtInt(uintAt(&WJ, "jobs")),
               Table::fmt(uintAt(&WJ, "busy_us") / 1000.0),
               Table::fmtPercent(doubleAt(&WJ, "utilization") * 100.0)});
      W.print(std::cout);
      std::cout << "\n";
    }
    const JsonValue *Stragglers = Sched->get("stragglers");
    if (Stragglers && Stragglers->isArray() && Stragglers->size() != 0) {
      Table S("Stragglers");
      S.row({"id", "job", "run ms", "wait ms"});
      for (const JsonValue &SJ : Stragglers->items())
        S.row({Table::fmtInt(uintAt(&SJ, "id")), stringAt(&SJ, "name", "?"),
               Table::fmt(uintAt(&SJ, "run_us") / 1000.0),
               Table::fmt(uintAt(&SJ, "queue_wait_us") / 1000.0)});
      S.print(std::cout);
    }
  }
  return 0;
}

// -- blackbox --------------------------------------------------------------

int runBlackbox(const std::string &Path) {
  JsonValue Doc;
  if (!loadDocument(Path, "sprof.flightrec/", 1, Doc))
    return 1;

  std::cout << "flight recorder: " << Path << "\n";
  std::cout << "reason:          " << stringAt(&Doc, "reason", "?") << "\n";
  std::cout << "wall:            " << Table::fmt(uintAt(&Doc, "wall_us") /
                                                 1000.0)
            << " ms\n\n";

  const JsonValue *Workers = Doc.get("workers");
  if (!Workers || !Workers->isArray()) {
    std::cerr << "sprof-inspect: " << Path << ": no workers array\n";
    return 1;
  }
  // In-flight jobs first: on a crash dump they are the suspects.
  bool AnyInFlight = false;
  for (const JsonValue &W : Workers->items()) {
    if (W.get("in_flight") && W.get("in_flight")->asBool()) {
      AnyInFlight = true;
      std::cout << "worker " << uintAt(&W, "worker") << " IN FLIGHT: "
                << stringAt(&W, "current_job", "?") << "\n";
    }
  }
  std::cout << (AnyInFlight ? "\n" : "(no jobs were in flight)\n\n");

  for (const JsonValue &W : Workers->items()) {
    const JsonValue *Events = W.get("events");
    std::string Title =
        "Worker " + std::to_string(uintAt(&W, "worker")) + " events";
    if (!Events || !Events->isArray() || Events->size() == 0) {
      std::cout << Title << ": (none)\n";
      continue;
    }
    Table T(Title);
    T.row({"ts ms", "kind", "event", "detail"});
    for (const JsonValue &E : Events->items())
      T.row({Table::fmt(uintAt(&E, "ts_us") / 1000.0),
             stringAt(&E, "kind", "?"), stringAt(&E, "name", "?"),
             stringAt(&E, "detail")});
    T.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

int usage() {
  std::cerr << "usage: sprof-inspect summary <report.json>\n"
            << "       sprof-inspect diff <reference.json> "
               "<candidate.json> [--json=PATH]\n"
            << "       sprof-inspect timeseries <timeseries.json>\n"
            << "       sprof-inspect hotspots <report.json> [--top=N]\n"
            << "       sprof-inspect trace <file.sprof.trace> [--top=N]\n"
            << "       sprof-inspect import <log.txt> <out.sprof.trace>\n"
            << "       sprof-inspect sweep <sweep_report.json> [--top=N]\n"
            << "       sprof-inspect blackbox <flightrec.json>\n";
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args;
  std::string JsonOut;
  size_t TopN = 15;
  for (int I = 1; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0) {
      JsonOut = Argv[I] + 7;
    } else if (std::strncmp(Argv[I], "--top=", 6) == 0) {
      char *End = nullptr;
      unsigned long V = std::strtoul(Argv[I] + 6, &End, 10);
      if (!End || *End != '\0' || V == 0) {
        std::cerr << "sprof-inspect: bad --top value '" << (Argv[I] + 6)
                  << "' (want a positive integer)\n";
        return 1;
      }
      TopN = V;
    } else if (Argv[I][0] == '-') {
      std::cerr << "sprof-inspect: unknown option '" << Argv[I] << "'\n";
      return usage();
    } else {
      Args.push_back(Argv[I]);
    }
  }
  if (Args.empty())
    return usage();

  const std::string &Cmd = Args[0];
  auto WantArgs = [&](size_t N, const char *Shape) {
    if (Args.size() == N + 1)
      return true;
    std::cerr << "sprof-inspect: '" << Cmd << "' takes " << Shape << " ("
              << Args.size() - 1 << " given)\n";
    return false;
  };
  if (Cmd == "summary")
    return WantArgs(1, "one report path") ? runSummary(Args[1]) : 1;
  if (Cmd == "diff")
    return WantArgs(2, "two report paths")
               ? runDiff(Args[1], Args[2], JsonOut)
               : 1;
  if (Cmd == "timeseries")
    return WantArgs(1, "one timeseries path") ? runTimeseries(Args[1]) : 1;
  if (Cmd == "hotspots")
    return WantArgs(1, "one report path") ? runHotspots(Args[1], TopN) : 1;
  if (Cmd == "trace")
    return WantArgs(1, "one trace path") ? runTrace(Args[1], TopN) : 1;
  if (Cmd == "import")
    return WantArgs(2, "a log path and an output trace path")
               ? runImport(Args[1], Args[2])
               : 1;
  if (Cmd == "sweep")
    return WantArgs(1, "one sweep-report path")
               ? runSweepReport(Args[1], TopN)
               : 1;
  if (Cmd == "blackbox")
    return WantArgs(1, "one flight-recorder dump path")
               ? runBlackbox(Args[1])
               : 1;
  std::cerr << "sprof-inspect: unknown subcommand '" << Cmd << "'\n";
  return usage();
}
