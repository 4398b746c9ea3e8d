#!/usr/bin/env bash
# Validates the machine-readable telemetry artifacts: runs the
# telemetry_demo example and checks the run report against the
# "sprof.run_report/5" schema, the attribution exact-sum invariant, the
# profile_diff, self_profile, and profile_run.trace sections, the
# "sprof.timeseries/1" sampler artifact, the folded-stack self-profile file, the binary
# "sprof.trace/2" capture's framing (seekable tail and shard-index
# invariants included), and the Chrome trace
# for the pipeline's phase spans plus the sampler's counter ("C") events.
# When given the sprof-inspect binary it also smoke-tests its summary,
# diff, timeseries, hotspots, and trace modes against the fresh artifacts
# — including that unknown subcommands, malformed JSON, truncated traces,
# trace version mismatches (the retired sprof.trace/1 included), and an
# imported access log naming a site id beyond the site bound, and JSON
# nested past the parser's depth bound exit nonzero. When given the sweep_demo
# example it also validates the "sprof.sweep_report/1" document (per-job
# queue-wait vs run split, dependency edges referencing earlier ids, the critical
# path's sum-of-durations <= wall invariant, and the scheduler section
# with per-worker utilization and the run-memo counts, whose parks must
# be 0 when the same sweep runs serially), the Chrome trace's flow-event pairing
# (every "s" has an "f" with the same id on the "job-dep" category), the
# "sprof.flightrec/1" dump format, the sprof-inspect sweep/blackbox
# renderers, and that a newer-versioned sweep report is rejected with a
# nonzero exit. Wired into ctest as `telemetry_schema`.
#
# Usage: check_telemetry_schema.sh /path/to/telemetry_demo [workdir]
#            [/path/to/sprof-inspect] [/path/to/sweep_demo]
set -euo pipefail

DEMO="${1:?usage: check_telemetry_schema.sh /path/to/telemetry_demo [workdir] [sprof-inspect] [sweep_demo]}"
WORKDIR="${2:-$(mktemp -d)}"
mkdir -p "$WORKDIR"
INSPECT="${3:-}"
SWEEP_DEMO="${4:-}"
# "-" skips an optional slot (ctest can't pass empty arguments portably).
[ "$INSPECT" = "-" ] && INSPECT=""
REPORT="$WORKDIR/telemetry_report.json"
TRACE="$WORKDIR/telemetry_trace.json"
SAMPLED="$WORKDIR/telemetry_sampled_report.json"
TIMESERIES="$WORKDIR/telemetry_timeseries.json"
FOLDED="$WORKDIR/telemetry_profile.folded"
CAPTURE="$WORKDIR/telemetry_capture.sprof.trace"

"$DEMO" "$REPORT" "$TRACE" "$SAMPLED" "$TIMESERIES" "$FOLDED" \
    "$CAPTURE" > /dev/null

python3 - "$REPORT" "$TRACE" "$SAMPLED" "$TIMESERIES" "$FOLDED" \
    "$CAPTURE" <<'EOF'
import json
import re
import sys

report_path, trace_path, sampled_path = sys.argv[1], sys.argv[2], sys.argv[3]
timeseries_path, folded_path, capture_path = (sys.argv[4], sys.argv[5],
                                              sys.argv[6])
failures = []


def check(cond, message):
    if not cond:
        failures.append(message)


with open(report_path) as f:
    report = json.load(f)

RUN_REPORT_SCHEMA = "sprof.run_report/5"
check(report.get("schema") == RUN_REPORT_SCHEMA,
      f"unexpected schema: {report.get('schema')!r}")
for key in ("workload", "config", "profile_run", "baseline_run",
            "timed_run", "speedup", "metrics"):
    check(key in report, f"report is missing {key!r}")

profile = report.get("profile_run", {})
check("method" in profile, "profile_run.method missing")
sites = profile.get("stride_profile", {}).get("sites", [])
check(len(sites) > 0, "stride_profile.sites is empty")
for site in sites:
    check(len(site.get("top_strides", [])) <= 4,
          "a site reports more than 4 top strides")
    for key in ("total_strides", "zero_strides", "zero_diffs"):
        check(key in site, f"stride site missing {key!r}")

classification = report.get("timed_run", {}).get("classification", {})
check("thresholds" in classification, "classification.thresholds missing")
check("class_counts" in classification, "classification.class_counts missing")

metrics = report.get("metrics", {})
for section in ("counters", "gauges", "histograms"):
    check(section in metrics, f"metrics.{section} missing")
check("strideprof.invocations" in metrics.get("counters", {}),
      "counter strideprof.invocations missing")

sampling = (report.get("config", {}).get("profiler", {}).get("sampling"))
check(isinstance(sampling, dict) and "enabled" in sampling,
      "config.profiler.sampling missing")

# -- attribution and profile_diff ------------------------------------------

attribution = report.get("attribution")
check(isinstance(attribution, dict), "report missing attribution")
if isinstance(attribution, dict):
    check(attribution.get("finalized") is True,
          "attribution not finalized")
    outcomes = attribution.get("outcomes", {})
    for key in ("useful", "late", "early", "redundant", "issued"):
        check(key in outcomes, f"attribution.outcomes missing {key!r}")
    total = sum(outcomes.get(k, 0)
                for k in ("useful", "late", "early", "redundant"))
    check(total == outcomes.get("issued"),
          f"attribution sum {total} != issued {outcomes.get('issued')}")
    issued = report["timed_run"]["stats"]["memory"]["prefetches_issued"]
    check(outcomes.get("issued") == issued,
          f"attribution issued {outcomes.get('issued')} != "
          f"memsys prefetches_issued {issued}")
    per_site = attribution.get("per_site", [])
    check(isinstance(per_site, list) and per_site,
          "attribution.per_site empty")
    site_sum = sum(s.get(k, 0) for s in per_site
                   for k in ("useful", "late", "early", "redundant"))
    check(site_sum == outcomes.get("issued"),
          f"per-site sum {site_sum} != issued {outcomes.get('issued')}")
    for key in ("by_class", "demand_misses"):
        check(key in attribution, f"attribution missing {key!r}")
    for s in per_site:
        for key in ("site", "class", "accesses", "l1_misses",
                    "full_misses", "stall_cycles"):
            check(key in s, f"attribution site missing {key!r}")

diff = report.get("profile_diff")
check(isinstance(diff, dict), "report missing profile_diff")
if isinstance(diff, dict):
    for key in ("sites_compared", "top_stride_agreement",
                "class_agreement", "weighted_accuracy", "class_flips",
                "sites"):
        check(key in diff, f"profile_diff missing {key!r}")
    acc = diff.get("weighted_accuracy", -1)
    check(0.0 <= acc <= 1.0,
          f"weighted_accuracy {acc} outside [0, 1]")
    flips = diff.get("class_flips", {})
    classes = ("none", "ssst", "pmst", "wsst")
    check(all(c in flips and all(d in flips[c] for d in classes)
              for c in classes),
          "class_flips is not a 4x4 class matrix")
    flip_total = sum(flips[a][b] for a in classes for b in classes
                     if a in flips and b in flips.get(a, {}))
    check(flip_total == diff.get("sites_compared"),
          f"flip total {flip_total} != sites_compared "
          f"{diff.get('sites_compared')}")

# -- self_profile ----------------------------------------------------------

self_profile = report.get("self_profile")
check(isinstance(self_profile, dict), "report missing self_profile")
if isinstance(self_profile, dict):
    for key in ("window", "total_samples", "entries"):
        check(key in self_profile, f"self_profile missing {key!r}")
    entries = self_profile.get("entries", [])
    check(isinstance(entries, list) and entries,
          "self_profile.entries empty")
    entry_sum = 0
    for e in entries:
        for key in ("workload", "phase", "op", "samples", "ns"):
            check(key in e, f"self_profile entry missing {key!r}")
        entry_sum += e.get("samples", 0)
    check(entry_sum == self_profile.get("total_samples"),
          f"self_profile entry sum {entry_sum} != total_samples "
          f"{self_profile.get('total_samples')}")
    samples_sorted = [e.get("samples", 0) for e in entries]
    check(samples_sorted == sorted(samples_sorted, reverse=True),
          "self_profile.entries not sorted by samples descending")
obs_config = report.get("config", {}).get("obs", {})
for key in ("sample_interval_us", "sample_ring_capacity",
            "self_profile", "self_profile_window"):
    check(key in obs_config, f"config.obs missing {key!r}")

# -- profile_run.trace -----------------------------------------------------

capture = report.get("profile_run", {}).get("trace")
check(isinstance(capture, dict), "report missing profile_run.trace")
if isinstance(capture, dict):
    for key in ("path", "schema", "events", "bytes"):
        check(key in capture, f"profile_run.trace missing {key!r}")
    check(capture.get("schema") == "sprof.trace/2",
          f"trace capture schema is {capture.get('schema')!r}, "
          "want 'sprof.trace/2'")
    check(capture.get("events", 0) ==
          report.get("profile_run", {}).get("stride_invocations"),
          "trace events != profile_run.stride_invocations")

# -- sprof.trace/2 binary framing ------------------------------------------

with open(capture_path, "rb") as f:
    raw = f.read()
check(raw[:8] == b"SPROFTRC",
      f"trace capture magic is {raw[:8]!r}, want b'SPROFTRC'")
version = int.from_bytes(raw[8:12], "little")
check(version == 2, f"trace capture version {version}, want 2")
check(raw[-8:] == b"SPROFEND",
      f"trace capture end magic is {raw[-8:]!r}, want b'SPROFEND'")

if version == 2:
    # /2 seekable tail: the 8 bytes before the end magic are the absolute
    # offset of the footer, which must land on the end-of-events marker.
    footer_start = int.from_bytes(raw[-16:-8], "little")
    check(12 < footer_start < len(raw) - 16,
          f"/2 footer offset {footer_start} out of range for a "
          f"{len(raw)}-byte file")
    check(footer_start < len(raw) and raw[footer_start] == 0x00,
          "/2 footer offset does not land on the end-of-events marker")

    def varint(buf, pos):
        v = shift = 0
        while True:
            b = buf[pos]
            pos += 1
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                return v, pos
            shift += 7

    # Walk the footer sections to the shard index and check its invariants:
    # chunk boundaries every `interval` events, byte offsets strictly
    # increasing inside the event area, cumulative load counts monotone,
    # chunk 0 starting from zeroed carried decoder state, and the event
    # count ending exactly at the seekable tail.
    pos = footer_start + 1
    index = None
    while True:
        tag = raw[pos]
        pos += 1
        if tag == 0x00:
            break
        if tag == 0x01:  # edge-profile section
            _, pos = varint(raw, pos)
            n, pos = varint(raw, pos)
            for _ in range(2 * n):
                _, pos = varint(raw, pos)
            n, pos = varint(raw, pos)
            for _ in range(4 * n):
                _, pos = varint(raw, pos)
        elif tag == 0x02:  # shard index
            interval, pos = varint(raw, pos)
            nchunks, pos = varint(raw, pos)
            chunks = []
            for _ in range(nchunks):
                entry = []
                for _ in range(6):  # off, cum_ev, cum_ld, site, addr, ref
                    v, pos = varint(raw, pos)
                    entry.append(v)
                chunks.append(entry)
            total_loads, pos = varint(raw, pos)
            index = (interval, chunks, total_loads)
        else:
            check(False, f"/2 footer has unknown section tag {tag}")
            break
    check(index is not None, "/2 trace footer carries no shard index")
    if index is not None:
        interval, chunks, total_loads = index
        check(interval > 0, "/2 index interval is zero")
        check(len(chunks) >= 1, "/2 index has no chunks")
        check(chunks[0][1:] == [0, 0, 0, 0, 0],
              "/2 index chunk 0 does not start from zeroed decoder state")
        for i, (off, cum_ev, cum_ld, _s, _a, _r) in enumerate(chunks):
            check(off < footer_start,
                  f"/2 index chunk {i} offset {off} is past the footer")
            if i:
                check(off > chunks[i - 1][0],
                      f"/2 index chunk {i} byte offset is not increasing")
                check(cum_ev == i * interval,
                      f"/2 index chunk {i} starts at event {cum_ev}, "
                      f"want {i * interval}")
                check(cum_ld >= chunks[i - 1][2],
                      f"/2 index chunk {i} cumulative load count decreases")
        check(total_loads >= chunks[-1][2],
              "/2 index total loads below the last chunk's cumulative count")
    footer_events, pos = varint(raw, pos)
    check(pos == len(raw) - 16,
          "/2 footer event count does not end at the seekable tail")
    if isinstance(report.get("profile_run", {}).get("trace"), dict):
        reported_events = report["profile_run"]["trace"].get("events")
        check(footer_events == reported_events,
              f"/2 footer says {footer_events} events but the report "
              f"says {reported_events}")
if isinstance(report.get("profile_run", {}).get("trace"), dict):
    reported = report["profile_run"]["trace"].get("bytes")
    check(reported == len(raw),
          f"trace capture is {len(raw)} bytes on disk but the report "
          f"says {reported}")

with open(sampled_path) as f:
    sampled = json.load(f)
check(sampled.get("schema") == RUN_REPORT_SCHEMA,
      f"sampled report has unexpected schema: {sampled.get('schema')!r}")
check("profile_run" in sampled, "sampled report missing profile_run")

# -- sprof.timeseries/1 ----------------------------------------------------

with open(timeseries_path) as f:
    ts = json.load(f)
check(ts.get("schema") == "sprof.timeseries/1",
      f"timeseries has unexpected schema: {ts.get('schema')!r}")
for key in ("interval_us", "ring_capacity", "samples_taken", "dropped",
            "timestamps_us", "counters", "gauges"):
    check(key in ts, f"timeseries missing {key!r}")
stamps = ts.get("timestamps_us", [])
check(isinstance(stamps, list) and stamps, "timeseries has no samples")
check(stamps == sorted(stamps), "timestamps_us not monotone")
check(ts.get("samples_taken", 0) >= len(stamps),
      "samples_taken < ring length")
check(ts.get("samples_taken", 0) - ts.get("dropped", 0) == len(stamps),
      "samples_taken - dropped != ring length")
n_samples = len(stamps)
for kind in ("counters", "gauges"):
    series_map = ts.get(kind, {})
    check(isinstance(series_map, dict), f"timeseries.{kind} not an object")
    for name, series in series_map.items():
        check(isinstance(series, list) and len(series) == n_samples,
              f"timeseries {kind}[{name!r}] length != timestamps length")
check("interp.instructions" in ts.get("counters", {}),
      "timeseries counter interp.instructions missing")
# The final snapshot is taken after producers quiesce: it must agree with
# the run report's end-of-run counter totals exactly.
report_counters = report.get("metrics", {}).get("counters", {})
for name, series in ts.get("counters", {}).items():
    if name in report_counters and series:
        check(series[-1] == report_counters[name],
              f"timeseries final {name} = {series[-1]} != registry total "
              f"{report_counters[name]}")

# -- folded self-profile ---------------------------------------------------

folded_re = re.compile(r"^[^;]+;[^;]+;\S+ [0-9]+$")
with open(folded_path) as f:
    folded_lines = [line.rstrip("\n") for line in f if line.strip()]
check(len(folded_lines) > 0, "folded profile is empty")
for line in folded_lines:
    check(folded_re.match(line) is not None,
          f"malformed folded line: {line!r}")
folded_total = sum(int(line.rsplit(" ", 1)[1]) for line in folded_lines)
if isinstance(report.get("self_profile"), dict):
    check(folded_total == report["self_profile"].get("total_samples"),
          f"folded sample total {folded_total} != self_profile "
          f"total_samples {report['self_profile'].get('total_samples')}")

with open(trace_path) as f:
    trace = json.load(f)

events = trace.get("traceEvents", [])
check(len(events) > 0, "trace has no events")
spans = [e for e in events if e.get("ph") == "X"]
counter_events = [e for e in events if e.get("ph") == "C"]
names = {event.get("name") for event in spans}
for phase in ("run-profile", "instrument", "execute", "strideprof-harvest",
              "run-baseline", "timed-run", "classify", "prefetch-insert"):
    check(phase in names, f"trace is missing phase span {phase!r}")
for event in events:
    check(event.get("ph") in ("X", "C"),
          f"unexpected event phase: {event}")
    check(isinstance(event.get("ts"), int),
          f"event without integer ts: {event}")
for event in spans:
    check(isinstance(event.get("dur"), int),
          f"span without integer dur: {event}")
# The sampler's ring folds into the trace as one counter event per metric
# per snapshot.
check(len(counter_events) > 0, "trace has no counter (\"C\") events")
for event in counter_events:
    check(isinstance(event.get("args"), dict) and "value" in event["args"],
          f"counter event without args.value: {event}")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"telemetry schema OK ({len(sites)} stride sites, "
      f"{len(spans)} trace spans, {len(counter_events)} counter events, "
      f"{n_samples} timeseries samples, {len(folded_lines)} folded lines)")
EOF

# -- sprof-inspect smoke test ----------------------------------------------

if [ -n "$INSPECT" ]; then
    "$INSPECT" summary "$REPORT" > "$WORKDIR/inspect_summary.txt"
    grep -q "Prefetch outcomes" "$WORKDIR/inspect_summary.txt" || {
        echo "FAIL: sprof-inspect summary lacks prefetch outcomes" >&2
        exit 1
    }
    "$INSPECT" diff "$REPORT" "$SAMPLED" \
        --json="$WORKDIR/inspect_diff.json" > "$WORKDIR/inspect_diff.txt"
    grep -q "weighted accuracy" "$WORKDIR/inspect_diff.txt" || {
        echo "FAIL: sprof-inspect diff lacks weighted accuracy" >&2
        exit 1
    }
    python3 - "$WORKDIR/inspect_diff.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    diff = json.load(f)
acc = diff.get("weighted_accuracy", -1)
if not 0.0 <= acc <= 1.0:
    print(f"FAIL: inspect diff weighted_accuracy {acc} outside [0, 1]",
          file=sys.stderr)
    sys.exit(1)
print(f"sprof-inspect OK (weighted accuracy {acc:.4f})")
EOF

    "$INSPECT" timeseries "$TIMESERIES" > "$WORKDIR/inspect_timeseries.txt"
    grep -q "interp.instructions" "$WORKDIR/inspect_timeseries.txt" || {
        echo "FAIL: sprof-inspect timeseries lacks interp.instructions" >&2
        exit 1
    }
    "$INSPECT" hotspots "$REPORT" --top=5 > "$WORKDIR/inspect_hotspots.txt"
    grep -q "Engine hotspots" "$WORKDIR/inspect_hotspots.txt" || {
        echo "FAIL: sprof-inspect hotspots lacks the hotspot table" >&2
        exit 1
    }

    # Error-path contract: unknown subcommands, malformed JSON, and
    # wrong-schema inputs must all exit nonzero with a diagnostic.
    if "$INSPECT" no-such-subcommand 2> "$WORKDIR/inspect_err.txt"; then
        echo "FAIL: sprof-inspect accepted an unknown subcommand" >&2
        exit 1
    fi
    grep -q "unknown subcommand" "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: unknown-subcommand diagnostic missing" >&2
        exit 1
    }
    echo '{"broken' > "$WORKDIR/malformed.json"
    if "$INSPECT" summary "$WORKDIR/malformed.json" \
            2> "$WORKDIR/inspect_err.txt"; then
        echo "FAIL: sprof-inspect summary accepted malformed JSON" >&2
        exit 1
    fi
    grep -q "parse error" "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: malformed-JSON diagnostic missing" >&2
        exit 1
    }
    if "$INSPECT" timeseries "$REPORT" 2> "$WORKDIR/inspect_err.txt"; then
        echo "FAIL: sprof-inspect timeseries accepted a run report" >&2
        exit 1
    fi
    if "$INSPECT" summary "$WORKDIR/definitely-missing.json" 2>/dev/null; then
        echo "FAIL: sprof-inspect summary accepted a missing file" >&2
        exit 1
    fi

    # Trace mode: the fresh capture summarizes cleanly...
    "$INSPECT" trace "$CAPTURE" > "$WORKDIR/inspect_trace.txt"
    grep -q "events:" "$WORKDIR/inspect_trace.txt" || {
        echo "FAIL: sprof-inspect trace lacks the event summary" >&2
        exit 1
    }
    # ...while unreadable, truncated, and wrong-version traces each exit
    # nonzero naming the precise failure class.
    if "$INSPECT" trace "$WORKDIR/definitely-missing.sprof.trace" \
            2> "$WORKDIR/inspect_err.txt"; then
        echo "FAIL: sprof-inspect trace accepted a missing file" >&2
        exit 1
    fi
    grep -q "io-error: " "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: missing-trace diagnostic lacks the io-error class" >&2
        exit 1
    }
    head -c 100 "$CAPTURE" > "$WORKDIR/truncated.sprof.trace"
    if "$INSPECT" trace "$WORKDIR/truncated.sprof.trace" \
            2> "$WORKDIR/inspect_err.txt"; then
        echo "FAIL: sprof-inspect trace accepted a truncated trace" >&2
        exit 1
    fi
    grep -q "truncated: " "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: truncated-trace diagnostic missing" >&2
        exit 1
    }
    cp "$CAPTURE" "$WORKDIR/future.sprof.trace"
    printf '\x63' | dd of="$WORKDIR/future.sprof.trace" bs=1 seek=8 \
        count=1 conv=notrunc status=none
    if "$INSPECT" trace "$WORKDIR/future.sprof.trace" \
            2> "$WORKDIR/inspect_err.txt"; then
        echo "FAIL: sprof-inspect trace accepted a future trace version" >&2
        exit 1
    fi
    grep -q "version-mismatch: " "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: version-mismatch diagnostic missing" >&2
        exit 1
    }
    # The retired index-free /1 container is a version mismatch too.
    cp "$CAPTURE" "$WORKDIR/v1.sprof.trace"
    printf '\x01' | dd of="$WORKDIR/v1.sprof.trace" bs=1 seek=8 \
        count=1 conv=notrunc status=none
    set +e
    "$INSPECT" trace "$WORKDIR/v1.sprof.trace" 2> "$WORKDIR/inspect_err.txt"
    rc=$?
    set -e
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: sprof-inspect trace on a /1 trace exited $rc, want 1" >&2
        exit 1
    fi
    grep -q "version-mismatch: .*version 1 " "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: /1 trace diagnostic lacks version-mismatch naming 1" >&2
        exit 1
    }
    echo '{"not": "a trace"}' > "$WORKDIR/not-a-trace.sprof.trace"
    if "$INSPECT" trace "$WORKDIR/not-a-trace.sprof.trace" \
            2> "$WORKDIR/inspect_err.txt"; then
        echo "FAIL: sprof-inspect trace accepted a non-trace file" >&2
        exit 1
    fi
    grep -q "bad-magic: " "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: bad-magic diagnostic missing" >&2
        exit 1
    }
    # A site id of 2^32 - 1 would wrap the imported site count to 0; the
    # import must refuse it, naming the line.
    printf '0x10, 0, L\n0x20, 4294967295, L\n' > "$WORKDIR/wide_site.log"
    set +e
    "$INSPECT" import "$WORKDIR/wide_site.log" \
        "$WORKDIR/wide_site.sprof.trace" > /dev/null \
        2> "$WORKDIR/inspect_err.txt"
    rc=$?
    set -e
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: sprof-inspect import of site 4294967295 exited $rc," \
             "want 1" >&2
        exit 1
    fi
    grep -q "line 2: site id 4294967295" "$WORKDIR/inspect_err.txt" || {
        echo "FAIL: over-bound site id diagnostic missing" >&2
        exit 1
    }
    # JSON nested far past the parser's depth bound must be a parse error,
    # not a stack overflow: bare, and under a run report's key. Grepping
    # the diagnostic tells a clean exit 1 apart from a crash.
    python3 -c 'import sys; sys.stdout.write("[" * 20000 + "]" * 20000)' \
        > "$WORKDIR/deep.json"
    python3 -c 'import sys; sys.stdout.write(
        "{\"schema\": \"sprof.run_report/5\", \"summary\": "
        + "[" * 200000 + "]" * 200000 + "}")' > "$WORKDIR/deep_report.json"
    check_deep() {
        set +e
        "$INSPECT" "$1" "$2" > /dev/null 2> "$WORKDIR/inspect_err.txt"
        rc=$?
        set -e
        if [ "$rc" -ne 1 ]; then
            echo "FAIL: sprof-inspect $1 on $2 exited $rc, want 1" >&2
            exit 1
        fi
        grep -q "parse error: arrays and objects nested deeper than" \
            "$WORKDIR/inspect_err.txt" || {
            echo "FAIL: deep-nesting diagnostic missing ($1 $2)" >&2
            exit 1
        }
    }
    check_deep sweep "$WORKDIR/deep.json"
    check_deep summary "$WORKDIR/deep_report.json"
    echo "sprof-inspect error paths OK"
fi

# -- sprof.sweep_report/1 + sprof.flightrec/1 ------------------------------

if [ -n "$SWEEP_DEMO" ]; then
    SWEEP_REPORT="$WORKDIR/sweep_report.json"
    SWEEP_TRACE="$WORKDIR/sweep_trace.json"
    SWEEP_FLIGHT="$WORKDIR/sweep_flight.json"
    "$SWEEP_DEMO" --threads=2 --report="$SWEEP_REPORT" \
        --trace="$SWEEP_TRACE" --flight="$SWEEP_FLIGHT" --dump-flight \
        > /dev/null
    # The same graph serially: no two jobs overlap, so none may park.
    SWEEP_SERIAL="$WORKDIR/sweep_report_serial.json"
    "$SWEEP_DEMO" --threads=1 --report="$SWEEP_SERIAL" \
        --trace="$WORKDIR/sweep_trace_serial.json" \
        --flight="$WORKDIR/sweep_flight_serial.json" > /dev/null

    python3 - "$SWEEP_REPORT" "$SWEEP_TRACE" "$SWEEP_FLIGHT" \
        "$SWEEP_SERIAL" <<'EOF'
import json
import sys

report_path, trace_path, flight_path = sys.argv[1], sys.argv[2], sys.argv[3]
serial_path = sys.argv[4]
failures = []


def check(cond, message):
    if not cond:
        failures.append(message)


with open(report_path) as f:
    report = json.load(f)

check(report.get("schema") == "sprof.sweep_report/1",
      f"unexpected sweep schema: {report.get('schema')!r}")
for key in ("threads", "wall_us", "jobs", "critical_path", "scheduler"):
    check(key in report, f"sweep report missing {key!r}")
wall = report.get("wall_us", 0)
jobs = report.get("jobs", [])
check(isinstance(jobs, list) and jobs, "sweep report jobs array empty")
for i, job in enumerate(jobs):
    for key in ("id", "name", "category", "deps", "worker", "ready_us",
                "start_us", "finish_us", "queue_wait_us", "run_us", "ok"):
        check(key in job, f"job {i} missing {key!r}")
    check(job.get("id") == i, f"job {i} id {job.get('id')} != index")
    # Records are topological: every dependency is an earlier job.
    check(all(d < job.get("id", 0) for d in job.get("deps", [])),
          f"job {i} has a dep >= its own id")
    check(job.get("finish_us") ==
          job.get("start_us", 0) + job.get("run_us", 0),
          f"job {i} finish_us != start_us + run_us")
    check(job.get("start_us", 0) >= job.get("ready_us", 0),
          f"job {i} started before it was ready")
    check(job.get("queue_wait_us") ==
          job.get("start_us", 0) - job.get("ready_us", 0),
          f"job {i} queue_wait_us != start_us - ready_us")

# Critical path: a dependency-connected chain whose summed run time is the
# reported duration and never exceeds the wall clock.
crit = report.get("critical_path", {})
for key in ("jobs", "duration_us", "wall_us", "fraction"):
    check(key in crit, f"critical_path missing {key!r}")
chain = crit.get("jobs", [])
check(isinstance(chain, list) and chain, "critical_path.jobs empty")
chain_sum = sum(jobs[j].get("run_us", 0) for j in chain
                if isinstance(j, int) and j < len(jobs))
check(chain_sum == crit.get("duration_us"),
      f"critical path duration {crit.get('duration_us')} != chain run sum "
      f"{chain_sum}")
check(crit.get("duration_us", 0) <= wall,
      f"critical path {crit.get('duration_us')} exceeds wall {wall}")
for a, b in zip(chain, chain[1:]):
    check(b < len(jobs) and a in jobs[b].get("deps", []),
          f"critical path edge {a}->{b} is not a dependency edge")

sched = report.get("scheduler", {})
for key in ("queue_depth_high_water", "wakeup_retries", "jobs_enqueued",
            "jobs_started", "jobs_finished", "jobs_failed", "jobs_skipped",
            "workers", "stragglers"):
    check(key in sched, f"scheduler missing {key!r}")
check(sched.get("jobs_enqueued") == len(jobs),
      f"jobs_enqueued {sched.get('jobs_enqueued')} != jobs length")
# Run memo: sweep_demo's three feedback jobs time one shared baseline, so
# exactly one request executes and two replay it, each replay saving the
# executed run's instructions.
memo = sched.get("run_memo", {})
for key in ("hits", "misses", "saved_instructions", "parks", "image_builds",
            "image_shares"):
    check(isinstance(memo.get(key), int) and memo.get(key) >= 0,
          f"scheduler.run_memo.{key} missing or not a count")
check(memo.get("misses") == 1 and memo.get("hits") == 2,
      f"run_memo {memo.get('hits')} hits / {memo.get('misses')} misses, "
      "want 2 / 1")
check(memo.get("saved_instructions", 0) > 0 and
      memo.get("saved_instructions", 0) % 2 == 0,
      "run_memo.saved_instructions is not two replays of one run")
# Parks depend on the schedule; the serial sweep has none, and its other
# memo counts equal the threaded sweep's.
with open(serial_path) as f:
    serial_memo = json.load(f).get("scheduler", {}).get("run_memo", {})
check(serial_memo.get("parks") == 0,
      f"serial sweep parked {serial_memo.get('parks')!r} times, want 0")
for key in ("hits", "misses", "saved_instructions"):
    check(serial_memo.get(key) == memo.get(key),
          f"run_memo.{key} differs between --threads=1 and --threads=2")
workers = sched.get("workers", [])
check(len(workers) == report.get("threads"),
      "scheduler.workers length != threads")
busy_sum = 0
for w in workers:
    for key in ("worker", "jobs", "busy_us", "utilization"):
        check(key in w, f"scheduler worker missing {key!r}")
    check(0.0 <= w.get("utilization", -1) <= 1.0 + 1e-9,
          f"worker {w.get('worker')} utilization out of [0, 1]")
    busy_sum += w.get("jobs", 0)
check(busy_sum == len(jobs), "per-worker job counts do not sum to jobs")
stragglers = sched.get("stragglers", [])
runs = [s.get("run_us", 0) for s in stragglers]
check(runs == sorted(runs, reverse=True),
      "stragglers not sorted by run_us descending")

# Flow events: the sweep trace carries one "s"/"f" pair per dependency
# edge between jobs that ran, joined by id on the "job-dep" category.
with open(trace_path) as f:
    trace = json.load(f)
events = trace.get("traceEvents", [])
starts = {e.get("id"): e for e in events
          if e.get("ph") == "s" and e.get("cat") == "job-dep"}
finishes = {e.get("id"): e for e in events
            if e.get("ph") == "f" and e.get("cat") == "job-dep"}
check(len(starts) > 0, "sweep trace has no flow-start events")
check(set(starts) == set(finishes),
      "flow starts and finishes do not pair up by id")
for fid, s in starts.items():
    e = finishes.get(fid)
    if e is None:
        continue
    check(e.get("bp") == "e", f"flow finish {fid} lacks bp='e'")
    check(s.get("ts", 0) <= e.get("ts", 0),
          f"flow {fid} goes backward in time")
    check(s.get("name") == e.get("name"),
          f"flow {fid} start/finish names differ")
ran_edges = sum(len(j.get("deps", [])) for j in jobs if j.get("ok"))
check(len(starts) == ran_edges,
      f"{len(starts)} flow pairs != {ran_edges} dependency edges")

# Flight-recorder dump: every worker lane present, events well-formed and
# monotone per lane.
with open(flight_path) as f:
    flight = json.load(f)
check(flight.get("schema") == "sprof.flightrec/1",
      f"unexpected flightrec schema: {flight.get('schema')!r}")
check(flight.get("reason") == "request",
      f"flightrec reason {flight.get('reason')!r}, want 'request'")
lanes = flight.get("workers", [])
check(len(lanes) == report.get("threads"),
      "flightrec workers length != threads")
kinds = {"job-start", "job-finish", "job-fail", "phase", "mark"}
total_events = 0
for lane in lanes:
    for key in ("worker", "in_flight", "current_job", "events"):
        check(key in lane, f"flightrec lane missing {key!r}")
    check(lane.get("in_flight") is False,
          f"lane {lane.get('worker')} still in flight after the drain")
    stamps = []
    for e in lane.get("events", []):
        for key in ("ts_us", "kind", "name", "ok"):
            check(key in e, f"flightrec event missing {key!r}")
        check(e.get("kind") in kinds,
              f"unknown flightrec event kind {e.get('kind')!r}")
        stamps.append(e.get("ts_us", 0))
        total_events += 1
    check(stamps == sorted(stamps),
          f"lane {lane.get('worker')} events not monotone in time")
check(total_events > 0, "flightrec dump recorded no events")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)
print(f"sweep schema OK ({len(jobs)} jobs, {len(chain)} on the critical "
      f"path, {len(starts)} flow pairs, {total_events} flightrec events)")
EOF

    if [ -n "$INSPECT" ]; then
        "$INSPECT" sweep "$SWEEP_REPORT" > "$WORKDIR/inspect_sweep.txt"
        grep -q "critical path" "$WORKDIR/inspect_sweep.txt" || {
            echo "FAIL: sprof-inspect sweep lacks the critical path" >&2
            exit 1
        }
        grep -q "Worker utilization" "$WORKDIR/inspect_sweep.txt" || {
            echo "FAIL: sprof-inspect sweep lacks worker utilization" >&2
            exit 1
        }
        grep -q "run memo: 2 hits / 1 misses" "$WORKDIR/inspect_sweep.txt" || {
            echo "FAIL: sprof-inspect sweep lacks the run memo counts" >&2
            exit 1
        }
        "$INSPECT" blackbox "$SWEEP_FLIGHT" > "$WORKDIR/inspect_blackbox.txt"
        grep -q "reason:" "$WORKDIR/inspect_blackbox.txt" || {
            echo "FAIL: sprof-inspect blackbox lacks the dump reason" >&2
            exit 1
        }
        # Forward-compat contract: a sweep report stamped with a newer
        # schema version must be rejected, not half-rendered.
        sed 's/sprof.sweep_report\/1/sprof.sweep_report\/99/' \
            "$SWEEP_REPORT" > "$WORKDIR/sweep_future.json"
        if "$INSPECT" sweep "$WORKDIR/sweep_future.json" \
                2> "$WORKDIR/inspect_err.txt"; then
            echo "FAIL: sprof-inspect sweep accepted a /99 report" >&2
            exit 1
        fi
        grep -q "newer than this reader" "$WORKDIR/inspect_err.txt" || {
            echo "FAIL: newer-schema diagnostic missing" >&2
            exit 1
        }
        echo "sprof-inspect sweep/blackbox OK"
    fi
fi
