#!/usr/bin/env bash
# Validates the flight recorder's two post-mortem paths end to end using
# the sweep_demo example:
#
#   * crash: sweep_demo --crash raises SIGSEGV from inside a job; the
#     signal hook must dump a "sprof.flightrec/1" document naming the
#     in-flight job before the default action kills the process, and the
#     process must still die by SIGSEGV (the handler re-raises, so wait
#     status is preserved);
#   * hang: sweep_demo --hang --watchdog=1 wedges a job forever; the
#     watchdog must dump and exit with FlightRecorder::WatchdogExitCode
#     (42) instead of letting the sweep hang.
#
# Both dumps are cross-checked with `sprof-inspect blackbox` when the
# inspector binary is given. Wired into ctest as `flight_recorder`.
#
# Usage: check_flight_recorder.sh /path/to/sweep_demo [workdir]
#            [/path/to/sprof-inspect]
set -uo pipefail

DEMO="${1:?usage: check_flight_recorder.sh /path/to/sweep_demo [workdir] [sprof-inspect]}"
WORKDIR="${2:-$(mktemp -d)}"
mkdir -p "$WORKDIR"
INSPECT="${3:-}"

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# A dump must parse, carry the expected schema and reason, and name the
# job that was in flight when the recorder fired.
check_dump() {
    local dump="$1" reason="$2" job="$3"
    python3 - "$dump" "$reason" "$job" <<'EOF' || exit 1
import json
import sys

dump_path, want_reason, want_job = sys.argv[1], sys.argv[2], sys.argv[3]
with open(dump_path) as f:
    flight = json.load(f)
if flight.get("schema") != "sprof.flightrec/1":
    sys.exit(f"FAIL: dump schema {flight.get('schema')!r}")
if flight.get("reason") != want_reason:
    sys.exit(f"FAIL: dump reason {flight.get('reason')!r}, "
             f"want {want_reason!r}")
lanes = flight.get("workers", [])
in_flight = [lane.get("current_job") for lane in lanes
             if lane.get("in_flight")]
if want_job not in in_flight:
    sys.exit(f"FAIL: in-flight jobs {in_flight} do not name {want_job!r}")
events = sum(len(lane.get("events", [])) for lane in lanes)
if events == 0:
    sys.exit("FAIL: dump recorded no events")
print(f"dump OK ({want_reason}: {want_job} in flight, {events} events)")
EOF
}

# -- crash path ------------------------------------------------------------

CRASH_DUMP="$WORKDIR/crash_flight.json"
rm -f "$CRASH_DUMP"
"$DEMO" --threads=2 --crash \
    --report="$WORKDIR/crash_report.json" \
    --trace="$WORKDIR/crash_trace.json" \
    --flight="$CRASH_DUMP" > /dev/null 2>&1
STATUS=$?
# 128 + SIGSEGV(11): the handler re-raised with the default action.
[ "$STATUS" -eq 139 ] || fail "crash run exited $STATUS, want 139 (SIGSEGV)"
[ -s "$CRASH_DUMP" ] || fail "crash run left no flight-recorder dump"
check_dump "$CRASH_DUMP" "signal:SIGSEGV" "crash:boom"

# -- hang path -------------------------------------------------------------

HANG_DUMP="$WORKDIR/hang_flight.json"
rm -f "$HANG_DUMP"
"$DEMO" --threads=2 --hang --watchdog=1 \
    --report="$WORKDIR/hang_report.json" \
    --trace="$WORKDIR/hang_trace.json" \
    --flight="$HANG_DUMP" > /dev/null 2>&1
STATUS=$?
[ "$STATUS" -eq 42 ] || fail "hang run exited $STATUS, want 42 (watchdog)"
[ -s "$HANG_DUMP" ] || fail "hang run left no flight-recorder dump"
check_dump "$HANG_DUMP" "watchdog" "hang:wedge"

# -- inspector cross-check -------------------------------------------------

if [ -n "$INSPECT" ]; then
    "$INSPECT" blackbox "$CRASH_DUMP" > "$WORKDIR/inspect_crash.txt" ||
        fail "sprof-inspect blackbox rejected the crash dump"
    grep -q "IN FLIGHT: crash:boom" "$WORKDIR/inspect_crash.txt" ||
        fail "blackbox view does not show crash:boom in flight"
    "$INSPECT" blackbox "$HANG_DUMP" > "$WORKDIR/inspect_hang.txt" ||
        fail "sprof-inspect blackbox rejected the hang dump"
    grep -q "IN FLIGHT: hang:wedge" "$WORKDIR/inspect_hang.txt" ||
        fail "blackbox view does not show hang:wedge in flight"
fi

echo "flight recorder OK (crash dies 139 with a dump, hang exits 42)"
