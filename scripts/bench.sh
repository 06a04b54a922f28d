#!/usr/bin/env bash
# bench.sh — run the benchmark suite and write a machine-readable baseline,
# or gate a change against the checked-in baseline.
#
# The baseline records B/op and allocs/op for every benchmark in
# bench_test.go (one per paper artifact, plus ablations and substrate
# micro-benchmarks). Wall-clock is not recorded: one iteration on a shared
# machine is too noisy to compare, and perfbench/ measures host speed.
#
# Usage:
#   scripts/bench.sh                  # full suite, 1 iteration each
#   scripts/bench.sh -gate            # perf-regression gate (see below)
#   BENCHTIME=3x scripts/bench.sh     # more iterations (slower, steadier)
#   BENCH_PATTERN=Fig scripts/bench.sh  # subset by regex
#   BENCH_OUT=BENCH_dev.json scripts/bench.sh
#
# Gate mode reruns the key whole-system benchmarks (Fig1, the full-system,
# accelerated and sampled end-to-end runs, and the transfer sweep) and compares their memory profile
# against the checked-in baseline (BENCH_BASELINE, default BENCH_8.json). The build
# fails when allocs/op or bytes/op regress by more than 10% (plus a small
# absolute slack so near-zero budgets don't flap). The allocation profile is
# a deterministic function of the code, so it is all the gate compares.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${BENCH_BASELINE:-BENCH_8.json}"
BENCHTIME="${BENCHTIME:-1x}"

run_suite() { # $1 = pattern, $2 = output json
    local raw
    raw="$(go test -run '^$' -bench "$1" -benchtime "$BENCHTIME" -benchmem -timeout 60m .)"
    printf '%s\n' "$raw"
    printf '%s\n' "$raw" | awk -v out="$2" -v benchtime="$BENCHTIME" \
        -v goversion="$(go env GOVERSION)" '
/^Benchmark/ {
    name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    entry = sprintf("    {\"name\": %s, \"iters\": %s", q(name), $2)
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op")      entry = entry sprintf(", \"bytes_per_op\": %s", $i)
        if ($(i+1) == "allocs/op") entry = entry sprintf(", \"allocs_per_op\": %s", $i)
    }
    entries[n++] = entry "}"
}
function q(s) { gsub(/"/, "\\\"", s); return "\"" s "\"" }
END {
    if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "{\n  \"go\": %s,\n  \"benchtime\": %s,\n  \"benchmarks\": [\n", \
           q(goversion), q(benchtime) > out
    for (i = 0; i < n; i++) printf "%s%s\n", entries[i], (i < n-1 ? "," : "") > out
    printf "  ]\n}\n" > out
    printf "bench.sh: wrote %s (%d benchmarks)\n", out, n > "/dev/stderr"
}'
}

if [ "${1:-}" = "-gate" ]; then
    GATE_PATTERN='^(BenchmarkFig1|BenchmarkFullSystemSimulation|BenchmarkAcceleratedSimulation|BenchmarkSampledVsFullRun|BenchmarkTransferVsColdSweep)$'
    [ -f "$BASELINE" ] || { echo "bench.sh: baseline $BASELINE missing" >&2; exit 1; }
    CUR="$(mktemp "${TMPDIR:-/tmp}/bench-gate.XXXXXX.json")"
    trap 'rm -f "$CUR"' EXIT
    run_suite "$GATE_PATTERN" "$CUR"
    # The baseline writer emits one benchmark entry per line, so the gate can
    # parse its own format without a JSON tool on the runner.
    awk '
function val(line, key,   m) {
    if (match(line, "\"" key "\": [0-9.e+]+") == 0) return -1
    m = substr(line, RSTART, RLENGTH); sub(/.*: /, "", m); return m + 0
}
function name(line,   m) {
    if (match(line, /"name": "[^"]+"/) == 0) return ""
    m = substr(line, RSTART, RLENGTH); gsub(/"name": "|"$/, "", m); return m
}
FNR == NR {
    if ((n = name($0)) != "") {
        b_allocs[n] = val($0, "allocs_per_op")
        b_bytes[n]  = val($0, "bytes_per_op")
    }
    next
}
{
    n = name($0); if (n == "" || !(n in b_allocs)) next
    checked++
    allocs = val($0, "allocs_per_op"); bytes = val($0, "bytes_per_op")
    printf "gate %-28s B/op %10.0f (base %10.0f)  allocs/op %8.0f (base %8.0f)\n", \
           n, bytes, b_bytes[n], allocs, b_allocs[n]
    if (allocs > b_allocs[n] * 1.10 + 16) {
        printf "FAIL %s: allocs/op %.0f exceeds baseline %.0f by more than 10%%\n", n, allocs, b_allocs[n]
        bad = 1
    }
    if (bytes > b_bytes[n] * 1.10 + 4096) {
        printf "FAIL %s: bytes/op %.0f exceeds baseline %.0f by more than 10%%\n", n, bytes, b_bytes[n]
        bad = 1
    }
}
END {
    if (checked < 5) { printf "FAIL gate compared only %d benchmarks, want 5\n", checked; bad = 1 }
    if (bad) exit 1
    printf "gate: %d benchmarks within budget\n", checked
}' "$BASELINE" "$CUR"
    exit 0
fi

OUT="${BENCH_OUT:-$BASELINE}"
PATTERN="${BENCH_PATTERN:-.}"
run_suite "$PATTERN" "$OUT"
