#!/usr/bin/env sh
# benchgate.sh OLD NEW — benchmark regression gate.
#
# Compares two `go test -bench` outputs: for every benchmark name present in
# both files, the ns/op ratio new/old is computed, and the geometric mean of
# the ratios must not exceed 1 + BENCHGATE_MAX_REGRESSION (default 0.10,
# i.e. a >10% aggregate slowdown fails). Individual benchmarks are noisy at
# -benchtime=1x — the geomean across the whole suite is what gates. The
# biggest movers in both directions are printed even when the gate passes,
# so a green run still shows where the time went. Benchmarks present in OLD
# and absent from NEW are listed too (informational: they never affect the
# exit code), so a deleted benchmark shows in the log instead of silently
# leaving the geomean.
#
# On the first run there is no previous artifact: a missing OLD file (or two
# files with no benchmark in common) is not an error — the gate is skipped
# with exit code 3, distinct from both pass and fail, so CI can annotate
# "first run, nothing compared" instead of silently going green. A missing
# NEW file is still a usage error (the caller forgot to produce the current
# run).
#
# Exit codes: 0 pass, 1 regression, 2 usage error, 3 gate skipped (first
# run / nothing comparable).
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 old-bench.txt new-bench.txt" >&2
    exit 2
fi
old="$1"
new="$2"
max="${BENCHGATE_MAX_REGRESSION:-0.10}"

if [ ! -f "$new" ]; then
    echo "benchgate: current benchmark output $new not found" >&2
    exit 2
fi
if [ ! -f "$old" ]; then
    echo "benchgate: no previous benchmark artifact ($old) — first run, nothing to compare against; gate skipped"
    exit 3
fi

# Extract "name ns_per_op" pairs. Benchmark lines look like:
#   BenchmarkFoo/bar-8   123   45678 ns/op   90 B/op   1 allocs/op
extract() {
    awk '/^Benchmark/ && / ns\/op/ {
        for (i = 1; i <= NF; i++) {
            if ($i == "ns/op") { print $1, $(i-1); break }
        }
    }' "$1"
}

tmp="${TMPDIR:-/tmp}/benchgate.$$"
trap 'rm -f "$tmp.old" "$tmp.new" "$tmp.ratio" "$tmp.gone"' EXIT
extract "$old" | sort > "$tmp.old"
extract "$new" | sort > "$tmp.new"

# Benchmarks that disappeared since OLD: listed, never gated.
join -v 1 "$tmp.old" "$tmp.new" | awk '{ print $1 }' > "$tmp.gone"
if [ -s "$tmp.gone" ]; then
    echo "benchgate: $(wc -l < "$tmp.gone" | tr -d ' ') benchmark(s) in $old are absent from $new:"
    sed 's/^/  /' "$tmp.gone"
fi

# One line per comparable benchmark: "ratio name old_ns new_ns".
join "$tmp.old" "$tmp.new" \
    | awk '$2 > 0 && $3 > 0 { printf "%.6f %s %.0f %.0f\n", $3 / $2, $1, $2, $3 }' \
    > "$tmp.ratio"

if [ ! -s "$tmp.ratio" ]; then
    echo "benchgate: no comparable benchmarks between $old and $new; gate skipped"
    exit 3
fi

# The diff, printed pass or fail: the five biggest movers each way.
echo "benchgate: biggest changes (new/old ns/op ratio):"
sort -g "$tmp.ratio" | head -n 5 \
    | awk '{ printf "  %-60s %8.0f -> %8.0f ns/op (%.2fx)\n", $2, $3, $4, $1 }'
echo "  ..."
sort -g "$tmp.ratio" | tail -n 5 \
    | awk '{ printf "  %-60s %8.0f -> %8.0f ns/op (%.2fx)\n", $2, $3, $4, $1 }'

awk -v max="$max" '
    { sumlog += log($1); n++ }
    END {
        geomean = exp(sumlog / n)
        printf "benchgate: %d benchmarks, geomean ratio %.4f (gate: <= %.4f)\n", n, geomean, 1 + max
        if (geomean > 1 + max) {
            print "benchgate: FAIL — aggregate benchmark regression above threshold"
            exit 1
        }
        print "benchgate: OK"
    }' "$tmp.ratio"
