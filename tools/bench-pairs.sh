#!/bin/sh
# The pair campaign behind every wall-clock claim in CHANGES.md: the parent
# commit's ledger and the working tree's, built offline and run alternately
# (the side that goes first flips each pair) on every BENCHMARK.json
# workload. Prints, per workload and end-to-end metric, both medians, both
# quartile spreads, the pairs each side won, and the verdict of the rule
# the repo claims gains by: ahead in at least nine tenths of the pairs
# (ties count for neither) and the medians apart by more than the distance
# between the parent's own quartiles. The parent is a `git archive` export
# under target/, removed on exit; the raw result lines stay in
# target/bench-pairs/runs.tsv. A claim must also hold on a seed not used
# while the change was written: pass one. ~2 x pairs x seconds per
# workload: launch a full campaign detached and build nothing meanwhile.
set -eu
cd "$(dirname "$0")/.."
if [ $# -lt 1 ]; then
    echo "usage: $0 <parent-ref> [pairs=10] [seconds=30] [seed=7]" >&2
    exit 2
fi
parent=$1
pairs=${2:-10}
seconds=${3:-30}
seed=${4:-7}
work=target/bench-pairs
rm -rf "$work"
mkdir -p "$work/parent"
trap 'rm -rf "$work/parent"' EXIT
git archive "$parent" | tar -x -C "$work/parent"
for tree in "$work/parent" .; do
    cargo build --release --quiet --offline --manifest-path "$tree/benchmark/Cargo.toml"
done
cp "$work/parent/benchmark/target/release/demi-ledger" "$work/ledger-parent"
cp benchmark/target/release/demi-ledger "$work/ledger-change"

# `name` lines of one BENCHMARK.json section, with `better` where it has one.
section() {
    awk -v from="\"$1\"" -v to="\"$2\"" '
        index($0, from) { on = 1 }
        index($0, to) { on = 0 }
        on && /"name"/ { split($0, q, "\""); name = q[4]; if (from ~ /workloads/) print name }
        on && /"better"/ { split($0, q, "\""); print name ":" q[4] }' BENCHMARK.json
}
workloads=$(section workloads end_to_end)
metrics=$(section end_to_end per_layer)

run() { # side workload pair
    line=$("$work/ledger-$1" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\t%s\n' "$2" "$1" "$3" "$line" >>"$work/runs.tsv"
}
for workload in $workloads; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$workload" "$pair"
        done
        pair=$((pair + 1))
    done
done

awk -F '\t' -v metrics="$metrics" '
    function quantile(v, n, q,    pos, lo) {
        pos = 1 + (n - 1) * q; lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function summary(side, w, m, n,    i, j, t, v) { # median and quartiles of one side
        for (i = 1; i <= n; i++) v[i] = val[w, m, side, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        med[side] = quantile(v, n, 0.5); q1[side] = quantile(v, n, 0.25); q3[side] = quantile(v, n, 0.75)
    }
    BEGIN { nm = split(metrics, spec, " ") }
    {
        if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
        if ($3 > pairs[$1]) pairs[$1] = $3
        if ($4 !~ /"correct":true/ || $4 !~ /"failed":0[,}]/) bad[$1]++
        for (k = 1; k <= nm; k++) {
            split(spec[k], s, ":")
            if (match($4, "\"" s[1] "\":\\{\"value\":[-+0-9.eE]+"))
                val[$1, s[1], $2, $3] = substr($4, RSTART + length(s[1]) + 12, RLENGTH - length(s[1]) - 12) + 0
        }
    }
    END {
        for (wi = 1; wi <= nw; wi++) {
            w = order[wi]; n = pairs[w]
            printf "%s: %d pairs, %d incorrect or failing runs\n", w, n, bad[w]
            printf "  %-16s %14s %14s %14s %14s %8s %7s  %s\n", "metric", "parent median", "parent q1..q3", "change median", "change q1..q3", "change", "won", "verdict"
            for (k = 1; k <= nm; k++) {
                split(spec[k], s, ":"); m = s[1]; sign = s[2] == "higher" ? 1 : -1
                summary("parent", w, m, n); summary("change", w, m, n)
                won = lost = 0
                for (i = 1; i <= n; i++) {
                    d = sign * (val[w, m, "change", i] - val[w, m, "parent", i])
                    if (d > 0) won++; else if (d < 0) lost++
                }
                gap = sign * (med["change"] - med["parent"]); spread = q3["parent"] - q1["parent"]
                if (won + lost == 0) verdict = "identical"
                else if (won >= 0.9 * n && gap > spread) verdict = "GAIN"
                else if (lost >= 0.9 * n && -gap > spread) verdict = "LOSS"
                else verdict = "unresolved"
                printf "  %-16s %14.10g %14.6g %14.10g %14.6g %+7.1f%% %3d/%-3d  %s\n", m, med["parent"], spread, med["change"], q3["change"] - q1["change"], med["parent"] ? 100 * (med["change"] - med["parent"]) / med["parent"] : 0, won, lost, verdict
            }
        }
    }' "$work/runs.tsv"
