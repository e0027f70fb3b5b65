#!/usr/bin/env bash
# A/B of the committed benchmark: a parent commit against the working tree.
#
#   scripts/ab.sh <parent-ref> <workload>[,<workload>...]|all [pairs=10]
#
# `all` is every workload of BENCHMARK.json in its order; a comma-separated
# list runs those, in that order — name the claimed workload first and its
# rows lead the table, the controls follow.
#
# Builds the benchmark from a `git archive` export of <parent-ref> and from
# the working tree, each into its own CARGO_TARGET_DIR, then runs
#   benchmark --workload W --seed S --seconds <run_seconds> --trace 0
# in alternating order (parent first on odd pairs, change first on even) —
# the protocol of the choosing-metrics guide, section 8. The first half of
# the pairs uses seed 1, the second half seed 11 (a seed no change was
# developed on). Prints the digests of every pair, then one markdown table:
# per workload and end-to-end metric of BENCHMARK.json, each side's median
# and quartiles, the change of the median, and the change's pair wins.
# Exits 1 if the two sides' digests differ in a pair, any run reports
# "correct":false or a failed request, or a result line lacks one of the
# metrics.
#
# The same figures go to $AB_WORK/row.json as one JSON line under a stamp
# (change and parent commits, nproc, the widest SIMD level the CPU's
# /proc/cpuinfo flags report — avx512f, avx2 or baseline, the levels the
# lane pass is compiled at — rustc, UTC date, seeds, pairs): per
# workload the pairs with equal digests, and per metric each side's
# [median, q1, q3] and the change's pair wins. A PR that records its A/B
# appends that line to TRAJECTORY.jsonl at the root.
#
# Reads only what the benchmark prints; nothing under benchmark/ changes.
# Scratch (the export, both target directories, the run logs) goes to
# $AB_WORK, by default target/ab in the repository.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    sed -n '2,8p' "$0" >&2
    exit 2
fi
parent_ref=$1
pairs=${3:-10}
seeds=(1 11)

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${AB_WORK:-$repo/target/ab}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$repo/BENCHMARK.json")
if [[ $2 == all ]]; then
    mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*{"name":"\([a-z0-9_]*\)".*/\1/p' \
        "$repo/BENCHMARK.json")
else
    IFS=, read -ra workloads <<<"$2"
fi
mkdir -p "$work/logs"

echo "# exporting and building parent $parent_ref" >&2
rm -rf "$work/parent-src"
mkdir -p "$work/parent-src"
git -C "$repo" archive "$parent_ref" | tar -x -C "$work/parent-src"
declare -A src=([parent]=$work/parent-src [change]=$repo)
for side in parent change; do
    CARGO_TARGET_DIR=$work/target-$side cargo build --quiet --release --offline \
        --manifest-path "${src[$side]}/benchmark/Cargo.toml"
done

# Runs one side once; leaves its stdout in the run's log.
run() { # workload side pair seed
    local log=$work/logs/$1-$3-$2.log
    (cd "${src[$2]}" && CARGO_TARGET_DIR=$work/target-$2 \
        "$work/target-$2/release/benchmark" \
        --workload "$1" --seed "$4" --seconds "$seconds" --trace 0) >"$log" || true
    echo "$1 pair $3 seed $4 $2: $(head -n 1 "$log")" >&2
}

for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        seed=${seeds[$((pair * 2 > pairs ? 1 : 0))]}
        if ((pair % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do run "$workload" "$side" "$pair" "$seed"; done
    done
done

# The result line is the last line of a run's stdout; the digest is the
# word after `digest` on its first.
digest() { head -n 1 "$1" | sed -n 's/.* digest \([0-9a-f]*\) .*/\1/p'; }
# A metric the result line does not carry in the expected shape ends the
# script: an empty value would otherwise count as a tie.
value() {
    local v
    v=$(tail -n 1 "$1" | sed -n "s/.*\"$2\":{\"value\":\([-0-9.e+]*\).*/\1/p")
    if [[ -z $v ]]; then
        echo "ab.sh: no \"$2\" value in the result line of $1" >&2
        return 1
    fi
    echo "$v"
}

status=0
declare -A equal
echo
echo "parent $parent_ref vs working tree, $pairs pairs per workload, ${seconds} s runs"
for workload in "${workloads[@]}"; do
    equal[$workload]=0
    for ((pair = 1; pair <= pairs; pair++)); do
        p=$work/logs/$workload-$pair-parent.log
        c=$work/logs/$workload-$pair-change.log
        for log in "$p" "$c"; do
            if ! tail -n 1 "$log" | grep -q '"correct":true,"attempted":[0-9]*,"failed":0,'; then
                echo "FAILED RUN (correct:false or failed requests): $log"
                status=1
            fi
        done
        dp=$(digest "$p")
        dc=$(digest "$c")
        echo "$workload pair $pair digests: parent $dp change $dc"
        if [[ -z $dp || $dp != "$dc" ]]; then
            echo "DIGESTS DIFFER in $workload pair $pair"
            status=1
        else
            equal[$workload]=$((equal[$workload] + 1))
        fi
    done
done

# name and direction of every end-to-end metric, from BENCHMARK.json.
metrics=$(sed -n '/"end_to_end"/,/\]/s/.*"name":"\([a-z0-9_]*\)".*"better":"\([a-z]*\)".*/\1 \2/p' \
    "$repo/BENCHMARK.json")

# Median and quartiles of a file of values, as `median q1 q3`.
spread() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(f,   pos, lo) {
            pos = 1 + (NR - 1) * f; lo = int(pos)
            return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.4f %.4f %.4f", q(0.5), q(0.25), q(0.75) }'
}

dirty=$(git -C "$repo" diff --quiet HEAD || echo -dirty)
flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
simd=baseline
for level in avx2 avx512f; do [[ $flags == *" $level "* ]] && simd=$level; done
row="{\"commit\":\"$(git -C "$repo" rev-parse HEAD)$dirty\""
row+=",\"parent\":\"$(git -C "$repo" rev-parse "$parent_ref")\",\"nproc\":$(nproc)"
row+=",\"simd\":\"$simd\",\"rustc\":\"$(rustc -V)\",\"date\":\"$(date -u +%F)\""
row+=",\"seeds\":[${seeds[0]},${seeds[1]}],\"pairs\":$pairs,\"workloads\":{"

echo
echo "| workload | metric | parent median [q1–q3] | change median [q1–q3] | median change | change wins |"
echo "|---|---|---|---|---|---|"
for workload in "${workloads[@]}"; do
    row+="\"$workload\":{\"digests_equal\":\"${equal[$workload]}/$pairs\""
    while read -r name better; do
        wins=0
        ties=0
        for side in parent change; do : >"$work/logs/$side.values"; done
        for ((pair = 1; pair <= pairs; pair++)); do
            vp=$(value "$work/logs/$workload-$pair-parent.log" "$name")
            vc=$(value "$work/logs/$workload-$pair-change.log" "$name")
            echo "$vp" >>"$work/logs/parent.values"
            echo "$vc" >>"$work/logs/change.values"
            outcome=$(awk -v p="$vp" -v c="$vc" -v b="$better" 'BEGIN {
                if (p == c) print "tie"
                else if ((b == "lower") == (c < p)) print "win"
                else print "loss" }')
            [[ $outcome == win ]] && wins=$((wins + 1))
            [[ $outcome == tie ]] && ties=$((ties + 1))
        done
        read -r pm p1 p3 <<<"$(spread "$work/logs/parent.values")"
        read -r cm c1 c3 <<<"$(spread "$work/logs/change.values")"
        delta=$(awk -v p="$pm" -v c="$cm" 'BEGIN {
            if (p == 0) print "n/a"; else printf "%+.1f %%", (c - p) / p * 100 }')
        echo "| $workload | $name ($better is better) | $pm [$p1–$p3] | $cm [$c1–$c3] | $delta | $wins of $pairs ($ties ties) |"
        row+=",\"$name\":{\"parent\":[$pm,$p1,$p3],\"change\":[$cm,$c1,$c3],\"wins\":$wins}"
    done <<<"$metrics"
    row+="},"
done
echo "${row%,}}}" >"$work/row.json"

exit $status
