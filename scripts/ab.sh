#!/usr/bin/env bash
# A/B of the committed benchmark: a parent commit against the working tree.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10]
#
# Builds the benchmark from a `git archive` export of <parent-ref> and from
# the working tree, each into its own CARGO_TARGET_DIR, then runs
#   benchmark --workload W --seed S --seconds <run_seconds> --trace 0
# in alternating order (parent first on odd pairs, change first on even) —
# the protocol of the choosing-metrics guide, section 8. The first half of
# the pairs uses seed 1, the second half seed 11 (a seed no change was
# developed on). Prints, per side, the median and quartiles of every
# end-to-end metric of BENCHMARK.json, the change's pair wins, and the
# digests. Exits 1 if the two sides' digests differ for a seed, any run
# reports "correct":false or a failed request, or a result line lacks one
# of the metrics.
#
# Reads only what the benchmark prints; nothing under benchmark/ changes.
# Scratch (the export, both target directories, the run logs) goes to
# $AB_WORK, by default target/ab in the repository.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seeds=(1 11)

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${AB_WORK:-$repo/target/ab}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$repo/BENCHMARK.json")
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
run() { # side pair seed
    local log=$work/logs/$workload-$2-$1.log
    (cd "${src[$1]}" && CARGO_TARGET_DIR=$work/target-$1 \
        "$work/target-$1/release/benchmark" \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) >"$log" || true
    echo "pair $2 seed $3 $1: $(head -n 1 "$log")" >&2
}

status=0
for ((pair = 1; pair <= pairs; pair++)); do
    seed=${seeds[$((pair * 2 > pairs ? 1 : 0))]}
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do run "$side" "$pair" "$seed"; done
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

echo
echo "workload $workload, $pairs pairs, parent $parent_ref vs working tree"
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
    echo "pair $pair digests: parent $dp change $dc"
    if [[ -z $dp || $dp != "$dc" ]]; then
        echo "DIGESTS DIFFER in pair $pair"
        status=1
    fi
done

# name and direction of every end-to-end metric, from BENCHMARK.json.
metrics=$(sed -n '/"end_to_end"/,/\]/s/.*"name":"\([a-z0-9_]*\)".*"better":"\([a-z]*\)".*/\1 \2/p' \
    "$repo/BENCHMARK.json")

printf '\n%-16s %-7s %12s %12s %12s   %s\n' metric side q1 median q3 "change wins"
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
    for side in parent change; do
        note=
        [[ $side == change ]] && note="$wins of $pairs ($ties ties), $better is better"
        sort -g "$work/logs/$side.values" | awk -v name="$name" -v side="$side" -v note="$note" '
            { v[NR] = $1 }
            function q(f,   pos, lo) {
                pos = 1 + (NR - 1) * f; lo = int(pos)
                return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
            }
            END { printf "%-16s %-7s %12.4f %12.4f %12.4f   %s\n", name, side, q(0.25), q(0.5), q(0.75), note }'
    done
done <<<"$metrics"

exit $status
