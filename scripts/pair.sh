#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against this checkout.
#
#   scripts/pair.sh <parent-rev> --seeds A..B [--workload W]...
#
# Extracts <parent-rev> with `git archive` into a scratch directory and
# builds it there with its own CARGO_TARGET_DIR (the directory is kept and
# reused by the next call for the same revision). Then, per workload (all
# of BENCHMARK.json's by default) and per seed, it runs the unmodified
# `benchmark/run.sh --workload W --seed S` once on each side, alternating
# which side goes first from one seed to the next.
#
# Every run is appended, result line included, to
# results/bench/<change>.runs.jsonl, and results/bench/<change>.json is
# rebuilt from all runs kept there. Per workload and end-to-end metric
# (names, units, bounds and direction read from BENCHMARK.json) it holds
# both sides' values, their medians and quartiles, how many pairs the
# change won and tied, and a verdict:
#   gain        the change wins at least 9/10 of the pairs and the medians
#               differ by more than the parent's inter-quartile range;
#   regression  the change's median is worse than the parent's by more
#               than the bound (relative to the parent's median);
#   unresolved  the parent's inter-quartile range is wider than the bound,
#               unless every change run beats every parent run;
#   flat        otherwise.
# It also holds each side's `correct` flags and failed/attempted shares.
#
# <change> is HEAD's short sha, with -dirty appended when the checkout has
# edits outside results/bench. Needs git, cargo and jq; the scratch
# directory goes under $TMPDIR (default /tmp).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage() {
    echo "usage: scripts/pair.sh <parent-rev> --seeds A..B [--workload W]..." >&2
    exit 2
}

[[ $# -ge 1 ]] || usage
parent_rev=$1
shift
seeds=""
workloads=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --seeds) seeds=${2:-}; shift 2 || usage ;;
        --workload) workloads+=("${2:-}"); shift 2 || usage ;;
        *) usage ;;
    esac
done
[[ $seeds =~ ^([0-9]+)\.\.([0-9]+)$ ]] || usage
first_seed=${BASH_REMATCH[1]}
last_seed=${BASH_REMATCH[2]}
((first_seed <= last_seed)) || usage
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
for w in "${workloads[@]}"; do
    jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null ||
        { echo "unknown workload '$w'" >&2; exit 2; }
done

parent=$(git rev-parse --verify "$parent_rev^{commit}")
change=$(git rev-parse --short HEAD)
[[ -z $(git status --porcelain -- . ':!results/bench') ]] || change+=-dirty
scratch="${TMPDIR:-/tmp}/ausdb-pair-$parent"
if [[ ! -f $scratch/src/BENCHMARK.json ]]; then
    mkdir -p "$scratch/src"
    git archive "$parent" | tar -x -C "$scratch/src"
fi
mkdir -p results/bench
runs=results/bench/$change.runs.jsonl
summary=results/bench/$change.json

# run_side SIDE WORKLOAD SEED FIRST: one benchmark run, appended to $runs.
run_side() {
    local side=$1 workload=$2 seed=$3 first=$4 dir target out line
    if [[ $side == parent ]]; then
        dir=$scratch/src
        target=$scratch/target
    else
        dir=$PWD
        target=${CARGO_TARGET_DIR:-$PWD/target}
    fi
    echo "pair: $workload seed $seed $side" >&2
    out=$(cd "$dir" && CARGO_TARGET_DIR=$target bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" 2>&1) || true
    line=$(grep '^{"correct"' <<<"$out" | tail -n 1) || true
    jq -e . <<<"$line" >/dev/null 2>&1 || line=""
    jq -cn --arg workload "$workload" --argjson seed "$seed" --arg side "$side" \
        --arg first "$first" --argjson result "${line:-null}" --arg tail "$(tail -n 5 <<<"$out")" \
        '{workload: $workload, seed: $seed, side: $side, first: $first, result: $result}
         + (if $result == null then {error: $tail} else {} end)' >>"$runs"
}

for workload in "${workloads[@]}"; do
    for ((seed = first_seed; seed <= last_seed; seed++)); do
        if (((seed - first_seed) % 2 == 0)); then
            order=(parent change)
        else
            order=(change parent)
        fi
        for side in "${order[@]}"; do
            run_side "$side" "$workload" "$seed" "${order[0]}"
        done
    done
done

jq -n --slurpfile runs "$runs" --slurpfile spec BENCHMARK.json \
    --arg parent "$parent" --arg change "$change" '
def absv: if . < 0 then -. else . end;
# Quantile p of the input numbers, interpolating between order statistics.
def q($p): sort as $v | ($v | length) as $n
  | if $n == 0 then null
    else (($n - 1) * $p) as $h | ($h | floor) as $lo | ($h | ceil) as $hi
      | $v[$lo] + ($v[$hi] - $v[$lo]) * ($h - $lo) end;
# Whether a beats b, for input [a, b], when `better` is $dir.
def beats($dir): if $dir == "higher" then .[0] > .[1] else .[0] < .[1] end;
def side($s): .[] | select(.side == $s);
def summarize($m; $pairs):
  ($pairs | map([side("parent"), side("change")] | map(.result.metrics[$m.name].value)))
    as $vals
  | ($vals | map(.[0])) as $p | ($vals | map(.[1])) as $c
  | ($p | q(0.5)) as $pm | ($c | q(0.5)) as $cm
  | (($p | q(0.75)) - ($p | q(0.25))) as $iqr
  | ($vals | map(select([.[1], .[0]] | beats($m.better))) | length) as $wins
  | ($vals | map(select(.[0] == .[1])) | length) as $ties
  | (if $m.better == "higher" then [($c | min), ($p | max)] else [($c | max), ($p | min)] end
      | beats($m.better)) as $dominates
  | (if $m.better == "higher" then $pm - $cm else $cm - $pm end) as $worse_by
  | {
      unit: $m.unit, better: $m.better, bound: $m.bound,
      parent: $p, change: $c,
      parent_median: $pm, parent_q1: ($p | q(0.25)), parent_q3: ($p | q(0.75)),
      change_median: $cm, change_q1: ($c | q(0.25)), change_q3: ($c | q(0.75)),
      change_better: $wins, ties: $ties,
      verdict: (
        if $wins >= 0.9 * ($vals | length) and ([$cm, $pm] | beats($m.better))
          and (($cm - $pm) | absv) > $iqr then "gain"
        elif $worse_by > $m.bound * ($pm | absv) then "regression"
        elif $iqr > $m.bound * ($pm | absv) and ($dominates | not) then "unresolved"
        else "flat" end)
    };
{
  parent: $parent,
  change: $change,
  invalid_runs: ($runs | map(select(.result == null)) | length),
  workloads: (
    $runs | map(select(.result != null)) | group_by(.workload)
    | map(.[0].workload as $w
      | [group_by(.seed)[] | select(length == 2 and (map(.side) | sort) == ["change", "parent"])]
        as $pairs
      | {key: $w, value: {
          pairs: ($pairs | length),
          seeds: ($pairs | map(.[0].seed)),
          correct: {
            parent: ($pairs | map(side("parent").result.correct)),
            change: ($pairs | map(side("change").result.correct))
          },
          failed_share: {
            parent: ($pairs | map(side("parent").result | .failed / .attempted)),
            change: ($pairs | map(side("change").result | .failed / .attempted))
          },
          metrics: ($spec[0].end_to_end | map({key: .name, value: summarize(.; $pairs)})
            | from_entries)
        }})
    | from_entries)
}' >"$summary"

echo "wrote $summary (every run: $runs)" >&2
jq -r '.workloads | to_entries[] | .key as $w | .value.pairs as $n
  | .value.metrics | to_entries[]
  | "\($w)\t\(.key)\tparent \(.value.parent_median)\tchange \(.value.change_median)\twins \(.value.change_better)/\($n)\t\(.value.verdict)"' \
    "$summary"
