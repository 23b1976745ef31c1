#!/usr/bin/env bash
# Gate the micro-benches and the end-to-end serving and paper-figure paths
# against the parent commit.
#
#     tools/bench_gate.sh
#
# The micro round runs `python -m repro perf --quick` on HEAD^ and on this
# checkout, ten rounds per side, and tools/perf_compare.py labels the
# pooled, calibration-scaled samples of the gated micro-benches
# (repro.perf.DEFAULT_GATES): it fails when one is worse than the
# parent's by more than 20%, or is missing or differently sized on one
# side.  The change side's first report is kept as ./bench-current.json.
#
# The end-to-end round runs bench/run.py's serve_steady,
# serve_regions_observed, fleet_chaos and paper_figs workloads
# (--seconds 10), two rounds per side, and `bench/compare.py parent/
# change/` fails when an end-to-end metric (setup_s, wall_s,
# sim_req_per_s, peak_rss_mb) is worse than the parent's by more than its
# bound, or when a digest or a simulated output differs.  The script exits
# 1 when either comparison fails.
#
# HEAD^ is checked out into a temporary git worktree and this checkout's
# bench/ is copied over its own, so both sides run the same bench code
# against their own src/.  In CI (fetch-depth: 2) HEAD^ is the PR base of
# a pull_request merge commit and the previous commit of a push.  The two
# sides alternate which runs first from one round to the next, so a drift
# in host speed does not land on one side only.
set -euo pipefail

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
work=$(mktemp -d)
tree="$work/parent-tree"
cleanup() {
    git -C "$repo" worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$repo" worktree add --detach --quiet "$tree" HEAD^
rm -rf "$tree/bench"
cp -R "$repo/bench" "$tree/bench"
mkdir "$work/parent" "$work/change" "$work/micro-parent" "$work/micro-change"
# bench/run.py puts each side's own src/ on the path.
unset PYTHONPATH

micro() {  # side root round
    PYTHONPATH="$2/src" python3 -m repro perf --quick --json \
        --out "$work/micro-$1/round$3.json" >/dev/null
}

for round in 1 2 3 4 5 6 7 8 9 10; do
    if (( round % 2 )); then
        micro parent "$tree" "$round"
        micro change "$repo" "$round"
    else
        micro change "$repo" "$round"
        micro parent "$tree" "$round"
    fi
done
cp "$work/micro-change/round1.json" "$repo/bench-current.json"

run() {  # side root round workload
    python3 "$2/bench/run.py" --workload "$4" --seconds 10 \
        --out "$work/$1/round$3-$4.json"
}

for workload in serve_steady serve_regions_observed fleet_chaos paper_figs; do
    run parent "$tree" 1 "$workload"
    run change "$repo" 1 "$workload"
    run change "$repo" 2 "$workload"
    run parent "$tree" 2 "$workload"
done

status=0
python3 "$repo/tools/perf_compare.py" "$work/micro-parent" "$work/micro-change" || status=1
python3 "$repo/bench/compare.py" "$work/parent" "$work/change" || status=1
exit "$status"
