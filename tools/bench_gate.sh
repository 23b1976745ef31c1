#!/usr/bin/env bash
# Gate the end-to-end serving and paper-figure paths against the parent
# commit.
#
#     tools/bench_gate.sh
#
# Runs bench/run.py's serve_steady, serve_regions_observed, fleet_chaos and
# paper_figs workloads (--seconds 10) on HEAD^ and on this checkout, two
# rounds per side, and exits with `bench/compare.py parent/ change/`'s
# status: 1 when an end-to-end metric (setup_s, wall_s, sim_req_per_s,
# peak_rss_mb) is worse than the parent's by more than its bound, or when
# a digest or a simulated output differs.
#
# HEAD^ is checked out into a temporary git worktree and this checkout's
# bench/ is copied over its own, so both sides run the same bench code
# against their own src/.  In CI (fetch-depth: 2) HEAD^ is the PR base of
# a pull_request merge commit and the previous commit of a push.  Each
# workload runs parent, change, change, parent: the parent goes first in
# round 1 and the change first in round 2, so a drift in host speed does
# not land on one side only.
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
mkdir "$work/parent" "$work/change"
# bench/run.py puts each side's own src/ on the path.
unset PYTHONPATH

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

python3 "$repo/bench/compare.py" "$work/parent" "$work/change"
