#!/usr/bin/env bash
# Compare what this checkout writes with what revision REV writes.
#
#   tools/diff_parent.sh REV        e.g. tools/diff_parent.sh HEAD~
#
# Extracts REV's tree with `git archive` into a temporary directory, then runs
# four commands from REV's `src/` and from this checkout's `src/`, each pinned
# to one core (`taskset -c 0`, nothing is forked) and on every core:
#
#   reference  reproduce-paper --seeds 20 --baseline kmeans   (criterion 1)
#   noisy      run --replications 3 of the reference scenario with
#              measurement_noise_db 1.5
#   sweep      sweep --axis eta --values 1,5,25 --replications 3 of the reference
#   failing    run --replications 3 of the tree's own tests/helpers.py
#              runaway_scenario() at master seed 18: replications 1 and 2 are
#              flung at their first step and replication 0 at its last, so the
#              command must exit 2 naming rep_000 and make no rep_* directory
#
# For each command and core setting it reports `diff -r` of the two output
# trees, `cmp` of the two stdouts, and `cmp` of the two exit statuses with
# stderr (each side's output directory written as OUT). On a byte change it
# also lists the served and k-means unserved counts that moved (from
# summary.json and sweep.csv), and summary.json's medians of both if they
# moved. A command that exits other than expected (0, or 2 for failing), or a
# failing run that makes a rep_* directory, is reported too. Exits 0 when
# every file, stdout and stderr line and exit status is identical and as
# expected, 1 otherwise. PYTHON picks the interpreter (default python3); KEEP=1
# keeps the outputs and prints where they are.
set -euo pipefail

rev=${1:?usage: tools/diff_parent.sh REV}
python=${PYTHON:-python3}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/diff_parent.XXXXXX")
if [ "${KEEP:-0}" = 1 ]; then
    echo "outputs kept in $work"
else
    trap 'rm -rf "$work"' EXIT
fi

mkdir "$work/rev"
git -C "$root" archive "$rev" | tar -x -C "$work/rev"

# the noisy scenario, from each tree's own reference scenario
noisy_scenario() {
    "$python" - "$1/src/airbs_sgd/scenarios/reference.json" "$2" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
d["measurement_noise_db"] = 1.5
json.dump(d, open(sys.argv[2], "w"), indent=2)
EOF
}

# the failing scenario, from each tree's own runaway scenario
failing_scenario() {
    PYTHONPATH="$1/src:$1/tests" "$python" - "$2" <<'EOF'
import dataclasses, json, sys
import helpers
from airbs_sgd.simulator import scenario_to_dict
s = dataclasses.replace(helpers.runaway_scenario(), seed=18)
json.dump(scenario_to_dict(s), open(sys.argv[1], "w"), indent=2)
EOF
}

# run TREE SIDE TAG MODE: one command from TREE's src/ into $work/TAG-MODE-SIDE; its
# stdout goes to .txt, and its exit status then its stderr, with the output
# directory written as OUT, to .err
run() {
    local tree=$1 side=$2 tag=$3 mode=$4
    local out="$work/$tag-$mode-$side" pin=()
    [ "$mode" = pinned ] && pin=(taskset -c 0)
    local ref="$tree/src/airbs_sgd/scenarios/reference.json"
    local args
    case $tag in
        reference) args=(reproduce-paper --seeds 20 --baseline kmeans) ;;
        noisy) noisy_scenario "$tree" "$work/noisy-$side.json"
               args=(run --scenario "$work/noisy-$side.json" --replications 3) ;;
        sweep) args=(sweep --scenario "$ref" --axis eta --values 1,5,25 --replications 3) ;;
        failing) failing_scenario "$tree" "$work/failing-$side.json"
                 args=(run --scenario "$work/failing-$side.json" --replications 3) ;;
    esac
    local code=0
    PYTHONPATH="$tree/src" "${pin[@]}" "$python" -m airbs_sgd.cli "${args[@]}" \
        --out "$out" > "$out.txt" 2> "$out.stderr" || code=$?
    { echo "exit status $code"; sed "s|$out|OUT|g" "$out.stderr"; } > "$out.err"
}

# moved A B: the served and k-means counts and medians that differ between trees A and B
moved() {
    "$python" - "$1" "$2" <<'EOF'
import csv, json, pathlib, sys

def counts(tree):
    tree, got = pathlib.Path(tree), {}
    for path in sorted(tree.rglob("summary.json")):
        summary, where = json.loads(path.read_text()), path.parent.relative_to(tree)
        for r, res in enumerate(summary["results"]):
            for key in ("served", "kmeans_unserved"):
                if key in res:
                    rep = (where / f"rep_{r:03d}").as_posix()
                    got[f"{rep} {key}"] = res[key]
        for key in ("median_served", "median_kmeans_unserved"):
            if key in summary:
                got[(where / key).as_posix()] = summary[key]
    for path in sorted(tree.rglob("sweep.csv")):
        for row in csv.DictReader(path.open()):
            got[f"{row['axis']}_{row['value']}/rep_{int(row['replication']):03d} served"] = \
                int(row["served"])
    return got

a, b = counts(sys.argv[1]), counts(sys.argv[2])
changes = [f"    {k}: {a.get(k)} -> {b.get(k)}" for k in sorted(set(a) | set(b))
           if a.get(k) != b.get(k)]
print("\n".join(changes) if changes else "    no served or k-means count or median moved")
EOF
}

status=0
for tag in reference noisy sweep failing; do
    want=0
    [ "$tag" = failing ] && want=2
    for mode in pinned unpinned; do
        run "$work/rev" rev "$tag" "$mode"
        run "$root" new "$tag" "$mode"
        a="$work/$tag-$mode-rev" b="$work/$tag-$mode-new"
        files=$(find "$a" -type f | wc -l)
        for side in "$a" "$b"; do
            bundles=$(find "$side" -name 'rep_*' | wc -l)
            if [ "$(head -n 1 "$side.err")" != "exit status $want" ] ||
               { [ "$tag" = failing ] && [ "$bundles" != 0 ]; }; then
                status=1
                echo "$tag $mode: UNEXPECTED in ${side#"$work"/}: $(head -n 1 "$side.err")," \
                     "$bundles rep_* paths"
            fi
        done
        if diff -rq "$a" "$b" > "$work/$tag-$mode.diff" && cmp -s "$a.txt" "$b.txt" &&
           cmp -s "$a.err" "$b.err"; then
            echo "$tag $mode: identical ($files files, stdout, exit status $want and stderr)"
        else
            status=1
            echo "$tag $mode: DIFFERS ($(wc -l < "$work/$tag-$mode.diff") of $files files differ;" \
                 "stdout $(cmp -s "$a.txt" "$b.txt" && echo identical || echo differs);" \
                 "exit status and stderr $(cmp -s "$a.err" "$b.err" && echo identical || echo differ))"
            sed "s|$work/||g; s|^|    |" "$work/$tag-$mode.diff"
            diff "$a.err" "$b.err" | sed "s|^|    |" || true
            moved "$a" "$b"
        fi
    done
done
exit $status
