"""Compare a parent's benchmark runs with a change's, one row per metric.

Both files hold run records as ``run.py`` appends them to
``.perfbench/results.jsonl``. Runs pair up in file order, per workload and
per kind (end-to-end or traced), so make them alternately: parent, change,
change, parent, and so on. Then a shift of the whole box's speed between
runs hits both sides of the pairs it spans. A change wins a pair when its
value is better, and loses it when worse; ties count for neither side.
The threshold is the metric's bound, a share of the parent's median, or,
for per-layer metrics, which have no bound, the parent's quartile spread.
A metric is

* improved when there are at least ten pairs, the change wins at least
  9 of 10 of them, and its median beats the parent's by more than the
  parent's quartile spread;
* unresolved when the metric has a bound and the parent's quartile spread
  is wider than it, unless every change run beats every parent run;
* worse when there are at least ten pairs, the change loses at least
  9 of 10 of them, and its median is worse than the parent's by more
  than the threshold;
* unresolved when its median is worse by more than the threshold but
  the pairs do not confirm it;
* unchanged otherwise.
"""

from __future__ import annotations

import json
import statistics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, bound: float, better: str):
    """(verdict, share of pairs the change won) for one workload and metric.

    ``bound`` 0 marks a metric without a bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    lost = sum(sign * (c - p) < 0 for p, c in pairs) / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (c_med - p_med)
    confirmed = len(pairs) >= 10
    if confirmed and won >= 0.9 and gain > q3 - q1:
        return "improved", won
    if bound > 0 and q3 - q1 > bound * abs(p_med):
        if sign > 0:
            all_better = min(change) > max(parent)
        else:
            all_better = max(change) < min(parent)
        return ("unchanged" if all_better else "unresolved"), won
    threshold = bound * abs(p_med) if bound > 0 else q3 - q1
    if -gain > threshold:
        return ("worse" if confirmed and lost >= 0.9 else "unresolved"), won
    return "unchanged", won


def _runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _values(runs, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def main(bench: dict, parent_path, change_path) -> int:
    parent, change = _runs(parent_path), _runs(change_path)
    print(f"{'workload':18s} {'metric':40s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    kinds = [(0, m) for m in bench["end_to_end"]] + [(1, m) for m in bench["per_layer"]]
    for workload in sorted({r["workload"] for r in parent}):
        for trace, m in kinds:
            p = _values(parent, workload, trace, m["name"])
            c = _values(change, workload, trace, m["name"])
            if not p or not c:
                continue
            v, share = verdict(p, c, m.get("bound", 0.0), m["better"])
            cells = [f"{statistics.median(x):.6g} [{quartiles(x)[0]:.4g}, {quartiles(x)[1]:.4g}]"
                     for x in (p, c)]
            print(f"{workload:18s} {m['name']:40s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{share:5.0%}  {v}")
    return 0
