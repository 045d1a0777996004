"""Span trees from a traced CLI run, and the per-layer metrics drawn from them.

A span is one call that entered a layer: its name (``layer.qualname``),
start and end (``time.perf_counter`` seconds), the index of the span that
caused it (-1 for a thread's root), the thread it ran on, and the
replication it belongs to (index into the list of seeds, -1 outside any
replication). A layer's self time is the time its spans cover minus the
part their direct child spans cover. A replication span's parent is the
span that waited for the pool, on another thread, so self times add up to
the time some thread was busy in a layer rather than waiting.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

LAYERS = ("cli", "simulator", "traffic", "navigator", "utility", "channel",
          "baseline", "report")

# The replication boundary: cli's private per-replication worker. Its span
# carries the replication's seed and roots every span of that replication.
REPLICATION = "cli._simulate_one"

# A per-packet utility partial below this (1/dB) counts as saturated. At the
# reference step (eta0 * eta_scale = 5e6) and a 1 km link (|grad p| ~ 8.7e-3
# dB/m), such a partial moves an agent by under 5 cm per packet.
ZERO_PARTIAL = 1e-6


def _union_length(start, end) -> float:
    order = np.argsort(start)
    total, reach = 0.0, -np.inf
    for s, e in zip(start[order], end[order]):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(start, end, parent, thread) -> np.ndarray:
    """Each span's duration minus the part of it that its direct children cover.

    Children on the parent's own thread run one after another, so their
    durations add. Children on other threads (replications run by the
    pool) may overlap each other; the union of their intervals is what the
    parent spent waiting for them.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    thread = np.asarray(thread)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    cross = child & (thread != thread[np.maximum(parent, 0)])
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(parent == p)
        covered[p] = _union_length(np.clip(start[kids], start[p], end[p]),
                                   np.clip(end[kids], start[p], end[p]))
    return dur - covered


def layer_of(names) -> np.ndarray:
    """Layer index of every span name (the prefix before the first dot)."""
    return np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=int)


def layer_self_times(spans: dict) -> dict:
    """Self time per layer, summed over all spans and threads, seconds."""
    own = self_times(spans["start"], spans["end"], spans["parent"], spans["thread"])
    layer = layer_of(spans["names"])[spans["name"]]
    totals = np.bincount(layer, weights=own, minlength=len(LAYERS))
    return {name: float(totals[i]) for i, name in enumerate(LAYERS)}


def load(path) -> dict:
    """Read the .npz a traced run wrote; ``meta`` holds names, counts and probes."""
    with np.load(path) as z:
        spans = {k: z[k] for k in ("start", "end", "name", "parent", "thread", "rep")}
        meta = json.loads(str(z["meta"]))
    spans["names"] = meta["names"]
    return spans | {"meta": meta}


def _named(spans, name) -> np.ndarray:
    """Mask of the spans called ``name``."""
    return spans["name"] == (spans["names"].index(name) if name in spans["names"] else -1)


def _durations(spans, name) -> np.ndarray:
    return (spans["end"] - spans["start"])[_named(spans, name)]


def _count(spans, name) -> int:
    names = spans["names"]
    return int(spans["meta"]["counts"][names.index(name)]) if name in names else 0


def per_layer_metrics(spans: dict, *, iterations: int, packets: int, workers: int,
                      wall_traced: float, wall_untraced: float) -> dict:
    """Every per-layer metric of the benchmark, by name.

    ``iterations`` and ``packets`` are the totals over all replications the
    traced command ran; ``workers`` is its replication-pool size.
    """
    meta = spans["meta"]
    own = layer_self_times(spans)
    reps = _durations(spans, REPLICATION)
    n_reps = max(1, len(reps))
    root = spans["parent"] < 0
    main_wall = float(np.max(spans["end"][root] - spans["start"][root]))
    layer = layer_of(spans["names"])[spans["name"]]
    calls = dict(zip(LAYERS, np.bincount(layer, minlength=len(LAYERS)).tolist()))

    def per_rep(name):
        return float(np.sum(_durations(spans, name))) / n_reps

    # the oracle snapshot: power matrix and utility evaluated straight from
    # the simulator, once per logged snapshot
    from_sim = np.where(root, -1, layer[np.maximum(spans["parent"], 0)]) == LAYERS.index("simulator")
    matrix = _named(spans, "channel.received_power_matrix") & from_sim
    oracle = (matrix | _named(spans, "utility.user_utility")) & from_sim
    snapshots = int(np.sum(matrix))
    oracle_s = float(np.sum((spans["end"] - spans["start"])[oracle]))

    partials_total, partials_zero = meta["probes"]["partials"]
    lloyd = meta["probes"]["lloyd_iters"]
    render = meta["probes"]["render"]
    return {
        "cli.self_s": own["cli"],
        "cli.rep_span_s.p50": float(np.median(reps)) if len(reps) else 0.0,
        "cli.busy_frac": float(np.sum(reps)) / (workers * main_wall),
        "simulator.self_s": own["simulator"],
        "simulator.run.s_per_rep": per_rep("simulator.run"),
        "simulator.oracle.us_per_snapshot": 1e6 * oracle_s / max(1, snapshots),
        "simulator.coverage_map.ms_per_rep": 1e3 * per_rep("simulator.coverage_map"),
        "simulator.init_scenario.calls_per_rep": _count(spans, "simulator.init_scenario") / n_reps,
        "traffic.self_s": own["traffic"],
        "traffic.calls": calls["traffic"],
        "traffic.us_per_packet": 1e6 * own["traffic"] / packets,
        "navigator.self_s": own["navigator"],
        "navigator.calls": calls["navigator"],
        "navigator.us_per_packet": 1e6 * own["navigator"] / packets,
        "navigator.zero_grad_frac": partials_zero / partials_total if partials_total else 0.0,
        "utility.self_s": own["utility"],
        "utility.calls": calls["utility"],
        "utility.partials_calls_per_iter":
            _count(spans, "utility.user_utility_partials") / iterations,
        "channel.self_s": own["channel"],
        "channel.calls": calls["channel"],
        "channel.calls_per_packet": calls["channel"] / packets,
        "baseline.self_s": own["baseline"],
        "baseline.kmeans.ms_per_rep": 1e3 * per_rep("baseline.kmeans_placement"),
        "baseline.lloyd_iters.p50": float(statistics.median(lloyd)) if lloyd else 0.0,
        "report.self_s": own["report"],
        "report.render.ms_per_rep": 1e3 * per_rep("report.render_outputs"),
        "report.bytes_per_rep": sum(b for _, b in render) / n_reps,
        "report.files_per_rep": sum(f for f, _ in render) / n_reps,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "trace.spans": int(len(spans["start"])),
    }
