"""Run the airbs-sgd command line with every layer boundary traced.

    python3 perfbench/traced_cli.py SPANS.npz CLI_ARG...

Wraps, from outside the package, the public functions and methods of the
eight modules (see ``spans.LAYERS``), plus ``cli._simulate_one`` as the
replication boundary, and then calls ``airbs_sgd.cli.main``. A call that
enters a layer from another layer, or from no layer, records a span; a call
nested in its own layer is only counted, because it cannot change that
layer's self time. Spans stay in per-thread buffers and are written once,
with the call counts and value probes, when ``main`` returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from array import array

import numpy as np

from spans import LAYERS, REPLICATION, ZERO_PARTIAL


class _Buffer:
    """One thread's spans, its open-span stack and its call counts."""

    def __init__(self, thread: int, n_names: int):
        self.thread = thread
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.stack = [-1]
        self.layers = [-1]
        self.counts = [0] * n_names
        self.rep_id = -1


class Tracer:
    def __init__(self):
        self.names = []
        self.seeds = []
        self.probes = {key: [] for key, _ in PROBES.values()}
        self.dispatcher = None  # the thread that called cli.main
        self.cross = []  # (buffer, span, parent buffer, parent span) across threads
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        b = getattr(self._local, "b", None)
        if b is None:
            with self._lock:
                b = _Buffer(len(self._buffers), len(self.names))
                self._buffers.append(b)
            self._local.b = b
        return b

    def wrap(self, fn, name: str):
        """``fn`` recording a span whenever it is entered from another layer."""
        nid = len(self.names)
        self.names.append(name)
        lid = LAYERS.index(name.split(".", 1)[0])
        replication = name == REPLICATION
        buffer, clock = self._buffer, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b = buffer()
            b.counts[nid] += 1
            if b.layers[-1] == lid and not replication:
                return fn(*args, **kwargs)
            outer_rep = b.rep_id
            i = len(b.name)
            parent = b.stack[-1]
            if replication:  # _simulate_one(scenario, seed, rep_dir, ...)
                with self._lock:
                    b.rep_id = len(self.seeds)
                    self.seeds.append(int(args[1]))
                    if parent < 0 and self.dispatcher is not None:
                        # caused by the span now waiting on the pool
                        self.cross.append((b, i, self.dispatcher, self.dispatcher.stack[-1]))
            b.name.append(nid)
            b.parent.append(parent)
            b.rep.append(b.rep_id)
            b.end.append(0.0)
            b.stack.append(i)
            b.layers.append(lid)
            b.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                b.end[i] = clock()
                b.stack.pop()
                b.layers.pop()
                b.rep_id = outer_rep

        return traced

    def write(self, path):
        """Merge the per-thread buffers and write them, once, as .npz."""
        parts = {k: [] for k in ("start", "end", "name", "parent", "thread", "rep")}
        counts = np.zeros(len(self.names), dtype=np.int64)
        offsets, offset = {}, 0
        for b in self._buffers:
            offsets[id(b)] = offset
            offset += len(b.name)
            parent = np.frombuffer(b.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offsets[id(b)], -1))
            parts["start"].append(np.frombuffer(b.start, dtype=float))
            parts["end"].append(np.frombuffer(b.end, dtype=float))
            parts["name"].append(np.frombuffer(b.name, dtype=np.int32))
            parts["rep"].append(np.frombuffer(b.rep, dtype=np.int32))
            parts["thread"].append(np.full(len(b.name), b.thread, dtype=np.int32))
            counts[:len(b.counts)] += b.counts
        arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
        for b, i, pb, pi in self.cross:
            arrays["parent"][offsets[id(b)] + i] = offsets[id(pb)] + pi
        partials = self.probes["partials"]
        flat = np.concatenate([np.ravel(p) for p in partials]) if partials else np.zeros(0)
        meta = {
            "names": self.names,
            "seeds": self.seeds,
            "counts": counts.tolist(),
            "probes": {
                "partials": [int(flat.size), int(np.count_nonzero(flat < ZERO_PARTIAL))],
                "lloyd_iters": self.probes["lloyd_iters"],
                "render": self.probes["render"],
            },
        }
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


# value probes: what a call returned, kept for the per-layer counters
PROBES = {
    "utility.user_utility_partials": ("partials", lambda out: out),
    "baseline.kmeans_placement": ("lloyd_iters", lambda out: len(out.inertia_history)),
    "report.render_outputs": (
        "render", lambda out: [len(out), sum(os.path.getsize(p) for p in out.values())]),
}


def _probe(tracer: Tracer, name: str, fn):
    if name not in PROBES:
        return fn
    key, value = PROBES[name]
    kept = tracer.probes[key]

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        out = fn(*args, **kwargs)
        kept.append(value(out))
        return out

    return probed


def install() -> Tracer:
    """Replace every public function and method of the layers with a traced one.

    Modules that imported a function by name hold their own reference, so
    every module of the package is rebound, not only the defining one.
    """
    tracer = Tracer()
    modules = [importlib.import_module(f"airbs_sgd.{layer}") for layer in LAYERS]
    package = importlib.import_module("airbs_sgd")
    replaced = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_")
                                            or f"{layer}.{attr}" == REPLICATION):
                name = f"{layer}.{attr}"
                replaced[obj] = tracer.wrap(_probe(tracer, name, obj), name)
            elif inspect.isclass(obj):
                for mattr, member in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
                    fn = member.__func__ if kind else member
                    if inspect.isfunction(fn):
                        wrapped = tracer.wrap(fn, f"{layer}.{attr}.{mattr}")
                        setattr(obj, mattr, kind(wrapped) if kind else wrapped)
    for mod in [package, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    return tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = install()
    cli = importlib.import_module("airbs_sgd.cli")
    tracer.dispatcher = tracer._buffer()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
