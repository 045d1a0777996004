"""Property tests: a mutated scenario file never escapes the CLI as a traceback.

Each example writes the bundled reference scenario, mutated at random
places (keys dropped or renamed, values replaced by NaN, +-Infinity, a
value of the wrong type, or 1e300 at an integer or coordinate key), and runs
``airbs-sgd run`` on it in-process. The command must exit 0 (the
mutation left a valid scenario, e.g. it dropped an optional key) or 2
with a one-line diagnostic; any exception that escapes ``main`` fails
the test. The reference is shrunk to 2 iterations and 20 users so the
valid mutants run fast; ``derandomize`` keeps the examples the same on
every run.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from importlib import resources

from hypothesis import HealthCheck, given, settings, strategies as st

from airbs_sgd.cli import main as cli_main

REFERENCE = json.loads(
    resources.files("airbs_sgd").joinpath("scenarios/reference.json").read_text())
BASE = dict(REFERENCE, iterations=2, num_mus=20)

NON_FINITE = (math.nan, math.inf, -math.inf)
WRONG_TYPES = (None, "text", True, [], {}, [1.0, "x"], {"x": 1.0})
# 1e300 where an integer or a coordinate is expected: a count that large must
# be refused before anything is allocated, a coordinate that large before its
# squared distances overflow
HUGE = 1e300
INTEGER_KEYS = (("num_airbs",), ("num_mus",), ("iterations",), ("seed",),
                ("schedule", "minibatch_size"))
OPS = ("drop", "rename", "non_finite", "wrong_type", "huge")

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def paths(value, prefix=()):
    """Every key and list index below ``value``, as paths from the root."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from paths(v, prefix + (k,))


def huge_refused(p):
    """Whether 1e300 at path ``p`` is out of range: a count or a coordinate."""
    return (p in INTEGER_KEYS or p == ("fixed_height_m",)
            or (p[0] in ("area", "init_region") and len(p) == 2)
            or (p[0] == "extra_mu_positions" and len(p) == 3))


def mutate(draw, d, ops=OPS):
    """Apply one mutation drawn from ``ops`` to ``d`` in place."""
    op = draw(st.sampled_from(ops))
    keyed = op in ("drop", "rename")
    *parents, last = draw(st.sampled_from(
        [p for p in paths(d) if (not keyed or isinstance(p[-1], str))
         and (op != "huge" or huge_refused(p))]))
    holder = d
    for k in parents:
        holder = holder[k]
    if keyed:
        value = holder.pop(last)
        if op == "rename":
            holder[last + "_x"] = value
    elif op == "huge":
        holder[last] = HUGE
    else:
        holder[last] = draw(st.sampled_from(NON_FINITE if op == "non_finite" else WRONG_TYPES))


def run_cli(d):
    """Exit code and stderr of ``airbs-sgd run`` on scenario ``d``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as f:
            json.dump(d, f)  # NaN and Infinity as JSON extensions, as a user could write
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["run", "--scenario", path, "--out", os.path.join(tmp, "out")])
    return rc, err.getvalue()


def assert_diagnosed(rc, err):
    assert rc in (0, 2)
    if rc == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@st.composite
def single_mutation(draw, ops):
    d = copy.deepcopy(BASE)
    mutate(draw, d, ops)
    return d


@SETTINGS
@given(single_mutation(("rename", "non_finite", "huge")))
def test_renamed_key_or_non_finite_value_exits_2(d):
    rc, err = run_cli(d)
    assert rc == 2
    assert_diagnosed(rc, err)


@SETTINGS
@given(single_mutation(("drop", "wrong_type")))
def test_dropped_key_or_wrong_type_is_diagnosed(d):
    assert_diagnosed(*run_cli(d))


@settings(SETTINGS, max_examples=60)
@given(st.data())
def test_several_mutations_are_diagnosed(data):
    d = copy.deepcopy(BASE)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data.draw, d)
    assert_diagnosed(*run_cli(d))
