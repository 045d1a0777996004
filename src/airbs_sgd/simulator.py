"""Scenario description, world construction, and the simulation loop.

The loop is array-first and advances a batch of replications together,
one per seed: agent positions are one (R, B, 3) array and the users one
(R, M, 3) array. One iteration draws each replication's Q packet
recipients from the traffic profile, evaluates the powers and power
gradients of all B agents at the reporting users of every replication in
one (R, Q, B) channel-kernel call, and lets
:func:`navigator.batched_update` apply every agent's minibatch step at
once. Each agent's step still reads only its own position and its own
replication's packets. The initial state and each iteration's update
are snapshots: each logs the positions and their utility and exact
served count from :func:`utility.oracle`, the one judge of a placement;
the first and last also keep each user's strongest power. This
:class:`TrajectoryLog` is the run's one record; :func:`run` is a batch of one.

All randomness of a replication flows from its seed through its own
generator, in a fixed draw order: agent initial positions first, then
user positions, then, per iteration, the Q recipient indices followed
(when measurement noise is enabled) by one (Q, B) block of standard
normals. Replications share no state, so a replication's results do not
depend on the other seeds of its batch, and identical scenario and seed
give bit-identical results. Packets are not kept: this draw order and the
logged positions rebuild any iteration's minibatch.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, CoincidentPositionsError, received_power_matrix
from .navigator import DivergenceError, StepSchedule, batched_update
from .traffic import TrafficProfile, sample_recipient
from .utility import UtilityConfig, oracle

# Upper bound on the agent-user pairs (R * B * M for a snapshot of R
# replications) that one group of replications advances: it bounds the
# working set, not the results, which do not depend on the grouping.
BATCH_PAIRS = 1 << 18

# Largest coordinate magnitude (m) a scenario may give: the squared distance
# of two points within it, below 12 * MAX_COORD_M**2 = 1.2e301, stays finite.
MAX_COORD_M = 1e150


def _check_coordinate(name: str, v: float) -> None:
    if not abs(v) <= MAX_COORD_M:
        raise ValueError(f"{name} must be finite and within {MAX_COORD_M:g} m of 0, got {v!r}")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in meters. Degenerate (zero-area) allowed."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_coordinate(f.name, getattr(self, f.name))
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("rectangle must have x_max >= x_min and y_max >= y_min")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Complete, self-contained description of one simulation.

    Its fields, and those of the dataclasses it nests, are the scenario
    file format (see :func:`scenario_from_dict`): a field with a default
    is an optional key. ``tx_powers_dbm`` gives each transmitter its own
    power; the power in ``channel`` is a base value that these override.
    ``traffic`` may be None, meaning uniform shares over all users
    (including the extras). ``measurement_noise_db`` adds Gaussian error
    to reported packet powers and is 0 for the exact baseline.
    ``extra_mu_positions`` are fixed users as ``(x, y, z)`` float
    triples, after the ``num_mus`` drawn ones.
    """

    area: Rect
    num_airbs: int
    tx_powers_dbm: tuple[float, ...]
    init_region: Rect
    fixed_height_m: float
    num_mus: int
    extra_mu_positions: tuple[tuple[float, float, float], ...] = ()
    traffic: TrafficProfile | None = None
    utility: UtilityConfig
    schedule: StepSchedule
    iterations: int
    seed: int
    channel: ChannelParams
    measurement_noise_db: float = 0.0

    def __post_init__(self):
        if self.area.width == 0.0 and self.area.height == 0.0:
            raise ValueError(f"area must have a nonzero width or height, got the point "
                             f"({self.area.x_min}, {self.area.y_min})")
        if self.num_airbs < 1:
            raise ValueError("need at least one transmitter")
        if self.num_mus < 1:
            raise ValueError("need at least one user")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        for count in ("num_airbs", "num_mus", "iterations"):
            if getattr(self, count) >= 2 ** 63:
                raise ValueError(f"{count} must be below 2**63")
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0.0 <= self.fixed_height_m <= MAX_COORD_M:
            raise ValueError(f"fixed_height_m must be between 0 and {MAX_COORD_M:g} m, "
                             f"got {self.fixed_height_m}")
        powers = tuple(float(p) for p in self.tx_powers_dbm)
        if len(powers) != self.num_airbs:
            raise ValueError("tx_powers_dbm length must equal num_airbs")
        if not all(map(math.isfinite, powers)):
            raise ValueError(f"tx_powers_dbm must be finite, got {list(powers)}")
        object.__setattr__(self, "tx_powers_dbm", powers)
        extras = []
        for i, p in enumerate(self.extra_mu_positions):
            try:
                xyz = tuple(float(v) for v in p)
                if len(xyz) != 3:
                    raise ValueError(f"position must have 3 coordinates, got {len(xyz)}")
                if not all(map(math.isfinite, xyz)):
                    raise ValueError(f"position coordinates must be finite, got {xyz}")
                if xyz[2] < 0.0:
                    raise ValueError(f"position altitude must be nonnegative, got z={xyz[2]}")
            except ValueError as e:
                raise ValueError(f"extra_mu_positions[{i}]: {e}") from None
            for j, v in enumerate(xyz):
                _check_coordinate(f"extra_mu_positions[{i}][{j}]", v)
            extras.append(xyz)
        object.__setattr__(self, "extra_mu_positions", tuple(extras))
        if self.traffic is None:
            object.__setattr__(self, "traffic", TrafficProfile.uniform(self.total_mus))
        elif len(self.traffic.pi) != self.total_mus:
            raise ValueError("traffic profile length must equal the total user count")
        if not isinstance(self.utility, UtilityConfig):
            raise ValueError("utility config required")
        if not isinstance(self.schedule, StepSchedule):
            raise ValueError("step schedule required")
        if not isinstance(self.channel, ChannelParams):
            raise ValueError("channel params required")
        if not (math.isfinite(self.measurement_noise_db) and self.measurement_noise_db >= 0.0):
            raise ValueError("measurement_noise_db must be finite and nonnegative")

    @property
    def total_mus(self) -> int:
        return self.num_mus + len(self.extra_mu_positions)

    def agent_channel_params(self) -> list:
        """Per-transmitter channel params: base channel with power overridden."""
        return [dataclasses.replace(self.channel, tx_power_dbm=p) for p in self.tx_powers_dbm]


@dataclass
class World:
    """Initial simulation state, fully determined by (Scenario, seed).

    ``positions`` (B, 3) are the agents' starting points and ``users``
    (M, 3) the user locations, extras last. ``rng`` is the scenario's
    generator, positioned after those draws.
    """

    positions: np.ndarray
    users: np.ndarray
    rng: np.random.Generator


@dataclass
class TrajectoryLog:
    """Per-iteration placement snapshots and oracle diagnostics of one run.

    ``positions`` has shape (I+1, B, 3): entry 0 is the initial state and
    entry i+1 follows iteration i's update. ``oracle_utility`` and
    ``served`` are the full-information network utility and the exact
    served-user count at each snapshot, evaluated with the true (not
    surrogate) max-power criterion. ``users`` (M, 3) are the user
    locations the run drew. ``max_power_dbm`` (2, M) is each user's
    strongest received power at the first and the last snapshot (both
    rows are snapshot 0 when I is 0).
    """

    positions: np.ndarray
    oracle_utility: np.ndarray
    served: np.ndarray
    users: np.ndarray
    max_power_dbm: np.ndarray

    @property
    def num_iterations(self) -> int:
        return self.positions.shape[0] - 1

    @property
    def num_agents(self) -> int:
        return self.positions.shape[1]


def init_scenario(s: Scenario) -> World:
    """Build the initial world: agents first, then users, from one generator."""
    rng = np.random.default_rng(int(s.seed))
    r = s.init_region
    axy = rng.uniform((r.x_min, r.y_min), (r.x_max, r.y_max), size=(s.num_airbs, 2))
    a = s.area
    mxy = rng.uniform((a.x_min, a.y_min), (a.x_max, a.y_max), size=(s.num_mus, 2))
    users = np.vstack([np.column_stack([mxy, np.zeros(s.num_mus)]),
                       np.array(s.extra_mu_positions, dtype=float).reshape(-1, 3)])
    positions = np.column_stack([axy, np.full(s.num_airbs, float(s.fixed_height_m))])
    return World(positions=positions, users=users, rng=rng)


def run(s: Scenario) -> TrajectoryLog:
    """Execute the scenario; returns its :class:`TrajectoryLog`.

    A batch of one: see :func:`run_replications`.
    """
    return run_replications(s, [s.seed])[0]


def run_replications(s: Scenario, seeds) -> list:
    """Execute the scenario once per seed; returns one :class:`TrajectoryLog` per seed.

    The replications advance together, in groups of at most
    ``BATCH_PAIRS`` agent-user pairs, and each result is bit-identical to
    :func:`run` of its seed alone. Each of the I iterations draws Q
    recipients per replication, evaluates their packets for all agents in
    one batch, and applies one synchronous update per agent. Agents never
    see each other's state; they share only their replication's packet
    stream. Raises :class:`navigator.DivergenceError` if an agent is
    driven to a non-finite position; its ``seed`` (like that of a
    :class:`channel.CoincidentPositionsError`) is the first seed that
    fails.
    """
    seeds = [int(seed) for seed in seeds]
    group = max(1, BATCH_PAIRS // (s.num_airbs * max(s.total_mus, s.schedule.minibatch_size)))
    results = []
    for k in range(0, len(seeds), group):
        chunk = seeds[k:k + group]
        try:
            results += _advance(s, chunk)
        except (CoincidentPositionsError, DivergenceError) as e:
            if len(chunk) == 1:
                e.seed = chunk[0]
            else:
                # the replications are independent, so the first seed that
                # fails on its own is the first that failed in the chunk
                for seed in chunk:
                    run_replications(s, [seed])
            raise
    return results


def _advance(s: Scenario, seeds) -> list:
    worlds = [init_scenario(dataclasses.replace(s, seed=seed)) for seed in seeds]
    L = np.stack([w.positions for w in worlds])
    users = np.stack([w.users for w in worlds])
    rngs = [w.rng for w in worlds]
    params, cfg, profile = s.agent_channel_params(), s.utility, s.traffic
    q, b = s.schedule.minibatch_size, s.num_airbs
    weights = profile.as_array()
    sigma = s.measurement_noise_db

    n_rep, n_snap = len(seeds), s.iterations + 1
    positions = np.empty((n_rep, n_snap, b, 3))
    utilities = np.empty((n_rep, n_snap))
    served = np.empty((n_rep, n_snap), dtype=int)
    rep = np.arange(n_rep)[:, None]

    def snapshot(i):
        positions[:, i] = L
        utilities[:, i], best = oracle(L, users, weights, cfg, params)
        served[:, i] = np.sum(best >= cfg.p_min_dbm, axis=1)
        return best

    first = last = snapshot(0)
    for i in range(s.iterations):
        idx = np.stack([sample_recipient(profile, rng, size=q) for rng in rngs])
        powers, grads = received_power_matrix(L, params, users[rep, idx], gradient=True)
        if sigma > 0.0:
            powers = powers + sigma * np.stack([rng.standard_normal((q, b)) for rng in rngs])
        L = batched_update(L, grads, powers, cfg, s.schedule.eta(i), s.fixed_height_m)
        last = snapshot(i + 1)

    max_power = np.stack([first, last], axis=1)
    return [TrajectoryLog(positions=positions[r], oracle_utility=utilities[r], served=served[r],
                          users=users[r], max_power_dbm=max_power[r])
            for r in range(n_rep)]


def scenario_to_dict(s: Scenario) -> dict:
    """Fully resolved JSON-ready form; round-trips via scenario_from_dict."""
    d = dataclasses.asdict(s)
    d["utility"]["family"] = s.utility.family.value
    return d


def scenario_from_dict(d: dict) -> Scenario:
    """Inverse of :func:`scenario_to_dict`: the dataclass fields are the schema.

    Each field of :class:`Scenario` and of the dataclasses it nests is a
    key; a field with a default is optional, and an absent one takes that
    default. The field's type picks the check of its value. Strict: an
    unknown or missing key at any level, or a value that is not a finite
    number where one is expected, raises ``ValueError`` naming the key.
    The first fault in field order is the one named.
    """
    def obj(v, name, required, optional=()):
        if not isinstance(v, dict):
            raise ValueError(f"{name} must be a JSON object")
        unknown = sorted(set(v) - set(required) - set(optional))
        if unknown:
            raise ValueError(f"unknown key(s) in {name}: {', '.join(unknown)}")
        missing = [k for k in required if k not in v]
        if missing:
            raise ValueError(f"missing key(s) in {name}: {', '.join(missing)}")
        return v

    def num(v, name):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name} must be a finite number, got {v!r}")
        return float(v)

    def integer(v, name):
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        return v

    def nums(v, name, length=None):
        if not isinstance(v, (list, tuple)) or length not in (None, len(v)):
            raise ValueError(f"{name} must be a list" + (f" of {length} numbers" if length else ""))
        return tuple(num(x, f"{name}[{i}]") for i, x in enumerate(v))

    def value(v, t, name):
        origin, args = typing.get_origin(t), typing.get_args(t)
        if dataclasses.is_dataclass(t):
            return load(v, t, name, name + ".")
        if type(None) in args:  # X | None
            return None if v is None else value(v, args[0], name)
        if t is float:
            return num(v, name)
        if t is int:
            return integer(v, name)
        if origin is tuple and args[0] is float:
            return nums(v, name, None if args[-1] is Ellipsis else len(args))
        if origin is tuple:  # a list of lists
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{name} must be a list")
            return tuple(value(x, args[0], f"{name}[{i}]") for i, x in enumerate(v))
        choices = args or tuple(m.value for m in t)  # a Literal or an Enum
        if v not in choices:
            raise ValueError(f"{name} must be one of {', '.join(choices)}, got {v!r}")
        return v

    def load(v, cls, name, prefix):
        fields = dataclasses.fields(cls)
        optional = [f.name for f in fields if f.default is not dataclasses.MISSING]
        obj(v, name, [f.name for f in fields if f.name not in optional], optional)
        hints = typing.get_type_hints(cls)
        kwargs = {f.name: value(v[f.name], hints[f.name], prefix + f.name)
                  for f in fields if f.name in v}
        try:
            return cls(**kwargs)
        except ValueError as e:
            # a nested section's own check names its field, not the path to it
            raise ValueError(f"{name}: {e}") if prefix else e

    return load(d, Scenario, "scenario", "")
