"""Scenario description, world construction, and the simulation loop.

The loop is array-first and advances a batch of replications together,
one per seed: agent positions are one (R, B, 3) array and the users one
(R, M, 3) array. One iteration draws each replication's Q packet
recipients from the traffic profile, evaluates the powers and power
gradients of all B agents at the reporting users of every replication in
one (R, Q, B) channel-kernel call, and lets
:func:`navigator.batched_update` apply every agent's minibatch step at
once. Each agent's step still reads only its own position and its own
replication's packets; :func:`navigator.agent_partial_gradient` is the
per-agent view of the same arithmetic. Positions and the full-information
oracle utility are logged once per iteration, plus the initial state.
:func:`run` is a batch of one.

All randomness of a replication flows from its seed through its own
generator, in a fixed draw order: agent initial positions first, then
user positions, then, per iteration, the Q recipient indices followed
(when measurement noise is enabled) by one (Q, B) block of standard
normals. Replications share no state, so a replication's results do not
depend on the other seeds of its batch, and identical scenario and seed
give bit-identical results.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, CoincidentPositionsError, Position, received_power_matrix
from .navigator import AirBsAgent, DivergenceError, StepSchedule, batched_update
from .traffic import ControlPacket, TrafficProfile, sample_recipient
from .utility import UtilityConfig, user_utility

# Upper bound on the agent-user pairs (R * B * M for a snapshot of R
# replications) that one group of replications advances: it bounds the
# working set, not the results, which do not depend on the grouping.
BATCH_PAIRS = 1 << 18


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in meters. Degenerate (zero-area) allowed."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise ValueError(f"rectangle coordinates must be finite, got {self}")
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


@dataclass(frozen=True)
class Scenario:
    """Complete, self-contained description of one simulation.

    ``tx_powers_dbm`` gives each transmitter its own power; the power in
    ``channel`` is a base value that these override. ``traffic`` may be
    None, meaning uniform shares over all users (including the extras).
    ``measurement_noise_db`` adds Gaussian error to reported packet powers
    and is 0 for the exact baseline.
    """

    area: Rect
    num_airbs: int
    tx_powers_dbm: tuple
    init_region: Rect
    fixed_height_m: float
    num_mus: int
    extra_mu_positions: tuple = ()
    traffic: TrafficProfile | None = None
    utility: UtilityConfig = None
    schedule: StepSchedule = None
    iterations: int = 100
    seed: int = 0
    channel: ChannelParams = None
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
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not (math.isfinite(self.fixed_height_m) and self.fixed_height_m >= 0.0):
            raise ValueError(f"fixed_height_m must be finite and nonnegative, "
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
                extras.append(p if isinstance(p, Position)
                              else Position(float(p[0]), float(p[1]), float(p[2])))
            except ValueError as e:
                raise ValueError(f"extra_mu_positions[{i}]: {e}") from None
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
    generator, positioned after those draws. ``agents`` and ``mus`` give
    the same state as per-agent objects and user points.
    """

    positions: np.ndarray
    users: np.ndarray
    params: list
    fixed_height: float
    profile: TrafficProfile
    rng: np.random.Generator

    @property
    def agents(self) -> list:
        return [AirBsAgent(index=b, position=Position.from_array(row),
                           channel_params=self.params[b], fixed_height=self.fixed_height)
                for b, row in enumerate(self.positions)]

    @property
    def mus(self) -> list:
        return [Position.from_array(row) for row in self.users]


@dataclass
class TrajectoryLog:
    """Per-iteration placement snapshots and oracle diagnostics.

    ``positions`` has shape (I+1, B, 3): entry 0 is the initial state and
    entry i+1 follows iteration i's update. ``oracle_utility`` and
    ``served`` are the full-information network utility and the exact
    served-user count at each snapshot, evaluated with the true (not
    surrogate) max-power criterion. When packets were kept, ``packets[i]``
    holds iteration i's minibatch in draw order. ``users`` (M, 3) are the
    user locations the run drew; like ``packets`` they are not part of the
    serialized forms.
    """

    positions: np.ndarray
    oracle_utility: np.ndarray
    served: np.ndarray
    packets: list | None = None
    users: np.ndarray | None = None

    @property
    def num_iterations(self) -> int:
        return self.positions.shape[0] - 1

    @property
    def num_agents(self) -> int:
        return self.positions.shape[1]

    def to_csv_text(self) -> str:
        """CSV with columns: iteration, agent index, x, y, z, oracle utility.

        One row per (iteration, agent); the oracle utility of the snapshot
        is repeated on each agent row. Floats are shortest round-trip
        decimals, so the text is byte-stable.
        """
        lines = ["iteration,agent_index,x,y,z,oracle_utility"]
        for i in range(self.positions.shape[0]):
            u = repr(float(self.oracle_utility[i]))
            for b in range(self.positions.shape[1]):
                x, y, z = (repr(float(v)) for v in self.positions[i, b])
                lines.append(f"{i},{b},{x},{y},{z},{u}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "num_iterations": int(self.num_iterations),
            "num_agents": int(self.num_agents),
            "positions": [[list(map(float, row)) for row in snap] for snap in self.positions],
            "oracle_utility": [float(v) for v in self.oracle_utility],
            "served": [int(v) for v in self.served],
        }


def init_scenario(s: Scenario) -> World:
    """Build the initial world: agents first, then users, from one generator."""
    rng = np.random.default_rng(int(s.seed))
    r = s.init_region
    axy = rng.uniform((r.x_min, r.y_min), (r.x_max, r.y_max), size=(s.num_airbs, 2))
    a = s.area
    mxy = rng.uniform((a.x_min, a.y_min), (a.x_max, a.y_max), size=(s.num_mus, 2))
    h = float(s.fixed_height_m)
    users = np.vstack([np.column_stack([mxy, np.zeros(s.num_mus)]),
                       np.array([p.as_array() for p in s.extra_mu_positions]).reshape(-1, 3)])
    return World(positions=np.column_stack([axy, np.full(s.num_airbs, h)]), users=users,
                 params=s.agent_channel_params(), fixed_height=h, profile=s.traffic, rng=rng)


def run(s: Scenario, *, keep_packets: bool = False):
    """Execute the scenario; returns ``(TrajectoryLog, MetricsReport)``.

    A batch of one: see :func:`run_replications`.
    """
    return run_replications(s, [s.seed], keep_packets=keep_packets)[0]


def run_replications(s: Scenario, seeds, *, keep_packets: bool = False) -> list:
    """Execute the scenario once per seed; returns ``(TrajectoryLog, MetricsReport)`` pairs.

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
            results += _advance(s, chunk, keep_packets)
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


def _advance(s: Scenario, seeds, keep_packets: bool) -> list:
    from .report import build_metrics_report

    worlds = [init_scenario(dataclasses.replace(s, seed=seed)) for seed in seeds]
    L = np.stack([w.positions for w in worlds])
    users = np.stack([w.users for w in worlds])
    rngs = [w.rng for w in worlds]
    params, cfg, profile = worlds[0].params, s.utility, s.traffic
    q, b = s.schedule.minibatch_size, s.num_airbs
    weights = profile.as_array()
    sigma = s.measurement_noise_db

    n_rep, n_snap = len(seeds), s.iterations + 1
    positions = np.empty((n_rep, n_snap, b, 3))
    utilities = np.empty((n_rep, n_snap))
    served = np.empty((n_rep, n_snap), dtype=int)
    kept = [[] for _ in seeds]
    rep = np.arange(n_rep)[:, None]

    def snapshot(i):
        # network_utility's operations on each replication, so logged values
        # match it bitwise; transmitter-major (R, B, M), as it lays them out
        positions[:, i] = L
        powers = np.ascontiguousarray(
            np.swapaxes(received_power_matrix(L, params, users), -1, -2))
        per_user = user_utility(powers, cfg, axis=1)
        utilities[:, i] = [np.dot(weights, row) for row in per_user]
        served[:, i] = np.sum(np.max(powers, axis=1) >= cfg.p_min_dbm, axis=1)

    snapshot(0)
    for i in range(s.iterations):
        idx = np.stack([sample_recipient(profile, rng, size=q) for rng in rngs])
        powers, grads = received_power_matrix(L, params, users[rep, idx], gradient=True)
        if sigma > 0.0:
            powers = powers + sigma * np.stack([rng.standard_normal((q, b)) for rng in rngs])
        if keep_packets:
            for r, batch in enumerate(kept):
                batch.append([ControlPacket(mu_index=int(m),
                                            mu_location=Position.from_array(users[r, m]),
                                            measured_powers_dbm=tuple(row))
                              for m, row in zip(idx[r], powers[r])])
        L = batched_update(L, grads, powers, cfg, s.schedule.eta(i), s.fixed_height_m)
        snapshot(i + 1)

    results = []
    for r in range(n_rep):
        log = TrajectoryLog(positions=positions[r], oracle_utility=utilities[r],
                            served=served[r], packets=kept[r] if keep_packets else None,
                            users=users[r])
        report = build_metrics_report(
            initial_placements=positions[r, 0], final_placements=positions[r, -1],
            params=params, mus=users[r], p_min_dbm=cfg.p_min_dbm)
        results.append((log, report))
    return results


def coverage_axes(area: Rect, grid_resolution) -> tuple:
    """Grid-point coordinates used by :func:`coverage_map` (xs, ys)."""
    try:
        nx, ny = grid_resolution
    except TypeError:
        nx = ny = int(grid_resolution)
    if nx < 2 or ny < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    return np.linspace(area.x_min, area.x_max, nx), np.linspace(area.y_min, area.y_max, ny)


def coverage_map(placements, area: Rect, grid_resolution, params,
                 clip=(-100.0, -80.0), ground_z: float = 0.0) -> np.ndarray:
    """Strongest received power on a ground grid, clipped to ``clip`` dBm.

    Returns shape (ny, nx): rows run south to north, columns west to east,
    matching ``coverage_axes``.
    """
    lo, hi = float(clip[0]), float(clip[1])
    if hi < lo:
        raise ValueError("clip range must have hi >= lo")
    xs, ys = coverage_axes(area, grid_resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(ground_z))])
    best = np.max(received_power_matrix(placements, params, pts), axis=1)
    return np.clip(best, lo, hi).reshape(gy.shape)


def scenario_to_dict(s: Scenario) -> dict:
    """Fully resolved JSON-ready form; round-trips via scenario_from_dict."""
    def rect(r):
        return {"x_min": r.x_min, "y_min": r.y_min, "x_max": r.x_max, "y_max": r.y_max}

    return {
        "area": rect(s.area),
        "num_airbs": s.num_airbs,
        "tx_powers_dbm": list(s.tx_powers_dbm),
        "init_region": rect(s.init_region),
        "fixed_height_m": s.fixed_height_m,
        "num_mus": s.num_mus,
        "extra_mu_positions": [[p.x, p.y, p.z] for p in s.extra_mu_positions],
        "traffic": {"pi": list(s.traffic.pi)},
        "utility": {
            "family": s.utility.family.value,
            "noise_dbm": s.utility.noise_dbm,
            "p_min_dbm": s.utility.p_min_dbm,
            "delta_db": s.utility.delta_db,
            "softmax_alpha": s.utility.softmax_alpha,
        },
        "schedule": {
            "eta0": s.schedule.eta0,
            "minibatch_size": s.schedule.minibatch_size,
            "eta_scale": s.schedule.eta_scale,
            "decay": s.schedule.decay,
        },
        "iterations": s.iterations,
        "seed": int(s.seed),
        "channel": {
            "ref_gain_db": s.channel.ref_gain_db,
            "ref_distance_m": s.channel.ref_distance_m,
            "tx_power_dbm": s.channel.tx_power_dbm,
        },
        "measurement_noise_db": s.measurement_noise_db,
    }


def scenario_from_dict(d: dict) -> Scenario:
    """Inverse of :func:`scenario_to_dict`; absent optional keys get defaults.

    Strict: an unknown or missing key at any level, or a value that is not
    a finite number where one is expected, raises ``ValueError`` naming
    the key.
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
        if not isinstance(v, list) or length not in (None, len(v)):
            raise ValueError(f"{name} must be a list" + (f" of {length} numbers" if length else ""))
        return tuple(num(x, f"{name}[{i}]") for i, x in enumerate(v))

    def rect(name):
        v = obj(d[name], name, ("x_min", "y_min", "x_max", "y_max"))
        return Rect(*(num(v[k], f"{name}.{k}") for k in ("x_min", "y_min", "x_max", "y_max")))

    obj(d, "scenario",
        ("area", "num_airbs", "tx_powers_dbm", "init_region", "fixed_height_m", "num_mus",
         "utility", "schedule", "iterations", "seed", "channel"),
        ("extra_mu_positions", "traffic", "measurement_noise_db"))
    traffic = d.get("traffic")
    if traffic is not None:
        traffic = TrafficProfile(pi=nums(obj(traffic, "traffic", ("pi",))["pi"], "traffic.pi"))
    u = obj(d["utility"], "utility", ("family", "noise_dbm", "p_min_dbm", "delta_db"),
            ("softmax_alpha",))
    ch = obj(d["channel"], "channel", ("ref_gain_db", "ref_distance_m", "tx_power_dbm"))
    sch = obj(d["schedule"], "schedule", ("eta0", "minibatch_size"), ("eta_scale", "decay"))
    extras = d.get("extra_mu_positions", [])
    if not isinstance(extras, list):
        raise ValueError("extra_mu_positions must be a list")
    return Scenario(
        area=rect("area"),
        num_airbs=integer(d["num_airbs"], "num_airbs"),
        tx_powers_dbm=nums(d["tx_powers_dbm"], "tx_powers_dbm"),
        init_region=rect("init_region"),
        fixed_height_m=num(d["fixed_height_m"], "fixed_height_m"),
        num_mus=integer(d["num_mus"], "num_mus"),
        extra_mu_positions=tuple(nums(p, f"extra_mu_positions[{i}]", 3)
                                 for i, p in enumerate(extras)),
        traffic=traffic,
        utility=UtilityConfig(
            family=u["family"],
            noise_dbm=num(u["noise_dbm"], "utility.noise_dbm"),
            p_min_dbm=num(u["p_min_dbm"], "utility.p_min_dbm"),
            delta_db=num(u["delta_db"], "utility.delta_db"),
            softmax_alpha=num(u.get("softmax_alpha", 1.0), "utility.softmax_alpha"),
        ),
        schedule=StepSchedule(
            eta0=num(sch["eta0"], "schedule.eta0"),
            minibatch_size=integer(sch["minibatch_size"], "schedule.minibatch_size"),
            eta_scale=num(sch.get("eta_scale", 1.0), "schedule.eta_scale"),
            decay=sch.get("decay", "constant"),
        ),
        iterations=integer(d["iterations"], "iterations"),
        seed=integer(d["seed"], "seed"),
        channel=ChannelParams(
            ref_gain_db=num(ch["ref_gain_db"], "channel.ref_gain_db"),
            ref_distance_m=num(ch["ref_distance_m"], "channel.ref_distance_m"),
            tx_power_dbm=num(ch["tx_power_dbm"], "channel.tx_power_dbm"),
        ),
        measurement_noise_db=num(d.get("measurement_noise_db", 0.0), "measurement_noise_db"),
    )
