"""Coverage metrics and file outputs.

Everything here judges placements by the exact criterion (power of the
strongest transmitter at each user, no surrogate smoothing), which is
what the optimizer is ultimately graded on. Rendering writes plain-text
data files and small hand-assembled SVG drawings; given identical inputs
the emitted bytes are identical, with no plotting library involved.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .channel import received_power_matrix

DEFAULT_HIST_RANGE = (-110.0, -70.0)
DEFAULT_HIST_BIN_DB = 1.0


def per_mu_max_power(placements, params, mus) -> np.ndarray:
    """Strongest received power at each user, exact max over transmitters (dBm)."""
    return np.max(received_power_matrix(placements, params, mus), axis=1)


def served_count(placements, mus, params, p_min_dbm: float) -> int:
    """Number of users whose strongest transmitter meets the power target."""
    return int(np.sum(per_mu_max_power(placements, params, mus) >= p_min_dbm))


def power_histogram(per_mu_powers, bin_width_db: float = DEFAULT_HIST_BIN_DB,
                    value_range=DEFAULT_HIST_RANGE) -> tuple:
    """Fixed-width histogram with open-ended underflow/overflow bins.

    Returns a tuple of ``(lo_edge, hi_edge, count)`` triples whose counts
    always sum to the number of inputs; the first and last bins extend to
    -inf and +inf.
    """
    if not bin_width_db > 0.0:
        raise ValueError("bin width must be positive")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not hi > lo:
        raise ValueError("histogram range must have hi > lo")
    p = np.asarray(per_mu_powers, dtype=float)
    n_bins = int(math.ceil((hi - lo) / bin_width_db - 1e-12))
    inner = lo + bin_width_db * np.arange(n_bins + 1)
    inner[-1] = hi
    # searchsorted buckets: 0 -> underflow, n_bins+1 -> overflow
    idx = np.searchsorted(inner, p, side="right")
    idx[p >= hi] = n_bins + 1
    counts = np.bincount(idx, minlength=n_bins + 2)
    bins = [(-math.inf, lo, int(counts[0]))]
    for k in range(n_bins):
        bins.append((float(inner[k]), float(inner[k + 1]), int(counts[k + 1])))
    bins.append((hi, math.inf, int(counts[n_bins + 1])))
    return tuple(bins)


@dataclass(frozen=True)
class PlacementMetrics:
    """Exact coverage statistics of one placement."""

    served_count: int
    total_mus: int
    per_mu_max_power_dbm: tuple
    histogram: tuple

    def __post_init__(self):
        if self.served_count > self.total_mus:
            raise ValueError("served_count cannot exceed total_mus")
        total = sum(c for _, _, c in self.histogram)
        if total != self.total_mus:
            raise ValueError("histogram counts must sum to total_mus")

    def to_json_dict(self) -> dict:
        def edge(e):
            return None if math.isinf(e) else e

        return {
            "served_count": self.served_count,
            "total_mus": self.total_mus,
            "per_mu_max_power_dbm": [float(p) for p in self.per_mu_max_power_dbm],
            "histogram": [[edge(lo), edge(hi), c] for lo, hi, c in self.histogram],
        }


@dataclass(frozen=True)
class MetricsReport:
    """Initial-vs-final coverage comparison for one run."""

    initial: PlacementMetrics
    final: PlacementMetrics
    p_min_dbm: float

    def to_json_dict(self) -> dict:
        return {
            "p_min_dbm": self.p_min_dbm,
            "initial": self.initial.to_json_dict(),
            "final": self.final.to_json_dict(),
        }


def placement_metrics(placements, params, mus, p_min_dbm: float,
                      bin_width_db: float = DEFAULT_HIST_BIN_DB,
                      value_range=DEFAULT_HIST_RANGE) -> PlacementMetrics:
    pmax = per_mu_max_power(placements, params, mus)
    return PlacementMetrics(
        served_count=int(np.sum(pmax >= p_min_dbm)),
        total_mus=len(pmax),
        per_mu_max_power_dbm=tuple(float(p) for p in pmax),
        histogram=power_histogram(pmax, bin_width_db, value_range),
    )


def build_metrics_report(initial_placements, final_placements, params, mus,
                         p_min_dbm: float) -> MetricsReport:
    return MetricsReport(
        initial=placement_metrics(initial_placements, params, mus, p_min_dbm),
        final=placement_metrics(final_placements, params, mus, p_min_dbm),
        p_min_dbm=float(p_min_dbm),
    )


class _Formatted(NamedTuple):
    """A number array as the JSON texts of its elements, row-major, and its shape."""

    texts: list
    shape: tuple


def _json_text(v, nl="\n") -> str:
    """The text of ``json.dumps(v, sort_keys=True, indent=2)``, built by joins.

    ``nl`` is the newline and indentation of the line ``v`` ends on. Dict
    keys must be strings. A float is written as ``float.__repr__`` writes it
    (an ``np.float64`` too); a non-finite one raises ``ValueError`` where
    ``json.dumps`` would write ``NaN`` or ``Infinity``, which are not JSON.
    A :class:`_Formatted` array is written from its texts.
    """
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cannot write the non-finite float {v!r} as JSON")
        return float.__repr__(v)
    inner = nl + "  "
    if isinstance(v, _Formatted):
        return _nest(v.texts, v.shape, nl)
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(x, inner)}"
                 for k, x in sorted(v.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in v]) + nl + "]"
    raise TypeError(f"cannot write {type(v).__name__} as JSON")


def _nest(texts, shape, nl) -> str:
    """:func:`_json_text` of an array of ``shape`` whose row-major element texts are ``texts``."""
    if not shape[0]:
        return "[]"
    inner = nl + "  "
    if len(shape) == 1:
        items = ("," + inner).join(texts)
        if "n" in items:  # of the reprs of floats, only inf and nan hold an n
            raise ValueError("cannot write a non-finite float as JSON")
        return "[" + inner + items + nl + "]"
    step = len(texts) // shape[0]
    items = [_nest(texts[k * step:(k + 1) * step], shape[1:], inner) for k in range(shape[0])]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _write_json(path, obj):
    with open(path, "w") as f:
        f.write(_json_text(obj) + "\n")


def write_trajectory_json(log, path):
    positions, utilities = log._texts
    _write_json(path, {
        "num_iterations": log.num_iterations,
        "num_agents": log.num_agents,
        "positions": _Formatted(positions, log.positions.shape),
        "oracle_utility": _Formatted(utilities, log.oracle_utility.shape),
        "served": log.served.tolist(),
    })


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _power_colors(grid, lo: float, hi: float) -> list:
    """``#rrggbb`` fill of every grid cell, as nested lists shaped like ``grid``.

    Two-stop ramp, dark violet to yellow, like the usual coverage palettes.
    ``np.rint`` rounds half to even, as the builtin ``round`` does.
    """
    t = np.zeros_like(grid) if hi == lo else (grid - lo) / (hi - lo)
    t = np.minimum(1.0, np.maximum(0.0, t))
    c0, c1 = np.array([33, 12, 74]), np.array([248, 231, 28])
    rgb = np.rint(c0 + t[..., None] * (c1 - c0)).astype(np.int64)
    packed = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    # a map has a few hundred distinct colours, so each is formatted once
    values, index = np.unique(packed, return_inverse=True)
    names = np.array(list(map("#{:06x}".format, values.tolist())), dtype=object)
    return names[index.reshape(grid.shape)].tolist()


AGENT_COLORS = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
                "#a65628", "#f781bf", "#999999")


def render_map_svg(log, coverage, area, path, clip=(-100.0, -80.0), mus=None,
                   served_flags=None):
    """Trajectories over the coverage map as a standalone SVG file.

    ``coverage`` is the (ny, nx) clipped power grid over ``area``; rows run
    south to north. Users (an (M, 3) array), when given, are drawn as dots
    (open circles for the unserved ones when ``served_flags`` is provided).
    """
    size, pad = 560.0, 20.0
    w = area.x_max - area.x_min
    h = area.y_max - area.y_min
    scale = size / max(w, h)

    def sx(x):
        return pad + (x - area.x_min) * scale

    def sy(y):
        return pad + (area.y_max - y) * scale

    lo, hi = float(clip[0]), float(clip[1])
    grid = np.asarray(coverage, dtype=float)
    ny, nx = grid.shape
    cw = w * scale / nx
    ch = h * scale / ny
    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_fmt(w * scale + 2 * pad)}" height="{_fmt(h * scale + 2 * pad)}" '
               f'viewBox="0 0 {_fmt(w * scale + 2 * pad)} {_fmt(h * scale + 2 * pad)}">')
    out.append('<rect width="100%" height="100%" fill="#ffffff"/>')
    colors = _power_colors(grid, lo, hi)
    size_attrs = f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}"'
    # one template per row of cells: field 0 is the row's y, field ix+1 the fill of cell ix
    row = "\n".join(f'<rect x="{_fmt(sx(area.x_min + ix * w / nx))}" y="{{0}}" {size_attrs} '
                    f'fill="{{{ix + 1}}}"/>' for ix in range(nx))
    for iy in range(ny):
        out.append(row.format(_fmt(sy(area.y_min + (iy + 1) * h / ny)), *colors[iy]))
    if mus is not None:
        pts = np.asarray(mus, dtype=float)
        flags = served_flags if served_flags is not None else [True] * len(pts)
        for (x, y, _), ok in zip(pts.tolist(), flags):
            if not area.contains(x, y):
                continue
            if ok:
                out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" '
                           f'r="2.0" fill="#000000"/>')
            else:
                out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" '
                           f'r="3.0" fill="none" stroke="#ff0000" stroke-width="1.5"/>')
    snaps = np.asarray(log.positions)
    for b in range(snaps.shape[1]):
        color = AGENT_COLORS[b % len(AGENT_COLORS)]
        pts = " ".join(map("{:.2f},{:.2f}".format, sx(snaps[:, b, 0]).tolist(),
                           sy(snaps[:, b, 1]).tolist()))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<circle cx="{_fmt(sx(snaps[0, b, 0]))}" cy="{_fmt(sy(snaps[0, b, 1]))}" '
                   f'r="4.0" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<circle cx="{_fmt(sx(snaps[-1, b, 0]))}" cy="{_fmt(sy(snaps[-1, b, 1]))}" '
                   f'r="4.0" fill="{color}"/>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def render_histogram_svg(histogram, path, title, p_min_dbm=None):
    """Bar chart of a power histogram as a standalone SVG file."""
    width, height = 640.0, 320.0
    left, right, top, bottom = 50.0, 15.0, 30.0, 45.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = len(histogram)
    peak = max(1, max(c for _, _, c in histogram))
    bw = plot_w / n
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
           f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
           '<rect width="100%" height="100%" fill="#ffffff"/>',
           f'<text x="{_fmt(left)}" y="20" font-family="sans-serif" '
           f'font-size="14">{title}</text>']
    for k, (lo, hi, c) in enumerate(histogram):
        x = left + k * bw
        bh = plot_h * c / peak
        fill = "#888888" if math.isinf(lo) or math.isinf(hi) else "#377eb8"
        out.append(f'<rect x="{_fmt(x + 0.5)}" y="{_fmt(top + plot_h - bh)}" '
                   f'width="{_fmt(bw - 1.0)}" height="{_fmt(bh)}" fill="{fill}"/>')
    # x labels on a few finite edges
    finite = [(k, lo) for k, (lo, hi, _) in enumerate(histogram) if not math.isinf(lo)]
    stride = max(1, len(finite) // 8)
    for k, lo in finite[::stride]:
        x = left + k * bw
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(height - bottom + 18)}" '
                   f'font-family="sans-serif" font-size="10" '
                   f'text-anchor="middle">{_fmt(lo)}</text>')
    out.append(f'<text x="{_fmt(width / 2)}" y="{_fmt(height - 8)}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle">strongest received power (dBm)</text>')
    if p_min_dbm is not None:
        span = histogram[-1][0] - histogram[0][1]  # finite extent
        lo_edge = histogram[0][1]
        if span > 0 and lo_edge <= p_min_dbm <= histogram[-1][0]:
            # underflow bin occupies slot 0; finite bins start at slot 1
            frac = (p_min_dbm - lo_edge) / span
            n_inner = n - 2
            x = left + bw + frac * n_inner * bw
            out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(top)}" x2="{_fmt(x)}" '
                       f'y2="{_fmt(top + plot_h)}" stroke="#e41a1c" '
                       f'stroke-width="1.5" stroke-dasharray="4,3"/>')
    out.append(f'<line x1="{_fmt(left)}" y1="{_fmt(top + plot_h)}" '
               f'x2="{_fmt(width - right)}" y2="{_fmt(top + plot_h)}" '
               f'stroke="#000000" stroke-width="1"/>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def render_outputs(log, report: MetricsReport, coverage, out_dir, area,
                   clip=(-100.0, -80.0), mus=None) -> dict:
    """Write the full output bundle for one run into ``out_dir``.

    Emits trajectory.csv, trajectory.json, metrics.json, coverage.csv,
    map.svg, hist_initial.svg, and hist_final.svg. Byte-stable: identical
    inputs give identical files. Returns a name->path mapping.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def p(name):
        paths[name] = os.path.join(out_dir, name)
        return paths[name]

    with open(p("trajectory.csv"), "w") as f:
        f.write(log.to_csv_text())
    write_trajectory_json(log, p("trajectory.json"))
    _write_json(p("metrics.json"), report.to_json_dict())
    grid = np.asarray(coverage, dtype=float)
    with open(p("coverage.csv"), "w") as f:
        f.write("".join([",".join(map(float.__repr__, row)) + "\n" for row in grid.tolist()]))
    served_flags = None
    if mus is not None:
        served_flags = [pm >= report.p_min_dbm for pm in report.final.per_mu_max_power_dbm]
    render_map_svg(log, grid, area, p("map.svg"), clip=clip, mus=mus,
                   served_flags=served_flags)
    render_histogram_svg(report.initial.histogram, p("hist_initial.svg"),
                         "initial placement", p_min_dbm=report.p_min_dbm)
    render_histogram_svg(report.final.histogram, p("hist_final.svg"),
                         "final placement", p_min_dbm=report.p_min_dbm)
    return paths
