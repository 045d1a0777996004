"""Coverage metrics and file outputs.

Everything here shows placements by the exact criterion (power of the
strongest transmitter at each user, no surrogate smoothing), which is
what the optimizer is ultimately graded on. Nothing here judges a
placement: a run's metrics are read from its
:class:`simulator.TrajectoryLog`, and only :func:`coverage_map` calls the
channel kernel, for the ground grid. Rendering writes plain-text data
files and small hand-assembled SVG drawings, the map's heat layer an
embedded PNG written by the standard library; given identical inputs the
emitted bytes are identical, with no plotting library involved.
"""

from __future__ import annotations

import base64
import json
import math
import os
import struct
import zlib

import numpy as np

from .channel import received_power_matrix

DEFAULT_HIST_RANGE = (-110.0, -70.0)
DEFAULT_HIST_BIN_DB = 1.0
# dBm range of the coverage grid and of the map's colour ramp
COVERAGE_CLIP = (-100.0, -80.0)


def coverage_axes(area, grid_resolution) -> tuple:
    """Grid-point coordinates used by :func:`coverage_map` (xs, ys)."""
    try:
        nx, ny = grid_resolution
    except TypeError:
        nx = ny = int(grid_resolution)
    if nx < 2 or ny < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    return np.linspace(area.x_min, area.x_max, nx), np.linspace(area.y_min, area.y_max, ny)


def coverage_map(placements, area, grid_resolution, params,
                 clip=COVERAGE_CLIP) -> np.ndarray:
    """Strongest received power on the ground grid (z = 0), clipped to ``clip`` dBm.

    ``area`` is a :class:`simulator.Rect`. Returns shape (ny, nx): rows run
    south to north, columns west to east, matching ``coverage_axes``.
    """
    lo, hi = float(clip[0]), float(clip[1])
    if hi < lo:
        raise ValueError("clip range must have hi >= lo")
    xs, ys = coverage_axes(area, grid_resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    best = np.max(received_power_matrix(placements, params, pts), axis=1)
    return np.clip(best, lo, hi).reshape(gy.shape)


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


def _write_json(path, obj):
    """``obj`` as one line of JSON; a non-finite float raises ``ValueError`` and writes nothing."""
    text = json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as f:
        f.write(text)


def write_trajectory_csv(log, path):
    """CSV with columns: iteration, agent index, x, y, z, oracle utility.

    One row per (iteration, agent); the oracle utility of the snapshot is
    repeated on each agent row, formatted once per snapshot.
    """
    n, b = log.positions.shape[:2]
    xyz = log.positions.reshape(-1, 3).T.tolist()
    utility = [text for u in log.oracle_utility.tolist() for text in [repr(u)] * b]
    rows = map("{},{},{},{},{},{}".format, np.repeat(np.arange(n), b).tolist(),
               np.tile(np.arange(b), n).tolist(), *xyz, utility)
    with open(path, "w") as f:
        f.write("\n".join(["iteration,agent_index,x,y,z,oracle_utility", *rows]) + "\n")


def write_trajectory_json(log, path):
    """The snapshots of ``log`` as JSON."""
    _write_json(path, {
        "num_iterations": log.num_iterations,
        "num_agents": log.num_agents,
        "positions": log.positions.tolist(),
        "oracle_utility": log.oracle_utility.tolist(),
        "served": log.served.tolist(),
    })


def _placement_json(served, max_power_dbm, histogram) -> dict:
    return {
        "served_count": int(served),
        "total_mus": len(max_power_dbm),
        "per_mu_max_power_dbm": max_power_dbm.tolist(),
        # the open-ended first and last bins have null outer edges
        "histogram": [[None if math.isinf(e) else e for e in (lo, hi)] + [c]
                      for lo, hi, c in histogram],
    }


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _heat_rgb(grid, lo: float, hi: float) -> np.ndarray:
    """The colour of every grid cell, as (ny, nx, 3) bytes shaped like ``grid``.

    Two-stop ramp, dark violet to yellow, like the usual coverage palettes.
    ``np.rint`` rounds half to even, as the builtin ``round`` does.
    """
    t = np.zeros_like(grid) if hi == lo else (grid - lo) / (hi - lo)
    t = np.minimum(1.0, np.maximum(0.0, t))
    c0, c1 = np.array([33, 12, 74]), np.array([248, 231, 28])
    return np.rint(c0 + t[..., None] * (c1 - c0)).astype(np.uint8)


def _png(rgb: np.ndarray) -> bytes:
    """An 8-bit RGB PNG of the (h, w, 3) bytes ``rgb``, top row first.

    Every row has filter 0 and the image data is stored, not compressed,
    in deflate blocks of at most 65 535 bytes, so the bytes do not depend
    on the zlib build Python links.
    """
    h, w, _ = rgb.shape
    rows = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # column 0 is each row's filter byte
    rows[:, 1:] = rgb.reshape(h, 3 * w)
    raw = rows.tobytes()
    blocks = [raw[k:k + 65535] for k in range(0, len(raw), 65535)]
    stored = b"".join(struct.pack("<BHH", k == len(blocks) - 1, len(b), len(b) ^ 0xFFFF) + b
                      for k, b in enumerate(blocks))
    # a zlib stream of stored (type 00) deflate blocks, the last one flagged final
    idat = b"\x78\x01" + stored + struct.pack(">I", zlib.adler32(raw))

    def chunk(kind: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + kind + data
                + struct.pack(">I", zlib.crc32(kind + data)))

    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


AGENT_COLORS = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
                "#a65628", "#f781bf", "#999999")


def render_map_svg(log, coverage, area, path, served_flags):
    """Trajectories over the coverage map as a standalone SVG file.

    ``coverage`` is the (ny, nx) power grid over ``area``, clipped to
    :data:`COVERAGE_CLIP`; rows run south to north. It is drawn as one
    embedded PNG, a pixel per cell, stretched over the area. The users of ``log``
    inside ``area`` are drawn as dots, and as open circles where
    ``served_flags`` is false.
    """
    size, pad = 560.0, 20.0
    w = area.x_max - area.x_min
    h = area.y_max - area.y_min
    scale = size / max(w, h)

    def sx(x):
        return pad + (x - area.x_min) * scale

    def sy(y):
        return pad + (area.y_max - y) * scale

    grid = np.asarray(coverage, dtype=float)
    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_fmt(w * scale + 2 * pad)}" height="{_fmt(h * scale + 2 * pad)}" '
               f'viewBox="0 0 {_fmt(w * scale + 2 * pad)} {_fmt(h * scale + 2 * pad)}">')
    out.append('<rect width="100%" height="100%" fill="#ffffff"/>')
    # one pixel per grid cell, north row on top, stretched over the area
    png = base64.b64encode(_png(_heat_rgb(grid[::-1], *COVERAGE_CLIP))).decode("ascii")
    out.append(f'<image x="{_fmt(pad)}" y="{_fmt(pad)}" width="{_fmt(w * scale)}" '
               f'height="{_fmt(h * scale)}" preserveAspectRatio="none" '
               f'style="image-rendering:pixelated" href="data:image/png;base64,{png}"/>')
    for (x, y, _), ok in zip(log.users.tolist(), served_flags):
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


def render_histogram_svg(histogram, path, title, p_min_dbm):
    """Bar chart of a power histogram as a standalone SVG file, ``p_min_dbm`` marked."""
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


def render_outputs(log, coverage, out_dir, area, p_min_dbm: float) -> dict:
    """Write the full output bundle for one run into ``out_dir``.

    Emits trajectory.csv, trajectory.json, metrics.json, coverage.csv,
    map.svg, hist_initial.svg, and hist_final.svg. The metrics are the
    first and last snapshots of ``log``, judged against ``p_min_dbm``;
    ``coverage`` is the :func:`coverage_map` grid over ``area``.
    Byte-stable: identical inputs give identical files. Returns a
    name->path mapping.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def p(name):
        paths[name] = os.path.join(out_dir, name)
        return paths[name]

    write_trajectory_csv(log, p("trajectory.csv"))
    write_trajectory_json(log, p("trajectory.json"))
    initial, final = (power_histogram(row) for row in log.max_power_dbm)
    _write_json(p("metrics.json"), {
        "p_min_dbm": float(p_min_dbm),
        "initial": _placement_json(log.served[0], log.max_power_dbm[0], initial),
        "final": _placement_json(log.served[-1], log.max_power_dbm[-1], final),
    })
    grid = np.asarray(coverage, dtype=float)
    # each cell to 0.01 dB, by one format call over a template of every row
    row = ",".join(["{:.2f}"] * grid.shape[1]) + "\n"
    with open(p("coverage.csv"), "w") as f:
        f.write((row * grid.shape[0]).format(*grid.ravel().tolist()))
    render_map_svg(log, grid, area, p("map.svg"), (log.max_power_dbm[-1] >= p_min_dbm).tolist())
    render_histogram_svg(initial, p("hist_initial.svg"), "initial placement", p_min_dbm)
    render_histogram_svg(final, p("hist_final.svg"), "final placement", p_min_dbm)
    return paths
