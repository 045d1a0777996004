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

Writing a bundle is mostly formatting numbers, so each is formatted once
and no cell needs its own Python-level format call: every trajectory
float is ``repr``-ed once for both trajectory files; a coverage cell is
looked up in a table of the clip range's 0.01 dB steps; each kind of the
map's SVG shapes is one template filled by one ``str.format`` call over
coordinates computed with numpy; and the histogram figure, whose bins are
constants, is laid out once, so a call fills in only its title, bar
heights and target marker. :func:`render_outputs` builds every file's
text before it opens the first.
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

# power_histogram's bins: 1 dB wide over HIST_RANGE dBm, between an open-ended
# underflow bin and an open-ended overflow bin
HIST_RANGE = (-110.0, -70.0)
_HIST_EDGES = np.arange(HIST_RANGE[0], HIST_RANGE[1] + 1.0)
_HIST_BINS = list(zip([-math.inf, *_HIST_EDGES.tolist()], [*_HIST_EDGES.tolist(), math.inf]))
# dBm range of the coverage grid, of the map's colour ramp and of coverage.csv's
# table of cell texts
COVERAGE_CLIP = (-100.0, -80.0)


def coverage_map(placements, area, grid_resolution: int, budget_dbm) -> np.ndarray:
    """Strongest received power on the ground grid (z = 0), clipped to
    :data:`COVERAGE_CLIP`.

    ``area`` is a :class:`simulator.Rect`; ``budget_dbm`` is as for
    :func:`channel.received_power_matrix`. Returns shape (n, n) for a
    ``grid_resolution`` of n, at least 2: n evenly spaced points along each
    axis, edges included; rows run south to north, columns west to east.
    """
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    gx, gy = np.meshgrid(np.linspace(area.x_min, area.x_max, grid_resolution),
                         np.linspace(area.y_min, area.y_max, grid_resolution))
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    best = np.max(received_power_matrix(placements, budget_dbm, pts), axis=1)
    return np.clip(best, *COVERAGE_CLIP).reshape(gy.shape)


def power_histogram(per_mu_powers) -> list:
    """Histogram of ``per_mu_powers`` in 1 dB bins over :data:`HIST_RANGE`.

    Returns the count in each bin of ``_HIST_BINS``, underflow first and
    overflow last; the counts always sum to the number of inputs.
    """
    # searchsorted buckets: 0 -> underflow, len(_HIST_EDGES) -> overflow
    idx = np.searchsorted(_HIST_EDGES, np.asarray(per_mu_powers, dtype=float), side="right")
    return np.bincount(idx, minlength=len(_HIST_BINS)).tolist()


def _json_text(obj) -> str:
    """``obj`` as one line of JSON; a non-finite float raises ``ValueError``."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def trajectory_texts(log) -> tuple:
    """The snapshots of ``log`` as the texts of trajectory.csv and trajectory.json.

    The CSV has the columns iteration, agent index, x, y, z, oracle
    utility, one row per (iteration, agent), with the snapshot's utility
    repeated on each of its agent rows; the JSON is ``json.dumps``'s text.
    Both are joined from one ``repr`` per float, as ``json.dumps`` writes
    it; a non-finite position or utility, which JSON cannot hold, raises
    ``ValueError``.
    """
    positions, utility = log.positions, log.oracle_utility
    if not (np.isfinite(positions).all() and np.isfinite(utility).all()):
        raise ValueError("Out of range float values are not JSON compliant: "
                         "a trajectory position or utility is not finite")
    n, b = positions.shape[:2]
    x, y, z = (list(map(repr, positions[..., k].ravel().tolist())) for k in range(3))
    u = list(map(repr, utility.tolist()))
    rows = map("{},{},{},{},{},{}".format, np.repeat(np.arange(n), b).tolist(),
               np.tile(np.arange(b), n).tolist(), x, y, z,
               [cell for cell in u for _ in range(b)])
    csv = "\n".join(["iteration,agent_index,x,y,z,oracle_utility", *rows]) + "\n"
    points = list(map("{}, {}, {}".format, x, y, z))
    snaps = "]], [[".join(["], [".join(points[i * b:(i + 1) * b]) for i in range(n)])
    text = (f'{{"num_agents": {b}, "num_iterations": {n - 1}, '
            f'"oracle_utility": [{", ".join(u)}], "positions": [[[{snaps}]]], '
            f'"served": {json.dumps(log.served.tolist())}}}\n')
    return csv, text


# every 0.01 dB step of COVERAGE_CLIP as ".2f" text, from 100 * lo to 100 * hi
_CELL_LO, _CELL_HI = (round(100.0 * v) for v in COVERAGE_CLIP)
_CELL_TEXT = np.array([format(k / 100.0, ".2f") for k in range(_CELL_LO, _CELL_HI + 1)],
                      dtype=object)


def _cell_texts(values) -> list:
    """``format(v, ".2f")`` of each of ``values``, most looked up in a table.

    Inside :data:`COVERAGE_CLIP`, ``100 v`` is off by under 1e-11, so
    ``np.rint(100 v)`` names the correctly rounded step unless ``v`` lies
    within 1e-9 of a rounding tie. Such a value, and one outside the table,
    is formatted on its own.
    """
    v = np.asarray(values, dtype=float).ravel()
    # clipped just outside the table first, so nothing overflows
    t = np.clip(v, COVERAGE_CLIP[0] - 1.0, COVERAGE_CLIP[1] + 1.0) * 100.0
    k = np.rint(t)
    table = (k >= _CELL_LO) & (k <= _CELL_HI) & (np.abs(np.abs(t - k) - 0.5) > 1e-7)
    texts = _CELL_TEXT[np.where(table, k - _CELL_LO, 0).astype(np.intp)].tolist()
    for j in np.flatnonzero(~table).tolist():
        texts[j] = format(float(v[j]), ".2f")
    return texts


def _shapes(templates, values) -> list:
    """The SVG lines of ``templates``, their ``{}`` fields filled from ``values`` in order
    by one format call; no line when there is no template."""
    return ["\n".join(templates).format(*values)] if templates else []


def _placement_json(served, max_power_dbm, counts) -> dict:
    return {
        "served_count": int(served),
        "total_mus": len(max_power_dbm),
        "per_mu_max_power_dbm": max_power_dbm.tolist(),
        # the open-ended first and last bins have null outer edges
        "histogram": [[None if math.isinf(e) else e for e in edges] + [c]
                      for edges, c in zip(_HIST_BINS, counts)],
    }


def _heat_rgb(grid) -> np.ndarray:
    """The colour of every grid cell, as (ny, nx, 3) bytes shaped like ``grid``.

    Two-stop ramp over :data:`COVERAGE_CLIP`, dark violet to yellow, like the
    usual coverage palettes. ``np.rint`` rounds half to even, as the builtin
    ``round`` does.
    """
    lo, hi = COVERAGE_CLIP
    t = (grid - lo) / (hi - lo)
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


def render_map_svg(log, coverage, area, served_flags) -> str:
    """Trajectories over the coverage map as the text of a standalone SVG file.

    ``coverage`` is the (ny, nx) power grid over ``area``, clipped to
    :data:`COVERAGE_CLIP`; rows run south to north. It is drawn as one
    embedded PNG, a pixel per cell, stretched over the area. The users of ``log``
    inside ``area`` are drawn as dots, and as open circles where
    ``served_flags`` is false.
    """
    size, pad = 560.0, 20.0
    w, h = area.width, area.height
    scale = size / max(w, h)

    def sx(x):
        return pad + (x - area.x_min) * scale

    def sy(y):
        return pad + (area.y_max - y) * scale

    grid = np.asarray(coverage, dtype=float)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{w * scale + 2 * pad:.2f}" height="{h * scale + 2 * pad:.2f}" '
           f'viewBox="0 0 {w * scale + 2 * pad:.2f} {h * scale + 2 * pad:.2f}">',
           '<rect width="100%" height="100%" fill="#ffffff"/>']
    # one pixel per grid cell, north row on top, stretched over the area
    png = base64.b64encode(_png(_heat_rgb(grid[::-1]))).decode("ascii")
    out.append(f'<image x="{pad:.2f}" y="{pad:.2f}" width="{w * scale:.2f}" '
               f'height="{h * scale:.2f}" preserveAspectRatio="none" '
               f'style="image-rendering:pixelated" href="data:image/png;base64,{png}"/>')
    x, y = np.asarray(log.users)[:, :2].T
    inside = area.contains(x, y)
    dot = '<circle cx="{:.2f}" cy="{:.2f}" r="2.0" fill="#000000"/>'
    ring = ('<circle cx="{:.2f}" cy="{:.2f}" r="3.0" fill="none" stroke="#ff0000" '
            'stroke-width="1.5"/>')
    out += _shapes([dot if ok else ring for ok in np.asarray(served_flags)[inside].tolist()],
                   np.column_stack([sx(x[inside]), sy(y[inside])]).ravel().tolist())
    # each agent's path, then its first and its last position
    snaps = np.asarray(log.positions)
    n, b = snaps.shape[:2]
    track = (f'<polyline points="{" ".join(["{:.2f},{:.2f}"] * n)}" fill="none" stroke="%s" '
             'stroke-width="1.5"/>\n'
             '<circle cx="{:.2f}" cy="{:.2f}" r="4.0" fill="none" stroke="%s" '
             'stroke-width="1.5"/>\n'
             '<circle cx="{:.2f}" cy="{:.2f}" r="4.0" fill="%s"/>')
    xy = np.stack([sx(snaps[..., 0]), sy(snaps[..., 1])], axis=-1)  # (n, b, 2)
    out += _shapes([track.replace("%s", AGENT_COLORS[k % len(AGENT_COLORS)]) for k in range(b)],
                   np.concatenate([xy.transpose(1, 0, 2).reshape(b, 2 * n), xy[0], xy[-1]],
                                  axis=1).ravel().tolist())
    out.append("</svg>")
    return "\n".join(out) + "\n"


# render_histogram_svg's figure: 640 x 320 px, the plot inset by these margins and
# split into one bar slot per bin; everything but the title, the bar heights and the
# target marker is laid out here, once
_FIG_W, _FIG_H = 640.0, 320.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 50.0, 15.0, 30.0, 45.0
_PLOT_H = _FIG_H - _TOP - _BOTTOM
_BAR_W = (_FIG_W - _LEFT - _RIGHT) / len(_HIST_BINS)
_HIST_SVG = "\n".join([
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_FIG_W:.2f}" '
    f'height="{_FIG_H:.2f}" viewBox="0 0 {_FIG_W:.2f} {_FIG_H:.2f}">',
    '<rect width="100%" height="100%" fill="#ffffff"/>',
    f'<text x="{_LEFT:.2f}" y="20" font-family="sans-serif" font-size="14">{{}}</text>',
    # a bar per bin, each with its y and height to fill in; the two open-ended bins grey
    *[f'<rect x="{_LEFT + k * _BAR_W + 0.5:.2f}" y="{{:.2f}}" width="{_BAR_W - 1.0:.2f}" '
      f'height="{{:.2f}}" fill="{fill}"/>'
      for k, fill in enumerate(["#888888", *["#377eb8"] * (len(_HIST_BINS) - 2), "#888888"])],
    # a label under every fifth finite edge, from HIST_RANGE's low end
    *[f'<text x="{_LEFT + k * _BAR_W:.2f}" y="{_FIG_H - _BOTTOM + 18:.2f}" font-family='
      f'"sans-serif" font-size="10" text-anchor="middle">{_HIST_BINS[k][0]:.2f}</text>'
      for k in range(1, len(_HIST_BINS), 5)],
    f'<text x="{_FIG_W / 2:.2f}" y="{_FIG_H - 8:.2f}" font-family="sans-serif" font-size="12" '
    'text-anchor="middle">strongest received power (dBm)</text>',
    # the target marker's line, if any, then the axis
    f'{{}}<line x1="{_LEFT:.2f}" y1="{_TOP + _PLOT_H:.2f}" x2="{_FIG_W - _RIGHT:.2f}" '
    f'y2="{_TOP + _PLOT_H:.2f}" stroke="#000000" stroke-width="1"/>',
    "</svg>\n"])
_HIST_MARKER = (f'<line x1="{{0:.2f}}" y1="{_TOP:.2f}" x2="{{0:.2f}}" y2="{_TOP + _PLOT_H:.2f}" '
                'stroke="#e41a1c" stroke-width="1.5" stroke-dasharray="4,3"/>\n')


def render_histogram_svg(counts, title, p_min_dbm) -> str:
    """Bar chart of :func:`power_histogram`'s ``counts`` as the text of a standalone SVG
    file, with ``p_min_dbm`` marked when it lies in :data:`HIST_RANGE`."""
    peak = max(1, *counts)
    heights = [_PLOT_H * c / peak for c in counts]
    lo, hi = HIST_RANGE
    marker = ""
    if lo <= p_min_dbm <= hi:
        # the underflow bin takes the first slot
        marker = _HIST_MARKER.format(
            _LEFT + _BAR_W + (p_min_dbm - lo) / (hi - lo) * (len(_HIST_BINS) - 2) * _BAR_W)
    return _HIST_SVG.format(title, *[v for h in heights for v in (_TOP + _PLOT_H - h, h)],
                            marker)


def render_outputs(log, coverage, out_dir, area, p_min_dbm: float, kmeans=None) -> dict:
    """Write the full output bundle for one run into ``out_dir``.

    Emits trajectory.csv, trajectory.json, metrics.json, coverage.csv,
    map.svg, hist_initial.svg, hist_final.svg and, given ``kmeans``, the
    (``KMeansResult``, served count) of the run's k-means baseline,
    kmeans.json. The metrics are the first and last snapshots of ``log``,
    judged against ``p_min_dbm``; ``coverage`` is the :func:`coverage_map`
    grid over ``area``. Every file's text is built before the first file
    is opened, so a value with no text, such as a non-finite float bound
    for JSON, raises ``ValueError`` and writes nothing. Byte-stable:
    identical inputs give identical files. Returns a name->path mapping.
    """
    texts = dict(zip(("trajectory.csv", "trajectory.json"), trajectory_texts(log)))
    initial, final = (power_histogram(row) for row in log.max_power_dbm)
    texts["metrics.json"] = _json_text({
        "p_min_dbm": float(p_min_dbm),
        "initial": _placement_json(log.served[0], log.max_power_dbm[0], initial),
        "final": _placement_json(log.served[-1], log.max_power_dbm[-1], final),
    })
    grid = np.asarray(coverage, dtype=float)
    # each cell to 0.01 dB, one line per grid row
    cells, nx = _cell_texts(grid), grid.shape[1]
    texts["coverage.csv"] = "".join([",".join(cells[k:k + nx]) + "\n"
                                     for k in range(0, len(cells), nx)])
    texts["map.svg"] = render_map_svg(log, grid, area, log.max_power_dbm[-1] >= p_min_dbm)
    texts["hist_initial.svg"] = render_histogram_svg(initial, "initial placement", p_min_dbm)
    texts["hist_final.svg"] = render_histogram_svg(final, "final placement", p_min_dbm)
    if kmeans is not None:
        km, served = kmeans
        texts["kmeans.json"] = _json_text({"centroids": km.centroids.tolist(),
                                           "inertia": km.inertia, "served": served,
                                           "unserved": len(log.users) - served})
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in texts}
    for name, text in texts.items():
        with open(paths[name], "w") as f:
            f.write(text)
    return paths
