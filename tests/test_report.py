import base64
import json
import math
import re
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from helpers import budget_at_1m
from airbs_sgd.baseline import kmeans_placement
from airbs_sgd.channel import ChannelParams, received_power_matrix
from airbs_sgd.navigator import StepSchedule
from airbs_sgd.report import (
    AGENT_COLORS,
    COVERAGE_CLIP,
    _HIST_BINS,
    _cell_texts,
    _json_text,
    _png,
    coverage_map,
    power_histogram,
    render_histogram_svg,
    render_map_svg,
    render_outputs,
    trajectory_texts,
)
from airbs_sgd.simulator import Rect, Scenario, TrajectoryLog, run
from airbs_sgd.utility import UtilityConfig


def test_histogram_structure_and_edges():
    counts = power_histogram([])
    assert len(counts) == len(_HIST_BINS) == 42  # 40 inner + two open ends
    assert _HIST_BINS[0][0] == -math.inf and _HIST_BINS[0][1] == -110.0
    assert _HIST_BINS[-1][0] == -70.0 and _HIST_BINS[-1][1] == math.inf
    assert (*_HIST_BINS[1], counts[1]) == (-110.0, -109.0, 0)

    counts = power_histogram([-109.5, -110.0, -110.0001, -70.0, -3.0])
    assert counts[0] == 1                        # below -110
    assert counts[1] == 2                        # [-110, -109) keeps its left edge
    assert counts[-1] == 2                       # -70 and above spill over
    assert sum(counts) == 5


def test_histogram_count_conservation():
    rng = np.random.default_rng(13)
    vals = rng.uniform(-130, -50, size=500)
    assert sum(power_histogram(vals)) == 500


def test_histogram_uniform_sanity():
    rng = np.random.default_rng(14)
    vals = rng.uniform(-110, -70, size=10000)
    inner = [c for (lo, hi), c in zip(_HIST_BINS, power_histogram(vals))
             if not math.isinf(lo) and not math.isinf(hi)]
    assert stats.chisquare(inner).pvalue > 0.01


def run_small(tmp_path, iterations=3):
    s = Scenario(
        area=Rect(0.0, 0.0, 2000.0, 2000.0),
        num_airbs=2,
        tx_powers_dbm=(9.0, 12.0),
        init_region=Rect(0.0, 0.0, 1000.0, 1000.0),
        fixed_height_m=30.0,
        num_mus=10,
        utility=UtilityConfig("threshold_sigmoid_unicast", -112.4, -91.0, 2.0),
        schedule=StepSchedule(eta0=5.0, minibatch_size=6, eta_scale=1e6),
        iterations=iterations,
        seed=21,
        channel=ChannelParams(-94.0, 1000.0),
    )
    log = run(s)
    grid = coverage_map(log.positions[-1], s.area, 16, s.budget_dbm)
    return log, grid, s


EXPECTED_FILES = ("trajectory.csv", "trajectory.json", "metrics.json",
                  "coverage.csv", "map.svg", "hist_initial.svg", "hist_final.svg")


def test_render_outputs_files_and_stability(tmp_path):
    log, grid, s = run_small(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    paths = render_outputs(log, grid, out1, s.area, s.utility.p_min_dbm)
    assert set(paths) == set(EXPECTED_FILES)
    for f in EXPECTED_FILES:
        assert (out1 / f).is_file() and (out1 / f).stat().st_size > 0
    render_outputs(log, grid, out2, s.area, s.utility.p_min_dbm)
    for f in EXPECTED_FILES:
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


def test_render_outputs_static_log(tmp_path):
    log, grid, s = run_small(tmp_path, iterations=0)
    render_outputs(log, grid, tmp_path / "static", s.area, s.utility.p_min_dbm)
    assert (tmp_path / "static" / "map.svg").stat().st_size > 0
    csv = (tmp_path / "static" / "trajectory.csv").read_text().splitlines()
    assert len(csv) == 1 + 2  # header plus one row per agent


def test_render_outputs_content_checks(tmp_path):
    log, grid, s = run_small(tmp_path)
    out = tmp_path / "c"
    render_outputs(log, grid, out, s.area, s.utility.p_min_dbm)

    traj = json.loads((out / "trajectory.json").read_text())
    assert traj["num_iterations"] == log.positions.shape[0] - 1
    assert traj["positions"][0][0] == list(map(float, log.positions[0, 0]))

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["final"]["served_count"] == log.served[-1]

    # every cell at 0.01 dB, rows south to north
    rows = [row.split(",") for row in (out / "coverage.csv").read_text().splitlines()]
    assert rows == [[format(v, ".2f") for v in row] for row in grid.tolist()]

    hist_svg = (out / "hist_final.svg").read_text()
    # one bar per bin plus the background rect
    assert hist_svg.count("<rect x=") == len(metrics["final"]["histogram"])
    assert "stroke-dasharray" in hist_svg  # power-target guide line

    map_svg = (out / "map.svg").read_text()
    assert map_svg.count("<circle") >= len(log.users)
    assert "<polyline" in map_svg
    # the heat layer is one image; the background is the only rect
    assert map_svg.count("<image") == 1
    assert map_svg.count("<rect") == 1 and '<rect width="100%"' in map_svg


def map_shapes_reference(log, area, served) -> list:
    """map.svg's user and agent lines, each value formatted on its own."""
    scale = 560.0 / max(area.width, area.height)

    def xy(x, y):
        return format(20.0 + (x - area.x_min) * scale, ".2f"), \
            format(20.0 + (area.y_max - y) * scale, ".2f")

    lines = []
    for (x, y, _), ok in zip(log.users.tolist(), served):
        if area.x_min <= x <= area.x_max and area.y_min <= y <= area.y_max:
            cx, cy = xy(x, y)
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="2.0" fill="#000000"/>' if ok else
                         f'<circle cx="{cx}" cy="{cy}" r="3.0" fill="none" stroke="#ff0000" '
                         f'stroke-width="1.5"/>')
    for b in range(log.positions.shape[1]):
        color = AGENT_COLORS[b % len(AGENT_COLORS)]
        track = [xy(x, y) for x, y, _ in log.positions[:, b].tolist()]
        lines.append(f'<polyline points="{" ".join(map(",".join, track))}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<circle cx="{track[0][0]}" cy="{track[0][1]}" r="4.0" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<circle cx="{track[-1][0]}" cy="{track[-1][1]}" r="4.0" fill="{color}"/>')
    return lines


def test_map_shapes_match_the_per_value_reference():
    rng = np.random.default_rng(5)
    area = Rect(-300.0, 100.0, 1700.0, 1300.0)
    # users on the edges, outside and inside; nine agents, so the colours wrap
    users = np.column_stack([rng.uniform(-600.0, 2000.0, 40), rng.uniform(-200.0, 1600.0, 40),
                             np.zeros(40)])
    users[:4, :2] = [(-300.0, 100.0), (1700.0, 1300.0), (-300.0000001, 500.0), (0.0, 1e9)]
    log = TrajectoryLog(positions=rng.normal(500.0, 400.0, size=(6, 9, 3)),
                        oracle_utility=np.zeros(6), served=np.zeros(6, dtype=int), users=users,
                        max_power_dbm=np.zeros((2, 40)))
    served = rng.random(40) < 0.5
    lines = render_map_svg(log, np.full((3, 4), -90.0), area, served).splitlines()
    assert lines[3:-1] == map_shapes_reference(log, area, served.tolist())
    # no user inside the area: no user line
    log.users = np.array([[5000.0, 0.0, 0.0]])
    lines = render_map_svg(log, np.full((3, 4), -90.0), area, [True]).splitlines()
    assert lines[3:-1] == map_shapes_reference(log, area, [True])


def test_map_draws_a_user_on_the_power_target_as_served(tmp_path):
    # ref_distance_m right above: the user receives exactly the budget, the target
    area = Rect(-500.0, -500.0, 500.0, 500.0)
    positions, users = np.array([[[0.0, 0.0, 1000.0]]]), np.zeros((1, 3))
    best = received_power_matrix(positions[0], budget_at_1m([-82.0], 1000.0), users)[:, 0]
    assert best.tolist() == [-82.0]
    log = TrajectoryLog(positions=positions, oracle_utility=np.zeros(1),
                        served=np.ones(1, dtype=int), users=users,
                        max_power_dbm=np.stack([best, best]))
    render_outputs(log, np.full((3, 3), -90.0), tmp_path, area, -82.0)
    lines = (tmp_path / "map.svg").read_text().splitlines()
    assert lines[3:-1] == map_shapes_reference(log, area, [True])


def test_histogram_bars_match_the_per_value_reference():
    counts = power_histogram(np.random.default_rng(6).normal(-92.0, 9.0, 202))
    bars = [line for line in render_histogram_svg(counts, "t", -91.0).splitlines()
            if line.startswith("<rect x=")]
    peak, bw = max(counts), 575.0 / len(counts)
    want = []
    for k, ((lo, hi), c) in enumerate(zip(_HIST_BINS, counts)):
        bh = 245.0 * c / peak
        fill = "#888888" if math.isinf(lo) or math.isinf(hi) else "#377eb8"
        want.append(f'<rect x="{50.0 + k * bw + 0.5:.2f}" y="{275.0 - bh:.2f}" '
                    f'width="{bw - 1.0:.2f}" height="{bh:.2f}" fill="{fill}"/>')
    assert bars == want


HIST_FIGURES = Path(__file__).with_name("hist_figures.json")


def histogram_figures() -> dict:
    """The pinned figures' texts, each split at its newlines, by name."""
    normal = np.random.default_rng(6).normal(-92.0, 9.0, 202).tolist()
    cases = {
        # the target on each end of HIST_RANGE and inside it: marker drawn
        "target_at_range_low": (normal, "initial placement", -110.0),
        "target_at_range_high": (normal, "final placement", -70.0),
        "target_inside": (normal, "final placement", -91.0),
        # just outside HIST_RANGE: no marker
        "target_below_range": (normal, "final placement", -110.5),
        "target_above_range": (normal, "final placement", -69.5),
        # the peak in the underflow bin
        "all_below_range": (np.linspace(-140.0, -110.5, 30).tolist(), "initial placement",
                            -91.0),
        # no powers: the peak is 1
        "no_powers": ([], "initial placement", -91.0),
    }
    return {name: render_histogram_svg(power_histogram(powers), title, p_min_dbm).split("\n")
            for name, (powers, title, p_min_dbm) in cases.items()}


def test_histogram_figures_match_the_recorded_texts():
    # recorded from the code that built the figure from each bin's edges; to re-record:
    #   PYTHONPATH=src python tests/test_report.py > tests/hist_figures.json
    assert histogram_figures() == json.loads(HIST_FIGURES.read_text())


def png_pixels(png: bytes) -> list:
    """The rows of an 8-bit RGB, non-interlaced PNG as lists of (r, g, b), every check asserted.

    Each chunk's CRC is checked, every row must have filter 0, and the
    image data must be a zlib stream of stored deflate blocks.
    """
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, k = [], 8
    while k < len(png):
        n, kind = struct.unpack(">I4s", png[k:k + 8])
        data = png[k + 8:k + 8 + n]
        assert struct.unpack(">I", png[k + 8 + n:k + 12 + n])[0] == zlib.crc32(kind + data)
        chunks.append((kind, data))
        k += 12 + n
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    w, h, depth, color, compression, filtering, interlace = struct.unpack(">IIBBBBB",
                                                                          chunks[0][1])
    assert (depth, color, compression, filtering, interlace) == (8, 2, 0, 0, 0)
    stream = chunks[1][1]
    raw = zlib.decompress(stream)
    # stored blocks: a header byte (final flag, type 00), LEN, NLEN, then LEN bytes
    stored, k, final = b"", 2, 0
    while not final:
        final, n, n_not = struct.unpack("<BHH", stream[k:k + 5])
        assert final in (0, 1) and n ^ 0xFFFF == n_not
        stored += stream[k + 5:k + 5 + n]
        k += 5 + n
    assert stored == raw and k + 4 == len(stream)
    assert len(raw) == h * (1 + 3 * w)
    rows = [raw[r * (1 + 3 * w):(r + 1) * (1 + 3 * w)] for r in range(h)]
    assert all(row[0] == 0 for row in rows)
    return [[tuple(row[1 + 3 * x:4 + 3 * x]) for x in range(w)] for row in rows]


def ramp_color(v: float, lo: float, hi: float) -> tuple:
    t = min(1.0, max(0.0, (v - lo) / (hi - lo)))
    return tuple(round(a + t * (b - a)) for a, b in zip((33, 12, 74), (248, 231, 28)))


def test_map_heat_layer_is_one_png_pixel_per_cell(tmp_path):
    log, grid, s = run_small(tmp_path)
    render_outputs(log, grid, tmp_path, s.area, s.utility.p_min_dbm)
    image = re.search(r'<image x="20.00" y="20.00" width="560.00" height="560.00" '
                      r'preserveAspectRatio="none" style="image-rendering:pixelated" '
                      r'href="data:image/png;base64,([A-Za-z0-9+/=]+)"/>',
                      (tmp_path / "map.svg").read_text())
    pixels = png_pixels(base64.b64decode(image.group(1)))
    lo, hi = COVERAGE_CLIP
    # the top row of the image is the north row of the grid
    assert pixels == [[ramp_color(v, lo, hi) for v in row] for row in grid[::-1].tolist()]


def test_png_spans_several_stored_blocks():
    rgb = np.random.default_rng(3).integers(0, 256, size=(150, 200, 3), dtype=np.uint8)
    assert len(rgb.tobytes()) + 150 > 65535
    assert png_pixels(_png(rgb)) == [[tuple(px) for px in row] for row in rgb.tolist()]


def test_a_value_with_no_text_writes_no_file(tmp_path):
    # metrics.json cannot hold a nan: no file is opened, the trajectory's included
    log, grid, s = run_small(tmp_path)
    log.max_power_dbm[-1, 3] = math.nan
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_outputs(log, grid, out, s.area, s.utility.p_min_dbm)
    assert not any(out.iterdir())


def test_kmeans_json_is_the_baselines_json_dumps_text(tmp_path):
    log, grid, s = run_small(tmp_path)
    km = kmeans_placement(log.users, s.num_airbs, seed=3, height_m=s.fixed_height_m)
    paths = render_outputs(log, grid, tmp_path, s.area, s.utility.p_min_dbm, (km, 7))
    assert set(paths) == {*EXPECTED_FILES, "kmeans.json"}
    assert (tmp_path / "kmeans.json").read_text() == json.dumps({
        "centroids": [list(map(float, c)) for c in km.centroids],
        "inertia": float(km.inertia),
        "served": 7,
        "unserved": len(log.users) - 7,
    }, sort_keys=True) + "\n"


def test_metrics_json_is_json_dumps_text(tmp_path):
    log, grid, s = run_small(tmp_path)
    render_outputs(log, grid, tmp_path, s.area, s.utility.p_min_dbm)
    text = (tmp_path / "metrics.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_metrics_json_reads_the_first_and_last_snapshot(tmp_path):
    log, grid, s = run_small(tmp_path, iterations=4)
    render_outputs(log, grid, tmp_path, s.area, s.utility.p_min_dbm)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["p_min_dbm"] == s.utility.p_min_dbm
    m = len(log.users)
    for key, i in (("initial", 0), ("final", -1)):
        d = metrics[key]
        assert d["served_count"] == log.served[i]
        assert d["total_mus"] == m
        # an independent kernel call on the logged placement, bit for bit
        want = np.max(received_power_matrix(log.positions[i], s.budget_dbm, log.users), axis=1)
        assert np.array_equal(np.array(d["per_mu_max_power_dbm"]), want)
        assert d["served_count"] == np.sum(want >= s.utility.p_min_dbm)
        hist = d["histogram"]
        assert hist[0][0] is None and hist[-1][1] is None
        assert all(e is not None for lo, hi, _ in hist[1:-1] for e in (lo, hi))
        assert hist[0][1] == -110.0 and hist[-1][0] == -70.0
        assert sum(c for _, _, c in hist) == m


def synthetic_log(rng) -> TrajectoryLog:
    """A 3-iteration, 3-agent log holding awkward floats: -0.0, a subnormal, 1e300."""
    positions = rng.normal(size=(4, 3, 3)) * 1e3
    positions[0, 0] = (-0.0, 5e-324, 1e300)
    return TrajectoryLog(positions=positions, oracle_utility=rng.random(4), served=np.arange(4),
                         users=np.zeros((2, 3)), max_power_dbm=np.full((2, 2), -90.0))


def trajectory_csv_reference(log) -> str:
    """trajectory.csv of ``log`` row by row, each float by its own ``repr``."""
    lines = ["iteration,agent_index,x,y,z,oracle_utility"]
    for i in range(log.positions.shape[0]):
        u = repr(float(log.oracle_utility[i]))
        for b in range(log.positions.shape[1]):
            x, y, z = (repr(float(v)) for v in log.positions[i, b])
            lines.append(f"{i},{b},{x},{y},{z},{u}")
    return "\n".join(lines) + "\n"


def trajectory_json_reference(log) -> str:
    """trajectory.json of ``log`` by ``json.dumps`` of its values as Python floats and ints."""
    return json.dumps({
        "num_iterations": log.positions.shape[0] - 1,
        "num_agents": log.positions.shape[1],
        "positions": [[list(map(float, row)) for row in snap] for snap in log.positions],
        "oracle_utility": [float(v) for v in log.oracle_utility],
        "served": [int(v) for v in log.served],
    }, sort_keys=True) + "\n"


def signed_log() -> TrajectoryLog:
    """A 2-iteration, 2-agent log of negative coordinates and -0.0, 5e-324, 1e-5, 1e16, 1e22."""
    positions = np.array([[[-0.0, -1500.25, 30.0], [5e-324, -1e-05, 1e16]],
                          [[-1e22, 1e22, 0.0], [-3.5, -0.0, 1e-05]],
                          [[-1e16, -5e-324, 2.0], [1e-05, -123.456, 1e22]]])
    return TrajectoryLog(positions=positions, oracle_utility=np.array([-0.0, 5e-324, -1e22]),
                         served=np.array([0, 1, 2]), users=np.zeros((1, 3)),
                         max_power_dbm=np.zeros((2, 1)))


def test_trajectory_csv_shape(tmp_path):
    log, _, s = run_small(tmp_path, iterations=2)
    lines = trajectory_texts(log)[0].splitlines()
    assert lines[0] == "iteration,agent_index,x,y,z,oracle_utility"
    assert len(lines) == 1 + (s.iterations + 1) * s.num_airbs
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == log.positions[0, 0, 0]


def test_trajectory_csv_matches_the_per_row_reference():
    for log in (synthetic_log(np.random.default_rng(4)), signed_log()):
        assert trajectory_texts(log)[0] == trajectory_csv_reference(log)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_text_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_text({"a": [1.0, bad]})


def test_trajectory_json_matches_json_dumps():
    for log in (synthetic_log(np.random.default_rng(8)), signed_log()):
        assert trajectory_texts(log)[1] == trajectory_json_reference(log)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["positions", "oracle_utility"])
def test_trajectory_texts_refuse_a_non_finite_value(bad, where):
    log = synthetic_log(np.random.default_rng(8))
    getattr(log, where).ravel()[-1] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        trajectory_texts(log)


# both files are joined from one repr per float: floats whose repr has a sign, an
# exponent, a subnormal's digits or a trailing ".0", in every column
EXTREME_FLOATS = [-0.0, 5e-324, -5e-324, 1e16, -1e16, 1e150, -1e150, 30.0, 1.0, 0.0, 1e-05,
                  123456789012345678.0, 2.0 ** -1074 * 3, 1.7976931348623157e308]


@pytest.mark.parametrize("b", [1, 3])
def test_trajectory_pair_matches_the_references_for_extreme_floats(b):
    n = len(EXTREME_FLOATS)
    values = np.array(EXTREME_FLOATS)
    # each value in each column and as a snapshot's utility, on every agent row
    positions = np.stack([np.roll(values, k) for k in range(3 * b)], axis=1).reshape(n, b, 3)
    log = TrajectoryLog(positions=positions, oracle_utility=np.roll(values, 1),
                        served=np.arange(n), users=np.zeros((1, 3)),
                        max_power_dbm=np.zeros((2, 1)))
    csv_text, json_text = trajectory_texts(log)
    assert csv_text == trajectory_csv_reference(log)
    assert json_text == trajectory_json_reference(log)
    for v in EXTREME_FLOATS:
        assert f",{v!r}," in csv_text and f",{v!r}\n" in csv_text


def test_trajectory_pair_of_one_snapshot_and_one_agent():
    log = TrajectoryLog(positions=np.array([[[-0.0, 30.0, 1e16]]]),
                        oracle_utility=np.array([5e-324]), served=np.array([0]),
                        users=np.zeros((1, 3)), max_power_dbm=np.zeros((2, 1)))
    csv_text, json_text = trajectory_texts(log)
    assert csv_text == "iteration,agent_index,x,y,z,oracle_utility\n0,0,-0.0,30.0,1e+16,5e-324\n"
    assert json_text == trajectory_json_reference(log)


# every 0.01 dB rounding boundary k + 0.005 of the table, as the nearest double
BOUNDARIES = [(k + 0.5) / 100.0 for k in range(round(100 * COVERAGE_CLIP[0]) - 1,
                                                round(100 * COVERAGE_CLIP[1]) + 1)]


def ulps_away(v: float, k: int) -> float:
    """``v`` moved by ``k`` ulps, down for a negative ``k``."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def test_cell_texts_at_every_boundary_and_one_ulp_either_side():
    values = [ulps_away(v, k) for v in BOUNDARIES for k in (-1, 0, 1)]
    assert _cell_texts(np.array(values)) == [format(v, ".2f") for v in values]


cell_values = st.one_of(
    # the table's range and a little beyond
    st.floats(COVERAGE_CLIP[0] - 0.02, COVERAGE_CLIP[1] + 0.02),
    # a rounding boundary and up to four ulps either side of it
    st.builds(ulps_away, st.sampled_from(BOUNDARIES), st.integers(-4, 4)),
    # exact ties: multiples of 1/8, such as -80.125
    st.integers(round(8 * COVERAGE_CLIP[0]) - 8, round(8 * COVERAGE_CLIP[1]) + 8).map(
        lambda k: k / 8.0),
    # the clip ends and values that round to -0.00
    st.sampled_from([*COVERAGE_CLIP, -100.005, -79.995, -0.0, -0.001, -0.004999, -0.005]),
    # anything, outside the table included
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(cell_values, min_size=1, max_size=40))
@example([-80.125, -80.135, -80.0, -100.0, -0.001, math.nan, -math.inf, 1e308])
def test_cell_texts_equal_format_2f(values):
    assert _cell_texts(np.array(values)) == [format(v, ".2f") for v in values]


if __name__ == "__main__":
    sys.stdout.write(json.dumps(histogram_figures(), indent=1) + "\n")
