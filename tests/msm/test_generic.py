"""Generic-group Pippenger: integers-mod-m sanity plus real G2."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.msm.generic import GroupOps, pippenger_generic
from repro.zksnark import pairing as pr
from repro.zksnark.backend import backend_by_name

g2_msm = backend_by_name("BN254").g2_msm


def int_group(modulus: int) -> GroupOps:
    """The additive group Z_m — a transparent test harness."""
    return GroupOps(
        add=lambda a, b: (a + b) % modulus,
        neg=lambda a: (-a) % modulus,
        identity=0,
    )


class TestIntegerGroup:
    @given(
        st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=20),
        st.integers(2, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_sum(self, scalars, w):
        m = (1 << 61) - 1
        points = [(i * 7919 + 13) % m for i in range(len(scalars))]
        expected = sum(k * p for k, p in zip(scalars, points)) % m
        got = pippenger_generic(scalars, points, int_group(m), 64, w)
        assert got == expected

    def test_empty(self):
        assert pippenger_generic([], [], int_group(97), 8) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pippenger_generic([1], [], int_group(97), 8)

    def test_window_validated(self):
        with pytest.raises(ValueError):
            pippenger_generic([1], [1], int_group(97), 8, window_size=1)


class TestG2Msm:
    @pytest.fixture(scope="class")
    def g2_points(self):
        return [pr.g2_mul(pr.G2_GENERATOR, k) for k in (1, 2, 5, 11)]

    def test_matches_naive(self, g2_points):
        rng = random.Random(3)
        scalars = [rng.randrange(1 << 64) for _ in g2_points]
        expected = None
        for k, pt in zip(scalars, g2_points):
            expected = pr.g2_add(expected, pr.g2_mul(pt, k))
        assert g2_msm(scalars, g2_points) == expected

    def test_zero_scalars(self, g2_points):
        assert g2_msm([0] * len(g2_points), g2_points) is None

    def test_single_term(self, g2_points):
        assert g2_msm([7], [g2_points[0]]) == pr.g2_mul(g2_points[0], 7)

    def test_results_on_twist(self, g2_points):
        result = g2_msm([3, 1, 4, 1], g2_points)
        assert pr.G2.is_on_curve(result)
