"""MSM algorithm tests: naive reference, Pippenger, precomputation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.point import AffinePoint, XyzzPoint, affine_neg, pmul
from repro.curves.sampling import msm_instance, sample_points
from repro.curves.scalar import num_windows, signed_windows
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.generic import GroupOps, pippenger_generic, xyzz_group
from repro.msm.naive import naive_msm
from repro.msm.pippenger import pippenger_msm
from repro.msm.precompute import precompute_tables

from tests.conftest import TOY_CURVE


def engine_msm(scalars, points, curve, window_size, signed):
    """The DistMSM engine's result on a small two-GPU system."""
    config = DistMsmConfig(
        window_size=window_size,
        signed_digits=signed,
        threads_per_block=32,
        points_per_thread=4,
    )
    return DistMsm(MultiGpuSystem(2), config).execute(scalars, points, curve).point


class TestNaive:
    def test_empty(self):
        assert naive_msm([], [], TOY_CURVE).infinity

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            naive_msm([1], [], TOY_CURVE)

    def test_negative_scalar_rejected(self):
        pts = sample_points(TOY_CURVE, 1, seed=0)
        with pytest.raises(ValueError):
            naive_msm([-1], pts, TOY_CURVE)

    def test_single_term_matches_pmul(self):
        pts = sample_points(TOY_CURVE, 1, seed=0)
        assert naive_msm([29], pts, TOY_CURVE) == pmul(pts[0], 29, TOY_CURVE)

    def test_two_terms(self):
        pts = sample_points(TOY_CURVE, 2, seed=1)
        expected = pmul(pts[0], 3, TOY_CURVE)
        expected2 = pmul(pts[1], 5, TOY_CURVE)
        from repro.curves.point import XyzzPoint, to_affine, xyzz_add

        combined = to_affine(
            xyzz_add(
                XyzzPoint.from_affine(expected),
                XyzzPoint.from_affine(expected2),
                TOY_CURVE,
            ),
            TOY_CURVE,
        )
        assert naive_msm([3, 5], pts, TOY_CURVE) == combined

    def test_zero_scalars_give_identity(self):
        pts = sample_points(TOY_CURVE, 4, seed=2)
        assert naive_msm([0, 0, 0, 0], pts, TOY_CURVE).infinity


class TestPippenger:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("window_size", [1, 2, 3, 5, 8])
    def test_matches_naive_toy(self, window_size, signed):
        """The host core (signed digits, windows >= 2) and the engine's
        bucket method with ``signed`` digits both give the naive sum."""
        scalars, points = msm_instance(TOY_CURVE, 40, seed=7)
        expected = naive_msm(scalars, points, TOY_CURVE)
        if window_size < 2:
            with pytest.raises(ValueError):
                pippenger_msm(scalars, points, TOY_CURVE, window_size=window_size)
        else:
            got = pippenger_msm(scalars, points, TOY_CURVE, window_size=window_size)
            assert got == expected
        assert engine_msm(scalars, points, TOY_CURVE, window_size, signed) == expected

    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_naive_bn254(self, bn254, signed):
        scalars, points = msm_instance(bn254, 16, seed=11)
        expected = naive_msm(scalars, points, bn254)
        assert pippenger_msm(scalars, points, bn254, window_size=8) == expected
        assert engine_msm(scalars, points, bn254, 8, signed) == expected

    def test_matches_naive_every_curve(self, any_curve):
        """A random instance plus the edge inputs: identity bases (Groth16
        queries contain them), a duplicate and a negated base pair sharing
        buckets, scalars 0, 1 and r - 1, and n = 0 and n = 1, at windows
        2 to 8."""
        scalars, points = msm_instance(any_curve, 6, seed=13)
        r = any_curve.r
        p0, p1, p2 = points[:3]
        identity = AffinePoint.identity()
        cases = [
            (scalars, points),
            (
                [r - 1, r - 1, 12345, 12345, 7, 0, 1, 0],
                [p0, p0, p1, affine_neg(p1, any_curve), identity, p2, p2, identity],
            ),
            ([], []),
            ([r - 1], [p0]),
            ([1], [p1]),
            ([0], [p2]),
            ([r - 1], [identity]),
        ]
        for k_list, pts in cases:
            expected = naive_msm(k_list, pts, any_curve)
            for window_size in range(2, 9):
                got = pippenger_msm(k_list, pts, any_curve, window_size=window_size)
                assert got == expected

    def test_empty(self):
        assert pippenger_msm([], [], TOY_CURVE).infinity

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pippenger_msm([1, 2], sample_points(TOY_CURVE, 1), TOY_CURVE)

    def test_invalid_window(self):
        scalars, points = msm_instance(TOY_CURVE, 4, seed=1)
        for window_size in (0, 1):
            with pytest.raises(ValueError):
                pippenger_msm(scalars, points, TOY_CURVE, window_size=window_size)

    def test_duplicate_points(self):
        """Duplicate base points land in the same bucket, forcing PACC's
        doubling edge case."""
        pts = sample_points(TOY_CURVE, 1, seed=3) * 6
        scalars = [5] * 6
        expected = naive_msm(scalars, pts, TOY_CURVE)
        assert pippenger_msm(scalars, pts, TOY_CURVE, window_size=3) == expected

    def test_pacc_count_bounded_by_nonzero_digits(self):
        """Each non-zero digit causes exactly one bucket addition; the rest
        is 2 (B - 1) reduce additions per window plus the window fold."""
        scalars, points = msm_instance(TOY_CURVE, 25, seed=6)
        s = 3
        n_win = num_windows(TOY_CURVE.scalar_bits, s)
        nonzero = sum(
            1 for k in scalars for d in signed_windows(k, s, n_win) if d != 0
        )
        xyzz = xyzz_group(TOY_CURVE)
        adds = 0

        def counted_add(a, b):
            nonlocal adds
            adds += 1
            return xyzz.add(a, b)

        ops = GroupOps(add=counted_add, neg=xyzz.neg, identity=xyzz.identity)
        lifted = [XyzzPoint.from_affine(pt) for pt in points]
        pippenger_generic(scalars, lifted, ops, TOY_CURVE.scalar_bits, s)
        windows = n_win + 1  # the signed digits' carry window
        buckets = (1 << (s - 1)) + 1
        # bucket adds, reduce adds, then s doublings and one add per window
        assert adds == nonzero + windows * 2 * (buckets - 1) + windows * (s + 1)

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_property_single_scalar(self, k):
        k %= TOY_CURVE.r  # scalars must fit the curve's λ-bit windows
        pts = sample_points(TOY_CURVE, 1, seed=9)
        assert pippenger_msm([k], pts, TOY_CURVE, window_size=4) == pmul(
            pts[0], k, TOY_CURVE
        )

    def test_scalar_exceeding_lambda_rejected(self):
        pts = sample_points(TOY_CURVE, 1, seed=9)
        with pytest.raises(ValueError):
            pippenger_msm([1 << 12], pts, TOY_CURVE, window_size=4)

class TestPrecompute:
    def test_matches_naive(self):
        """The engine's precompute path (one collapsed window over the
        tables) matches the naive sum, signed and unsigned."""
        scalars, points = msm_instance(TOY_CURVE, 20, seed=21)
        expected = naive_msm(scalars, points, TOY_CURVE)
        for signed in (False, True):
            config = DistMsmConfig(
                window_size=3,
                precompute=True,
                signed_digits=signed,
                threads_per_block=32,
                points_per_thread=4,
            )
            got = DistMsm(MultiGpuSystem(2), config).execute(scalars, points, TOY_CURVE)
            assert got.point == expected

    def test_tables_shape(self):
        points = sample_points(TOY_CURVE, 4, seed=2)
        tables = precompute_tables(points, TOY_CURVE, 3, 4)
        assert len(tables) == 4
        assert all(len(t) == 4 for t in tables)

    def test_tables_content(self):
        points = sample_points(TOY_CURVE, 2, seed=2)
        tables = precompute_tables(points, TOY_CURVE, 3, 3)
        for j, table in enumerate(tables):
            for i, pt in enumerate(table):
                assert pt == pmul(points[i], 1 << (3 * j), TOY_CURVE)
