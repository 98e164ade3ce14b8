"""wNAF recoding and the wNAF / ladder scalar muls — cross-validated
against double-and-add."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.point import AffinePoint, pmul, pmul_wnaf
from repro.curves.sampling import sample_points
from repro.curves.scalar import wnaf, wnaf_density

from tests.conftest import TOY_CURVE


class TestWnaf:
    @given(st.integers(0, (1 << 128) - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_reassembles(self, k, w):
        assert sum(d << i for i, d in enumerate(wnaf(k, w))) == k

    @given(st.integers(1, (1 << 64) - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_digit_constraints(self, k, w):
        digits = wnaf(k, w)
        half = 1 << (w - 1)
        for d in digits:
            assert d == 0 or (d % 2 == 1 and -half < d < half)

    @given(st.integers(1, (1 << 64) - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonadjacency(self, k):
        """Width-w NAF: within any w consecutive digits at most one is
        non-zero."""
        w = 3
        digits = wnaf(k, w)
        for i, d in enumerate(digits):
            if d:
                assert all(x == 0 for x in digits[i + 1 : i + w])

    def test_docstring_example(self):
        assert wnaf(7, 2) == [-1, 0, 0, 1]

    def test_negative(self):
        assert wnaf(-7, 2) == [1, 0, 0, -1]

    def test_rejects_narrow_width(self):
        with pytest.raises(ValueError):
            wnaf(5, 1)

    def test_density_sparse(self):
        digits = wnaf((1 << 253) - 12345, 4)
        # expected density 1/(w+1) = 0.2
        assert wnaf_density(digits) < 0.3

    def test_density_empty(self):
        assert wnaf_density([]) == 0.0


class TestPmulWnaf:
    @given(st.integers(0, 5000), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_matches_double_and_add(self, k, w):
        pts = sample_points(TOY_CURVE, 1, seed=9)
        assert pmul_wnaf(pts[0], k, TOY_CURVE, w) == pmul(pts[0], k, TOY_CURVE)

    def test_zero_and_identity(self):
        pts = sample_points(TOY_CURVE, 1, seed=9)
        assert pmul_wnaf(pts[0], 0, TOY_CURVE).infinity
        assert pmul_wnaf(AffinePoint.identity(), 5, TOY_CURVE).infinity

    def test_negative(self):
        pts = sample_points(TOY_CURVE, 1, seed=9)
        assert pmul_wnaf(pts[0], -9, TOY_CURVE) == pmul(pts[0], -9, TOY_CURVE)

    def test_bn254(self, bn254):
        g = AffinePoint(bn254.gx, bn254.gy)
        assert pmul_wnaf(g, 123456789, bn254) == pmul(g, 123456789, bn254)


class TestPmulLadder:
    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_matches_double_and_add(self, k):
        from repro.curves.point import pmul_ladder

        pts = sample_points(TOY_CURVE, 1, seed=11)
        assert pmul_ladder(pts[0], k, TOY_CURVE) == pmul(pts[0], k, TOY_CURVE)

    def test_zero_and_identity(self):
        from repro.curves.point import pmul_ladder

        pts = sample_points(TOY_CURVE, 1, seed=11)
        assert pmul_ladder(pts[0], 0, TOY_CURVE).infinity
        assert pmul_ladder(AffinePoint.identity(), 3, TOY_CURVE).infinity

    def test_negative(self):
        from repro.curves.point import pmul_ladder

        pts = sample_points(TOY_CURVE, 1, seed=11)
        assert pmul_ladder(pts[0], -5, TOY_CURVE) == pmul(pts[0], -5, TOY_CURVE)

    def test_bn254(self, bn254):
        from repro.curves.point import pmul_ladder

        g = AffinePoint(bn254.gx, bn254.gy)
        assert pmul_ladder(g, 987654321, bn254) == pmul(g, 987654321, bn254)
