"""Batched-affine accumulation: correctness and inversion economics."""

from hypothesis import given, settings, strategies as st

from repro.curves.point import AffinePoint, XyzzPoint, affine_neg, to_affine, xyzz_acc
from repro.curves.sampling import sample_points
from repro.msm.batch_affine import (
    BatchAffineStats,
    add_pairs,
    batch_normalize,
    batch_inverse,
)

from tests.conftest import TOY_CURVE


def add_affine_pairs(pairs, stats=None):
    """:func:`add_pairs` over ``(P, Q)`` pairs of :class:`AffinePoint`."""

    def encode(pt):
        return None if pt.infinity else (pt.x, pt.y)

    out = add_pairs(
        [encode(a) for a, _ in pairs],
        [encode(b) for _, b in pairs],
        TOY_CURVE.p,
        TOY_CURVE.a,
        stats,
    )
    return [AffinePoint.identity() if pt is None else AffinePoint(*pt) for pt in out]


class TestBatchInverse:
    @given(st.lists(st.integers(0, TOY_CURVE.p - 1), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_inverts_all_nonzero(self, values):
        out = batch_inverse(values, TOY_CURVE.p)
        for v, inv in zip(values, out):
            if v % TOY_CURVE.p == 0:
                assert inv == 0
            else:
                assert v * inv % TOY_CURVE.p == 1

    def test_single_inversion(self):
        stats = BatchAffineStats()
        batch_inverse([3, 5, 7, 11], TOY_CURVE.p, stats)
        assert stats.inversions == 1

    def test_all_zero(self):
        assert batch_inverse([0, 0], TOY_CURVE.p) == [0, 0]


class TestBatchAdd:
    def test_matches_xyzz(self):
        pts = sample_points(TOY_CURVE, 10, seed=4)
        pairs = [(pts[i], pts[i + 1]) for i in range(0, 10, 2)]
        results = add_affine_pairs(pairs)
        for (a, b), got in zip(pairs, results):
            expected = to_affine(
                xyzz_acc(XyzzPoint.from_affine(a), b, TOY_CURVE), TOY_CURVE
            )
            assert got == expected

    def test_edge_cases_in_one_batch(self):
        pts = sample_points(TOY_CURVE, 4, seed=5)
        pairs = [
            (AffinePoint.identity(), pts[0]),  # left identity
            (pts[1], AffinePoint.identity()),  # right identity
            (pts[2], pts[2]),  # doubling
            (pts[3], affine_neg(pts[3], TOY_CURVE)),  # inverse pair
            (pts[0], pts[1]),  # ordinary add
        ]
        results = add_affine_pairs(pairs)
        assert results[0] == pts[0]
        assert results[1] == pts[1]
        from repro.curves.point import pdbl

        assert results[2] == to_affine(
            pdbl(XyzzPoint.from_affine(pts[2]), TOY_CURVE), TOY_CURVE
        )
        assert results[3].infinity
        assert not results[4].infinity

    def test_stats_counting(self):
        pts = sample_points(TOY_CURVE, 4, seed=6)
        stats = BatchAffineStats()
        add_affine_pairs([(pts[0], pts[1]), (pts[2], pts[2])], stats)
        assert stats.additions == 1
        assert stats.doublings == 1
        assert stats.inversions == 1
        assert stats.field_muls == 12  # 6 per pair sharing the inversion


class TestAddPairs:
    """The tuple-level adder the bucket sum runs on."""

    def test_two_torsion_doubling_is_identity(self):
        """y = 0 means P = -P: doubling gives the identity, not a zero
        denominator in the shared inversion."""
        pts = sample_points(TOY_CURVE, 1, seed=3)
        ordinary = (pts[0].x, pts[0].y)
        out = add_pairs(
            [(5, 0), ordinary], [(5, 0), None], TOY_CURVE.p, TOY_CURVE.a
        )
        assert out == [None, ordinary]

    def test_matches_wrapper_and_counts(self):
        """Three ordinary pairs share one inversion, 6 multiplications
        each, and agree with the affine wrapper and XYZZ addition."""
        pts = sample_points(TOY_CURVE, 6, seed=13)
        tuples = [(pt.x, pt.y) for pt in pts]
        stats = BatchAffineStats()
        out = add_pairs(tuples[:3], tuples[3:], TOY_CURVE.p, TOY_CURVE.a, stats)
        pairs = list(zip(pts[:3], pts[3:]))
        assert [AffinePoint(*pt) for pt in out] == add_affine_pairs(pairs)
        for (a, b), got in zip(pairs, out):
            expected = to_affine(
                xyzz_acc(XyzzPoint.from_affine(a), b, TOY_CURVE), TOY_CURVE
            )
            assert AffinePoint(*got) == expected
        assert (stats.inversions, stats.additions, stats.field_muls) == (1, 3, 18)

    def test_no_inversion_when_all_trivial(self):
        pt = sample_points(TOY_CURVE, 1, seed=14)[0]
        stats = BatchAffineStats()
        neg = affine_neg(pt, TOY_CURVE)
        out = add_pairs(
            [None, (pt.x, pt.y)], [None, (neg.x, neg.y)], TOY_CURVE.p, TOY_CURVE.a, stats
        )
        assert out == [None, None]
        assert stats.inversions == 0


class TestBatchNormalize:
    def test_canonical_representatives(self):
        pts = sample_points(TOY_CURVE, 5, seed=15)
        p = TOY_CURVE.p
        scaled = []
        for z, pt in enumerate(pts, start=2):
            zz, zzz = z * z % p, z * z * z % p
            scaled.append(XyzzPoint(pt.x * zz % p, pt.y * zzz % p, zz, zzz))
        scaled.insert(2, XyzzPoint.identity())
        out = batch_normalize(scaled, p)
        assert out[2] == XyzzPoint.identity()
        assert [q for i, q in enumerate(out) if i != 2] == [
            XyzzPoint.from_affine(pt) for pt in pts
        ]

