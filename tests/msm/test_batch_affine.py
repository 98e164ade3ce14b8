"""Batched-affine accumulation: correctness and inversion economics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.point import AffinePoint, XyzzPoint, affine_neg, to_affine, xyzz_acc
from repro.curves.sampling import msm_instance, sample_points
from repro.msm.batch_affine import (
    BatchAffineStats,
    add_pairs,
    batch_affine_add_pairs,
    batch_normalize,
    batch_inverse,
    bucket_sums_batch_affine,
    msm_batch_affine,
)
from repro.msm.naive import naive_msm

from tests.conftest import TOY_CURVE


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
        results = batch_affine_add_pairs(pairs, TOY_CURVE)
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
        results = batch_affine_add_pairs(pairs, TOY_CURVE)
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
        batch_affine_add_pairs(
            [(pts[0], pts[1]), (pts[2], pts[2])], TOY_CURVE, stats
        )
        assert stats.additions == 1
        assert stats.doublings == 1
        assert stats.inversions == 1


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
        pts = sample_points(TOY_CURVE, 6, seed=13)
        tuples = [(pt.x, pt.y) for pt in pts]
        stats = BatchAffineStats()
        out = add_pairs(tuples[:3], tuples[3:], TOY_CURVE.p, TOY_CURVE.a, stats)
        wrapped = batch_affine_add_pairs(list(zip(pts[:3], pts[3:])), TOY_CURVE)
        assert [AffinePoint(*pt) for pt in out] == wrapped
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


class TestBucketSums:
    def test_matches_serial_accumulation(self):
        pts = sample_points(TOY_CURVE, 16, seed=7)
        buckets = [pts[:5], [], pts[5:6], pts[6:16]]
        got = bucket_sums_batch_affine(buckets, TOY_CURVE)
        for members, result in zip(buckets, got):
            acc = XyzzPoint.identity()
            for pt in members:
                acc = xyzz_acc(acc, pt, TOY_CURVE)
            assert result == to_affine(acc, TOY_CURVE)

    def test_one_inversion_per_round(self):
        pts = sample_points(TOY_CURVE, 16, seed=8)
        stats = BatchAffineStats()
        bucket_sums_batch_affine([pts], TOY_CURVE, stats)
        # 16 points halve in 4 rounds -> 4 shared inversions
        assert stats.rounds == 4
        assert stats.inversions <= stats.rounds

    def test_duplicate_points_force_doubling_path(self):
        pts = sample_points(TOY_CURVE, 1, seed=9) * 8
        got = bucket_sums_batch_affine([pts], TOY_CURVE)
        from repro.curves.point import pmul

        assert got[0] == pmul(pts[0], 8, TOY_CURVE)


class TestMsmBatchAffine:
    def test_matches_naive(self):
        scalars, points = msm_instance(TOY_CURVE, 40, seed=10)
        expected = naive_msm(scalars, points, TOY_CURVE)
        assert msm_batch_affine(scalars, points, TOY_CURVE, 3) == expected

    def test_empty(self):
        assert msm_batch_affine([], [], TOY_CURVE).infinity

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            msm_batch_affine([1], [], TOY_CURVE)

    def test_amortisation_wins(self):
        """The whole point: far fewer inversions than additions."""
        scalars, points = msm_instance(TOY_CURVE, 64, seed=11)
        stats = BatchAffineStats()
        msm_batch_affine(scalars, points, TOY_CURVE, 3, stats)
        total_adds = stats.additions + stats.doublings
        assert total_adds > 0
        assert stats.inversions < total_adds / 3
