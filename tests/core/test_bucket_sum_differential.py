"""Differential tier for the scatter and bucket-sum kernels.

* ``bucket_sum`` against per-bucket :func:`naive_msm` sums: the same group
  elements, in canonical form, on buckets full of edge cases (duplicate and
  negated points in one bucket, identity points, empty buckets, negation
  flags, lane counts that are not powers of two, more members than lanes);
* ``bucket_sum`` and ``hierarchical_scatter`` against the frozen per-point
  loops they replaced (``tests.support.frozen_msm``): the same counters and
  the same memory trace, record for record;
* ``hierarchical_scatter`` traced against untraced: identical buckets,
  counters and ``SharedMemoryExceeded``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bucket_sum import bucket_sum
from repro.core.config import DistMsmConfig
from repro.core.scatter import hierarchical_scatter
from repro.curves.point import AffinePoint, XyzzPoint, affine_neg, to_affine
from repro.curves.sampling import sample_points
from repro.gpu.device import SharedMemoryExceeded, SimulatedGpu
from repro.gpu.specs import NVIDIA_A100
from repro.gpu.trace import MemoryTrace
from repro.msm.naive import naive_msm
from tests.conftest import TOY_CURVE
from tests.support.frozen_msm import frozen_bucket_sum, frozen_hierarchical_scatter

_BASE = sample_points(TOY_CURVE, 6, seed=21)
#: P_0..P_5, then -P_0..-P_5, then the identity: buckets drawing from this
#: pool get duplicates, inverse pairs and identity members
POOL = _BASE + [affine_neg(pt, TOY_CURVE) for pt in _BASE] + [AffinePoint.identity()]

bucket_lists = st.lists(
    st.lists(st.integers(0, len(POOL) - 1), max_size=11), min_size=1, max_size=6
)
negate_flags = st.one_of(
    st.none(), st.lists(st.booleans(), min_size=len(POOL), max_size=len(POOL))
)
lane_counts = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 32])


def _naive_sum(members, negate) -> AffinePoint:
    pts = [
        affine_neg(POOL[pid], TOY_CURVE) if negate and negate[pid] else POOL[pid]
        for pid in members
    ]
    return naive_msm([1] * len(pts), pts, TOY_CURVE)


def _dump(trace: MemoryTrace) -> tuple[list, list]:
    return list(trace.events), list(trace.barriers)


class TestBucketSumDifferential:
    @given(bucket_lists, negate_flags, lane_counts)
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_sums_in_canonical_form(self, buckets, negate, n_threads):
        out = bucket_sum(buckets, POOL, TOY_CURVE, n_threads, negate)
        assert len(out.sums) == len(buckets)
        for members, got in zip(buckets, out.sums):
            assert got == XyzzPoint.from_affine(_naive_sum(members, negate))

    @given(bucket_lists, negate_flags, lane_counts, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_counters_and_trace_match_frozen_loops(
        self, buckets, negate, n_threads, block_id
    ):
        live_trace, frozen_trace = MemoryTrace(), MemoryTrace()
        live = bucket_sum(
            buckets, POOL, TOY_CURVE, n_threads, negate, live_trace, block_id
        )
        frozen = frozen_bucket_sum(
            buckets, POOL, TOY_CURVE, n_threads, negate, frozen_trace, block_id
        )
        assert live.counters == frozen.counters
        assert _dump(live_trace) == _dump(frozen_trace)
        for got, want in zip(live.sums, frozen.sums):
            assert to_affine(got, TOY_CURVE) == to_affine(want, TOY_CURVE)

    def test_untraced_sums_equal_traced(self):
        buckets = [[0, 6, 0, 12, 1, 2, 3, 4, 5, 7], [], [12], [3, 9]]
        plain = bucket_sum(buckets, POOL, TOY_CURVE, 3)
        traced = bucket_sum(buckets, POOL, TOY_CURVE, 3, tracer=MemoryTrace())
        assert plain.sums == traced.sums
        assert plain.counters == traced.counters

    def test_multi_round_pacc_counts(self):
        """Eleven members on three lanes: four PACC rounds, two tree PADDs."""
        members = list(range(11))
        out = bucket_sum([members], POOL, TOY_CURVE, 3)
        assert out.counters.pacc == 11
        assert out.counters.padd == 2
        assert out.sums[0] == XyzzPoint.from_affine(_naive_sum(members, None))


SCATTER_CONFIGS = [
    DistMsmConfig(threads_per_block=32, points_per_thread=1),
    DistMsmConfig(threads_per_block=32, points_per_thread=3),
    DistMsmConfig(threads_per_block=64, points_per_thread=2),
]


def _scatter(digits, num_buckets, config, traced, kernel=hierarchical_scatter):
    trace = MemoryTrace() if traced else None
    gpu = SimulatedGpu(NVIDIA_A100, tracer=trace)
    out = kernel(gpu, digits, num_buckets, config)
    return out, gpu.counters, trace


class TestScatterDifferential:
    @given(
        st.integers(1, 5).flatmap(
            lambda log_b: st.tuples(
                st.just(1 << log_b),
                st.lists(st.integers(0, (1 << log_b) - 1), max_size=300),
            )
        ),
        st.sampled_from(SCATTER_CONFIGS),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_frozen_loop_traced_and_untraced(self, instance, config):
        num_buckets, digits = instance
        frozen, frozen_gpu, frozen_trace = _scatter(
            digits, num_buckets, config, True, frozen_hierarchical_scatter
        )
        for traced in (False, True):
            live, live_gpu, live_trace = _scatter(digits, num_buckets, config, traced)
            assert live.buckets == frozen.buckets
            assert live.counters == frozen.counters
            assert live_gpu == frozen_gpu
        assert _dump(live_trace) == _dump(frozen_trace)

    @pytest.mark.parametrize(
        "num_buckets,config",
        [(1 << 15, DistMsmConfig()), (1 << 14, DistMsmConfig(points_per_thread=32))],
        ids=["counters-overflow", "cache-overflow"],
    )
    def test_shared_memory_wall_identical(self, num_buckets, config):
        """Traced or not, live or frozen, the scatter fails with the same
        error, after the same counted launch, having recorded nothing."""
        outcomes = set()
        for kernel in (hierarchical_scatter, frozen_hierarchical_scatter):
            for traced in (False, True):
                trace = MemoryTrace() if traced else None
                gpu = SimulatedGpu(NVIDIA_A100, tracer=trace)
                with pytest.raises(SharedMemoryExceeded) as err:
                    kernel(gpu, [2, 0, 3] * 20, num_buckets, config)
                assert trace is None or not (trace.events or trace.barriers)
                outcomes.add((str(err.value), tuple(gpu.counters.as_dict().items())))
        assert len(outcomes) == 1
        (_, counters), = outcomes
        assert dict(counters)["kernel_launches"] == 1
