"""The per-point scatter and bucket-sum loops, as shipped before batching.

:func:`frozen_hierarchical_scatter` walks every shared- and global-memory
access of Algorithm 3 through the simulated GPU one call at a time, and
:func:`frozen_bucket_sum` runs every PACC and tree PADD in XYZZ
coordinates with :func:`frozen_xyzz_add`, the general 14-multiplication
PADD without the multiply-by-one shortcuts.  They are kept for two
consumers only:

* the differential tests pin the live :func:`repro.core.scatter.hierarchical_scatter`,
  :func:`repro.core.bucket_sum.bucket_sum` and :func:`repro.curves.point.xyzz_add`
  against them (same buckets and counters; same group elements; same
  coordinates);
* ``benchmarks/bench_vectorized.py`` times the live paths against them.

:func:`frozen_kernels` swaps the two loops into
:class:`~repro.core.backends.FunctionalBackend` for the length of a block,
so a whole ``DistMsm.execute`` can be timed on the old code.

Do not "fix" or optimise this module — its value is being frozen.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator

import repro.core.backends as backends
from repro.core.bucket_sum import BucketSumOutput
from repro.core.config import DistMsmConfig
from repro.core.scatter import COEFF_BYTES, POINT_ID_BYTES, ScatterOutput
from repro.curves.params import CurveParams
from repro.curves.point import XyzzPoint, affine_neg, pdbl, xyzz_acc
from repro.gpu.counters import EventCounters
from repro.gpu.device import SimulatedGpu
from repro.gpu.trace import Kind, MemoryTrace, Space


def frozen_xyzz_add(p1: XyzzPoint, p2: XyzzPoint, curve: CurveParams) -> XyzzPoint:
    """General PADD in XYZZ coordinates (paper Algorithm 1).

    Handles the identity, doubling (equal inputs) and inverse (P = -Q)
    special cases that the algorithm's happy path assumes away.
    """
    if p1.is_identity:
        return p2
    if p2.is_identity:
        return p1
    p = curve.p
    u1 = p1.x * p2.zz % p
    u2 = p2.x * p1.zz % p
    s1 = p1.y * p2.zzz % p
    s2 = p2.y * p1.zzz % p
    pp_ = (u2 - u1) % p
    r = (s2 - s1) % p
    if pp_ == 0:
        if r == 0:
            return pdbl(p1, curve)
        return XyzzPoint.identity()
    pp = pp_ * pp_ % p
    ppp = pp * pp_ % p
    q = u1 * pp % p
    x3 = (r * r - ppp - 2 * q) % p
    y3 = (r * (q - x3) - s1 * ppp) % p
    zz3 = p1.zz * p2.zz % p * pp % p
    zzz3 = p1.zzz * p2.zzz % p * ppp % p
    return XyzzPoint(x3, y3, zz3, zzz3)


def frozen_hierarchical_scatter(
    gpu: SimulatedGpu,
    digits: list[int],
    num_buckets: int,
    config: DistMsmConfig,
) -> ScatterOutput:
    """Three-level hierarchical scatter (Algorithm 3), block by block.

    Raises :class:`SharedMemoryExceeded` when the per-block counter array
    plus point-id cache cannot fit — the execution-failure regime the paper
    reports for ``s > 14``.
    """
    before = gpu.counters.as_dict()
    gpu.launch()
    threads = config.threads_per_block
    k = config.points_per_thread
    capacity = threads * k

    global_sizes = [0] * num_buckets
    buckets: list[list[int]] = [[] for _ in range(num_buckets)]

    n = len(digits)
    num_blocks = max(1, math.ceil(n / capacity))
    for bid in range(num_blocks):
        block = gpu.new_block(bid, threads)
        # shared allocations: bucket counters + the point-id cache; offsets
        # reuse the counter array (prefix sum in place)
        shm_counts = block.shared.alloc_words(num_buckets, name="bucket_counts")
        shm_cache = block.shared.alloc_words(threads * k, name="point_cache")

        chunk = digits[bid * capacity : (bid + 1) * capacity]
        reg_cache = []
        for local_id, digit in enumerate(chunk):
            reg_cache.append(digit)
            if digit != 0:
                block.shared.atomic_inc(shm_counts, digit, thread=local_id % threads)
        block.syncthreads()
        shm_off = block.parallel_prefix_sum(shm_counts)
        block.syncthreads()

        # threads claim positions by atomically bumping a working copy of
        # the offsets (which reuses the offset array's storage)
        shm_claim = block.shared.alias(list(shm_off), shm_off)
        for local_id, digit in enumerate(reg_cache):
            if digit == 0:
                continue
            t = local_id % threads
            pos = block.shared.atomic_inc(shm_claim, digit, thread=t)
            block.shared.write(shm_cache, pos, local_id, thread=t)
        block.syncthreads()

        for bucket_id in range(num_buckets):
            t = bucket_id % threads
            count = block.shared.read(shm_counts, bucket_id, thread=t)
            if count == 0:
                continue
            base = block.shared.read(shm_off, bucket_id, thread=t)
            start = gpu.global_atomic_add(
                global_sizes, bucket_id, count, "bucket_sizes", bid, t
            )
            for i in range(count):
                local_id = block.shared.read(shm_cache, base + i, thread=t)
                buckets[bucket_id].append(bid * capacity + local_id)
                if gpu.tracer is not None:
                    gpu.tracer.record(
                        Space.GLOBAL,
                        "bucket_points",
                        bucket_id * n + start + i,
                        Kind.WRITE,
                        atomic=False,
                        block=bid,
                        thread=t,
                    )
            gpu.counters.device_bytes += count * POINT_ID_BYTES

    # report the delta accrued on the gpu-level counters during this scatter
    counters = EventCounters()
    after = gpu.counters.as_dict()
    for name in after:
        setattr(counters, name, after[name] - before[name])
    counters.device_bytes += len(digits) * COEFF_BYTES
    return ScatterOutput(buckets, counters)


def frozen_bucket_sum(
    buckets: list,
    points: list,
    curve: CurveParams,
    n_threads: int,
    negate: list | None = None,
    tracer: MemoryTrace | None = None,
    block_id: int = 0,
) -> BucketSumOutput:
    """Sum each bucket's points with ``n_threads`` threads per bucket.

    ``buckets`` holds point-id lists (scatter output); ``negate`` optionally
    flags point ids to accumulate negated (signed-digit support).  With a
    ``tracer`` attached, each bucket group's partial-sum stores and the tree
    reduction's cross-lane reads — with the barrier separating every level —
    are recorded for the ``repro.verify`` race detector.
    """
    if n_threads <= 0:
        raise ValueError("n_threads must be positive")

    def trace(bucket: int, lane: int, slot: int, kind: Kind) -> None:
        if tracer is not None:
            tracer.record(
                Space.SHARED,
                "partials",
                bucket * n_threads + slot,
                kind,
                atomic=False,
                block=block_id,
                thread=bucket * n_threads + lane,
            )

    counters = EventCounters()
    counters.kernel_launches = 1
    sums = []
    for bucket_id, members in enumerate(buckets):
        # deal members round-robin over the bucket's threads
        partials = [XyzzPoint.identity() for _ in range(min(n_threads, max(1, len(members))))]
        for i, point_id in enumerate(members):
            pt = points[point_id]
            if negate and negate[point_id]:
                pt = affine_neg(pt, curve)  # preserves the identity
            lane = i % len(partials)
            partials[lane] = xyzz_acc(partials[lane], pt, curve)
            trace(bucket_id, lane, lane, Kind.WRITE)
            counters.pacc += 1
        # binary tree reduction of the per-thread partials
        while len(partials) > 1:
            if tracer is not None:
                tracer.barrier(block_id)
            half = (len(partials) + 1) // 2
            for i in range(len(partials) - half):
                trace(bucket_id, i, half + i, Kind.READ)
                partials[i] = frozen_xyzz_add(partials[i], partials[half + i], curve)
                trace(bucket_id, i, i, Kind.WRITE)
                counters.padd += 1
            partials = partials[:half]
        sums.append(partials[0] if partials else XyzzPoint.identity())
    return BucketSumOutput(sums, counters)


@contextlib.contextmanager
def frozen_kernels() -> Iterator[None]:
    """Run ``FunctionalBackend``'s scalar path on the frozen loops."""
    saved = backends.hierarchical_scatter, backends.bucket_sum
    backends.hierarchical_scatter = frozen_hierarchical_scatter
    backends.bucket_sum = frozen_bucket_sum
    try:
        yield
    finally:
        backends.hierarchical_scatter, backends.bucket_sum = saved
