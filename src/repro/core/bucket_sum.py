"""Highly parallel bucket-sum (paper §3.2.2).

Each bucket gets ``N_thread`` threads (a warp multiple): members are dealt
round-robin to the threads, each accumulates its share with PACC, and the
partial sums merge in a binary reduction tree (``log2(N_thread)`` PADDs per
thread in SIMD terms, ``N_thread - 1`` PADDs in total).  The functional
implementation executes this structure faithfully — including the tree — so
its results and its operation counts are both real.

Two clocks: the modelled kernel, and the counters that drive its cost, are
XYZZ PACC/PADD as in the paper; the host computes the same lanes, rounds
and tree levels in batched affine coordinates (one shared inversion per
round or level: about 6 modular multiplications per addition instead of
10-14).  The contract is the same group elements, in canonical form, with
the same counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import XyzzPoint
from repro.gpu.counters import EventCounters
from repro.gpu.trace import Kind, MemoryTrace, Space
from repro.msm.batch_affine import add_pairs


@dataclass
class BucketSumOutput:
    """Functional bucket-sum result: one XYZZ partial per bucket."""

    sums: list  # bucket id -> XyzzPoint
    counters: EventCounters


def threads_per_bucket(
    num_buckets: int,
    concurrent_threads: int,
    minimum: int = 32,
    warp: int = 32,
) -> int:
    """Threads allocated to each bucket to keep the GPU saturated.

    When ``2^s < N_T`` the paper assigns ``N_T / 2^s`` threads per bucket,
    rounded to warp granularity, never below ``minimum``.
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    raw = max(minimum, concurrent_threads // num_buckets)
    return max(warp, (raw // warp) * warp)


def bucket_sum(
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
    flags point ids to accumulate negated (signed-digit support).  A bucket
    with ``L`` members runs ``T = min(n_threads, max(1, L))`` lanes: member
    ``i`` PACCs into lane ``i % T``, then lane ``i`` absorbs lane
    ``half + i`` at each level of the ``half = ceil(T/2)`` tree.  The
    ``pacc``/``padd`` counters charge exactly those operations.

    The host evaluates them in batched affine coordinates: each PACC round
    and each tree level, across every bucket of the call, is one
    :func:`~repro.msm.batch_affine.add_pairs` batch with one shared
    inversion.  Every sum is the same group element the XYZZ kernel
    computes, returned in canonical form — ``(x, y, 1, 1)`` or the
    identity.  With a ``tracer`` attached, each bucket group's partial-sum
    stores and the tree reduction's cross-lane reads — with the barrier
    separating every level — are recorded for the ``repro.verify`` race
    detector.
    """
    if n_threads <= 0:
        raise ValueError("n_threads must be positive")
    p = curve.p

    # lane j of bucket b is lanes[starts[b] + j]: an (x, y) tuple or None
    lanes: list = []
    starts = []
    widths = []
    members_total = 0
    for members in buckets:
        width = min(n_threads, max(1, len(members)))
        starts.append(len(lanes))
        widths.append(width)
        members_total += len(members)
        if not members:
            lanes.append(None)
            continue
        # round 0: every lane's first PACC starts from the identity
        for point_id in members[:width]:
            lanes.append(_load(points, point_id, negate, p))

    # PACC rounds 1, 2, ...: lane j absorbs member r * width + j
    deep = [b for b, members in enumerate(buckets) if len(members) > widths[b]]
    r = 1
    while deep:
        targets: list = []
        rhs: list = []
        for b in deep:
            members = buckets[b]
            lo = r * widths[b]
            chunk = members[lo : lo + widths[b]]
            targets.extend(range(starts[b], starts[b] + len(chunk)))
            rhs.extend(_load(points, point_id, negate, p) for point_id in chunk)
        lhs = [lanes[t] for t in targets]
        for t, pt in zip(targets, add_pairs(lhs, rhs, p, curve.a)):
            lanes[t] = pt
        r += 1
        deep = [b for b in deep if len(buckets[b]) > r * widths[b]]

    # binary tree: lane i absorbs lane half + i, one batch per level
    level = [(starts[b], widths[b]) for b in range(len(buckets)) if widths[b] > 1]
    while level:
        lhs = []
        rhs = []
        for start, width in level:
            half = (width + 1) // 2
            lhs.extend(lanes[start : start + width - half])
            rhs.extend(lanes[start + half : start + width])
        summed = add_pairs(lhs, rhs, p, curve.a)
        k = 0
        for start, width in level:
            n = width - (width + 1) // 2
            lanes[start : start + n] = summed[k : k + n]
            k += n
        level = [(start, (width + 1) // 2) for start, width in level if width > 2]

    counters = EventCounters()
    counters.kernel_launches = 1
    counters.pacc = members_total
    counters.padd = sum(widths) - len(widths)
    sums = [
        XyzzPoint.identity() if lanes[start] is None else XyzzPoint(*lanes[start], 1, 1)
        for start in starts
    ]
    if tracer is not None:
        _trace_bucket_sum(tracer, buckets, n_threads, block_id)
    return BucketSumOutput(sums, counters)


def _load(points: list, point_id: int, negate: list | None, p: int):
    """One member as an ``(x, y)`` tuple (negated when flagged), or None."""
    pt = points[point_id]
    if pt.infinity:
        return None
    if negate and negate[point_id]:
        return (pt.x % p, -pt.y % p)
    return (pt.x % p, pt.y % p)


def _trace_bucket_sum(
    tracer: MemoryTrace, buckets: list, n_threads: int, block_id: int
) -> None:
    """Record the kernel's shared-memory accesses, bucket by bucket."""

    def trace(bucket: int, lane: int, slot: int, kind: Kind) -> None:
        tracer.record(
            Space.SHARED,
            "partials",
            bucket * n_threads + slot,
            kind,
            atomic=False,
            block=block_id,
            thread=bucket * n_threads + lane,
        )

    for bucket_id, members in enumerate(buckets):
        width = min(n_threads, max(1, len(members)))
        for i in range(len(members)):
            trace(bucket_id, i % width, i % width, Kind.WRITE)
        while width > 1:
            tracer.barrier(block_id)
            half = (width + 1) // 2
            for i in range(width - half):
                trace(bucket_id, i, half + i, Kind.READ)
                trace(bucket_id, i, i, Kind.WRITE)
            width = half


# -- analytic counterpart -----------------------------------------------------


def bucket_sum_counts(
    n_points: int,
    num_buckets: int,
    n_threads: int,
) -> EventCounters:
    """Expected bucket-sum event counts for one window (or window slice).

    PACC per non-zero digit; ``n_threads - 1`` tree PADDs per active bucket.
    """
    counters = EventCounters()
    nonzero = n_points * (num_buckets - 1) / max(1, num_buckets)
    active = expected_active_buckets(n_points, num_buckets)
    counters.pacc = int(round(nonzero))
    counters.padd = int(round(active * (min(n_threads, max(1.0, nonzero / max(active, 1e-9))) - 1)))
    counters.kernel_launches = 1
    return counters


def expected_active_buckets(n_points: int, num_buckets: int) -> float:
    """Expected buckets with at least one member (excludes bucket 0)."""
    if num_buckets <= 1:
        return 0.0
    usable = num_buckets - 1
    if n_points <= 0:
        return 0.0
    return usable * (1.0 - (1.0 - 1.0 / num_buckets) ** n_points)


def per_thread_pacc(n_points: int, num_buckets: int, n_threads: int) -> float:
    """PACC chain length per thread — the §3.1 latency driver."""
    nonzero = n_points * (num_buckets - 1) / max(1, num_buckets)
    return nonzero / max(1, (num_buckets - 1) * n_threads) + math.log2(max(2, n_threads))


def intra_bucket_overhead(n_points: int, num_buckets: int, n_threads: int) -> float:
    """Fractional PADD overhead of the tree reduction.

    Every one of the ``num_buckets * n_threads`` participating threads pays
    ``log2(n_threads)`` reduction PADDs on top of the ``n_points`` PACCs —
    the paper's 0.49% example (N_thread=32, N=2^26, 2^11 buckets).
    """
    if n_points <= 0:
        return 0.0
    total_threads = num_buckets * n_threads
    return (total_threads * math.log2(max(2, n_threads))) / n_points
