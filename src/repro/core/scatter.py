"""Bucket scatter: naive and hierarchical (paper §3.2.1, Algorithm 3).

Both strategies are implemented twice, sharing one cost vocabulary:

* *functionally* — executed block by block against the simulated GPU's
  shared memory, producing the actual bucket contents plus measured event
  counts; used for correctness tests and small inputs;
* *analytically* — closed-form expected event counts for paper-scale inputs;
  property tests check the two agree.

The hierarchical scheme stages scatters in shared memory so each non-empty
local bucket commits to global memory with a single atomic, cutting global
atomics by roughly the per-block point capacity over the bucket count
(the paper's 1/64 example: 64K points per block, 1024 buckets).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.config import DistMsmConfig
from repro.gpu.atomics import scatter_atomic_time_ms
from repro.gpu.counters import EventCounters
from repro.gpu.device import SharedMemoryExceeded, SimulatedGpu
from repro.gpu.specs import GpuSpec
from repro.gpu.trace import Kind, MemoryTrace, Space
from repro.gpu.timing import launch_overhead_ms, memory_read_time_ms

#: bytes read per point per window (the window's scalar segment, coalesced)
COEFF_BYTES = 8
#: bytes written per scattered point id
POINT_ID_BYTES = 4


@dataclass
class ScatterOutput:
    """Functional scatter result: bucket membership plus measured events."""

    buckets: list  # bucket id -> list of point ids
    counters: EventCounters


def naive_scatter(
    gpu: SimulatedGpu,
    digits: list[int],
    num_buckets: int,
    threads_per_block: int = 1024,
    use_atomics: bool = True,
) -> ScatterOutput:
    """One global atomic per non-zero coefficient (the baseline scheme).

    One thread per point.  ``use_atomics=False`` replaces the bucket-counter
    atomic with a plain read-modify-write — a deliberate data race that
    exists only so the ``repro.verify`` race detector has a known-broken
    configuration to catch; the engine never runs it.
    """
    counters = EventCounters()
    gpu.launch()
    counters.kernel_launches += 1
    n = len(digits)
    bucket_sizes = [0] * num_buckets
    buckets: list[list[int]] = [[] for _ in range(num_buckets)]
    bump = gpu.global_atomic_add if use_atomics else gpu.global_unsynced_add
    for point_id, digit in enumerate(digits):
        if digit == 0:
            continue
        blk, thread = divmod(point_id, threads_per_block)
        slot = bump(bucket_sizes, digit, 1, "bucket_sizes", blk, thread)
        buckets[digit].append(point_id)
        if gpu.tracer is not None:
            # the reserved slot of the bucket's point-id segment
            gpu.tracer.record(
                Space.GLOBAL,
                "bucket_points",
                digit * n + slot,
                Kind.WRITE,
                atomic=False,
                block=blk,
                thread=thread,
            )
        counters.global_atomics += 1 if use_atomics else 0
        counters.device_bytes += POINT_ID_BYTES
        assert slot == len(buckets[digit]) - 1
    counters.device_bytes += len(digits) * COEFF_BYTES
    return ScatterOutput(buckets, counters)


def hierarchical_scatter(
    gpu: SimulatedGpu,
    digits: list[int],
    num_buckets: int,
    config: DistMsmConfig,
) -> ScatterOutput:
    """Three-level hierarchical scatter (Algorithm 3), block by block.

    Each block of ``threads_per_block * points_per_thread`` points counts
    its digits into shared-memory bucket counters (one shared atomic per
    point), prefix-sums them into offsets, claims a point-cache slot per
    point (a second shared atomic) and commits every non-empty local bucket
    to global memory with one global atomic.  Bucket members come out in
    ascending point-id order.  Membership and the event counts are computed
    in bulk per block; with a tracer attached, every access and barrier of
    the kernel is then recorded in kernel order for the ``repro.verify``
    race detector.

    Raises :class:`SharedMemoryExceeded` when the per-block counter array
    plus point-id cache cannot fit — the execution-failure regime the paper
    reports for ``s > 14``.
    """
    gpu.launch()
    threads = config.threads_per_block
    capacity = threads * config.points_per_thread

    n = len(digits)
    num_blocks = max(1, math.ceil(n / capacity))
    counters = EventCounters(prefix_sums=num_blocks, block_syncs=3 * num_blocks)
    for bid in range(num_blocks):
        # shared allocations: bucket counters + the point-id cache; offsets
        # reuse the counter array (prefix sum in place)
        block = gpu.new_block(bid, threads)
        block.shared.alloc_words(num_buckets, name="bucket_counts")
        block.shared.alloc_words(capacity, name="point_cache")
        chunk = digits[bid * capacity : (bid + 1) * capacity]
        nonzero = len(chunk) - chunk.count(0)
        counters.shared_atomics += 2 * nonzero  # count + position
        counters.global_atomics += len(set(chunk) - {0})  # one per local bucket
        counters.device_bytes += nonzero * POINT_ID_BYTES
    gpu.counters.merge(counters)
    counters.kernel_launches = 1

    buckets: list[list[int]] = [[] for _ in range(num_buckets)]
    for point_id, digit in enumerate(digits):
        if digit:
            buckets[digit].append(point_id)

    if gpu.tracer is not None:
        _trace_hierarchical_scatter(gpu.tracer, digits, num_buckets, threads, capacity)
    counters.device_bytes += n * COEFF_BYTES
    return ScatterOutput(buckets, counters)


def _trace_hierarchical_scatter(
    tracer: MemoryTrace,
    digits: list[int],
    num_buckets: int,
    threads: int,
    capacity: int,
) -> None:
    """Record Algorithm 3's memory accesses and barriers in kernel order.

    Shared regions follow the allocation order: ``bucket_counts`` (whose
    storage the offsets and claim cursors reuse) at word 0, then
    ``point_cache`` at word ``num_buckets``.
    """
    n = len(digits)
    global_sizes = [0] * num_buckets

    def shared(bid: int, region: str, address: int, kind: Kind, thread: int) -> None:
        tracer.record(
            Space.SHARED, region, address, kind,
            atomic=kind is Kind.RMW, block=bid, thread=thread,
        )

    for bid in range(max(1, math.ceil(n / capacity))):
        chunk = digits[bid * capacity : (bid + 1) * capacity]
        counts = [0] * num_buckets
        for local_id, digit in enumerate(chunk):
            if digit:
                shared(bid, "bucket_counts", digit, Kind.RMW, local_id % threads)
                counts[digit] += 1
        tracer.barrier(bid)  # counts complete; the prefix sum runs
        tracer.barrier(bid)  # offsets complete
        offsets = list(itertools.accumulate(counts, initial=0))
        claim = list(offsets)
        for local_id, digit in enumerate(chunk):
            if digit:
                t = local_id % threads
                shared(bid, "bucket_counts", digit, Kind.RMW, t)
                shared(bid, "point_cache", num_buckets + claim[digit], Kind.WRITE, t)
                claim[digit] += 1
        tracer.barrier(bid)
        for bucket_id, count in enumerate(counts):
            t = bucket_id % threads
            shared(bid, "bucket_counts", bucket_id, Kind.READ, t)
            if count == 0:
                continue
            shared(bid, "bucket_counts", bucket_id, Kind.READ, t)
            tracer.record(
                Space.GLOBAL, "bucket_sizes", bucket_id, Kind.RMW,
                atomic=True, block=bid, thread=t,
            )
            start = global_sizes[bucket_id]
            global_sizes[bucket_id] += count
            for i in range(count):
                shared(bid, "point_cache", num_buckets + offsets[bucket_id] + i, Kind.READ, t)
                tracer.record(
                    Space.GLOBAL, "bucket_points", bucket_id * n + start + i,
                    Kind.WRITE, atomic=False, block=bid, thread=t,
                )


# -- analytic counterparts ----------------------------------------------------


def expected_nonempty_buckets(points: int, num_buckets: int) -> float:
    """E[#non-empty buckets] with uniform digits (balls in bins)."""
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    if points <= 0:
        return 0.0
    return num_buckets * (1.0 - (1.0 - 1.0 / num_buckets) ** points)


def naive_scatter_counts(n_points: int, num_buckets: int) -> EventCounters:
    """Expected event counts of the naive scatter for one window."""
    counters = EventCounters()
    nonzero = n_points * (num_buckets - 1) / num_buckets
    counters.global_atomics = int(round(nonzero))
    counters.device_bytes = int(round(nonzero * POINT_ID_BYTES + n_points * COEFF_BYTES))
    counters.kernel_launches = 1
    return counters


def hierarchical_scatter_counts(
    n_points: int,
    num_buckets: int,
    config: DistMsmConfig,
) -> EventCounters:
    """Expected event counts of the hierarchical scatter for one window."""
    check_shared_memory_fit(num_buckets, config)
    counters = EventCounters()
    capacity = config.threads_per_block * config.points_per_thread
    blocks = max(1, math.ceil(n_points / capacity))
    nonzero = n_points * (num_buckets - 1) / num_buckets
    per_block_points = min(n_points, capacity) * (num_buckets - 1) / num_buckets
    counters.shared_atomics = int(round(2 * nonzero))  # count + position
    counters.global_atomics = int(
        round(blocks * expected_nonempty_buckets(per_block_points, num_buckets))
    )
    counters.prefix_sums = blocks
    counters.block_syncs = 3 * blocks
    counters.device_bytes = int(round(nonzero * POINT_ID_BYTES + n_points * COEFF_BYTES))
    counters.kernel_launches = 1
    return counters


def check_shared_memory_fit(
    num_buckets: int,
    config: DistMsmConfig,
    shm_capacity_bytes: int = 128 * 1024,
) -> None:
    """Raise when the hierarchical scheme cannot fit in shared memory."""
    needed = 4 * (num_buckets + config.threads_per_block * config.points_per_thread)
    if needed > shm_capacity_bytes:
        raise SharedMemoryExceeded(
            f"hierarchical scatter needs {needed} B of shared memory "
            f"({num_buckets} counters + point cache), capacity {shm_capacity_bytes} B"
        )


def scatter_time_ms(
    spec: GpuSpec,
    counts: EventCounters,
    num_buckets: int,
    active_threads: int,
    threads_per_block: int = 1024,
) -> float:
    """Wall time of one GPU's scatter work from its event counts."""
    atomic_ms = scatter_atomic_time_ms(
        spec,
        counts.global_atomics,
        counts.shared_atomics,
        active_threads,
        num_buckets,
        threads_per_block,
    )
    traffic_ms = memory_read_time_ms(counts.device_bytes, spec)
    launch_ms = launch_overhead_ms(counts.kernel_launches, spec)
    # prefix sums: each scans num_buckets words across the block
    prefix_ms = memory_read_time_ms(counts.prefix_sums * num_buckets * 4, spec)
    return atomic_ms + traffic_ms + launch_ms + prefix_ms
