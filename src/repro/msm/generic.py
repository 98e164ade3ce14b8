"""Pippenger over any abelian group, given its operations.

The bucket method only needs addition, negation and an identity — nothing
curve-specific.  This generic form serves groups our specialised engines do
not cover, most importantly **G2** (points over Fp2), whose multi-scalar
multiplication appears in every Groth16 proof's B-query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.curves.scalar import num_windows, signed_windows


@dataclass(frozen=True)
class GroupOps:
    """The group interface the generic Pippenger needs."""

    add: Callable  # add(a, b) -> element
    neg: Callable  # neg(a) -> element
    identity: object

    def double(self, a):
        return self.add(a, a)


def pippenger_generic(
    scalars: list[int],
    points: list,
    ops: GroupOps,
    scalar_bits: int,
    window_size: int | None = None,
) -> object:
    """Signed-window Pippenger over an arbitrary group.

    Roughly ``windows * (N + 2^(s-1))`` group additions; for 253-bit G2
    scalars at s=8 that's ~40x cheaper than per-term double-and-add.
    ``window_size=None`` picks :func:`msm_window` for ``len(points)``.  The
    window changes only how many additions run: the result is the same
    group element for every window size.
    """
    if len(scalars) != len(points):
        raise ValueError(
            f"length mismatch: {len(scalars)} scalars, {len(points)} points"
        )
    if not scalars:
        return ops.identity
    s = msm_window(len(points), scalar_bits) if window_size is None else window_size
    if s < 2:
        raise ValueError("window size must be >= 2 for signed digits")
    n_win = num_windows(scalar_bits, s)
    digit_rows = [signed_windows(k, s, n_win) for k in scalars]
    total_windows = n_win + 1
    num_buckets = (1 << (s - 1)) + 1

    window_results = []
    for w in range(total_windows):
        buckets = [ops.identity] * num_buckets
        for digits, pt in zip(digit_rows, points):
            d = digits[w]
            if d > 0:
                buckets[d] = ops.add(buckets[d], pt)
            elif d < 0:
                buckets[-d] = ops.add(buckets[-d], ops.neg(pt))
        running = ops.identity
        total = ops.identity
        for b in range(num_buckets - 1, 0, -1):
            running = ops.add(running, buckets[b])
            total = ops.add(total, running)
        window_results.append(total)

    acc = ops.identity
    for result in reversed(window_results):
        for _ in range(s):
            acc = ops.double(acc)
        acc = ops.add(acc, result)
    return acc


def msm_window(n: int, scalar_bits: int) -> int:
    """The window minimising the signed-digit add count ``ceil(λ/s) * (N + 2^(s-1))``.

    Ties go to the smaller window, which has fewer buckets.
    """
    return min(
        range(2, 17),
        key=lambda s: (num_windows(scalar_bits, s) * (n + (1 << (s - 1))), s),
    )


def g2_msm(scalars: list[int], points: list):
    """Multi-scalar multiplication in BN254 G2 (Groth16's B-query)."""
    from repro.zksnark.backend import backend_by_name

    return backend_by_name("BN254").g2_msm(scalars, points)
