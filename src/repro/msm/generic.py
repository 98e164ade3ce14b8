"""Pippenger over any abelian group, given its operations (paper §2.3).

The bucket method only needs addition, negation and an identity — nothing
curve-specific.  This module holds the one host-side form of it, which
every serial MSM in the repository runs:

* G1 (:func:`repro.msm.pippenger.pippenger_msm`) over XYZZ points,
  :func:`xyzz_group`;
* G2 (:meth:`repro.zksnark.g2.G2Curve.msm`) over Jacobian points on the
  twist, the B-query of every Groth16 proof;
* the DistMSM host reduces (:mod:`repro.core.bucket_reduce`) and the
  outsourced-chunk value (:func:`repro.msm.outsource.chunk_value`), which
  call :func:`bucket_reduce` and :func:`window_fold` directly.

Digits are always signed (:func:`~repro.curves.scalar.signed_windows`):
it halves the buckets for the cost of one negation, which every group
here has for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.curves.params import CurveParams
from repro.curves.point import XyzzPoint, xyzz_add, xyzz_neg
from repro.curves.scalar import num_windows, signed_windows


@dataclass(frozen=True)
class GroupOps:
    """The group interface the generic Pippenger needs."""

    add: Callable  # add(a, b) -> element
    neg: Callable  # neg(a) -> element
    identity: object

    def double(self, a):
        return self.add(a, a)


def xyzz_group(curve: CurveParams) -> GroupOps:
    """``curve``'s G1 in XYZZ coordinates.

    ``xyzz_add`` of two equal operands is ``pdbl`` of one, coordinate for
    coordinate, so :meth:`GroupOps.double` gives PDBL's result.
    """
    return GroupOps(
        add=lambda a, b: xyzz_add(a, b, curve),
        neg=lambda a: xyzz_neg(a, curve),
        identity=XyzzPoint.identity(),
    )


def bucket_reduce(buckets: list, ops: GroupOps):
    """``sum(i * B_i)`` with the running suffix-sum trick.

    ``running`` accumulates ``B_max + ... + B_i`` while ``total``
    accumulates the weighted sum: 2 additions per bucket, no scalar
    multiplication.  Index 0 is skipped (its weight is zero).
    """
    running = total = ops.identity
    for b in range(len(buckets) - 1, 0, -1):
        running = ops.add(running, buckets[b])
        total = ops.add(total, running)
    return total


def window_fold(window_results: list, window_size: int, ops: GroupOps):
    """Fold per-window results most-significant first: ``s`` doublings and
    one addition per window."""
    acc = ops.identity
    for result in reversed(window_results):
        for _ in range(window_size):
            acc = ops.double(acc)
        acc = ops.add(acc, result)
    return acc


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
    group element for every window size.  A scalar wider than
    ``scalar_bits`` raises :class:`ValueError`.
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
    num_buckets = (1 << (s - 1)) + 1

    window_results = []
    for w in range(n_win + 1):  # + 1: the carry window
        buckets = [ops.identity] * num_buckets
        for digits, pt in zip(digit_rows, points):
            d = digits[w]
            if d > 0:
                buckets[d] = ops.add(buckets[d], pt)
            elif d < 0:
                buckets[-d] = ops.add(buckets[-d], ops.neg(pt))
        window_results.append(bucket_reduce(buckets, ops))
    return window_fold(window_results, s, ops)


def msm_window(n: int, scalar_bits: int) -> int:
    """The window minimising the signed-digit add count ``ceil(λ/s) * (N + 2^(s-1))``.

    Every window from 2 to λ is a candidate (a window wider than λ only
    adds buckets).  Ties go to the smaller window, which has fewer buckets.
    """
    return min(
        range(2, max(2, scalar_bits) + 1),
        key=lambda s: (num_windows(scalar_bits, s) * (n + (1 << (s - 1))), s),
    )
