"""Batched-affine bucket accumulation — the ZPrize winners' trick (§6).

Affine point addition needs a modular inversion, which is normally fatal on
a GPU; but when *many independent* additions are performed at once, all the
inversions collapse into a single one via Montgomery's batch-inversion
trick (3 multiplications per element plus one shared inversion).  An
amortised affine addition then costs ~6 multiplications — cheaper than
XYZZ's 10-14 — which is why ZPrize-grade implementations (Yrrid, sppark)
accumulate buckets in rounds of pairwise batched affine additions.

:func:`add_pairs` is the one pairwise adder (all edge cases: identity
operands, doubling, inverse pairs).  It works on plain ``(x, y)`` tuples,
``None`` for the identity, because the simulated bucket-sum
(:func:`repro.core.bucket_sum.bucket_sum`) runs every PACC round and tree
level through it.  The :class:`AffinePoint` wrappers and the MSM below give
the repository an executable reference for the baselines' arithmetic style.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint, XyzzPoint, to_affine
from repro.curves.scalar import num_windows, unsigned_windows
from repro.msm.pippenger import PippengerStats, bucket_reduce, window_reduce


@dataclass
class BatchAffineStats:
    """Operation tallies for the batched-affine path."""

    additions: int = 0
    doublings: int = 0
    inversions: int = 0
    rounds: int = 0
    field_muls: int = 0


def batch_inverse(values: list[int], p: int, stats: BatchAffineStats | None = None) -> list[int]:
    """Invert many field elements with one modular inversion.

    Zeros are passed through as zeros (callers handle those cases
    separately).
    """
    nonzero = [(i, v % p) for i, v in enumerate(values) if v % p]
    out = [0] * len(values)
    if not nonzero:
        return out
    prefix = [1]
    for _, v in nonzero:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    if stats is not None:
        stats.inversions += 1
        stats.field_muls += 3 * len(nonzero)
    for idx in range(len(nonzero) - 1, -1, -1):
        i, v = nonzero[idx]
        out[i] = inv * prefix[idx] % p
        inv = inv * v % p
    return out


def add_pairs(
    lhs: list,
    rhs: list,
    p: int,
    a: int,
    stats: BatchAffineStats | None = None,
) -> list:
    """``lhs[i] + rhs[i]`` for every ``i``, sharing one modular inversion.

    Points are ``(x, y)`` tuples with coordinates in ``[0, p)``, or ``None``
    for the identity.  Identity operands and inverse pairs (``P = -Q``)
    resolve without joining the inversion; doubling (``P = Q``) joins it
    with the tangent slope.  Results use the same encoding.
    """
    out = [None] * len(lhs)
    todo = []  # indices that need the shared inversion
    nums = []  # slope numerators
    dens = []  # slope denominators
    prefix = []  # product of the denominators before each one
    acc = 1
    doublings = 0
    for i, (left, right) in enumerate(zip(lhs, rhs)):
        if left is None:
            out[i] = right
            continue
        if right is None:
            out[i] = left
            continue
        x1, y1 = left
        x2, y2 = right
        if x1 == x2:
            if y1 != y2 or not y1:
                continue  # P = -Q, or doubling a 2-torsion point: identity
            nums.append(3 * x1 * x1 + a)
            den = 2 * y1
            doublings += 1
        else:
            nums.append(y2 - y1)
            den = x2 - x1
        todo.append(i)
        dens.append(den)
        prefix.append(acc)
        acc = acc * den % p
    if not todo:
        return out
    inv = pow(acc, -1, p)
    for k in range(len(todo) - 1, -1, -1):
        i = todo[k]
        lam = nums[k] * inv * prefix[k] % p
        inv = inv * dens[k] % p
        x1, y1 = lhs[i]
        x3 = (lam * lam - x1 - rhs[i][0]) % p
        out[i] = (x3, (lam * (x1 - x3) - y1) % p)
    if stats is not None:
        stats.inversions += 1
        stats.additions += len(todo) - doublings
        stats.doublings += doublings
        stats.field_muls += 6 * len(todo)
    return out


def _tuple(pt: AffinePoint) -> tuple[int, int] | None:
    return None if pt.infinity else (pt.x, pt.y)


def _affine(pt: tuple[int, int] | None) -> AffinePoint:
    return AffinePoint.identity() if pt is None else AffinePoint(*pt)


def batch_normalize(points: list[XyzzPoint], p: int) -> list[XyzzPoint]:
    """Every XYZZ point as ``(x, y, 1, 1)`` (or the identity), one inversion.

    The canonical form bucket sums leave in: two representatives of one
    group element normalize to the same four coordinates.
    """
    live = [pt for pt in points if not pt.is_identity]
    inverses = iter(batch_inverse([c for pt in live for c in (pt.zz, pt.zzz)], p))
    out = []
    for pt in points:
        if pt.is_identity:
            out.append(XyzzPoint.identity())
        else:
            out.append(XyzzPoint(pt.x * next(inverses) % p, pt.y * next(inverses) % p, 1, 1))
    return out


def batch_affine_add_pairs(
    pairs: list,
    curve: CurveParams,
    stats: BatchAffineStats | None = None,
) -> list[AffinePoint]:
    """Add many independent pairs of affine points with one inversion.

    Each element of ``pairs`` is ``(P, Q)``; the result list holds
    ``P + Q`` (see :func:`add_pairs`).
    """
    lhs = [_tuple(left) for left, _ in pairs]
    rhs = [_tuple(right) for _, right in pairs]
    return [_affine(pt) for pt in add_pairs(lhs, rhs, curve.p, curve.a, stats)]


def bucket_sums_batch_affine(
    buckets: list,
    curve: CurveParams,
    stats: BatchAffineStats | None = None,
) -> list[AffinePoint]:
    """Sum every bucket's members via rounds of batched pairwise additions.

    Per round, each bucket pairs up its remaining points; all pairs across
    all buckets share one inversion.  ``log2(max bucket)`` rounds total.
    """
    work = [[_tuple(pt) for pt in members] for members in buckets]
    while any(len(m) > 1 for m in work):
        if stats is not None:
            stats.rounds += 1
        lhs: list = []
        rhs: list = []
        for members in work:
            lhs.extend(members[0:-1:2])
            rhs.extend(members[1::2])
        results = iter(add_pairs(lhs, rhs, curve.p, curve.a, stats))
        next_work = []
        for members in work:
            summed = [next(results) for _ in range(len(members) // 2)]
            if len(members) % 2:
                summed.append(members[-1])
            next_work.append(summed)
        work = next_work
    return [_affine(m[0]) if m else AffinePoint.identity() for m in work]


def msm_batch_affine(
    scalars: list[int],
    points: list[AffinePoint],
    curve: CurveParams,
    window_size: int = 8,
    stats: BatchAffineStats | None = None,
) -> AffinePoint:
    """Pippenger MSM with batched-affine bucket accumulation."""
    if len(scalars) != len(points):
        raise ValueError(
            f"length mismatch: {len(scalars)} scalars, {len(points)} points"
        )
    if not scalars:
        return AffinePoint.identity()
    if stats is None:
        stats = BatchAffineStats()
    s = window_size
    n_win = num_windows(curve.scalar_bits, s)
    num_buckets = 1 << s
    pip_stats = PippengerStats()

    window_results = []
    for w in range(n_win):
        buckets: list[list[AffinePoint]] = [[] for _ in range(num_buckets)]
        for k, pt in zip(scalars, points):
            digit = unsigned_windows(k, s, n_win)[w]
            if digit:
                buckets[digit].append(pt)
        sums = bucket_sums_batch_affine(buckets, curve, stats)
        xyzz = [XyzzPoint.from_affine(pt) for pt in sums]
        window_results.append(bucket_reduce(xyzz, curve, pip_stats))
    return to_affine(window_reduce(window_results, s, curve, pip_stats), curve)
