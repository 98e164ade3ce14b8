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
level through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.point import XyzzPoint


@dataclass
class BatchAffineStats:
    """Operation tallies for the batched-affine path."""

    additions: int = 0
    doublings: int = 0
    inversions: int = 0
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

