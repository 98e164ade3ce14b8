"""Affine short-Weierstrass arithmetic, kept apart from the program's own.

The MSM workload builds its bases and checks its results with these few
lines only, so a fault in the program's field, curve, scatter, bucket or
reduce code cannot hide itself by also corrupting the check.  Points are
``(x, y)`` tuples; ``None`` is the point at infinity.
"""

from __future__ import annotations


def add(p1, p2, p: int, a: int):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def mul(point, k: int, p: int, a: int):
    """``k * point`` by left-to-right double-and-add."""
    acc = None
    for bit in bin(k)[2:]:
        acc = add(acc, acc, p, a)
        if bit == "1":
            acc = add(acc, point, p, a)
    return acc

