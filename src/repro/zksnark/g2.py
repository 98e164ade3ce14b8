"""G2 arithmetic without per-operation inversions, shared by both backends.

G2 is the curve ``y^2 = x^3 + b`` over ``Fp2 = Fp[i]/(i^2 + 1)``; BN254
and BLS12-381 both use this quadratic extension, so one implementation
parametrised by ``p`` and ``b`` serves both.  Inside this module an Fp2
element is an ``(a, b)`` int pair meaning ``a + b i``, always reduced to
``[0, p)``.  Public points keep the backends' representation: an affine
``(FQ2, FQ2)`` tuple, or ``None`` for the identity.

Scalar multiplication and the MSM run in Jacobian coordinates
``(X, Y, Z) -> (X/Z^2, Y/Z^3)``: doubling and addition cost a handful of
Fp2 multiplications and no inversion, and each public result pays one
Fp2 inversion (a single ``pow(., -1, p)``) to return to affine.  Affine
coordinates of a group element are unique, so every result is equal,
coordinate for coordinate, to the affine double-and-add it replaces.
"""

from __future__ import annotations

from repro.msm.generic import GroupOps, pippenger_generic

ONE = (1, 0)


def f2_mul(a, b, p):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    return ((t0 - t1) % p, ((a0 + a1) * (b0 + b1) - t0 - t1) % p)


def f2_sqr(a, p):
    a0, a1 = a
    return ((a0 + a1) * (a0 - a1) % p, 2 * a0 * a1 % p)


def f2_inv(a, p):
    a0, a1 = a
    n = pow(a0 * a0 + a1 * a1, -1, p)
    return (a0 * n % p, -a1 * n % p)


class G2Curve:
    """The G2 group of one pairing-friendly curve.

    ``b`` is the twist coefficient as an int pair, ``fq2`` the backend's
    public Fp2 class (``FQ2`` or ``FQ2B``) and ``r`` the order of G2.
    Affine methods take and return public points; the ``jac_*`` methods
    work on Jacobian int-pair triples, with ``None`` as the identity.
    """

    def __init__(self, p: int, b: tuple[int, int], fq2: type, r: int) -> None:
        self.p = p
        self.r = r
        self.b = (b[0] % p, b[1] % p)
        self.fq2 = fq2
        self.group_ops = GroupOps(add=self.jac_add, neg=self.jac_neg, identity=None)

    # -- public affine points <-> Jacobian int pairs ----------------------------

    def jac_from_affine(self, pt):
        if pt is None:
            return None
        x, y = pt
        return (x.coeffs, y.coeffs, ONE)

    def jac_to_affine(self, pt):
        """The public affine point of ``pt``: one Fp2 inversion."""
        if pt is None:
            return None
        p = self.p
        x, y, z = pt
        zi = f2_inv(z, p)
        zi2 = f2_sqr(zi, p)
        fq2 = self.fq2
        return (fq2(f2_mul(x, zi2, p)), fq2(f2_mul(y, f2_mul(zi2, zi, p), p)))

    def is_on_curve(self, pt) -> bool:
        """Whether an affine public point satisfies ``y^2 = x^3 + b``."""
        if pt is None:
            return True
        p = self.p
        x, y = pt[0].coeffs, pt[1].coeffs
        rhs = f2_mul(f2_sqr(x, p), x, p)
        return f2_sqr(y, p) == ((rhs[0] + self.b[0]) % p, (rhs[1] + self.b[1]) % p)

    # -- Jacobian group law -------------------------------------------------------

    def jac_neg(self, pt):
        if pt is None:
            return None
        x, y, z = pt
        return (x, ((-y[0]) % self.p, (-y[1]) % self.p), z)

    def jac_double(self, pt):
        """dbl-2009-l for ``a = 0``: 2 multiplications and 5 squarings."""
        if pt is None:
            return None
        x, y, z = pt
        if y == (0, 0):
            return None
        p = self.p
        a = f2_sqr(x, p)
        b = f2_sqr(y, p)
        c = f2_sqr(b, p)
        t = f2_sqr(((x[0] + b[0]) % p, (x[1] + b[1]) % p), p)
        d = (2 * (t[0] - a[0] - c[0]) % p, 2 * (t[1] - a[1] - c[1]) % p)
        e = (3 * a[0] % p, 3 * a[1] % p)
        f = f2_sqr(e, p)
        x3 = ((f[0] - 2 * d[0]) % p, (f[1] - 2 * d[1]) % p)
        ey = f2_mul(e, ((d[0] - x3[0]) % p, (d[1] - x3[1]) % p), p)
        y3 = ((ey[0] - 8 * c[0]) % p, (ey[1] - 8 * c[1]) % p)
        yz = f2_mul(y, z, p)
        return (x3, y3, (2 * yz[0] % p, 2 * yz[1] % p))

    def jac_add(self, p1, p2):
        """add-1998-cmo-2; an operand with ``Z = 1`` skips its Z powers.

        Handles the identity, ``P + P`` (doubles) and ``P + (-P)``
        (returns the identity).
        """
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        if p1[2] == ONE and p2[2] != ONE:
            p1, p2 = p2, p1
        p = self.p
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        z1z1 = f2_sqr(z1, p)
        u2 = f2_mul(x2, z1z1, p)
        s2 = f2_mul(y2, f2_mul(z1, z1z1, p), p)
        if z2 == ONE:
            u1, s1 = x1, y1
        else:
            z2z2 = f2_sqr(z2, p)
            u1 = f2_mul(x1, z2z2, p)
            s1 = f2_mul(y1, f2_mul(z2, z2z2, p), p)
        h = ((u2[0] - u1[0]) % p, (u2[1] - u1[1]) % p)
        r = ((s2[0] - s1[0]) % p, (s2[1] - s1[1]) % p)
        if h == (0, 0):
            return self.jac_double(p1) if r == (0, 0) else None
        hh = f2_sqr(h, p)
        hhh = f2_mul(h, hh, p)
        v = f2_mul(u1, hh, p)
        rr = f2_sqr(r, p)
        x3 = ((rr[0] - hhh[0] - 2 * v[0]) % p, (rr[1] - hhh[1] - 2 * v[1]) % p)
        ry = f2_mul(r, ((v[0] - x3[0]) % p, (v[1] - x3[1]) % p), p)
        sh = f2_mul(s1, hhh, p)
        y3 = ((ry[0] - sh[0]) % p, (ry[1] - sh[1]) % p)
        z3 = f2_mul(z1, h, p) if z2 == ONE else f2_mul(f2_mul(z1, z2, p), h, p)
        return (x3, y3, z3)

    def jac_mul(self, pt, k: int):
        """``k * pt`` for an affine public ``pt``, left to right, ``k`` as given.

        ``k`` is not reduced modulo the group order, so the result is the
        literal multiple even for a point outside the r-torsion.
        """
        if k < 0:
            return self.jac_neg(self.jac_mul(pt, -k))
        base = self.jac_from_affine(pt)
        acc = None
        for bit in bin(k)[2:] if k else ():
            acc = self.jac_double(acc)
            if bit == "1":
                acc = self.jac_add(acc, base)
        return acc

    # -- public affine operations -------------------------------------------------

    def add(self, p1, p2):
        return self.jac_to_affine(
            self.jac_add(self.jac_from_affine(p1), self.jac_from_affine(p2))
        )

    def double(self, pt):
        return self.jac_to_affine(self.jac_double(self.jac_from_affine(pt)))

    def neg(self, pt):
        if pt is None:
            return None
        x, y = pt
        return (x, -y)

    def mul(self, pt, k: int):
        """Scalar multiplication ``k * pt``; ``k`` may be negative or >= r."""
        return self.jac_to_affine(self.jac_mul(pt, k))

    def in_subgroup(self, pt) -> bool:
        """Whether ``pt`` is in G2: on the curve and ``r * pt`` the identity."""
        return self.is_on_curve(pt) and self.jac_mul(pt, self.r) is None

    def msm(self, scalars: list[int], points: list):
        """``sum(k_i * P_i)`` through the generic Pippenger in Jacobian form.

        Scalars have ``r.bit_length()`` bits; the window comes from N
        (:func:`~repro.msm.generic.msm_window`).  One normalisation after
        the call.
        """
        return self.jac_to_affine(
            pippenger_generic(
                scalars,
                [self.jac_from_affine(pt) for pt in points],
                self.group_ops,
                self.r.bit_length(),
            )
        )
