"""The BN254 optimal-ate pairing, and the pairing engine both backends share.

Tower: ``Fp2 = Fp[i]/(i^2 + 1)`` and ``Fp12 = Fp[w]/(w^12 - 18 w^6 + 82)``
(equivalent to the usual ``Fp12 = Fp6[w]/(w^2 - v)`` with
``v^3 = 9 + i``: setting ``w^6 = 9 + i`` gives exactly that minimal
polynomial).  Pairing values are flat :class:`FQ12` elements; G2 points
are affine ``(FQ2, FQ2)`` tuples with ``None`` for the identity.

:class:`PairingEngine` evaluates the pairing without per-step Fp12
inversions (DESIGN.md §17):

* one Miller loop runs every pair of a :func:`pairing_check` at once,
  sharing the Fp12 squaring of each step; the G2 steps are affine over
  Fp2 (one Fp2 inversion each), and each line value is written straight
  into its few nonzero flat Fp12 coefficients;
* the final exponentiation is split as ``(p^6 - 1)(p^2 + 1)`` (Frobenius
  matrices and one inversion) times a plain power by
  ``(p^4 - p^2 + 1) / r``, which multiplies out to ``(p^12 - 1) / r``.

Both are exact: the accumulator is the product of the per-pair loops on
twisted points over Fp12, and the exponent is the same integer, so every
value equals the plain textbook evaluation.

Verified properties (see tests): non-degeneracy, bilinearity
``e(aP, bQ) = e(P, Q)^(ab)``, and inverse behaviour ``e(-P, Q) e(P, Q) = 1``.
"""

from __future__ import annotations

from functools import cached_property

from repro.curves.params import BN254_T, curve_by_name
from repro.zksnark.g2 import G2Curve, f2_inv, f2_mul, f2_sqr

_BN254 = curve_by_name("BN254")
P = _BN254.p
R = _BN254.r

#: optimal-ate loop count: 6t + 2 for the BN parameter t
ATE_LOOP_COUNT = 6 * BN254_T + 2

FQ2_MODULUS_COEFFS = (1, 0)  # i^2 = -1
FQ12_MODULUS_COEFFS = (82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0)  # w^12 = 18w^6 - 82


class FQP:
    """An element of ``Fp[x] / (x^degree + modulus poly)``.

    Coefficients are ints mod ``prime``; subclasses fix the base prime and
    the modulus polynomial (BN254 here; BLS12-381 in
    :mod:`repro.zksnark.pairing_bls`).
    """

    degree = 0
    modulus_coeffs: tuple = ()
    prime = P
    #: the nonzero terms ``(k, c)`` of ``x^degree = sum c x^k``
    reduction: tuple = ()

    __slots__ = ("coeffs",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.reduction = tuple((k, -m) for k, m in enumerate(cls.modulus_coeffs) if m)

    def __init__(self, coeffs):
        if len(coeffs) != self.degree:
            raise ValueError(
                f"{type(self).__name__} needs {self.degree} coefficients, "
                f"got {len(coeffs)}"
            )
        self.coeffs = tuple(int(c) % self.prime for c in coeffs)

    # construction helpers ------------------------------------------------

    @classmethod
    def one(cls):
        return cls([1] + [0] * (cls.degree - 1))

    @classmethod
    def zero(cls):
        return cls([0] * cls.degree)

    @classmethod
    def from_int(cls, value: int):
        return cls([value] + [0] * (cls.degree - 1))

    # arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).from_int(other)
        if isinstance(other, type(self)):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return type(self)([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)([c * other for c in self.coeffs])
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(_poly_mulmod(self.coeffs, other.coeffs, self.reduction, self.prime))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = type(self).one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self):
        """Extended-Euclid inverse in the polynomial quotient ring."""
        deg = self.degree
        p = self.prime
        lm, hm = [1] + [0] * deg, [0] * (deg + 1)
        low = list(self.coeffs) + [0]
        high = list(self.modulus_coeffs) + [1]
        while _poly_deg(low):
            r = _poly_rounded_div(high, low, p)
            r += [0] * (deg + 1 - len(r))
            nm, new = list(hm), list(high)
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    nm[i + j] -= lm[i] * r[j]
                    new[i + j] -= low[i] * r[j]
            nm = [x % p for x in nm]
            new = [x % p for x in new]
            lm, low, hm, high = nm, new, lm, low
        if low[0] == 0:
            raise ZeroDivisionError("element is not invertible")
        inv_low0 = pow(low[0], -1, p)
        return type(self)([c * inv_low0 % p for c in lm[:deg]])

    # comparisons ----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}{self.coeffs}"


def _poly_reduce(buf: list, reduction: tuple, p: int) -> list:
    """Fold a product of two degree-``n - 1`` polynomials below ``x^n``.

    ``buf`` has ``2n - 1`` coefficients and is consumed; ``reduction`` is
    :attr:`FQP.reduction`.  Coefficients come back in ``[0, p)``.
    """
    n = len(buf) // 2 + 1
    for top in range(len(buf) - 1, n - 1, -1):
        t = buf[top]
        if t:
            offset = top - n
            for k, c in reduction:
                buf[offset + k] += c * t
    return [c % p for c in buf[:n]]


def _poly_mulmod(a, b, reduction: tuple, p: int) -> list:
    """``a * b`` for two coefficient sequences of one length, reduced."""
    buf = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                buf[j] += x * y
    return _poly_reduce(buf, reduction, p)


def _poly_deg(coeffs: list) -> int:
    d = len(coeffs) - 1
    while d and coeffs[d] == 0:
        d -= 1
    return d


def _poly_rounded_div(a: list, b: list, prime: int = P) -> list:
    deg_a, deg_b = _poly_deg(a), _poly_deg(b)
    temp = list(a)
    out = [0] * len(a)
    b_lead_inv = pow(b[deg_b], -1, prime)
    for i in range(deg_a - deg_b, -1, -1):
        out[i] = (out[i] + temp[deg_b + i] * b_lead_inv) % prime
        for c in range(deg_b + 1):
            temp[c + i] = (temp[c + i] - out[i] * b[c]) % prime
    return out[: _poly_deg(out) + 1]


class FQ2(FQP):
    degree = 2
    modulus_coeffs = FQ2_MODULUS_COEFFS


class FQ12(FQP):
    degree = 12
    modulus_coeffs = FQ12_MODULUS_COEFFS


class PairingEngine:
    """Miller loop and final exponentiation for one BN or BLS12 curve.

    ``fq12`` is the flat Fp12 class (``w^12 = c6 w^6 + c0``), ``g2`` the
    curve's :class:`~repro.zksnark.g2.G2Curve`, and ``i`` embeds as
    ``w^6 - xi0``.  The sextic twist maps ``(x, y)`` to
    ``(x w^2, y w^3)``, or to ``(x / w^2, y / w^3)`` when
    ``twist_divides``.  ``frobenius_tail`` adds BN's two closing lines
    through ``pi(Q)`` and ``-pi^2(Q)``.

    Inside the engine an Fp12 element is a list of twelve ints in
    ``[0, p)`` and a line value a list of ``(index, coefficient)`` terms.
    """

    def __init__(
        self,
        *,
        name: str,
        fq12: type,
        g2: G2Curve,
        g1_b: int,
        xi0: int,
        twist_divides: bool,
        loop_count: int,
        frobenius_tail: bool,
    ) -> None:
        p = g2.p
        modulus = fq12.modulus_coeffs
        if any(c for k, c in enumerate(modulus) if k not in (0, 6)):
            raise ValueError("the flat Fp12 modulus must be w^12 - c6 w^6 - c0")
        self.name = name
        self.p, self.r = p, g2.r
        self.fq12 = fq12
        self.g2 = g2
        self.g1_b = g1_b
        self.xi0 = xi0
        self.loop_count = loop_count
        self.frobenius_tail = frobenius_tail
        self._reduction = fq12.reduction
        self.one = fq12.one()

        w = fq12([0, 1] + [0] * 10)
        sign = -1 if twist_divides else 1
        tau_x, tau_y = w ** (2 * sign), w ** (3 * sign)
        self._tau_x_inv = tau_x.inverse()
        self._tau_y_inv = tau_y.inverse()
        self._place_x = self._placement(tau_x)
        self._place_y = self._placement(tau_y)
        self._place_m = self._placement(tau_y / tau_x)

        # pi(x, y) = (conj(x) gx, conj(y) gy) on the twist (BN's tail)
        xi = g2.fq2([xi0, 1])
        self._frob_gx = (xi ** (sign * (p - 1) // 3)).coeffs
        self._frob_gy = (xi ** (sign * (p - 1) // 2)).coeffs

        hard, rem = divmod(p**4 - p**2 + 1, self.r)
        if rem:
            raise ValueError("r must divide p^4 - p^2 + 1 (embedding degree 12)")
        self.hard_exponent = hard

    # -- flat Fp12 on int lists ---------------------------------------------------

    def _mul(self, a: list, b: list) -> list:
        return _poly_mulmod(a, b, self._reduction, self.p)

    def _sqr(self, a: list) -> list:
        buf = [0] * 23
        for i, x in enumerate(a):
            if x:
                buf[2 * i] += x * x
                x2 = 2 * x
                for j in range(i + 1, 12):
                    buf[i + j] += x2 * a[j]
        return _poly_reduce(buf, self._reduction, self.p)

    def _mul_line(self, f: list, line: list) -> list:
        buf = [0] * 23
        for j, c in line:
            for i, x in enumerate(f, j):
                buf[i] += x * c
        return _poly_reduce(buf, self._reduction, self.p)

    def _pow(self, f: list, e: int) -> list:
        """``f^e`` for ``e > 0`` with a fixed 4-bit window."""
        table = [None, f]
        for _ in range(14):
            table.append(self._mul(table[-1], f))
        digits = f"{e:x}"
        acc = table[int(digits[0], 16)]
        for digit in digits[1:]:
            for _ in range(4):
                acc = self._sqr(acc)
            if digit != "0":
                acc = self._mul(acc, table[int(digit, 16)])
        return acc

    # -- the twist ------------------------------------------------------------------

    def _placement(self, tau) -> tuple:
        """Where ``(a + b i) * tau`` lands: ``(index, coeff of a, coeff of b)``."""
        i_flat = [0] * 12
        i_flat[0], i_flat[6] = -self.xi0, 1
        times_i = (self.fq12(i_flat) * tau).coeffs
        return tuple(
            (k, ca, cb) for k, (ca, cb) in enumerate(zip(tau.coeffs, times_i)) if ca or cb
        )

    def _place(self, placement: tuple, a: tuple) -> list:
        a0, a1 = a
        p = self.p
        return [(k, (ca * a0 + cb * a1) % p) for k, ca, cb in placement]

    def twist(self, pt):
        """The G2 point ``pt`` (affine over Fp2) as a point over Fp12."""
        if pt is None:
            return None
        coeffs = [[0] * 12, [0] * 12]
        for out, placement, c in zip(coeffs, (self._place_x, self._place_y), pt):
            for k, v in self._place(placement, c.coeffs):
                out[k] = v
        return (self.fq12(coeffs[0]), self.fq12(coeffs[1]))

    def untwist(self, pt):
        """Inverse of :meth:`twist` on its image."""
        if pt is None:
            return None
        out = []
        for c, tau_inv in zip(pt, (self._tau_x_inv, self._tau_y_inv)):
            flat = (c * tau_inv).coeffs
            out.append(self.g2.fq2([flat[0] + self.xi0 * flat[6], flat[6]]))
        return tuple(out)

    # -- Miller loop -----------------------------------------------------------------

    def _line(self, t, q, xp: int, yp: int):
        """The line through ``t`` and ``q`` at ``(xp, yp)``, and ``t + q``.

        ``t``/``q`` are affine int-pair G2 points.  With slope ``m`` over
        Fp2, the line through their twists evaluated at the G1 point is
        ``-yp + (m xp) tau_m + (y1 - m x1) tau_y``; a vertical line is
        ``xp - x1 tau_x`` (and ``t + q`` the identity).
        """
        p = self.p
        (x1, y1), (x2, y2) = t, q
        if x1 != x2:
            m = f2_mul(((y2[0] - y1[0]) % p, (y2[1] - y1[1]) % p),
                       f2_inv(((x2[0] - x1[0]) % p, (x2[1] - x1[1]) % p), p), p)
        elif y1 == y2:
            xx = f2_sqr(x1, p)
            m = f2_mul((3 * xx[0], 3 * xx[1]), f2_inv((2 * y1[0], 2 * y1[1]), p), p)
        else:
            neg_x1 = ((-x1[0]) % p, (-x1[1]) % p)
            return [(0, xp)] + self._place(self._place_x, neg_x1), None
        mm = f2_sqr(m, p)
        x3 = ((mm[0] - x1[0] - x2[0]) % p, (mm[1] - x1[1] - x2[1]) % p)
        my = f2_mul(m, ((x1[0] - x3[0]) % p, (x1[1] - x3[1]) % p), p)
        y3 = ((my[0] - y1[0]) % p, (my[1] - y1[1]) % p)
        mx = f2_mul(m, x1, p)
        line = [(0, (-yp) % p)]
        line += self._place(self._place_m, (m[0] * xp, m[1] * xp))
        line += self._place(self._place_y, (y1[0] - mx[0], y1[1] - mx[1]))
        return line, (x3, y3)

    def _frobenius_point(self, q):
        p = self.p
        (x0, x1), (y0, y1) = q
        return (f2_mul((x0, -x1 % p), self._frob_gx, p), f2_mul((y0, -y1 % p), self._frob_gy, p))

    def miller_loop(self, pairs) -> list:
        """Product of every pair's Miller loop, as flat Fp12 coefficients.

        ``pairs`` holds ``(G1 (x, y) ints or None, G2 point or None)``; a
        pair with an identity contributes one.  All pairs share each
        step's squaring of the accumulator.
        """
        p = self.p
        work = [
            (p1[0] % p, p1[1] % p, (q2[0].coeffs, q2[1].coeffs))
            for p1, q2 in pairs
            if p1 is not None and q2 is not None
        ]
        f = list(self.one.coeffs)
        if not work:
            return f
        ts = [q for _, _, q in work]
        for i in range(self.loop_count.bit_length() - 2, -1, -1):
            f = self._sqr(f)
            for j, (xp, yp, _) in enumerate(work):
                line, ts[j] = self._line(ts[j], ts[j], xp, yp)
                f = self._mul_line(f, line)
            if self.loop_count >> i & 1:
                for j, (xp, yp, q) in enumerate(work):
                    line, ts[j] = self._line(ts[j], q, xp, yp)
                    f = self._mul_line(f, line)
        if self.frobenius_tail:
            for t, (xp, yp, q) in zip(ts, work):
                q1 = self._frobenius_point(q)
                x2, y2 = self._frobenius_point(q1)
                line, t = self._line(t, q1, xp, yp)
                f = self._mul_line(f, line)
                line, _ = self._line(t, (x2, ((-y2[0]) % p, (-y2[1]) % p)), xp, yp)
                f = self._mul_line(f, line)
        return f

    # -- final exponentiation -------------------------------------------------------

    @cached_property
    def _frobenius(self) -> dict:
        """Sparse columns of the ``x -> x^(p^e)`` matrices for e = 1, 2, 6.

        Column ``k`` is ``(w^(p^e))^k``: Frobenius fixes Fp, so
        ``(sum f_k w^k)^(p^e) = sum f_k (w^(p^e))^k``, and
        ``w^p = w (w^6)^((p - 1)/6)`` with ``w^6 = xi0 + i`` in Fp2.
        """
        g0, g1 = (self.g2.fq2([self.xi0, 1]) ** ((self.p - 1) // 6)).coeffs
        w_p = [0] * 12  # w (g0 + g1 (w^6 - xi0))
        w_p[1], w_p[7] = g0 - self.xi0 * g1, g1
        mats = {1: self._columns(self.fq12(w_p))}
        w_p2 = self._apply(mats[1], self.fq12(w_p).coeffs)
        mats[2] = self._columns(self.fq12(w_p2))
        w_p6 = self._apply(mats[2], self._apply(mats[2], w_p2))
        mats[6] = self._columns(self.fq12(w_p6))
        return mats

    def _columns(self, w_q) -> list:
        cols, acc = [], self.one
        for _ in range(12):
            cols.append([(i, c) for i, c in enumerate(acc.coeffs) if c])
            acc = acc * w_q
        return cols

    def _apply(self, cols: list, f: list) -> list:
        out = [0] * 12
        for fk, col in zip(f, cols):
            if fk:
                for i, c in col:
                    out[i] += fk * c
        p = self.p
        return [c % p for c in out]

    def final_exponentiate(self, f: list) -> list:
        """``f^((p^12 - 1) / r)`` as ``(f^(p^6 - 1))^(p^2 + 1)`` to the hard part."""
        if not any(f):
            return f
        frob = self._frobenius
        f1 = self._mul(self._apply(frob[6], f), list(self.fq12(f).inverse().coeffs))
        f2 = self._mul(self._apply(frob[2], f1), f1)
        return self._pow(f2, self.hard_exponent)

    # -- public entry points --------------------------------------------------------

    def check_inputs(self, q2, p1) -> None:
        if p1 is not None:
            x, y = p1
            if (y * y - x * x * x - self.g1_b) % self.p:
                raise ValueError(f"G1 point is not on {self.name}")
        if q2 is not None and not self.g2.is_on_curve(q2):
            raise ValueError(f"G2 point is not on the {self.name} twist")

    def pairing(self, q2, p1):
        """``e(P1, Q2)`` as a flat Fp12 value."""
        self.check_inputs(q2, p1)
        return self.fq12(self.final_exponentiate(self.miller_loop([(p1, q2)])))

    def pairing_check(self, pairs: list) -> bool:
        """Whether ``prod e(P_i, Q_i) == 1``: one loop, one final exponentiation."""
        for p1, q2 in pairs:
            self.check_inputs(q2, p1)
        return self.final_exponentiate(self.miller_loop(pairs)) == list(self.one.coeffs)


# -- BN254 ------------------------------------------------------------------------

#: twisted-curve coefficient: b2 = 3 / (9 + i)
B2 = FQ2([3, 0]) / FQ2([9, 1])
B12 = FQ12.from_int(3)

G2_GENERATOR = (
    FQ2(
        [
            10857046999023057135944570762232829481370756359578518086990519993285655852781,
            11559732032986387107991004021392285783925812861821192530917403151452391805634,
        ]
    ),
    FQ2(
        [
            8495653923123431417604973247489272438418190587263600148770280649306958101930,
            4082367875863433681332203403145435568316851327593401208105741076214120093531,
        ]
    ),
)

G1_GENERATOR = (_BN254.gx, _BN254.gy)

G2 = G2Curve(P, B2.coeffs, FQ2, R)
ENGINE = PairingEngine(
    name="BN254",
    fq12=FQ12,
    g2=G2,
    g1_b=_BN254.b,
    xi0=9,
    twist_divides=False,
    loop_count=ATE_LOOP_COUNT,
    frobenius_tail=True,
)


def twist(pt):
    """Map a G2 point (over Fp2) onto the curve over Fp12.

    Uses the field isomorphism sending ``i`` to ``w^6 - 9``, then scales by
    ``w^2`` / ``w^3`` to land on the untwisted curve.
    """
    return ENGINE.twist(pt)


def cast_g1_to_fq12(pt):
    """Embed a G1 point (int coordinates) into the Fp12 curve."""
    if pt is None:
        return None
    x, y = pt
    return (FQ12.from_int(x), FQ12.from_int(y))


def miller_loop(q, p_pt) -> FQ12:
    """The optimal-ate Miller loop, *without* final exponentiation.

    ``q`` is a twisted G2 point over Fp12; ``p_pt`` a G1 point over Fp12
    (as :func:`twist` and :func:`cast_g1_to_fq12` produce them).
    """
    if q is None or p_pt is None:
        return FQ12.one()
    p1 = (p_pt[0].coeffs[0], p_pt[1].coeffs[0])
    return FQ12(ENGINE.miller_loop([(p1, ENGINE.untwist(q))]))


def final_exponentiate(f: FQ12) -> FQ12:
    """Raise a Miller-loop output to ``(p^12 - 1) / r``."""
    return FQ12(ENGINE.final_exponentiate(list(f.coeffs)))


def pairing(q2, p1) -> FQ12:
    """The full pairing ``e(P1, Q2)`` for G1 point ``p1`` and G2 point ``q2``.

    ``p1`` is an (x, y) int tuple or None; ``q2`` an (FQ2, FQ2) tuple or None.
    """
    return ENGINE.pairing(q2, p1)


def pairing_check(pairs: list) -> bool:
    """Whether ``prod e(P_i, Q_i) == 1`` — one shared final exponentiation.

    ``pairs`` is a list of (G1 point, G2 point) tuples.  This is the 4-pair
    product Groth16 verification evaluates.
    """
    return ENGINE.pairing_check(pairs)


# G2 on affine (FQ2, FQ2) points
g2_add = point_add = G2.add
g2_mul = point_mul = G2.mul
point_double = G2.double
point_neg = G2.neg
g2_msm = G2.msm
g2_in_subgroup = G2.in_subgroup
