"""The affine-over-Fp12 pairing, as shipped before the shared Miller loop.

Both backends' Miller loops ran once per pair on twisted points over the
flat ``FQ12`` (``FQ12B``), paying two Fp12 inversions per step through the
generic affine :func:`point_add` / :func:`point_double`, and the final
exponentiation was the plain ``(p^12 - 1) / r`` power.  G2 scalar
multiplication was the same affine double-and-add over ``FQ2``.

Kept for two consumers only:

* the differential tests pin the live G2 arithmetic, the shared-loop
  accumulator and the split final exponent against these functions;
* ``benchmarks/bench_groth16.py`` times the live code against them
  (:func:`frozen_backend` rebuilds a whole Groth16 backend on this code).

Only the value types (``FQ2``/``FQ12``/``FQ2B``/``FQ12B``, whose arithmetic
is unchanged) and the curve constants are imported from the program.

Do not "fix" or optimise this module — its value is being frozen.
"""

from __future__ import annotations

from dataclasses import replace

from repro.curves.params import BLS12_381_U, BN254_T, curve_by_name
from repro.msm.generic import GroupOps, pippenger_generic
from repro.zksnark.backend import PairingBackend, backend_by_name
from repro.zksnark.pairing import FQ12
from repro.zksnark.pairing_bls import FQ12B

_BN254 = curve_by_name("BN254")
_BLS = curve_by_name("BLS12-381")
P = _BN254.p
R = _BN254.r
P_BLS = _BLS.p
R_BLS = _BLS.r

ATE_LOOP_COUNT = 6 * BN254_T + 2
LOG_ATE_LOOP_COUNT = ATE_LOOP_COUNT.bit_length() - 2
ATE_LOOP_COUNT_BLS = -BLS12_381_U
LOG_ATE_LOOP_COUNT_BLS = ATE_LOOP_COUNT_BLS.bit_length() - 2


# -- generic affine curve arithmetic over any of the fields ------------------
# points are (x, y) tuples of field elements; None is the point at infinity


def point_double(pt):
    if pt is None:
        return None
    x, y = pt
    if y.is_zero() if hasattr(y, "is_zero") else y == 0:
        return None
    m = (3 * x * x) / (2 * y)
    nx = m * m - 2 * x
    ny = m * (x - nx) - y
    return (nx, ny)


def point_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 == y2:
            return point_double(p1)
        return None
    m = (y2 - y1) / (x2 - x1)
    nx = m * m - x1 - x2
    ny = m * (x1 - nx) - y1
    return (nx, ny)


def point_neg(pt):
    if pt is None:
        return None
    x, y = pt
    return (x, -y)


def point_mul(pt, k: int):
    if k < 0:
        return point_mul(point_neg(pt), -k)
    result = None
    addend = pt
    while k:
        if k & 1:
            result = point_add(result, addend)
        addend = point_double(addend)
        k >>= 1
    return result


# -- twists -------------------------------------------------------------------


def twist(pt):
    """BN254: ``i -> w^6 - 9``, then scale by ``w^2`` / ``w^3``."""
    if pt is None:
        return None
    x, y = pt
    xc = [x.coeffs[0] - 9 * x.coeffs[1], x.coeffs[1]]
    yc = [y.coeffs[0] - 9 * y.coeffs[1], y.coeffs[1]]
    nx = FQ12([xc[0], 0, 0, 0, 0, 0, xc[1], 0, 0, 0, 0, 0])
    ny = FQ12([yc[0], 0, 0, 0, 0, 0, yc[1], 0, 0, 0, 0, 0])
    w = FQ12([0, 1] + [0] * 10)
    return (nx * w**2, ny * w**3)


def twist_bls(pt):
    """BLS12-381: ``i -> w^6 - 1``, then divide by ``w^2`` / ``w^3``."""
    if pt is None:
        return None
    x, y = pt
    xc = [x.coeffs[0] - x.coeffs[1], x.coeffs[1]]
    yc = [y.coeffs[0] - y.coeffs[1], y.coeffs[1]]
    nx = FQ12B([xc[0], 0, 0, 0, 0, 0, xc[1], 0, 0, 0, 0, 0])
    ny = FQ12B([yc[0], 0, 0, 0, 0, 0, yc[1], 0, 0, 0, 0, 0])
    w = FQ12B([0, 1] + [0] * 10)
    return (nx / w**2, ny / w**3)


def cast_g1_to_fq12(pt):
    if pt is None:
        return None
    x, y = pt
    return (FQ12.from_int(x), FQ12.from_int(y))


def cast_g1_to_fq12_bls(pt):
    if pt is None:
        return None
    x, y = pt
    return (FQ12B.from_int(x), FQ12B.from_int(y))


# -- Miller loops -------------------------------------------------------------


def _linefunc(p1, p2, t):
    """Evaluate the line through p1, p2 at point t (all over Fp12)."""
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        m = (y2 - y1) / (x2 - x1)
        return m * (xt - x1) - (yt - y1)
    if y1 == y2:
        m = (3 * x1 * x1) / (2 * y1)
        return m * (xt - x1) - (yt - y1)
    return xt - x1


def miller_loop(q, p_pt) -> FQ12:
    """BN254 optimal ate on twisted ``q`` and cast ``p_pt``, no final exp."""
    if q is None or p_pt is None:
        return FQ12.one()
    r_pt = q
    f = FQ12.one()
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = f * f * _linefunc(r_pt, r_pt, p_pt)
        r_pt = point_double(r_pt)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _linefunc(r_pt, q, p_pt)
            r_pt = point_add(r_pt, q)
    # Frobenius endomorphism applications
    q1 = (q[0] ** P, q[1] ** P)
    nq2 = (q1[0] ** P, -(q1[1] ** P))
    f = f * _linefunc(r_pt, q1, p_pt)
    r_pt = point_add(r_pt, q1)
    f = f * _linefunc(r_pt, nq2, p_pt)
    return f


def miller_loop_bls(q, p_pt) -> FQ12B:
    """The BLS ate Miller loop (no Frobenius tail), sans final exp."""
    if q is None or p_pt is None:
        return FQ12B.one()
    r_pt = q
    f = FQ12B.one()
    for i in range(LOG_ATE_LOOP_COUNT_BLS, -1, -1):
        f = f * f * _linefunc(r_pt, r_pt, p_pt)
        r_pt = point_double(r_pt)
        if ATE_LOOP_COUNT_BLS & (1 << i):
            f = f * _linefunc(r_pt, q, p_pt)
            r_pt = point_add(r_pt, q)
    return f


# -- final exponentiation -----------------------------------------------------


def final_exponentiate(f: FQ12) -> FQ12:
    return f ** ((P**12 - 1) // R)


def final_exponentiate_bls(f: FQ12B) -> FQ12B:
    return f ** ((P_BLS**12 - 1) // R_BLS)


# -- pairing checks ------------------------------------------------------------


def pairing_check(pairs: list) -> bool:
    acc = FQ12.one()
    for p1, q2 in pairs:
        acc = acc * miller_loop(twist(q2), cast_g1_to_fq12(p1))
    return final_exponentiate(acc) == FQ12.one()


def pairing_check_bls(pairs: list) -> bool:
    acc = FQ12B.one()
    for p1, q2 in pairs:
        acc = acc * miller_loop_bls(twist_bls(q2), cast_g1_to_fq12_bls(p1))
    return final_exponentiate_bls(acc) == FQ12B.one()


def frozen_g2_msm(scalars: list[int], points: list, scalar_bits: int):
    """The G2 MSM as shipped: affine group ops, fixed window of 8."""
    ops = GroupOps(add=point_add, neg=point_neg, identity=None)
    return pippenger_generic(scalars, points, ops, scalar_bits, 8)


def frozen_backend(name: str) -> PairingBackend:
    """``backend_by_name(name)`` with its G2 and pairing callables frozen.

    The shipped verify ran no subgroup check and its pairing checked only
    that points were on their curves, so the returned backend accepts every
    G2 point as a subgroup member and its ``pairing_check`` trusts its
    points.
    """
    live = backend_by_name(name)
    check = pairing_check if live.name == "BN254" else pairing_check_bls
    bits = live.curve.scalar_bits
    return replace(
        live,
        g2_add=point_add,
        g2_mul=point_mul,
        g2_neg=point_neg,
        g2_msm=lambda scalars, points: frozen_g2_msm(scalars, points, bits),
        g2_in_subgroup=lambda pt: True,
        pairing_check=check,
    )
