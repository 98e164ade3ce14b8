"""The BLS12-381 ate pairing — the second pairing family the paper's
curves span (BLS12-377/381 provers use exactly this construction).

Tower: ``Fp2 = Fp[i]/(i^2 + 1)`` and the flat
``Fp12 = Fp[w]/(w^12 - 2 w^6 + 2)`` — equivalent to the usual
``Fp6 = Fp2[v]/(v^3 - (1 + i))``, ``Fp12 = Fp6[w]/(w^2 - v)`` because
``w^6 = 1 + i`` satisfies ``(w^6 - 1)^2 = -1``.

The BLS ate pairing is *simpler* than BN's optimal ate: the Miller loop
runs over the curve parameter ``|u|`` with no Frobenius tail steps.  The
loop, the split final exponentiation and the G2 arithmetic are the same
code as BN254's (:class:`~repro.zksnark.pairing.PairingEngine` and
:class:`~repro.zksnark.g2.G2Curve`), instantiated for this curve.
"""

from __future__ import annotations

from repro.curves.params import BLS12_381_U, curve_by_name
from repro.zksnark.g2 import G2Curve
from repro.zksnark.pairing import FQP, PairingEngine

_BLS = curve_by_name("BLS12-381")
P_BLS = _BLS.p
R_BLS = _BLS.r

#: the BLS ate loop count is |u| for the curve parameter u (u < 0 here)
ATE_LOOP_COUNT_BLS = -BLS12_381_U


class FQ2B(FQP):
    degree = 2
    modulus_coeffs = (1, 0)  # i^2 = -1
    prime = P_BLS


class FQ12B(FQP):
    degree = 12
    modulus_coeffs = (2, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0)  # w^12 = 2w^6 - 2
    prime = P_BLS


#: twisted-curve coefficient: b2 = 4 * (1 + i)
B2_BLS = FQ2B([4, 4])
B12_BLS = FQ12B.from_int(4)

G1_GENERATOR_BLS = (_BLS.gx, _BLS.gy)

G2_GENERATOR_BLS = (
    FQ2B(
        [
            0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
            0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
        ]
    ),
    FQ2B(
        [
            0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
            0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
        ]
    ),
)


G2_BLS = G2Curve(P_BLS, B2_BLS.coeffs, FQ2B, R_BLS)
ENGINE_BLS = PairingEngine(
    name="BLS12-381",
    fq12=FQ12B,
    g2=G2_BLS,
    g1_b=_BLS.b,
    xi0=1,
    twist_divides=True,
    loop_count=ATE_LOOP_COUNT_BLS,
    frobenius_tail=False,
)


def twist_bls(pt):
    """Map a G2 point over Fp2 onto the Fp12 curve (``i -> w^6 - 1``)."""
    return ENGINE_BLS.twist(pt)


def cast_g1_to_fq12_bls(pt):
    if pt is None:
        return None
    x, y = pt
    return (FQ12B.from_int(x), FQ12B.from_int(y))


def miller_loop_bls(q, p_pt) -> FQ12B:
    """The BLS ate Miller loop (no Frobenius tail), sans final exp.

    ``q`` and ``p_pt`` are over Fp12, as :func:`twist_bls` and
    :func:`cast_g1_to_fq12_bls` produce them.
    """
    if q is None or p_pt is None:
        return FQ12B.one()
    p1 = (p_pt[0].coeffs[0], p_pt[1].coeffs[0])
    return FQ12B(ENGINE_BLS.miller_loop([(p1, ENGINE_BLS.untwist(q))]))


def final_exponentiate_bls(f: FQ12B) -> FQ12B:
    return FQ12B(ENGINE_BLS.final_exponentiate(list(f.coeffs)))


def pairing_bls(q2, p1) -> FQ12B:
    """``e(P1, Q2)`` on BLS12-381; inputs as in the BN254 module."""
    return ENGINE_BLS.pairing(q2, p1)


def pairing_check_bls(pairs: list) -> bool:
    """Whether ``prod e(P_i, Q_i) == 1`` with one final exponentiation."""
    return ENGINE_BLS.pairing_check(pairs)


g2_add_bls = G2_BLS.add
g2_mul_bls = G2_BLS.mul
g2_neg_bls = G2_BLS.neg
g2_msm_bls = G2_BLS.msm
g2_in_subgroup_bls = G2_BLS.in_subgroup
