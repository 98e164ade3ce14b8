"""BLS12-381 ate pairing: tower fast tests + slow bilinearity checks."""

import pytest

from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint, affine_neg, pmul
from repro.zksnark.pairing_bls import (
    ATE_LOOP_COUNT_BLS,
    FQ2B,
    FQ12B,
    G1_GENERATOR_BLS,
    G2_BLS,
    G2_GENERATOR_BLS,
    g2_mul_bls,
    pairing_bls,
    pairing_check_bls,
    twist_bls,
)

BLS = curve_by_name("BLS12-381")


class TestTower:
    def test_i_squared(self):
        i = FQ2B([0, 1])
        assert i * i == FQ2B([-1, 0])

    def test_w6_is_one_plus_i(self):
        """The embedded i = w^6 - 1 must square to -1."""
        w = FQ12B([0, 1] + [0] * 10)
        i_embedded = w**6 - 1
        assert i_embedded * i_embedded == FQ12B.from_int(-1)

    def test_inverse(self):
        a = FQ12B(list(range(1, 13)))
        assert a * a.inverse() == FQ12B.one()

    def test_distinct_from_bn_classes(self):
        from repro.zksnark.pairing import FQ2

        assert FQ2B.prime != FQ2.prime


class TestG2:
    def test_generator_on_twist(self):
        assert G2_BLS.is_on_curve(G2_GENERATOR_BLS)

    def test_twist_lands_on_fq12_curve(self):
        tx, ty = twist_bls(G2_GENERATOR_BLS)
        assert ty * ty - tx * tx * tx == FQ12B.from_int(4)

    def test_scalar_mul_homomorphic(self):
        lhs = g2_mul_bls(g2_mul_bls(G2_GENERATOR_BLS, 2), 3)
        rhs = g2_mul_bls(G2_GENERATOR_BLS, 6)
        assert lhs == rhs

    @pytest.mark.slow
    def test_generator_order(self):
        assert g2_mul_bls(G2_GENERATOR_BLS, BLS.r) is None


class TestLoopCount:
    def test_is_abs_curve_parameter(self):
        from repro.curves.params import BLS12_381_U

        assert ATE_LOOP_COUNT_BLS == -BLS12_381_U
        assert ATE_LOOP_COUNT_BLS == 0xD201000000010000


class TestInputValidation:
    def test_off_curve_g1_rejected(self):
        with pytest.raises(ValueError):
            pairing_bls(G2_GENERATOR_BLS, (1, 1))

    def test_off_twist_g2_rejected(self):
        bad = (G2_GENERATOR_BLS[0], G2_GENERATOR_BLS[0])
        with pytest.raises(ValueError):
            pairing_bls(bad, G1_GENERATOR_BLS)


@pytest.mark.slow
class TestPairingProperties:
    @pytest.fixture(scope="class")
    def e_gen(self):
        return pairing_bls(G2_GENERATOR_BLS, G1_GENERATOR_BLS)

    def test_non_degenerate(self, e_gen):
        assert e_gen != FQ12B.one()

    def test_bilinear_in_g1(self, e_gen):
        g = AffinePoint(BLS.gx, BLS.gy)
        p3 = pmul(g, 3, BLS)
        assert pairing_bls(G2_GENERATOR_BLS, (p3.x, p3.y)) == e_gen**3

    def test_bilinear_in_g2(self, e_gen):
        q2 = g2_mul_bls(G2_GENERATOR_BLS, 2)
        assert pairing_bls(q2, G1_GENERATOR_BLS) == e_gen * e_gen

    def test_inverse_pair_cancels(self):
        g = AffinePoint(BLS.gx, BLS.gy)
        neg = affine_neg(g, BLS)
        assert pairing_check_bls(
            [
                ((neg.x, neg.y), G2_GENERATOR_BLS),
                ((g.x, g.y), G2_GENERATOR_BLS),
            ]
        )

    def test_unbalanced_product_fails(self):
        g = AffinePoint(BLS.gx, BLS.gy)
        p2 = pmul(g, 2, BLS)
        assert not pairing_check_bls(
            [
                ((p2.x, p2.y), G2_GENERATOR_BLS),
                ((g.x, g.y), G2_GENERATOR_BLS),
            ]
        )

    def test_identity_inputs(self):
        assert pairing_bls(None, G1_GENERATOR_BLS) == FQ12B.one()
        assert pairing_bls(G2_GENERATOR_BLS, None) == FQ12B.one()
