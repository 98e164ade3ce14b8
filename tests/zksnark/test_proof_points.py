"""Groth16 verify rejects proof points outside the prime-order subgroups.

BN254's G2 twist and both of BLS12-381's groups have large cofactors, so a
point can satisfy its curve equation and still not be a group element the
pairing argument covers.  Verify checks ``r * B = O`` (and, on BLS12-381,
``r * A = r * C = O``) before any pairing, and raises ``ValueError`` like
the off-curve check does.
"""

import random
from dataclasses import replace

import pytest

from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint, pmul
from repro.fields.prime_field import PrimeField
from repro.zksnark.backend import backend_by_name
from repro.zksnark.groth16 import Groth16, Proof, check_proof_points
from repro.zksnark.pairing import B2, FQ2, G2
from repro.zksnark.pairing_bls import B2_BLS, FQ2B
from repro.zksnark.r1cs import R1cs
from repro.zksnark.serialize import _fq2_sqrt


def cubic_circuit(modulus: int):
    r1cs = R1cs(modulus=modulus)
    out = r1cs.declare_public(1)[0]
    x, x2, x3 = (r1cs.new_variable() for _ in range(3))
    r1cs.enforce_product(x, x, x2)
    r1cs.enforce_product(x2, x, x3)
    r1cs.enforce_linear({x3: 1, x: 1, 0: 5}, out)
    return r1cs, [1, 35, 3, 9, 27]


def twist_point_outside_g2(fq2, b2):
    """A point on the twist ``y^2 = x^3 + b2`` that is not of order r."""
    x = fq2([1, 0])
    while True:
        y = _fq2_sqrt(x * x * x + b2)
        if y is not None:
            return (x, y)
        x = x + 1


def g1_point_outside_subgroup(curve):
    field = PrimeField(curve.p)
    x = 1
    while True:
        y = field.sqrt((x**3 + curve.a * x + curve.b) % curve.p)
        if y is not None and not pmul(AffinePoint(x, y), curve.r, curve).infinity:
            return AffinePoint(x, y)
        x += 1


def build_system(name):
    curve = curve_by_name(name)
    r1cs, assignment = cubic_circuit(curve.r)
    groth = Groth16(r1cs, backend=name)
    pk, vk = groth.setup(random.Random(5))
    proof = groth.prove(pk, assignment, random.Random(6))
    return name, groth, vk, proof, r1cs.public_inputs(assignment)


@pytest.fixture(scope="module", params=["BN254", "BLS12-381"])
def system(request):
    return build_system(request.param)


@pytest.fixture(scope="module")
def bls_system():
    return build_system("BLS12-381")


def outside_b(name):
    if name == "BN254":
        return twist_point_outside_g2(FQ2, B2)
    return twist_point_outside_g2(FQ2B, B2_BLS)


class TestG2SubgroupCheck:
    def test_point_is_on_twist_but_not_in_g2(self):
        b = twist_point_outside_g2(FQ2, B2)
        backend = backend_by_name("BN254")
        assert G2.is_on_curve(b)
        assert not backend.g2_in_subgroup(b)
        assert backend.g2_in_subgroup(backend.g2_generator)

    def test_honest_proof_verifies(self, system):
        _, groth, vk, proof, public = system
        assert groth.verify(vk, proof, public)

    def test_non_subgroup_b_rejected(self, system):
        name, groth, vk, proof, public = system
        forged = replace(proof, b=outside_b(name))
        with pytest.raises(ValueError, match="proof.B is not in G2"):
            groth.verify(vk, forged, public)

    def test_off_twist_b_rejected(self, system):
        _, groth, vk, proof, public = system
        x, _ = proof.b
        with pytest.raises(ValueError, match="proof.B is not in G2"):
            groth.verify(vk, replace(proof, b=(x, x)), public)

    def test_off_twist_point_of_order_r_rejected(self, system):
        """The G1 generator embedded in Fp2 has order r under the G2
        formulas (they never read b) but is not on the twist."""
        name, groth, vk, proof, public = system
        curve = curve_by_name(name)
        fq2 = FQ2 if name == "BN254" else FQ2B
        embedded = (fq2([curve.gx, 0]), fq2([curve.gy, 0]))
        with pytest.raises(ValueError, match="proof.B is not in G2"):
            groth.verify(vk, replace(proof, b=embedded), public)

    def test_check_uses_no_backend_g2_mul(self, system):
        name, groth, _, proof, _ = system
        calls = []
        backend = replace(
            groth.backend,
            g2_mul=lambda pt, k: calls.append(k) or groth.backend.g2_mul(pt, k),
        )
        check_proof_points(backend, proof)
        with pytest.raises(ValueError):
            check_proof_points(backend, replace(proof, b=outside_b(name)))
        assert calls == []


class TestG1SubgroupCheck:
    def test_bn254_has_no_g1_cofactor(self):
        assert curve_by_name("BN254").cofactor == 1

    @pytest.mark.parametrize("field", ["a", "c"])
    def test_bls_non_subgroup_g1_rejected(self, bls_system, field):
        name, groth, vk, proof, public = bls_system
        outside = g1_point_outside_subgroup(curve_by_name(name))
        with pytest.raises(ValueError, match=f"proof.{field.upper()} is not in the order-r"):
            groth.verify(vk, replace(proof, **{field: outside}), public)

    def test_off_curve_g1_rejected(self, system):
        name, groth, vk, proof, public = system
        bad = AffinePoint(proof.a.x, proof.a.y + 1)
        with pytest.raises(ValueError, match="proof.A is not on"):
            groth.verify(vk, replace(proof, a=bad), public)

    def test_identity_points_pass_the_check(self, system):
        name, groth, _, proof, _ = system
        check_proof_points(
            groth.backend, Proof(a=AffinePoint.identity(), b=None, c=AffinePoint.identity())
        )
