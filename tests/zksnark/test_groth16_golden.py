"""Seeded Groth16 outputs and pairing values must not drift.

``golden/groth16.json`` holds, for fixed ``random.Random`` seeds:

* the compressed bytes of pk, vk and proof on BN254 (``hash_chain_circuit``),
  as SHA-256 digests for the keys and in full for the 128-byte proof;
* a digest of every coordinate of pk, vk and proof on BLS12-381, for a
  small cubic circuit (the compressed encoding is BN254-only);
* ``pairing(G2_GENERATOR, G1_GENERATOR)`` on each backend, as its twelve
  flat coefficients.

Any change to G2, pairing or MSM arithmetic must keep all of them.  Regenerate
(only when the protocol itself changes) with::

    PYTHONPATH=src python tests/zksnark/test_groth16_golden.py regen
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.curves.params import curve_by_name
from repro.zksnark.groth16 import Groth16
from repro.zksnark.r1cs import R1cs
from repro.zksnark.serialize import compress_g1, compress_g2, serialize_proof
from repro.zksnark.workloads import hash_chain_circuit

GOLDEN = Path(__file__).parent / "golden" / "groth16.json"

BN_CHAIN = 8
BN_SETUP_SEED, BN_PROVE_SEED = 0x5EED, 0xB1DE
BLS_SETUP_SEED, BLS_PROVE_SEED = 71, 72


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pk_points(pk):
    g1 = [pk.alpha_g1, pk.beta_g1, pk.delta_g1]
    g1 += pk.a_query + pk.b_g1_query + pk.l_query + pk.h_query
    return g1, [pk.beta_g2, pk.delta_g2] + pk.b_g2_query


def _vk_points(vk):
    return [vk.alpha_g1] + vk.ic, [vk.beta_g2, vk.gamma_g2, vk.delta_g2]


def _compressed(g1_points, g2_points) -> bytes:
    return b"".join(compress_g1(p) for p in g1_points) + b"".join(
        compress_g2(q) for q in g2_points
    )


def _coords(g1_points, g2_points) -> list:
    out = [None if p.infinity else [p.x, p.y] for p in g1_points]
    for q in g2_points:
        out.append(None if q is None else [list(q[0].coeffs), list(q[1].coeffs)])
    return out


def bn254_record() -> dict:
    r1cs, witness = hash_chain_circuit(BN_CHAIN)
    groth = Groth16(r1cs)
    pk, vk = groth.setup(random.Random(BN_SETUP_SEED))
    proof = groth.prove(pk, witness, random.Random(BN_PROVE_SEED))
    return {
        "pk_sha256": _sha(_compressed(*_pk_points(pk))),
        "vk_sha256": _sha(_compressed(*_vk_points(vk))),
        "proof_hex": serialize_proof(proof).hex(),
    }


def bls_cubic_circuit():
    r1cs = R1cs(modulus=curve_by_name("BLS12-381").r)
    out = r1cs.declare_public(1)[0]
    x, x2, x3 = (r1cs.new_variable() for _ in range(3))
    r1cs.enforce_product(x, x, x2)
    r1cs.enforce_product(x2, x, x3)
    r1cs.enforce_linear({x3: 1, x: 1, 0: 5}, out)
    return r1cs, [1, 35, 3, 9, 27]


def bls12_381_record() -> dict:
    r1cs, witness = bls_cubic_circuit()
    groth = Groth16(r1cs, backend="BLS12-381")
    pk, vk = groth.setup(random.Random(BLS_SETUP_SEED))
    proof = groth.prove(pk, witness, random.Random(BLS_PROVE_SEED))
    doc = {
        "pk": _coords(*_pk_points(pk)),
        "vk": _coords(*_vk_points(vk)),
        "proof": _coords([proof.a, proof.c], [proof.b]),
    }
    return {"coords_sha256": _sha(json.dumps(doc, sort_keys=True).encode())}


def pairing_record() -> dict:
    from repro.zksnark.pairing import G1_GENERATOR, G2_GENERATOR, pairing
    from repro.zksnark.pairing_bls import G1_GENERATOR_BLS, G2_GENERATOR_BLS, pairing_bls

    return {
        "BN254": [hex(c) for c in pairing(G2_GENERATOR, G1_GENERATOR).coeffs],
        "BLS12-381": [
            hex(c) for c in pairing_bls(G2_GENERATOR_BLS, G1_GENERATOR_BLS).coeffs
        ],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


REGEN = f"regenerate with: PYTHONPATH=src python {__file__} regen"


@pytest.mark.slow
class TestGroth16Golden:
    def test_bn254_keys_and_proof_bytes(self, golden):
        assert bn254_record() == golden["groth16_bn254"], REGEN

    def test_bls12_381_coordinates(self, golden):
        assert bls12_381_record() == golden["groth16_bls12_381"], REGEN

    def test_pairing_values(self, golden):
        assert pairing_record() == golden["pairing_generators"], REGEN


def regen() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {
        "groth16_bn254": bn254_record(),
        "groth16_bls12_381": bls12_381_record(),
        "pairing_generators": pairing_record(),
    }
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["regen"]:
        regen()
    else:
        sys.exit(f"usage: {sys.argv[0]} regen")
