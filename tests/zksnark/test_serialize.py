"""Proof compression: the paper's ~127-byte proof encoding."""

import random

import pytest

from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint, pmul
from repro.zksnark import pairing as pr
from repro.zksnark.serialize import (
    PROOF_BYTES,
    SerializationError,
    compress_g1,
    compress_g2,
    decompress_g1,
    decompress_g2,
    deserialize_proof,
    serialize_proof,
)

BN254 = curve_by_name("BN254")
G1 = AffinePoint(BN254.gx, BN254.gy)


class TestG1Compression:
    @pytest.mark.parametrize("k", [1, 2, 7, 123456789, 2**200 + 17])
    def test_round_trip(self, k):
        pt = pmul(G1, k, BN254)
        assert decompress_g1(compress_g1(pt)) == pt

    def test_infinity(self):
        data = compress_g1(AffinePoint.identity())
        assert decompress_g1(data).infinity

    def test_length_checked(self):
        with pytest.raises(SerializationError):
            decompress_g1(b"\x00" * 31)

    def test_off_curve_x_rejected(self):
        # x = 0 -> rhs = 3, which is a QR? pick an x known off-curve
        for x in range(1, 50):
            rhs = (x**3 + 3) % BN254.p
            if pow(rhs, (BN254.p - 1) // 2, BN254.p) != 1:
                data = x.to_bytes(32, "big")
                with pytest.raises(SerializationError):
                    decompress_g1(data)
                return
        pytest.skip("no small off-curve x found")

    def test_oversized_x_rejected(self):
        data = (BN254.p + 1).to_bytes(32, "big")
        with pytest.raises(SerializationError):
            decompress_g1(data)

    def test_malformed_infinity_rejected(self):
        bad = bytes([0x40]) + bytes(30) + b"\x01"
        with pytest.raises(SerializationError):
            decompress_g1(bad)


class TestG2Compression:
    @pytest.mark.parametrize("k", [1, 3, 99, 2**60 + 5])
    def test_round_trip(self, k):
        pt = pr.g2_mul(pr.G2_GENERATOR, k)
        assert decompress_g2(compress_g2(pt)) == pt

    def test_infinity(self):
        assert decompress_g2(compress_g2(None)) is None

    def test_length_checked(self):
        with pytest.raises(SerializationError):
            decompress_g2(b"\x00" * 63)

    def test_decompressed_point_on_twist(self):
        pt = pr.g2_mul(pr.G2_GENERATOR, 42)
        got = decompress_g2(compress_g2(pt))
        assert pr.G2.is_on_curve(got)


@pytest.mark.slow
class TestProofSerialization:
    @pytest.fixture(scope="class")
    def proven(self):
        from repro.zksnark.groth16 import Groth16
        from repro.zksnark.workloads import hash_chain_circuit

        r1cs, assignment = hash_chain_circuit(6, seed=2)
        groth = Groth16(r1cs)
        pk, vk = groth.setup(random.Random(31))
        proof = groth.prove(pk, assignment, random.Random(32))
        return groth, vk, r1cs, assignment, proof

    def test_proof_size_matches_paper(self, proven):
        _, _, _, _, proof = proven
        data = serialize_proof(proof)
        assert len(data) == PROOF_BYTES == 128  # paper: "127 bytes"

    def test_round_trip_verifies(self, proven):
        groth, vk, r1cs, assignment, proof = proven
        restored = deserialize_proof(serialize_proof(proof))
        assert restored == proof
        assert groth.verify(vk, restored, r1cs.public_inputs(assignment))

    def test_bit_flip_detected_or_rejected(self, proven):
        """A tampered byte either fails decoding or fails verification."""
        groth, vk, r1cs, assignment, proof = proven
        data = bytearray(serialize_proof(proof))
        data[5] ^= 0x01
        try:
            forged = deserialize_proof(bytes(data))
        except SerializationError:
            return  # rejected at decode time: fine
        assert not groth.verify(vk, forged, r1cs.public_inputs(assignment))
