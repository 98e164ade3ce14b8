"""Compact proof serialization — the paper's "proof sizes under 1 KB".

Table 4's discussion quotes 127-byte proofs with 1.2 ms verification.  A
Groth16 proof is two G1 points and one G2 point; with point compression
(x-coordinate plus one sign bit, folded into the spare top bits of the
32-byte field encoding) that is ``32 + 32 + 64 = 128`` bytes — matching
the paper's figure to within its rounding.

Decompression recovers ``y`` from the curve equation, so a tampered byte
either fails decompression outright or yields a different (and
non-verifying) point.
"""

from __future__ import annotations

from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint
from repro.fields.prime_field import PrimeField
from repro.zksnark.groth16 import Proof
from repro.zksnark.pairing import B2, FQ2, G2

BN254 = curve_by_name("BN254")
_FIELD = PrimeField(BN254.p)

FLAG_INFINITY = 0x40
FLAG_Y_ODD = 0x80
#: total bytes of a compressed proof: G1 + G1 + G2
PROOF_BYTES = 32 + 32 + 64


class SerializationError(ValueError):
    """Raised when bytes do not decode to valid curve points."""


def compress_g1(pt: AffinePoint) -> bytes:
    """32-byte big-endian x with sign/infinity flags in the top bits."""
    if pt.infinity:
        return bytes([FLAG_INFINITY]) + bytes(31)
    flags = FLAG_Y_ODD if pt.y & 1 else 0
    raw = pt.x.to_bytes(32, "big")
    if raw[0] & 0xC0:
        raise SerializationError("field element collides with flag bits")
    return bytes([raw[0] | flags]) + raw[1:]


def decompress_g1(data: bytes) -> AffinePoint:
    """Recover a G1 point: solve ``y^2 = x^3 + 3`` and pick by sign bit."""
    if len(data) != 32:
        raise SerializationError(f"G1 encoding must be 32 bytes, got {len(data)}")
    flags = data[0] & 0xC0
    if flags & FLAG_INFINITY:
        if any(data[1:]) or data[0] != FLAG_INFINITY:
            raise SerializationError("malformed infinity encoding")
        return AffinePoint.identity()
    x = int.from_bytes(bytes([data[0] & 0x3F]) + data[1:], "big")
    if x >= BN254.p:
        raise SerializationError("x-coordinate out of field range")
    rhs = (x * x * x + BN254.b) % BN254.p
    y = _FIELD.sqrt(rhs)
    if y is None:
        raise SerializationError("x-coordinate is not on the curve")
    if (y & 1) != bool(flags & FLAG_Y_ODD):
        y = BN254.p - y
    return AffinePoint(x, y)


def compress_g2(pt: tuple) -> bytes:
    """64-byte encoding: both Fp2 limbs of x, flags on the first byte.

    The sign bit stores the parity of the ``a`` limb of ``y``; when that
    limb is zero the parity of the ``b`` limb disambiguates (flagged via
    the second byte's top bit, which is always free).
    """
    if pt is None:
        return bytes([FLAG_INFINITY]) + bytes(63)
    x, y = pt
    parity_source = y.coeffs[0] if y.coeffs[0] else y.coeffs[1]
    flags = FLAG_Y_ODD if parity_source & 1 else 0
    raw_a = x.coeffs[0].to_bytes(32, "big")
    raw_b = x.coeffs[1].to_bytes(32, "big")
    if raw_a[0] & 0xC0:
        raise SerializationError("field element collides with flag bits")
    return bytes([raw_a[0] | flags]) + raw_a[1:] + raw_b


def decompress_g2(data: bytes) -> tuple:
    """Recover a G2 point on the twist ``y^2 = x^3 + b2``."""
    if len(data) != 64:
        raise SerializationError(f"G2 encoding must be 64 bytes, got {len(data)}")
    flags = data[0] & 0xC0
    if flags & FLAG_INFINITY:
        if any(data[1:]) or data[0] != FLAG_INFINITY:
            raise SerializationError("malformed infinity encoding")
        return None
    xa = int.from_bytes(bytes([data[0] & 0x3F]) + data[1:32], "big")
    xb = int.from_bytes(data[32:], "big")
    if xa >= BN254.p or xb >= BN254.p:
        raise SerializationError("x-coordinate out of field range")
    x = FQ2([xa, xb])
    rhs = x * x * x + B2
    y = _fq2_sqrt(rhs)
    if y is None:
        raise SerializationError("x-coordinate is not on the twist")
    parity_source = y.coeffs[0] if y.coeffs[0] else y.coeffs[1]
    if (parity_source & 1) != bool(flags & FLAG_Y_ODD):
        y = -y
    return (x, y)


def _fq2_sqrt(value: FQ2) -> FQ2 | None:
    """Square root in Fp2 via the norm trick (p = 3 mod 4).

    Works for any ``Fp[i]/(i^2 + 1)`` class (``FQ2`` or ``FQ2B``); the
    result has the type of ``value``.
    """
    fq2 = type(value)
    a, b = value.coeffs
    p = value.prime
    field = _FIELD if p == BN254.p else PrimeField(p)
    if b == 0:
        root = field.sqrt(a)
        if root is not None:
            return fq2([root, 0])
        # sqrt(a) = sqrt(-a) * sqrt(-1); -1 is a non-residue (p = 3 mod 4)
        root = field.sqrt((-a) % p)
        if root is None:
            return None
        return fq2([0, root])
    norm = (a * a + b * b) % p
    n_root = field.sqrt(norm)
    if n_root is None:
        return None
    for sign in (1, -1):
        half = (a + sign * n_root) * pow(2, -1, p) % p
        c = field.sqrt(half)
        if c is None or c == 0:
            continue
        d = b * pow(2 * c, -1, p) % p
        cand = fq2([c, d])
        if cand * cand == value:
            return cand
    return None


def serialize_proof(proof: Proof) -> bytes:
    """Compress a proof to :data:`PROOF_BYTES` bytes (A || B || C)."""
    return compress_g1(proof.a) + compress_g2(proof.b) + compress_g1(proof.c)


def deserialize_proof(data: bytes) -> Proof:
    """Decode and validate a compressed proof."""
    if len(data) != PROOF_BYTES:
        raise SerializationError(
            f"proof must be {PROOF_BYTES} bytes, got {len(data)}"
        )
    a = decompress_g1(data[:32])
    b = decompress_g2(data[32:96])
    c = decompress_g1(data[96:])
    if not a.infinity and not BN254.is_on_curve(a.x, a.y):
        raise SerializationError("proof.A is off-curve")
    if not G2.is_on_curve(b):
        raise SerializationError("proof.B is off the twist")
    return Proof(a=a, b=b, c=c)
