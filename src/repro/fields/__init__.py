"""Finite-field arithmetic substrate.

This package implements the big-integer and modular arithmetic layer the
paper's GPU kernels are built on:

* :mod:`repro.fields.limbs` — 32-bit limb vectors with word-level schoolbook
  arithmetic and operation counting (the counts drive the GPU cost model).
* :mod:`repro.fields.montgomery` — Montgomery-domain modular multiplication
  with the SOS / CIOS / FIOS word-level algorithms discussed in the paper's
  background (Algorithm 2).
* :mod:`repro.fields.prime_field` — the prime-field element API used by the
  curve and zkSNARK layers.
"""

from repro.fields.limbs import (
    OpCounter,
    WORD_BITS,
    WORD_MASK,
    from_limbs,
    limb_count,
    limbs_add,
    limbs_mul,
    limbs_sub,
    to_limbs,
)
from repro.fields.montgomery import MontgomeryContext
from repro.fields.prime_field import PrimeField

__all__ = [
    "OpCounter",
    "WORD_BITS",
    "WORD_MASK",
    "from_limbs",
    "limb_count",
    "limbs_add",
    "limbs_mul",
    "limbs_sub",
    "to_limbs",
    "MontgomeryContext",
    "PrimeField",
]

