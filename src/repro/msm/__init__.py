"""Multi-scalar multiplication algorithms (functional references).

* :mod:`repro.msm.naive` — the definitionally correct ``sum(k_i * P_i)``.
* :mod:`repro.msm.generic` — the one host-side bucket method: signed-digit
  Pippenger over any group given its operations (G1 XYZZ, G2), and the
  running-sum bucket reduce and window fold the DistMSM host reduces share.
* :mod:`repro.msm.pippenger` — :mod:`~repro.msm.generic` bound to a curve's
  G1; the algorithmic baseline every engine is validated against.
* :mod:`repro.msm.precompute` — window-collapse precomputation tables
  (§2.3.1) and their cache, used by the engine's ``precompute`` path.
* :mod:`repro.msm.batch_affine` — the batched-affine pairwise adder the
  simulated bucket sum runs on.
* :mod:`repro.msm.outsource` — the 2G2T verifiable-outsourcing protocol:
  constant-size commitment checks over delivered chunk results, used by
  the multi-GPU engine's Byzantine-tolerant path (DESIGN.md §14).

The multi-GPU engine lives in :mod:`repro.core`; baselines in
:mod:`repro.baselines`.  Both must agree with :func:`repro.msm.naive.naive_msm`
on every input — tests enforce this.
"""

from repro.msm.naive import naive_msm
from repro.msm.outsource import (
    Challenge,
    ChunkClaim,
    batch_verify,
    chunk_value,
    make_response,
    sample_challenge,
    soundness_bits,
    verify_chunk,
)
from repro.msm.pippenger import pippenger_msm

__all__ = [
    "naive_msm",
    "pippenger_msm",
    "Challenge",
    "ChunkClaim",
    "batch_verify",
    "chunk_value",
    "make_response",
    "sample_challenge",
    "soundness_bits",
    "verify_chunk",
]
