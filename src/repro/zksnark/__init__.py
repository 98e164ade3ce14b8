"""zkSNARK substrate: everything proof generation needs, for real.

The paper's end-to-end evaluation (Table 4) runs Groth16 provers; this
package implements the full stack from scratch so the MSM engines have a
genuine consumer:

* :mod:`repro.zksnark.ntt` — number-theoretic transforms over the curves'
  scalar fields (the evaluation's second-largest kernel).
* :mod:`repro.zksnark.r1cs` — rank-1 constraint systems.
* :mod:`repro.zksnark.qap` — R1CS -> quadratic arithmetic program.
* :mod:`repro.zksnark.pairing` — the BN254 optimal-ate pairing
  (Fp2/Fp12 tower, shared Miller loop, split final exponentiation), on
  the inversion-free G2 arithmetic of :mod:`repro.zksnark.g2`.
* :mod:`repro.zksnark.groth16` — setup / prove / verify; the prover's
  commitments run through :mod:`repro.msm`.
* :mod:`repro.zksnark.workloads` — synthetic circuits standing in for the
  paper's Zcash-Sprout / Otti-SGD / ZEN-LeNet instances.
* :mod:`repro.zksnark.pipeline` — the end-to-end proving-time model
  reproducing Table 4.

Beyond the paper's immediate needs: :mod:`repro.zksnark.pairing_bls`
(BLS12-381 ate pairing, second backend for Groth16),
:mod:`repro.zksnark.builder` (a circuit DSL with correct-by-construction
witnesses), :mod:`repro.zksnark.poseidon` (an algebraic hash, native and
as a gadget), :mod:`repro.zksnark.serialize` (the 128-byte compressed
proof encoding), and :mod:`repro.zksnark.ntt_gpu` (a GPU NTT model).
"""

from repro.zksnark.backend import PairingBackend, backend_by_name
from repro.zksnark.builder import CircuitBuilder
from repro.zksnark.groth16 import Groth16, Proof
from repro.zksnark.ntt import NttDomain
from repro.zksnark.r1cs import R1cs
from repro.zksnark.serialize import deserialize_proof, serialize_proof

__all__ = [
    "Groth16",
    "Proof",
    "NttDomain",
    "R1cs",
    "CircuitBuilder",
    "PairingBackend",
    "backend_by_name",
    "serialize_proof",
    "deserialize_proof",
]
