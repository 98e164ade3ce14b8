"""Groth16 prove+verify and pairing-check speedups over the frozen arithmetic.

Usage::

    PYTHONPATH=src python benchmarks/bench_groth16.py [--smoke]

Times the live G2 and pairing arithmetic against the code it replaced
(``tests.support.frozen_pairing``: affine G2 over ``FQ2``, one
affine-over-Fp12 Miller loop per pair, the plain ``(p^12 - 1) / r``
power), in the same process on the same inputs, and writes
``results/BENCH_groth16.json`` for the CI regression gate
(``benchmarks/compare_bench.py``):

* ``prove_verify_speedup`` — one BN254 ``prove`` plus ``verify`` of
  ``hash_chain_circuit`` with the frozen backend
  (:func:`~tests.support.frozen_pairing.frozen_backend`) over the same with
  the live one.  Both use the same keys and blinding, and must produce the
  same proof bytes and the same verdict.
* ``pairing_check_speedup`` — the four-pair product verification
  evaluates, frozen over live, with the same verdict.

Each side is the median of ``REPEATS`` runs.  ``--smoke`` (the
``make bench-smoke`` hook) uses a shorter hash chain.
"""

from __future__ import annotations

import json
import pathlib
import random
import statistics
import sys
import time

from repro.zksnark.groth16 import Groth16
from repro.zksnark.serialize import serialize_proof
from repro.zksnark.workloads import hash_chain_circuit

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"
# the frozen reference arithmetic is test-support code at the repository root
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from tests.support.frozen_pairing import frozen_backend  # noqa: E402

REPEATS = 3


def _median_time(fn) -> tuple[float, object]:
    times, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run(smoke: bool) -> dict:
    length = 16 if smoke else 48
    r1cs, witness = hash_chain_circuit(length)
    public = r1cs.public_inputs(witness)
    live = Groth16(r1cs)
    frozen = Groth16(r1cs, backend=frozen_backend("BN254"))
    pk, vk = live.setup(random.Random(1))

    def prove_verify(system):
        def once():
            proof = system.prove(pk, witness, random.Random(2))
            return serialize_proof(proof), system.verify(vk, proof, public)

        return once

    old_s, old = _median_time(prove_verify(frozen))
    new_s, new = _median_time(prove_verify(live))
    assert old == new and new[1] is True, "live and frozen proofs differ"

    proof = live.prove(pk, witness, random.Random(2))
    pairs = live.verification_pairs(vk, proof, public)
    old_pc_s, old_pc = _median_time(lambda: frozen.backend.pairing_check(pairs))
    new_pc_s, new_pc = _median_time(lambda: live.backend.pairing_check(pairs))
    assert old_pc is new_pc is True, "pairing checks disagree"

    return {
        "bench": "groth16",
        "smoke": smoke,
        "circuit": f"hash_chain_circuit({length})",
        "constraints": r1cs.num_constraints,
        "prove_verify": {
            "frozen_s": round(old_s, 4),
            "live_s": round(new_s, 4),
            "prove_verify_speedup": round(old_s / new_s, 2),
        },
        "pairing_check": {
            "pairs": len(pairs),
            "frozen_s": round(old_pc_s, 4),
            "live_s": round(new_pc_s, 4),
            "pairing_check_speedup": round(old_pc_s / new_pc_s, 2),
        },
    }


def main(argv: list[str]) -> int:
    record = run("--smoke" in argv)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_groth16.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    pv, pc = record["prove_verify"], record["pairing_check"]
    print(
        f"{record['circuit']}: prove+verify {pv['frozen_s']:.3f}s -> {pv['live_s']:.3f}s "
        f"({pv['prove_verify_speedup']:.2f}x); pairing_check {pc['frozen_s']:.3f}s -> "
        f"{pc['live_s']:.3f}s ({pc['pairing_check_speedup']:.2f}x)"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
