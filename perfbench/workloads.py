"""The benchmark's three workloads.

Each workload makes every input from the run's seed and hands the program
only the generated inputs.  The runner calls:

* ``setup()`` — everything the program does before the first timed
  operation (timed as ``setup_s``);
* ``make_input(i)`` then ``op(inp)`` — one timed operation; ``make_input``
  with the same ``i`` always builds the same input;
* ``check(inp, out)`` — the independent output check, outside the timing;
* ``exact(out)`` — the operation's counts and modelled values, which must
  repeat exactly for the same seed, traced or not;
* ``aggregate(exacts)`` — per-layer metrics over a traced section.

``replays`` marks a workload whose operations all take the same input, so
their exact values must all be equal; ``reference`` names the
``refspeed`` kernel that slows down the way the workload does; ``layers``
names the traced layers (``spans.LAYERS``) a traced run must enter;
``setup_runs`` is how many set-ups an untraced run times for ``setup_s``.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

import ecref


def derive(seed: int, *parts: object) -> random.Random:
    """A generator for one named input stream of one seed."""
    return random.Random(":".join(str(p) for p in ("perfbench", seed, *parts)))


def digest(*values: object) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:24]


def _xyzz_add_us(points, curve) -> float:
    """Median µs per ``xyzz_add`` over a chain through ``points``."""
    from repro.curves.point import XyzzPoint, xyzz_add

    chain = [XyzzPoint.from_affine(p) for p in points if not p.infinity]
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = chain[0]
        for pt in chain[1:]:
            acc = xyzz_add(acc, pt, curve)
        samples.append((time.perf_counter() - start) / (len(chain) - 1) * 1e6)
    return statistics.median(samples)


class MsmWorkload:
    """``DistMsm.execute`` on BLS12-381, n = 2^12, four simulated GPUs.

    The bases are P_i = (b + i*t) * G with b and t drawn from the seed, so
    the expected result of scalars k_i is one scalar multiple of G.
    """

    name = "msm-bls12-381"
    reference = "bigint"  # refspeed kernel that gauges the host
    item = "points"
    replays = False
    setup_runs = 3
    layers = (
        "core.distmsm", "core.estimate", "core.scatter", "core.bucket_sum",
        "core.bucket_reduce", "analyze.check_plan", "engine.simulate",
    )
    nominal_op_s = 4.0
    N = 1 << 12
    GPUS = 4

    def __init__(self, seed: int) -> None:
        from repro.curves.params import curve_by_name
        from repro.curves.point import AffinePoint

        self.seed = seed
        self.curve = c = curve_by_name("BLS12-381")
        rng = derive(seed, "bases")
        while True:
            b, t = rng.randrange(1, c.r), rng.randrange(1, c.r)
            self.logs = [(b + i * t) % c.r for i in range(self.N)]
            if all(self.logs):
                break
        self.g = (c.gx, c.gy)
        point = ecref.mul(self.g, b, c.p, c.a)
        step = ecref.mul(self.g, t, c.p, c.a)
        self.bases = []
        for _ in range(self.N):
            self.bases.append(AffinePoint(*point))
            point = ecref.add(point, step, c.p, c.a)
        self.warmup = None

    def setup(self) -> None:
        from repro.core.distmsm import DistMsm
        from repro.gpu.cluster import MultiGpuSystem

        self.engine = DistMsm(MultiGpuSystem(self.GPUS))
        scalars = self.make_input("warmup")
        self.warmup = (scalars, self.op(scalars))

    def make_input(self, i) -> list[int]:
        rng = derive(self.seed, "scalars", i)
        return [rng.randrange(self.curve.r) for _ in range(self.N)]

    def op(self, scalars):
        return self.engine.execute(scalars, self.bases, self.curve)

    def items(self, out) -> int:
        return self.N

    def check(self, scalars, result) -> bool:
        c = self.curve
        k = sum(s * log for s, log in zip(scalars, self.logs)) % c.r
        expected = ecref.mul(self.g, k, c.p, c.a)
        got = None if result.point.infinity else (result.point.x, result.point.y)
        return got == expected

    def exact(self, result) -> dict:
        c = result.counters
        return {
            "curves.ec_ops": c.pacc + c.padd + c.pdbl + c.cpu_padd + c.cpu_pdbl,
            "gpu.atomics": c.global_atomics + c.shared_atomics,
            "model.msm_ms": result.time_ms,
            "window_size": result.window_size,
            "point": digest(result.point.x, result.point.y, result.point.infinity),
        }

    def aggregate(self, exacts: list[dict]) -> dict:
        return {
            "curves.ec_ops": sum(e["curves.ec_ops"] for e in exacts),
            "gpu.atomics": sum(e["gpu.atomics"] for e in exacts),
            "model.msm_ms": sum(e["model.msm_ms"] for e in exacts) / len(exacts),
        }

    def extra_checks(self) -> list[bool]:
        return []

    def micro(self) -> dict:
        return {"curves.xyzz_add_us": _xyzz_add_us(self.bases, self.curve)}

    def headline(self, samples: list[dict]) -> list[tuple[str, float, str]]:
        return [
            (
                "msm_points_per_s",
                statistics.median(s["items"] / s["op_s"] for s in samples),
                "points/s",
            )
        ]


class Groth16Workload:
    """A real Groth16 proof of ``hash_chain_circuit(48)`` on BN254."""

    name = "groth16-bn254"
    reference = "bigint"  # refspeed kernel that gauges the host
    item = "proofs"
    replays = False
    setup_runs = 3
    layers = (
        "zksnark.groth16", "zksnark.qap", "zksnark.quotient", "zksnark.g1_mul",
        "zksnark.g2_mul", "zksnark.pairing", "msm.pippenger", "msm.generic",
    )
    nominal_op_s = 2.5
    LENGTH = 48

    def __init__(self, seed: int) -> None:
        from repro.zksnark.workloads import hash_chain_circuit

        self.seed = seed
        self.r1cs, self.witness = hash_chain_circuit(self.LENGTH)
        self.public = self.r1cs.public_inputs(self.witness)
        self.warmup = None
        self.last_proof = None

    def setup(self) -> None:
        from repro.zksnark.groth16 import Groth16

        self.groth16 = Groth16(self.r1cs)
        self.pk, self.vk = self.groth16.setup(derive(self.seed, "setup"))

    def make_input(self, i) -> random.Random:
        return derive(self.seed, "blinding", i)

    def op(self, rng: random.Random) -> dict:
        start = time.perf_counter()
        proof = self.groth16.prove(self.pk, self.witness, rng)
        proved = time.perf_counter()
        ok = self.groth16.verify(self.vk, proof, self.public)
        verified = time.perf_counter()
        self.last_proof = proof
        return {
            "proof": proof,
            "verified": ok,
            "prove_s": proved - start,
            "verify_s": verified - proved,
        }

    def items(self, out) -> int:
        return 1

    def check(self, rng, out) -> bool:
        return out["verified"] is True

    def exact(self, out) -> dict:
        proof = out["proof"]
        return {
            "proof": digest(proof.a, proof.b, proof.c),
            "verified": out["verified"],
        }

    def aggregate(self, exacts: list[dict]) -> dict:
        return {}

    def extra_checks(self) -> list[bool]:
        """A proof checked against a wrong public input must be rejected."""
        r = self.groth16.curve.r
        wrong = [(x + 1) % r for x in self.public]
        return [self.groth16.verify(self.vk, self.last_proof, wrong) is False]

    def micro(self) -> dict:
        return {"curves.xyzz_add_us": _xyzz_add_us(self.pk.a_query, self.groth16.curve)}

    def headline(self, samples: list[dict]) -> list[tuple[str, float, str]]:
        return [
            ("prove_s", statistics.median(s["prove_s"] for s in samples), "s"),
            ("verify_s", statistics.median(s["verify_s"] for s in samples), "s"),
        ]


class ClusterWorkload:
    """``ProofCluster(4, gpus_per_node=4)`` replaying a diurnal+burst trace.

    Arrivals are open-loop in simulated time, fixed by the trace.  The
    cluster's serve is one-shot, so every operation builds a fresh cluster
    and replays the same requests.
    """

    name = "cluster-diurnal"
    reference = "objects"  # refspeed kernel that gauges the host
    item = "requests"
    replays = True  # every operation serves the same requests
    setup_runs = 5  # a set-up is one short serve, so take more of them
    layers = (
        "cluster.router", "serve.server", "serve.plancache", "core.estimate",
        "analyze.check_plan", "engine.simulate",
    )
    # At 2000 rps, 0-4 of ~290 requests wait in a router tenant queue and
    # none are shed; at 3300 rps about three quarters wait and admission
    # sheds 0-5%, so the fair queues and admission do work.
    RATE_RPS = 3300.0
    nominal_op_s = 0.3

    def __init__(self, seed: int) -> None:
        from repro.cluster.trace import diurnal_burst_trace, generate_requests

        self.seed = seed
        trace = diurnal_burst_trace(
            rate_rps=self.RATE_RPS,
            sizes=(1 << 14, 1 << 16, 1 << 18),
            seed=derive(seed, "trace").randrange(2**31),
        )
        self.requests = generate_requests(trace)
        self.warmup = None

    def setup(self) -> None:
        self.warmup = (None, self.op(None))

    def make_input(self, i) -> None:
        return None

    def op(self, inp):
        from repro.cluster.router import ProofCluster, TenantSpec

        cluster = ProofCluster(
            4,
            gpus_per_node=4,
            tenants=(TenantSpec("acme", weight=2.0), TenantSpec("zkmart", weight=1.0)),
        )
        return cluster, cluster.serve(self.requests)

    def items(self, out) -> int:
        return len(self.requests)

    def check(self, inp, out) -> bool:
        from repro.verify.clustercheck import verify_cluster

        _, result = out
        balanced = len(result.records) + len(result.shed) == len(self.requests)
        return balanced and verify_cluster(result).ok

    def exact(self, out) -> dict:
        cluster, result = out
        caches = [cluster.router_cache] + [node.server.plan_cache for node in cluster.nodes]
        hits = sum(c.stats.hits for c in caches)
        m = result.metrics
        return {
            "cluster.dispatches": len(result.dispatches),
            # requests that waited in a router tenant queue before dispatch
            "cluster.queued": sum(r.route_wait_ms > 1e-9 for r in result.records),
            "serve.batches": sum(len(r.batches) for r in result.node_results.values()),
            "serve.plancache.hits": hits,
            "serve.plancache.lookups": hits + sum(c.stats.misses for c in caches),
            "served": len(result.records),
            "shed": len(result.shed),
            "model.p99_ms": m.p99_ms,
            "model.makespan_ms": m.makespan_ms,
            "model.shed_frac": len(result.shed) / len(self.requests),
        }

    def aggregate(self, exacts: list[dict]) -> dict:
        out = {
            name: sum(e[name] for e in exacts)
            for name in (
                "cluster.dispatches",
                "cluster.queued",
                "serve.batches",
                "serve.plancache.hits",
                "serve.plancache.lookups",
            )
        }
        out["serve.plancache.hit_ratio"] = out.pop("serve.plancache.hits") / max(
            1, out["serve.plancache.lookups"]
        )
        # every operation replays the same trace, so the modelled outputs
        # are one value; the runner checks that they all agree
        for name in ("model.p99_ms", "model.makespan_ms", "model.shed_frac"):
            out[name] = exacts[0][name]
        return out

    def extra_checks(self) -> list[bool]:
        return []

    def micro(self) -> dict:
        return {}

    def headline(self, samples: list[dict]) -> list[tuple[str, float, str]]:
        return [
            (
                "cluster_requests_per_s",
                statistics.median(s["items"] / s["op_s"] for s in samples),
                "requests/s",
            )
        ]


WORKLOADS = {w.name: w for w in (MsmWorkload, Groth16Workload, ClusterWorkload)}
