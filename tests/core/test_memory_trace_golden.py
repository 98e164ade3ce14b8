"""Golden memory traces of the scatter and bucket-sum kernels.

``golden/memory_trace.json`` is the committed ``MemoryTrace`` (every access
record and every barrier, in order) that :func:`hierarchical_scatter` and
:func:`bucket_sum` emit on one fixed small instance.  The race detector
reasons about exactly these records, so the host-side arithmetic and
bookkeeping of both kernels may change only if the trace stays byte for
byte the same.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core.bucket_sum import bucket_sum
from repro.core.config import DistMsmConfig
from repro.core.scatter import hierarchical_scatter
from repro.curves.point import AffinePoint
from repro.curves.sampling import sample_points
from repro.curves.toy import toy_curve
from repro.gpu.device import SimulatedGpu
from repro.gpu.specs import NVIDIA_A100
from repro.gpu.trace import MemoryTrace

GOLDEN = Path(__file__).parent / "golden" / "memory_trace.json"


def _dump(trace: MemoryTrace) -> dict:
    return {
        "events": [
            [e.seq, e.space.value, e.region, e.address, e.kind.value,
             e.atomic, e.block, e.thread, e.epoch]
            for e in trace.events
        ],
        "barriers": [[b.seq, b.block, b.epoch] for b in trace.barriers],
    }


def scatter_trace() -> dict:
    """Three 64-point blocks over 8 buckets, a quarter of the digits zero."""
    rng = random.Random(5)
    digits = [rng.choice((0, 0, rng.randrange(1, 8))) for _ in range(150)]
    trace = MemoryTrace()
    gpu = SimulatedGpu(NVIDIA_A100, tracer=trace)
    config = DistMsmConfig(threads_per_block=32, points_per_thread=2)
    hierarchical_scatter(gpu, digits, 8, config)
    return _dump(trace)


def bucket_sum_trace() -> dict:
    """Multi-round PACC, an empty bucket, negation and three lanes."""
    curve = toy_curve()
    points = sample_points(curve, 12, seed=3) + [AffinePoint.identity()]
    buckets = [[0, 1, 2, 3, 4, 5, 6], [], [7, 12], [8], [9, 10, 11, 0, 1]]
    negate = [i % 3 == 0 for i in range(len(points))]
    trace = MemoryTrace()
    bucket_sum(buckets, points, curve, 3, negate, tracer=trace, block_id=2)
    return _dump(trace)


def golden_json() -> str:
    payload = {"hierarchical_scatter": scatter_trace(), "bucket_sum": bucket_sum_trace()}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def test_memory_traces_byte_stable():
    assert golden_json() == GOLDEN.read_text(), (
        "scatter/bucket-sum memory trace drifted from its golden; "
        f"regenerate with: PYTHONPATH=src python {__file__} regen"
    )


def regen() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_json())
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "regen" in sys.argv:
        regen()
    else:
        print(__doc__)
