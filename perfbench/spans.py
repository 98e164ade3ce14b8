"""Host wall-clock spans recorded around calls into the program's layers.

The program itself reads no clock.  This module wraps the public functions
of each layer from the outside: :meth:`SpanRecorder.installed` swaps every
module attribute and class attribute that names a target for a timing
wrapper, and puts the originals back when the block ends.  Spans (name,
start, end, parent, workload, run) stay in memory until
:meth:`SpanRecorder.chrome_trace` writes them out once, as Chrome
trace-event JSON.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Host code here runs on one thread, so children nest
strictly inside their parent and the two parts add up to the duration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into SpanRecorder.spans
    child_s: float = 0.0  # summed durations of direct children

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


# per-call work tallies, read off a call's arguments
def _tasks_arg(args, kwargs) -> int:
    return len(args[0] if args else kwargs["tasks"])


def _points_arg(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["points"])


#: (span name, module, attribute path, per-call tally)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    # DistMSM execute path
    ("core.distmsm", "repro.core.distmsm", "DistMsm.execute", None),
    ("core.estimate", "repro.core.distmsm", "DistMsm.estimate", None),
    ("core.scatter", "repro.core.scatter", "hierarchical_scatter", None),
    ("core.scatter", "repro.core.scatter", "naive_scatter", None),
    ("core.scatter", "repro.core.vectorized", "vector_scatter", None),
    ("core.bucket_sum", "repro.core.bucket_sum", "bucket_sum", None),
    ("core.bucket_sum", "repro.core.vectorized", "vector_bucket_sum", None),
    ("core.bucket_reduce", "repro.core.backends", "FunctionalBackend.combine_window", None),
    ("core.bucket_reduce", "repro.core.bucket_reduce", "cpu_bucket_reduce", None),
    ("core.bucket_reduce", "repro.core.bucket_reduce", "cpu_window_reduce", None),
    # engine and pre-flight, shared by every workload
    ("engine.simulate", "repro.engine.timeline", "simulate", _tasks_arg),
    ("analyze.check_plan", "repro.analyze.modelcheck", "check_plan", None),
    # serving and cluster event loops
    ("cluster.router", "repro.cluster.router", "ProofCluster.serve", None),
    ("serve.server", "repro.serve.server", "MsmProofServer.serve", None),
    ("serve.plancache", "repro.serve.plancache", "PlanCache.lookup", None),
    # Groth16
    ("zksnark.groth16", "repro.zksnark.groth16", "Groth16.__init__", None),
    ("zksnark.groth16", "repro.zksnark.groth16", "Groth16.setup", None),
    ("zksnark.groth16", "repro.zksnark.groth16", "Groth16.prove", None),
    ("zksnark.groth16", "repro.zksnark.groth16", "Groth16.verify", None),
    ("zksnark.qap", "repro.zksnark.qap", "Qap.variable_polynomials", None),
    ("zksnark.quotient", "repro.zksnark.qap", "Qap.quotient_coefficients", None),
    ("zksnark.g1_mul", "repro.zksnark.groth16", "g1_mul", None),
    ("msm.pippenger", "repro.msm.pippenger", "pippenger_msm", _points_arg),
    ("msm.generic", "repro.msm.generic", "pippenger_generic", None),
)

#: pairing-backend callables, wrapped on each backend the factory hands out
BACKEND_FIELDS = (("zksnark.g2_mul", "g2_mul"), ("zksnark.pairing", "pairing_check"))

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS)) + tuple(n for n, _ in BACKEND_FIELDS)


class SpanRecorder:
    """Keeps spans, per-layer call counts and work tallies in memory."""

    def __init__(self, clock: Callable[[], float], workload: str, run: str) -> None:
        self.clock = clock
        self.workload = workload
        self.run = run
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.tallies: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration_s

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, tally: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] = self.calls.get(name, 0) + 1
            if tally is not None:
                self.tallies[name] = self.tallies.get(name, 0) + tally(args, kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return timed

    # -- installing and removing the wrappers --------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Record spans inside the block; every patch is undone on exit."""
        undo: list[tuple[object, str, object]] = []

        def patch(owner: object, attr: str, value: object) -> None:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        def patch_imports(attr: str, original: object, value: object) -> None:
            # a function: patch every module that imported it by name
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "repro":
                    continue
                if module.__dict__.get(attr) is original:
                    patch(module, attr, value)

        try:
            for name, module_name, path, tally in TARGETS:
                owner: object = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original, tally)
                if outer:  # a method: patching the class reaches every caller
                    patch(owner, attr, wrapped)
                else:
                    patch_imports(attr, original, wrapped)

            # backends are frozen records built once per process; hand out
            # copies whose callables report into this recorder
            backend_mod = importlib.import_module("repro.zksnark.backend")
            factory = backend_mod.backend_by_name

            def instrumented_backend(*args, **kwargs):
                backend = factory(*args, **kwargs)
                return dataclasses.replace(
                    backend,
                    **{
                        field: self.wrap(name, getattr(backend, field))
                        for name, field in BACKEND_FIELDS
                    },
                )

            patch_imports("backend_by_name", factory, instrumented_backend)

            self.active = True
            yield
        finally:
            self.active = False
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- reading the spans back ---------------------------------------------

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name (roots included)."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def check_nesting(self) -> list[str]:
        """Every span ends after it starts and lies inside its parent.

        Self time is defined as the remainder of the duration, so self plus
        child time equals the duration by construction; what can go wrong
        is a span that overlaps its parent's edges.
        """
        problems = []
        for span in self.spans:
            if span.end < span.start:
                problems.append(f"span {span.name} ends before it starts")
            if span.parent is not None:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    problems.append(f"span {span.name} escapes its parent {parent.name}")
        return problems

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = []
        for index, span in enumerate(self.spans):
            parent = self.spans[span.parent].name if span.parent is not None else None
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (span.start - t0) * 1e6,
                    "dur": span.duration_s * 1e6,
                    "args": {
                        "id": index,
                        "parent": span.parent,
                        "parent_name": parent,
                        "self_us": span.self_s * 1e6,
                        "workload": self.workload,
                        "run": self.run,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": self.workload, "run": self.run, "clock": "host"},
        }
