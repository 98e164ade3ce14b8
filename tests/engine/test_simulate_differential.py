"""Differential: the int-indexed ``simulate`` loop vs the frozen reference.

``repro.engine.timeline.simulate`` was rewritten around a ready-heap over
integer task ids; ``tests.support.reference_simulate`` preserves
the original dict-keyed loop verbatim.  These tests pin the rewrite to the
reference across seeded random DAGs — fault-free and under fault plans
with retry backoff — over the *whole* observable Timeline surface: span
insertion order, makespan, bindings, failures, attempts, per-resource
busy time, critical path, stage envelopes, rendering, and the audit
lookups.  A Chrome-trace export of both timelines must serialize to the
same bytes.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import pytest

from tests.support.reference_simulate import reference_simulate
from repro.engine.faults import (
    FaultPlan,
    GpuFailure,
    RetryPolicy,
    Straggler,
    TransferError,
)
from repro.engine.resources import GPU_COMPUTE, HOST_CPU, TRANSFER, Resource
from repro.engine.timeline import Stage, Task, simulate
from repro.observe import Tracer, record_timeline, to_chrome_json

NUM_GPUS = 4


def _resources() -> list[Resource]:
    gpus = [Resource(f"gpu{i}", GPU_COMPUTE, i) for i in range(NUM_GPUS)]
    links = [Resource(f"node{n}-link", TRANSFER, n) for n in range(2)]
    return gpus + links + [Resource("cpu", HOST_CPU, 0)]


def _random_tasks(n: int, seed: int) -> tuple[list[Task], tuple[Stage, ...]]:
    """A random DAG exercising stages, release times and liveness deps."""
    rng = random.Random(seed)
    resources = _resources()
    tasks = []
    for i in range(n):
        lo = max(0, i - 20)
        deps = (
            tuple({f"t{rng.randrange(lo, i)}" for _ in range(rng.randrange(0, 3))})
            if i
            else ()
        )
        duration = rng.choice([0.0, rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0)])
        requires = (
            (f"gpu{rng.randrange(NUM_GPUS)}",) if rng.random() < 0.15 else ()
        )
        tasks.append(
            Task(
                f"t{i}",
                resources[rng.randrange(len(resources))],
                duration,
                deps,
                stage=f"s{i * 3 // max(n, 1)}",
                not_before_ms=rng.choice([0.0, 0.0, rng.uniform(0.0, 5.0)]),
                requires_alive=requires,
            )
        )
    stages = tuple(
        Stage(f"s{k}", tuple(t.name for t in tasks if t.stage == f"s{k}"))
        for k in range(3)
    )
    return tasks, stages


def _random_faults(seed: int) -> tuple[FaultPlan, RetryPolicy]:
    """A fault plan with deduped GPU events plus transfer errors."""
    rng = random.Random(f"faults-{seed}")
    events: list = []
    dead, slow = set(), set()
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        gpu = rng.randrange(NUM_GPUS)
        if kind == 0 and gpu not in dead:
            dead.add(gpu)
            events.append(GpuFailure(at_ms=rng.uniform(0.0, 20.0), gpu_id=gpu))
        elif kind == 1 and gpu not in slow:
            slow.add(gpu)
            events.append(Straggler(gpu_id=gpu, slowdown=rng.uniform(1.1, 4.0)))
        else:
            events.append(
                TransferError(
                    node=rng.randrange(2),
                    at_ms=rng.uniform(0.0, 30.0),
                    transient=rng.random() < 0.7,
                )
            )
    retry = RetryPolicy(
        max_retries=rng.randrange(0, 4), backoff_base_ms=rng.choice([0.25, 0.5, 2.0])
    )
    return FaultPlan(tuple(events)), retry


def _assert_identical(got, want) -> None:
    """Every observable of the two timelines, including iteration order."""
    assert list(got.spans.items()) == list(want.spans.items())
    assert got.total_ms == want.total_ms
    assert got.binding == want.binding
    assert got.failures == want.failures
    assert got.attempts == want.attempts
    assert got.ok == want.ok
    assert got.busy_ms() == want.busy_ms()
    assert got.critical_path() == want.critical_path()
    assert got.stage_spans() == want.stage_spans()
    assert got.render() == want.render()
    for task in want.tasks:
        assert got.failure_for(task.name) == want.failure_for(task.name)
        assert got.attempts_for(task.name) == want.attempts_for(task.name)


@pytest.mark.parametrize("seed", range(10))
def test_fault_free_random_dags(seed):
    tasks, stages = _random_tasks(120, seed)
    _assert_identical(simulate(tasks, stages), reference_simulate(tasks, stages))


@pytest.mark.parametrize("seed", range(10))
def test_faulted_random_dags(seed):
    tasks, stages = _random_tasks(120, seed)
    plan, retry = _random_faults(seed)
    _assert_identical(
        simulate(tasks, stages, faults=plan, retry=retry),
        reference_simulate(tasks, stages, faults=plan, retry=retry),
    )


def test_retry_backoff_chain():
    """A serial transfer chain hammered by transient errors retries the
    same way through both loops (attempt numbering and backoff release)."""
    link = Resource("node0-link", TRANSFER, 0)
    tasks = [Task(f"t{i}", link, 1.0, (f"t{i - 1}",) if i else ()) for i in range(40)]
    rng = random.Random(3)
    plan = FaultPlan(
        tuple(TransferError(node=0, at_ms=rng.uniform(0, 40.0)) for _ in range(10))
    )
    retry = RetryPolicy(max_retries=2, backoff_base_ms=0.5)
    got = simulate(tasks, faults=plan, retry=retry)
    want = reference_simulate(tasks, faults=plan, retry=retry)
    assert got.attempts, "fault plan failed to trigger any retries"
    _assert_identical(got, want)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    faulted=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_random_dags(seed, n, faulted):
    tasks, stages = _random_tasks(n, seed)
    if faulted:
        plan, retry = _random_faults(seed)
    else:
        plan, retry = None, None
    _assert_identical(
        simulate(tasks, stages, faults=plan, retry=retry),
        reference_simulate(tasks, stages, faults=plan, retry=retry),
    )


def test_tracer_matches_reference_chrome_trace():
    """The traces transcribed from both loops serialize identically."""
    tasks, stages = _random_tasks(80, seed=21)
    plan, retry = _random_faults(21)

    new_tracer = Tracer(label="simulate")
    simulate(tasks, stages, faults=plan, retry=retry, tracer=new_tracer)

    ref_tracer = Tracer(label="simulate")
    record_timeline(
        ref_tracer, reference_simulate(tasks, stages, faults=plan, retry=retry)
    )

    assert to_chrome_json(new_tracer, indent=2) == to_chrome_json(ref_tracer, indent=2)


def test_empty_and_single_task():
    _assert_identical(simulate([]), reference_simulate([]))
    one = [Task("only", Resource("gpu0", GPU_COMPUTE, 0), 1.5)]
    _assert_identical(simulate(one), reference_simulate(one))
