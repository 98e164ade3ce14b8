"""The memoised kernel cost model against its uncached definition.

``ec_op_cost``, ``kernel_occupancy`` and ``reference_gpu_padd_rate`` are
computed once per (kernel descriptor, op, GPU spec).  Every memoised value
must equal — exactly, not approximately — what the uncached function
(``__wrapped__``) and the frozen pre-memoisation model
(``tests.support.frozen_cost_model``) compute, over every registered curve,
every Fig. 12 optimisation stage, every GPU spec and every EC op.
"""

import pytest

import repro.kernels.padd_kernel as padd_kernel
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name, list_curves
from repro.gpu import specs
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.specs import GpuSpec
from repro.gpu.timing import (
    ec_op_cost,
    ec_ops_time_ms,
    kernel_occupancy,
    reference_gpu_padd_rate,
    sustained_int32_rate,
)
from repro.kernels.padd_kernel import KernelDescriptor, KernelOptimisations
from tests.support.frozen_cost_model import (
    frozen_cost_model,
    frozen_ec_op_cost,
    frozen_ec_ops_time_ms,
    frozen_kernel_occupancy,
    frozen_reference_gpu_padd_rate,
    frozen_sustained_int32_rate,
)

SPECS = [v for v in vars(specs).values() if isinstance(v, GpuSpec)]
STAGES = [opts for _, opts in KernelOptimisations.cumulative_stages()]
OPS = ("pacc", "padd", "pdbl")
CURVE_NAMES = [c.name for c in list_curves()]


def _configs(curve_name):
    curve = curve_by_name(curve_name)
    for opts in STAGES:
        desc = KernelDescriptor(curve, opts)
        for spec in SPECS:
            for op in OPS:
                yield desc, op, spec


def test_every_spec_is_covered():
    assert {s.name for s in SPECS} == {
        specs.NVIDIA_A100.name,
        specs.RTX_4090.name,
        specs.AMD_6900XT.name,
    }


@pytest.mark.parametrize("curve_name", CURVE_NAMES)
def test_ec_op_cost_matches_uncached(curve_name):
    for desc, op, spec in _configs(curve_name):
        cost = ec_op_cost(desc, op, spec)
        assert cost == ec_op_cost.__wrapped__(desc, op, spec)
        assert cost == frozen_ec_op_cost(desc, op, spec)
        assert ec_op_cost(desc, op, spec) is cost


@pytest.mark.parametrize("curve_name", CURVE_NAMES)
def test_kernel_occupancy_matches_uncached(curve_name):
    for desc, op, spec in _configs(curve_name):
        occ = kernel_occupancy(desc, op, spec)
        assert occ == kernel_occupancy.__wrapped__(desc, op, spec)
        assert occ == frozen_kernel_occupancy(desc, op, spec)
        assert kernel_occupancy(desc, op, spec) is occ


@pytest.mark.parametrize("curve_name", CURVE_NAMES)
def test_sustained_rate_and_time_match_uncached(curve_name):
    for desc, op, spec in _configs(curve_name):
        for api in ("cuda", "hip"):
            for threads in (None, 1000, 10**7):
                assert sustained_int32_rate(
                    desc, op, spec, threads, api
                ) == frozen_sustained_int32_rate(desc, op, spec, threads, api)
                for count in (1.0, 12345.0):
                    assert ec_ops_time_ms(
                        desc, op, count, spec, threads, api
                    ) == frozen_ec_ops_time_ms(desc, op, count, spec, threads, api)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_reference_rate_matches_uncached(spec):
    rate = reference_gpu_padd_rate(spec)
    assert rate == reference_gpu_padd_rate.__wrapped__(spec)
    assert rate == frozen_reference_gpu_padd_rate(spec)


@pytest.mark.parametrize("opts", [KernelOptimisations.none(), KernelOptimisations.all()])
def test_unknown_op_raises_on_every_call(opts):
    desc = KernelDescriptor(curve_by_name("BN254"), opts)
    for _ in range(2):  # lru_cache never caches the exception
        with pytest.raises(ValueError, match="unknown op 'bogus'"):
            desc.spill_plan("bogus")
        with pytest.raises(ValueError, match="unknown op 'bogus'"):
            ec_op_cost(desc, "bogus", specs.NVIDIA_A100)
        with pytest.raises(ValueError, match="unknown op 'bogus'"):
            kernel_occupancy(desc, "bogus", specs.NVIDIA_A100)


def test_estimate_equals_frozen_model():
    msm = DistMsm(MultiGpuSystem(num_gpus=4), DistMsmConfig(window_size=12))
    bls = curve_by_name("BLS12-381")
    live = msm.estimate(bls, 1 << 20)
    with frozen_cost_model():
        frozen = msm.estimate(bls, 1 << 20)
    assert (live.time_ms, live.times, live.counters) == (
        frozen.time_ms,
        frozen.times,
        frozen.counters,
    )
    assert live.per_gpu_counters == frozen.per_gpu_counters


def test_warm_estimates_plan_no_spills(monkeypatch):
    msm = DistMsm(MultiGpuSystem(num_gpus=4), DistMsmConfig(window_size=12))
    bls = curve_by_name("BLS12-381")
    first = msm.estimate(bls, 1 << 20)

    calls = []
    real = padd_kernel.plan_spills

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(padd_kernel, "plan_spills", counting)
    for _ in range(50):
        assert msm.estimate(bls, 1 << 20).time_ms == first.time_ms
    assert calls == []

    # the counter does see the uncached path
    desc = KernelDescriptor(bls, KernelOptimisations.all())
    ec_op_cost.__wrapped__(desc, "pacc", specs.NVIDIA_A100)
    assert len(calls) == 1
