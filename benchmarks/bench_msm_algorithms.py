"""Real timings of the MSM algorithms (pytest-benchmark).

Shows the classic algorithmic ladder on actual executions: naive
double-and-add, serial (signed-digit) Pippenger, and the DistMSM engine's
functional path.
"""

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.curves.sampling import msm_instance
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.msm.pippenger import pippenger_msm

from repro.curves.toy import toy_curve

TOY_CURVE = toy_curve()

BN254 = curve_by_name("BN254")


@pytest.fixture(scope="module")
def toy_instance():
    return msm_instance(TOY_CURVE, 128, seed=3)


@pytest.fixture(scope="module")
def bn_instance():
    return msm_instance(BN254, 48, seed=4)


def test_naive_msm_toy(benchmark, toy_instance):
    scalars, points = toy_instance
    benchmark(naive_msm, scalars, points, TOY_CURVE)


def test_pippenger_toy(benchmark, toy_instance):
    scalars, points = toy_instance
    benchmark(pippenger_msm, scalars, points, TOY_CURVE, 4)


def test_pippenger_bn254(benchmark, bn_instance):
    scalars, points = bn_instance
    benchmark(pippenger_msm, scalars, points, BN254, 8)


def test_distmsm_functional_toy(benchmark, toy_instance):
    scalars, points = toy_instance
    engine = DistMsm(
        MultiGpuSystem(4),
        DistMsmConfig(window_size=4, threads_per_block=32, points_per_thread=4),
    )
    benchmark(engine.execute, scalars, points, TOY_CURVE)


def test_distmsm_estimate_speed(benchmark):
    """The analytic estimator itself must stay cheap (it runs thousands of
    times across the experiment grids)."""
    engine = DistMsm(MultiGpuSystem(8), DistMsmConfig(window_size=12))
    benchmark(engine.estimate, BN254, 1 << 26)
