"""Differential: the vectorized MSM backend vs the scalar loops it replaced.

Three layers of parity, all bit-exact:

* :func:`repro.core.vectorized.window_digit_matrix` row-for-row against
  the scalar ``signed_windows`` / ``unsigned_windows`` decompositions,
  including error parity (Hypothesis-driven);
* full ``DistMsm.execute`` with ``vectorized=True`` vs ``False`` —
  result point, event counters, and the modelled ``time_ms`` — on the
  toy curve across config ablations and on every registered curve;
* the ``"auto"`` routing policy and its config validation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import FunctionalBackend
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm, _GpuWork
from repro.core.planner import Assignment
from repro.core.vectorized import window_digit_matrix
from repro.curves.params import curve_by_name, list_curves
from repro.curves.sampling import msm_instance
from repro.curves.scalar import reassemble, signed_windows, unsigned_windows
from repro.gpu.cluster import MultiGpuSystem
from repro.observe import Tracer
from tests.conftest import TOY_CURVE

window_cfg = st.tuples(
    st.integers(min_value=2, max_value=16),  # window size s
    st.integers(min_value=1, max_value=12),  # window count
)


class TestWindowDigitMatrix:
    @given(cfg=window_cfg, data=st.data(), signed=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_decomposition(self, cfg, data, signed):
        s, count = cfg
        scalars = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << (s * count)) - 1),
                min_size=1,
                max_size=16,
            )
        )
        matrix = window_digit_matrix(scalars, s, count, signed)
        ref = signed_windows if signed else unsigned_windows
        assert matrix.shape == (len(scalars), count + (1 if signed else 0))
        for row, k in zip(matrix.tolist(), scalars):
            assert row == ref(k, s, count)
            assert reassemble(row, s) == k

    @given(cfg=window_cfg, signed=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_error_parity_overflow(self, cfg, signed):
        s, count = cfg
        too_big = 1 << (s * count)
        with pytest.raises(ValueError, match="does not fit"):
            window_digit_matrix([0, too_big], s, count, signed)

    @pytest.mark.parametrize("signed", [False, True])
    def test_error_parity_negative(self, signed):
        with pytest.raises(ValueError, match="non-negative"):
            window_digit_matrix([3, -1], 4, 8, signed)

    def test_digit_range(self):
        matrix = window_digit_matrix(list(range(256)), 4, 2, signed=True)
        assert int(matrix.min()) >= -(1 << 3)
        assert int(matrix.max()) <= 1 << 3


def _engines(curve, window, **overrides):
    system = MultiGpuSystem(num_gpus=2)
    return (
        DistMsm(system, DistMsmConfig(window_size=window, vectorized=False, **overrides)),
        DistMsm(system, DistMsmConfig(window_size=window, vectorized=True, **overrides)),
    )


class TestExecuteParity:
    """Whole-pipeline runs must be indistinguishable between the paths."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"signed_digits": True},
            {"precompute": True},
            {"signed_digits": True, "precompute": True},
            {"scatter": "naive"},
            {"multi_gpu": "windows"},
        ],
        ids=["default", "signed", "precompute", "signed+precompute", "naive", "windows"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_toy_ablations(self, overrides, seed):
        scalars, points = msm_instance(TOY_CURVE, 256, seed=seed)
        scalar_engine, vector_engine = _engines(TOY_CURVE, 6, **overrides)
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE)
        assert res_s.point == res_v.point
        assert res_s.counters == res_v.counters
        assert res_s.time_ms == res_v.time_ms

    def test_all_registered_curves(self, any_curve):
        scalars, points = msm_instance(any_curve, 48, seed=5)
        scalar_engine, vector_engine = _engines(any_curve, 8)
        res_s = scalar_engine.execute(scalars, points, any_curve)
        res_v = vector_engine.execute(scalars, points, any_curve)
        assert res_s.point == res_v.point
        assert res_s.counters == res_v.counters
        assert res_s.time_ms == res_v.time_ms

    def test_edge_scalars(self):
        """Zero, one, r-1 and duplicate-point lanes through both paths."""
        _, points = msm_instance(TOY_CURVE, 8, seed=2)
        points = points[:4] * 2  # duplicates stress bucket accumulation
        scalars = [0, 1, TOY_CURVE.r - 1, 0, TOY_CURVE.r - 1, 1, 2, 3]
        scalar_engine, vector_engine = _engines(TOY_CURVE, 6)
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE)
        assert res_s.point == res_v.point
        assert res_s.counters == res_v.counters

    def test_traced_run_falls_back_but_matches(self):
        """A memory tracer forces the scalar loops; results stay identical."""
        scalars, points = msm_instance(TOY_CURVE, 128, seed=9)
        _, vector_engine = _engines(TOY_CURVE, 6)
        plain = vector_engine.execute(scalars, points, TOY_CURVE)
        traced = vector_engine.execute(scalars, points, TOY_CURVE, trace=Tracer())
        assert plain.point == traced.point
        assert plain.time_ms == traced.time_ms


class TestWindowSumParity:
    """Per-window bucket sums: same four coordinates on both paths."""

    @staticmethod
    def _window_sums(curve, scalars, points, vectorized, **overrides):
        system = MultiGpuSystem(num_gpus=1)
        config = DistMsmConfig(window_size=6, vectorized=vectorized, **overrides)
        msm = DistMsm(system, config)
        backend = FunctionalBackend(msm, scalars, points, curve)
        n_win = -(-curve.scalar_bits // 6)
        backend.prepare(6, n_win, n_win)
        work = _GpuWork()
        sums = [
            backend.run_assignment(work, Assignment(gpu=0, window=w), msm.num_buckets(6))
            for w in range(n_win)
        ]
        return sums, work.sums

    @pytest.mark.parametrize("curve_name", ["TOY", "BN254"])
    @pytest.mark.parametrize("signed", [False, True])
    def test_sums_identical_and_canonical(self, curve_name, signed):
        curve = TOY_CURVE if curve_name == "TOY" else curve_by_name(curve_name)
        scalars, points = msm_instance(curve, 96, seed=4)
        sums_s, counts_s = self._window_sums(
            curve, scalars, points, False, signed_digits=signed
        )
        sums_v, counts_v = self._window_sums(
            curve, scalars, points, True, signed_digits=signed
        )
        assert sums_s == sums_v
        assert counts_s == counts_v
        for window in sums_s:
            for pt in window:
                assert pt.is_identity or (pt.zz, pt.zzz) == (1, 1)


class TestFaultParity:
    """Fault injection through the vectorized path: same points, same plans."""

    @pytest.mark.parametrize("gpu", [0, 1])
    @pytest.mark.parametrize("at", [0.0, 0.02])
    def test_kill_sweep_matches_scalar_path(self, gpu, at):
        from repro.engine.faults import FaultPlan, GpuFailure

        scalars, points = msm_instance(TOY_CURVE, 64, seed=3)
        scalar_engine, vector_engine = _engines(TOY_CURVE, 6)
        expected = scalar_engine.execute(scalars, points, TOY_CURVE).point
        plan = FaultPlan.of(GpuFailure(at, gpu))
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert res_s.point == expected
        assert res_v.point == expected
        assert res_s.time_ms == res_v.time_ms
        assert res_s.timeline.spans == res_v.timeline.spans

    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_sweep_matches_scalar_path(self, seed):
        from repro.faults import random_fault_plan

        scalars, points = msm_instance(TOY_CURVE, 64, seed=7)
        scalar_engine, vector_engine = _engines(TOY_CURVE, 6)
        horizon = max(scalar_engine.execute(scalars, points, TOY_CURVE).time_ms, 0.05)
        plan = random_fault_plan(
            seed, 2, horizon, max_gpu_failures=1, byzantine_probability=0.5
        )
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert res_s.point == res_v.point
        assert res_s.time_ms == res_v.time_ms
        assert len(res_s.timeline.attempts) == len(res_v.timeline.attempts)

    def test_byzantine_cheater_caught_identically(self):
        from repro.engine.faults import ByzantineWorker, FaultPlan

        scalars, points = msm_instance(TOY_CURVE, 64, seed=3)
        scalar_engine, vector_engine = _engines(TOY_CURVE, 6)
        expected = scalar_engine.execute(scalars, points, TOY_CURVE).point
        plan = FaultPlan.of(ByzantineWorker(0, mode="wrong-result", seed=5))
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert res_s.point == expected and res_v.point == expected
        assert res_s.byzantine_report.caught
        assert res_v.byzantine_report.caught
        assert (
            res_s.byzantine_report.to_json() == res_v.byzantine_report.to_json()
        )


class TestAutoRouting:
    def _backend(self, curve, vectorized):
        system = MultiGpuSystem(num_gpus=1)
        msm = DistMsm(system, DistMsmConfig(window_size=6, vectorized=vectorized))
        scalars, points = msm_instance(curve, 8, seed=1)
        return FunctionalBackend(msm, scalars, points, curve)

    def test_auto_vectorizes_small_fields(self):
        assert TOY_CURVE.p < (1 << 32)
        assert self._backend(TOY_CURVE, "auto")._vectorize() is True

    @pytest.mark.parametrize("name", [c.name for c in list_curves()])
    def test_auto_keeps_scalar_for_multi_limb(self, name):
        curve = curve_by_name(name)
        assert curve.p >= (1 << 32)
        assert self._backend(curve, "auto")._vectorize() is False

    def test_forced_modes_override_auto(self):
        assert self._backend(TOY_CURVE, False)._vectorize() is False
        assert self._backend(curve_by_name("BN254"), True)._vectorize() is True

    def test_auto_matches_forced_result(self):
        scalars, points = msm_instance(TOY_CURVE, 128, seed=4)
        system = MultiGpuSystem(num_gpus=2)
        results = [
            DistMsm(system, DistMsmConfig(window_size=6, vectorized=mode)).execute(
                scalars, points, TOY_CURVE
            )
            for mode in ("auto", True, False)
        ]
        assert results[0].point == results[1].point == results[2].point
        assert results[0].time_ms == results[1].time_ms == results[2].time_ms

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="vectorized"):
            DistMsmConfig(vectorized="sometimes")
