"""GPU specs, occupancy rules, and the efficiency mapping."""

import pytest

from repro.gpu.occupancy import occupancy_for
from repro.gpu.specs import (
    AMD_6900XT,
    DGX_A100,
    NVIDIA_A100,
    RTX_4090,
    spec_by_name,
)
from repro.gpu.timing import occupancy_efficiency


class TestSpecs:
    def test_a100_paper_figures(self):
        assert NVIDIA_A100.int32_tops == 19.5
        assert NVIDIA_A100.tc_int8_tops == 624.0
        # paper: "624 TOPS, equivalent to 156 int32 TOPS ... 8x"
        assert NVIDIA_A100.tc_int32_equiv_tops == 156.0
        assert NVIDIA_A100.tc_int32_equiv_tops / NVIDIA_A100.int32_tops == pytest.approx(8.0)

    def test_rtx4090_int_advantage(self):
        # paper: RTX4090 delivers 2.12x the A100's CUDA int throughput
        assert RTX_4090.int32_tops / NVIDIA_A100.int32_tops == pytest.approx(2.12, rel=0.01)

    def test_amd_has_no_usable_tc(self):
        assert AMD_6900XT.tc_int8_tops == 0
        assert AMD_6900XT.tc_int32_equiv_tops == 0
        assert AMD_6900XT.platform == "hip"

    def test_concurrent_threads(self):
        assert NVIDIA_A100.concurrent_threads == 108 * 2048

    def test_dgx_platform(self):
        assert DGX_A100["gpus_per_node"] == 8
        assert DGX_A100["gpu"] is NVIDIA_A100

    def test_spec_lookup(self):
        assert spec_by_name("a100") is NVIDIA_A100
        assert spec_by_name("6900") is AMD_6900XT
        with pytest.raises(KeyError):
            spec_by_name("H100")


class TestOccupancy:
    def test_paper_register_examples(self):
        """132 regs (BLS12-377 straightforward PADD) vs 60 (spilled PACC)."""
        low = occupancy_for(NVIDIA_A100, 132)
        high = occupancy_for(NVIDIA_A100, 60)
        assert low.occupancy < high.occupancy
        assert low.limited_by == "registers"

    def test_register_maths(self):
        res = occupancy_for(NVIDIA_A100, 64)
        # 65536 / 64 = 1024 threads, warp-aligned
        assert res.threads_per_sm == 1024
        assert res.occupancy == pytest.approx(0.5)

    def test_small_kernels_hit_thread_limit(self):
        res = occupancy_for(NVIDIA_A100, 16)
        assert res.limited_by == "threads"
        assert res.occupancy == 1.0

    def test_shared_memory_limit(self):
        res = occupancy_for(
            NVIDIA_A100, 32, shm_per_block_bytes=80 * 1024, threads_per_block=256
        )
        assert res.limited_by == "shared_memory"
        # 164 KB / 80 KB -> 2 blocks -> 512 threads
        assert res.threads_per_sm == 512

    def test_register_cap_flags_forced_spill(self):
        res = occupancy_for(NVIDIA_A100, 264)  # MNT4753 straightforward PADD
        assert res.forced_local_spill
        capped = occupancy_for(NVIDIA_A100, 255)
        assert res.threads_per_sm == capped.threads_per_sm

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            occupancy_for(NVIDIA_A100, 0)
        with pytest.raises(ValueError):
            occupancy_for(NVIDIA_A100, 64, threads_per_block=100)  # not warp multiple


class TestEfficiencyMapping:
    def test_full_occupancy_is_unity(self):
        assert occupancy_efficiency(1.0) == pytest.approx(1.0)

    def test_monotonic(self):
        values = [occupancy_efficiency(x / 10) for x in range(1, 11)]
        assert values == sorted(values)

    def test_saturating(self):
        """Going 0.5 -> 1.0 helps much less than 0.05 -> 0.1."""
        low_gain = occupancy_efficiency(0.10) / occupancy_efficiency(0.05)
        high_gain = occupancy_efficiency(1.0) / occupancy_efficiency(0.5)
        assert low_gain > high_gain

    def test_reg_cap_penalty(self):
        clean = occupancy_efficiency(0.11)
        spilled = occupancy_efficiency(0.11, forced_spill=True, regs=264, cap=255)
        assert spilled < clean

    def test_occupancy_bounds_checked(self):
        with pytest.raises(ValueError):
            occupancy_efficiency(0.0)
        with pytest.raises(ValueError):
            occupancy_efficiency(1.5)

    def test_pacc_occupancy_gain_mnt4753(self):
        """Paper: PACC's register drop gives MNT4753 a 27.3% throughput
        boost (264 -> 216 registers); reproduce within tolerance."""
        from repro.gpu.occupancy import occupancy_for

        def eff(regs):
            occ = occupancy_for(NVIDIA_A100, regs)
            return occupancy_efficiency(
                occ.occupancy, occ.forced_local_spill, regs, 255
            )

        gain = eff(216) / eff(264)
        assert gain == pytest.approx(1.273, rel=0.10)

    def test_pacc_occupancy_gain_small_curves(self):
        """Paper: the same drop yields only 6.27% on 12-limb curves."""
        def eff(regs):
            occ = occupancy_for(NVIDIA_A100, regs)
            return occupancy_efficiency(occ.occupancy)

        gain = eff(108) / eff(132)
        assert gain == pytest.approx(1.0627, rel=0.05)
