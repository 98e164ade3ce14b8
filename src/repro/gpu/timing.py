"""Analytic timing: kernel descriptors + event counts -> milliseconds.

The mapping is mechanistic — word-operation counts come from the real
Montgomery implementations, register pressure from the real scheduler, and
occupancy from the CUDA rules — with four calibration constants
(`repro.gpu.specs`): occupancy saturation, register-cap spill penalty,
sustained-efficiency, and the HIP platform factor.  EXPERIMENTS.md records
how the calibrated model compares against every published number.

The per-kernel figures (:func:`ec_op_cost`, :func:`kernel_occupancy`,
:func:`reference_gpu_padd_rate`) are pure functions of frozen arguments
and are memoised once per process, as a compiled kernel fixes its spill
plan, registers and occupancy once (§4.2.2); only the per-call
``active_threads`` scaling is recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.gpu.occupancy import OccupancyResult, occupancy_for
from repro.gpu.specs import (
    GpuSpec,
    HIP_EFFICIENCY,
    KERNEL_EFFICIENCY,
    OCC_SATURATION_K,
    REG_CAP_PENALTY_COEF,
    SPILL_TRAFFIC_VISIBLE,
    TC_TRAFFIC_VISIBLE,
    TC_UTILIZATION,
)
from repro.kernels.padd_kernel import KernelDescriptor, KernelOptimisations

#: int8 MACs equivalent to one 32x32-bit multiply on tensor cores.
INT8_MACS_PER_WORD_MUL = 16

#: default thread-block size for EC arithmetic kernels
EC_THREADS_PER_BLOCK = 256

#: fraction of overlapped memory/compute time still visible as stalls
MEM_OVERLAP_RESIDUE = 0.3


def occupancy_efficiency(occupancy: float, forced_spill: bool = False, regs: int = 0, cap: int = 255) -> float:
    """Sustained-throughput fraction achieved at a given occupancy.

    Saturating in occupancy (latency hiding needs only a few resident warps
    per scheduler), normalised so full occupancy gives 1.0; kernels that
    blow the per-thread register cap pay a local-memory spill penalty
    proportional to the overflow.
    """
    if not 0.0 < occupancy <= 1.0:
        raise ValueError(f"occupancy must be in (0, 1], got {occupancy}")
    eff = occupancy * (1.0 + OCC_SATURATION_K) / (occupancy + OCC_SATURATION_K)
    if forced_spill and regs > cap:
        eff /= 1.0 + REG_CAP_PENALTY_COEF * (regs - cap) / cap
    return eff


@dataclass(frozen=True)
class EcOpCost:
    """Per-EC-operation cost components for one kernel configuration."""

    cuda_instructions: float  # int32 instruction slots on CUDA cores
    tc_int8_ops: float  # int8 MACs on tensor cores
    overlap_traffic_bytes: float  # point prefetches (hide behind compute)
    serial_traffic_bytes: float  # TC fragment round-trips (dependency chain)
    shm_traffic_bytes: float  # explicit spill moves

    @property
    def device_traffic_bytes(self) -> float:
        return self.overlap_traffic_bytes + self.serial_traffic_bytes


@lru_cache(maxsize=None)
def ec_op_cost(desc: KernelDescriptor, op: str, spec: GpuSpec) -> EcOpCost:
    """Cost components of one PADD / PACC / PDBL under a kernel config."""
    muls, adds = desc.word_ops_per_modmul()
    limbs = desc.curve.num_limbs
    nmm = desc.modmuls(op)

    share = desc.tc_offload_share if spec.tc_int8_tops > 0 else 0.0
    # the m x n offload is dependency-bound (m is word-serial), so only a
    # small fraction of the offloaded work leaves the critical path
    cuda_instr = nmm * (muls + adds / 2.0) * (1.0 - share * TC_UTILIZATION)
    tc_ops = nmm * muls * share * INT8_MACS_PER_WORD_MUL

    serial_traffic = 0.0
    if share > 0 and not desc.opts.tc_compaction:
        # naive path: raw uint32 fragments round-trip through device memory
        # *inside* the reduction's dependency chain; only part of the raw
        # byte count surfaces as stall time, but what does cannot overlap
        serial_traffic = nmm * (2 * (8 * limbs) * 4) * TC_TRAFFIC_VISIBLE
    overlap_traffic = 0.0
    if op == "pacc":
        overlap_traffic = 2 * limbs * 4  # prefetchable affine point load

    shm_traffic = 0.0
    plan = desc.spill_plan(op)
    if plan is not None:
        # LDS/STS dual-issues with the integer pipe; only part is visible
        shm_traffic = plan.transfers * limbs * 4 * SPILL_TRAFFIC_VISIBLE
    return EcOpCost(cuda_instr, tc_ops, overlap_traffic, serial_traffic, shm_traffic)


@lru_cache(maxsize=None)
def kernel_occupancy(desc: KernelDescriptor, op: str, spec: GpuSpec) -> OccupancyResult:
    """Occupancy of the EC kernel, including explicit-spill shared memory."""
    regs = desc.registers_per_thread(op)
    shm_bytes = 0
    plan = desc.spill_plan(op)
    if plan is not None:
        shm_bytes = plan.peak_shm_bigints * desc.curve.num_limbs * 4 * EC_THREADS_PER_BLOCK
    return occupancy_for(spec, regs, shm_bytes, EC_THREADS_PER_BLOCK)


def sustained_int32_rate(
    desc: KernelDescriptor,
    op: str,
    spec: GpuSpec,
    active_threads: int | None = None,
    api: str = "cuda",
) -> float:
    """Sustained int32 op/s on CUDA cores for this kernel on this GPU.

    The HIP toolchain penalty applies only to HIP-compiled kernels running
    on the AMD platform (the paper's DistMSM-on-6900XT case); OpenCL and
    native code do not pay it.
    """
    occ = kernel_occupancy(desc, op, spec)
    eff = occupancy_efficiency(
        occ.occupancy,
        forced_spill=occ.forced_local_spill,
        regs=occ.regs_per_thread,
        cap=spec.max_regs_per_thread,
    )
    platform = HIP_EFFICIENCY if (spec.platform == "hip" and api == "hip") else 1.0
    rate = spec.int32_tops * 1e12 * eff * KERNEL_EFFICIENCY * platform
    if active_threads is not None:
        capacity = spec.sms * occ.threads_per_sm
        rate *= min(1.0, active_threads / max(1, capacity))
    return rate


def ec_ops_time_ms(
    desc: KernelDescriptor,
    op: str,
    count: float,
    spec: GpuSpec,
    active_threads: int | None = None,
    api: str = "cuda",
) -> float:
    """Wall time for ``count`` EC operations of one type on one GPU.

    CUDA and tensor-core work overlap (different execution units, different
    warps), and point prefetches largely hide behind arithmetic — only a
    residue of the overlapped memory time surfaces as stalls.
    """
    if count <= 0:
        return 0.0
    cost = ec_op_cost(desc, op, spec)
    cuda_rate = sustained_int32_rate(desc, op, spec, active_threads, api)
    cuda_s = count * cost.cuda_instructions / cuda_rate
    tc_s = 0.0
    if cost.tc_int8_ops > 0:
        tc_s = count * cost.tc_int8_ops / (spec.tc_int8_tops * 1e12 * KERNEL_EFFICIENCY)
    mem_s = count * cost.overlap_traffic_bytes / (spec.mem_bw_gbps * 1e9)
    serial_s = count * cost.serial_traffic_bytes / (spec.mem_bw_gbps * 1e9)
    shm_s = count * cost.shm_traffic_bytes / (spec.mem_bw_gbps * 1e9 * spec.shm_bw_factor)
    compute_s = max(cuda_s, tc_s)
    total_s = max(compute_s, mem_s) + MEM_OVERLAP_RESIDUE * min(compute_s, mem_s)
    return (total_s + serial_s + shm_s) * 1e3


def ec_op_rate(desc: KernelDescriptor, op: str, spec: GpuSpec) -> float:
    """EC operations per second for a fully occupied GPU."""
    return 1e3 / ec_ops_time_ms(desc, op, 1.0, spec) / 1.0


@lru_cache(maxsize=None)
def reference_gpu_padd_rate(spec: GpuSpec) -> float:
    """Anchor rate (PACC/s, BLS12-381, fully optimised) for CPU scaling."""
    from repro.curves.params import curve_by_name

    desc = KernelDescriptor(curve_by_name("BLS12-381"), KernelOptimisations.all())
    return ec_op_rate(desc, "pacc", spec)


def cpu_ec_time_ms(padd_count: float, pdbl_count: float, cpu_rate: float) -> float:
    """Host-side EC arithmetic time (bucket-reduce / window-reduce)."""
    if cpu_rate <= 0:
        raise ValueError("cpu_rate must be positive")
    return (padd_count + 1.2 * pdbl_count) / cpu_rate * 1e3


def pipelined_cpu_visible_ms(cpu_ms: float, gpu_busy_ms: float, stages: int) -> float:
    """Visible CPU time after per-stage flow-shop overlap (paper §3.2.3).

    Per-stage CPU reduces hide behind the GPUs' work on subsequent stages;
    what stays visible is the tail stage plus any backlog beyond the
    overlappable GPU time — the first stage's GPU fill cannot overlap
    (two-machine flow-shop makespan).
    """
    if stages <= 1:
        return cpu_ms
    per_stage = cpu_ms / stages
    overlappable = gpu_busy_ms * (stages - 1) / stages
    return per_stage + max(0.0, cpu_ms - per_stage - overlappable)


def host_transfer_time_ms(num_bytes: float, spec: GpuSpec) -> float:
    """PCIe transfer time for result collection."""
    return num_bytes / (spec.pcie_gbps * 1e9) * 1e3


def launch_overhead_ms(launches: int, spec: GpuSpec) -> float:
    return launches * spec.kernel_launch_us * 1e-3


def memory_read_time_ms(num_bytes: float, spec: GpuSpec) -> float:
    """Streaming device-memory read time (scatter's coefficient fetches)."""
    return num_bytes / (spec.mem_bw_gbps * 1e9) * 1e3
