"""The kernel cost model, as shipped before it was memoised.

Every call of :func:`frozen_ec_op_cost` and :func:`frozen_kernel_occupancy`
re-derives the kernel's figures, re-running ``kernels.spill.plan_spills``
through ``KernelDescriptor.spill_plan``; :func:`frozen_reference_gpu_padd_rate`
rebuilds the BLS12-381 anchor kernel on every call; and
:func:`frozen_merge` walks ``dataclasses.fields`` on every
``EventCounters.merge``.  They are kept for two consumers only:

* the differential tests pin the memoised :mod:`repro.gpu.timing`
  functions against them (equal floats, equal frozen results);
* ``benchmarks/bench_vectorized.py`` times ``DistMsm.estimate`` on the
  live model against them.

:func:`frozen_cost_model` swaps them into :mod:`repro.gpu.timing`,
:mod:`repro.core.distmsm` and :class:`~repro.gpu.counters.EventCounters`
for the length of a block, so a whole estimate can be timed on the old
code.

Do not "fix" or optimise this module — its value is being frozen.
"""

from __future__ import annotations

import contextlib
from dataclasses import fields
from typing import Iterator

import repro.core.distmsm as distmsm
import repro.gpu.timing as timing
from repro.gpu.counters import EventCounters
from repro.gpu.occupancy import OccupancyResult, occupancy_for
from repro.gpu.specs import (
    GpuSpec,
    HIP_EFFICIENCY,
    KERNEL_EFFICIENCY,
    SPILL_TRAFFIC_VISIBLE,
    TC_TRAFFIC_VISIBLE,
    TC_UTILIZATION,
)
from repro.gpu.timing import (
    EC_THREADS_PER_BLOCK,
    INT8_MACS_PER_WORD_MUL,
    MEM_OVERLAP_RESIDUE,
    EcOpCost,
    occupancy_efficiency,
)
from repro.kernels.padd_kernel import KernelDescriptor, KernelOptimisations


def frozen_ec_op_cost(desc: KernelDescriptor, op: str, spec: GpuSpec) -> EcOpCost:
    """Cost components of one PADD / PACC / PDBL under a kernel config."""
    muls, adds = desc.word_ops_per_modmul()
    limbs = desc.curve.num_limbs
    nmm = desc.modmuls(op)

    share = desc.tc_offload_share if spec.tc_int8_tops > 0 else 0.0
    cuda_instr = nmm * (muls + adds / 2.0) * (1.0 - share * TC_UTILIZATION)
    tc_ops = nmm * muls * share * INT8_MACS_PER_WORD_MUL

    serial_traffic = 0.0
    if share > 0 and not desc.opts.tc_compaction:
        serial_traffic = nmm * (2 * (8 * limbs) * 4) * TC_TRAFFIC_VISIBLE
    overlap_traffic = 0.0
    if op == "pacc":
        overlap_traffic = 2 * limbs * 4

    shm_traffic = 0.0
    plan = desc.spill_plan(op)
    if plan is not None:
        shm_traffic = plan.transfers * limbs * 4 * SPILL_TRAFFIC_VISIBLE
    return EcOpCost(cuda_instr, tc_ops, overlap_traffic, serial_traffic, shm_traffic)


def frozen_kernel_occupancy(desc: KernelDescriptor, op: str, spec: GpuSpec) -> OccupancyResult:
    """Occupancy of the EC kernel, including explicit-spill shared memory."""
    regs = desc.registers_per_thread(op)
    shm_bytes = 0
    plan = desc.spill_plan(op)
    if plan is not None:
        shm_bytes = plan.peak_shm_bigints * desc.curve.num_limbs * 4 * EC_THREADS_PER_BLOCK
    return occupancy_for(spec, regs, shm_bytes, EC_THREADS_PER_BLOCK)


def frozen_sustained_int32_rate(
    desc: KernelDescriptor,
    op: str,
    spec: GpuSpec,
    active_threads: int | None = None,
    api: str = "cuda",
) -> float:
    """Sustained int32 op/s on CUDA cores for this kernel on this GPU."""
    occ = frozen_kernel_occupancy(desc, op, spec)
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


def frozen_ec_ops_time_ms(
    desc: KernelDescriptor,
    op: str,
    count: float,
    spec: GpuSpec,
    active_threads: int | None = None,
    api: str = "cuda",
) -> float:
    """Wall time for ``count`` EC operations of one type on one GPU."""
    if count <= 0:
        return 0.0
    cost = frozen_ec_op_cost(desc, op, spec)
    cuda_rate = frozen_sustained_int32_rate(desc, op, spec, active_threads, api)
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


def frozen_reference_gpu_padd_rate(spec: GpuSpec) -> float:
    """Anchor rate (PACC/s, BLS12-381, fully optimised) for CPU scaling."""
    from repro.curves.params import curve_by_name

    desc = KernelDescriptor(curve_by_name("BLS12-381"), KernelOptimisations.all())
    return 1e3 / frozen_ec_ops_time_ms(desc, "pacc", 1.0, spec) / 1.0


def frozen_merge(self: EventCounters, other: EventCounters) -> EventCounters:
    """Accumulate another counter into this one (returns self)."""
    for f in fields(self):
        setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
    return self


@contextlib.contextmanager
def frozen_cost_model() -> Iterator[None]:
    """Run the analytic model on the uncached functions above."""
    swaps = [
        (timing, "ec_op_cost", frozen_ec_op_cost),
        (timing, "kernel_occupancy", frozen_kernel_occupancy),
        (timing, "sustained_int32_rate", frozen_sustained_int32_rate),
        (timing, "ec_ops_time_ms", frozen_ec_ops_time_ms),
        (timing, "reference_gpu_padd_rate", frozen_reference_gpu_padd_rate),
        (distmsm, "ec_ops_time_ms", frozen_ec_ops_time_ms),
        (EventCounters, "merge", frozen_merge),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in swaps]
    for owner, name, fn in swaps:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
