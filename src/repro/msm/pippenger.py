"""Serial Pippenger's algorithm (paper §2.3) — the algorithmic reference.

The four phases match Figure 2 of the paper:

1. *bucket-scatter*: group point indices by their s-bit window digit;
2. *bucket-sum*: accumulate the points of each bucket;
3. *bucket-reduce*: combine buckets as ``sum(i * B_i)`` using the running
   suffix-sum trick (2·(B − 1) PADDs, no multiplications);
4. *window-reduce*: fold window results with s doublings between windows.

All four run in :func:`repro.msm.generic.pippenger_generic`; this module
binds it to a curve's G1 in XYZZ coordinates.
"""

from __future__ import annotations

from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint, XyzzPoint, to_affine
from repro.msm.generic import pippenger_generic, xyzz_group


def pippenger_msm(
    scalars: list[int],
    points: list[AffinePoint],
    curve: CurveParams,
    window_size: int | None = None,
) -> AffinePoint:
    """Serial signed-digit Pippenger MSM over ``curve``'s G1.

    The bases are lifted to XYZZ once (``zz = zzz = 1``, so a bucket add
    costs what a PACC does) and the sum is returned in affine form.
    ``window_size=None`` picks :func:`~repro.msm.generic.msm_window`;
    windows below 2 and scalars wider than ``curve.scalar_bits`` raise
    :class:`ValueError`.
    """
    total = pippenger_generic(
        scalars,
        [XyzzPoint.from_affine(pt) for pt in points],
        xyzz_group(curve),
        curve.scalar_bits,
        window_size,
    )
    return to_affine(total, curve)
