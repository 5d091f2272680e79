"""Integer-domain lookup-table (LUT) conversion for the vectorised ADCs.

The bit-line values entering an ADC in this simulator are *exact non-negative
integers*: with ``Rcell``-bit cells and ``RDA``-bit DACs every partial sum is
bounded by ``segment_rows · (2^RDA − 1) · (2^Rcell − 1)`` (≤ 128 in the
default 128×128 / 1-bit topology).  An ADC's transfer function — quantized
output, A/D-operation cost and (for twin-range converters) the region a
sample lands in — can therefore be tabulated *once* per layer over
``0 … max_value`` and applied to whole batches with a single integer gather,
replacing the per-element float round/clip/compare arithmetic of
``convert``.  Region and conversion totals come from ``np.bincount`` on the
same integer codes, so the statistics are exact, not re-derived from floats.

Two tabulations are kept side by side:

* ``values`` — the float quantized outputs, produced by the very same float
  expressions the element-wise ``convert`` path evaluates, so
  :meth:`LutConversionMixin.convert_codes` is bit-identical to ``convert`` on
  integer inputs.
* ``levels`` — the *integer output levels* ``k`` of the converter, with a
  single scalar ``scale`` giving the decoded value ``scale · k`` (``Δ`` for
  a uniform ADC, ``ΔR1`` for a twin-range ADC; the twin-range level is
  ``bias·2^NR1 + code`` in R1 and ``code·2^M`` in R2).  Because levels are
  small integers, the crossbar engines can shift-and-add merge them
  *exactly* in any order (every partial sum stays far below ``2^53``) and
  apply ``scale`` once per output — this is what makes the fused kernel in
  :mod:`repro.crossbar.mapping` bit-identical to the reference loop.  Note
  that ``scale · k`` associates the float multiplications differently from
  the element-wise reconstruction in ``values``, so the two may differ by
  ≤ 1 ulp for non-power-of-two steps; both engines use the *level*
  semantics in the MVM datapath, so the difference never appears between
  engines.  Converters without a uniform level grid (e.g. the non-uniform
  baseline) publish ``levels=None`` and take the element-wise fallback path.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np


def compact_levels(levels: np.ndarray) -> np.ndarray:
    """Store exact integer levels in the smallest sufficient unsigned dtype.

    Smaller gather outputs keep the fast engine's merge input cache-resident.
    """
    max_level = int(levels.max(initial=0))
    for dtype in (np.uint8, np.uint16, np.uint32):
        if max_level <= np.iinfo(dtype).max:
            return levels.astype(dtype)
    return levels.astype(np.int64)


@dataclasses.dataclass(frozen=True)
class AdcTransferLut:
    """Tabulated transfer function of one ADC over ``0 … max_value``.

    Attributes
    ----------
    values:
        ``(max_value + 1,)`` float64 quantized output for every integer input
        (bit-identical to the element-wise ``convert``).
    ops_per_value:
        ``(max_value + 1,)`` int64 total A/D operations charged for converting
        the corresponding input (detection phase included).
    levels:
        Optional ``(max_value + 1,)`` unsigned-integer output levels ``k``
        whose decoded value is ``scale · k`` (within 1 ulp of ``values``;
        see the module docstring); ``None`` for converters without a
        uniform level grid.
    scale:
        The level step (``Δ`` / ``ΔR1``); 1.0 when ``levels`` is ``None``.
    in_r1:
        Optional ``(max_value + 1,)`` boolean mask — True where the input is
        resolved in the dense range R1 (twin-range converters only).
    detection_ops:
        Detection-phase operations per conversion (``ν`` of paper Eq. 9);
        zero for single-range converters.
    """

    values: np.ndarray
    ops_per_value: np.ndarray
    levels: Optional[np.ndarray] = None
    scale: float = 1.0
    in_r1: Optional[np.ndarray] = None
    detection_ops: int = 0

    @property
    def max_value(self) -> int:
        return self.values.size - 1


def compose_transfer_lut(lut: AdcTransferLut, value_map: np.ndarray) -> AdcTransferLut:
    """Fold an integer value→value perturbation into a transfer LUT.

    ``value_map[v]`` is the perturbed bit-line value an ideal input ``v``
    actually presents to the converter (e.g. retention drift re-quantized to
    the level grid, see :mod:`repro.nonideal`).  The composed LUT indexed by
    the *ideal* value produces exactly what converting the perturbed value
    through ``lut`` would — output, operation cost, region decision — so the
    fast engine applies discrete non-idealities at zero per-element cost
    while the reference engine perturbs each block explicitly; the two stay
    bit-identical because ``value_map`` equals the model's ``perturb`` on
    every integer.
    """
    value_map = np.asarray(value_map, dtype=np.int64)
    if value_map.size and (
        value_map.min() < 0 or value_map.max() > lut.max_value
    ):
        raise ValueError(
            f"value_map range [{value_map.min()}, {value_map.max()}] exceeds "
            f"the LUT domain [0, {lut.max_value}]"
        )
    return AdcTransferLut(
        values=lut.values[value_map],
        ops_per_value=lut.ops_per_value[value_map],
        levels=None if lut.levels is None else lut.levels[value_map],
        scale=lut.scale,
        in_r1=None if lut.in_r1 is None else lut.in_r1[value_map],
        detection_ops=lut.detection_ops,
    )


def joint_level_table(
    levels: np.ndarray, radix: int, group: int, shift_bits: int
) -> np.ndarray:
    """Level table over ``group`` base-``radix`` digits, one per input cycle.

    Entry ``I = Σ_i radix^i · v_i`` (digit ``v_i`` < ``radix``) holds
    ``Σ_i levels[v_i] << (i · shift_bits)``: the shift-and-add merge of the
    ``group`` per-cycle levels, so one gather converts and merges a whole
    group of DAC cycles.  ``group=1`` returns the levels themselves
    (compacted).
    """
    levels = np.asarray(levels, dtype=np.int64)
    if levels.size != radix:
        raise ValueError(f"expected {radix} levels, got {levels.size}")
    table = np.zeros(1, dtype=np.int64)
    for digit in range(group):
        shifted = levels << (digit * shift_bits)
        table = (shifted[:, None] + table[None, :]).reshape(-1)
    return compact_levels(table)


def marginal_counts(hist: np.ndarray, radix: int, group: int) -> np.ndarray:
    """Per-value histogram from a histogram of joint indices.

    ``hist[I]`` counts joint indices ``I = Σ_i radix^i · v_i``; the result
    counts every digit ``v_i`` separately, i.e. it equals the sum of the
    ``group`` per-cycle ``np.bincount`` histograms (shape ``(radix,)``).
    """
    joint = np.asarray(hist, dtype=np.int64).reshape((radix,) * group)
    axes = range(group)
    return sum(
        joint.sum(axis=tuple(other for other in axes if other != axis))
        for axis in axes
    )


#: Elements per gather tile; sized so a tile's integer codes and gathered
#: levels stay cache-resident (shared with the fused crossbar kernel).
GATHER_TILE = 1 << 18


def gather_levels(
    table: np.ndarray,
    flat_values: np.ndarray,
    counts: Optional[np.ndarray],
    out_levels: np.ndarray,
    tile: int = GATHER_TILE,
) -> None:
    """Tiled integer gather from ``table`` with an exact index histogram.

    ``flat_values`` holds exact non-negative integer indices into ``table``
    (any float/int dtype) — bit-line values for a per-value level table,
    joint indices for a :func:`joint_level_table`.  The gathered entries
    are written to ``out_levels`` and, unless ``counts`` is ``None``, the
    per-index histogram is accumulated into ``counts`` (shape
    ``(table.size,)``), from which the converter's exact operation/region
    totals are derived.  This is the conversion core of the fused crossbar
    kernel.  Raises ``ValueError`` when a histogrammed value exceeds the
    table bound.
    """
    size = flat_values.size
    for start in range(0, size, tile):
        stop = min(start + tile, size)
        codes = flat_values[start:stop].astype(np.int64)
        if counts is not None:
            tile_counts = np.bincount(codes, minlength=counts.size)
            if tile_counts.size > counts.size:
                raise ValueError(
                    f"bit-line value {int(codes.max())} exceeds the LUT bound "
                    f"{counts.size - 1}"
                )
            counts += tile_counts
        np.take(table, codes, out=out_levels[start:stop])


class LutConversionMixin:
    """Adds cached integer-code conversion to a vectorised ADC model.

    Subclasses implement :meth:`_build_transfer_lut`; the mixin provides
    :meth:`transfer_lut` (cached per ``max_value``), :meth:`convert_codes`
    (the integer-domain twin of ``convert``) and :meth:`record_code_counts`
    (exact statistics from a code histogram, used by the fused engine).
    """

    _lut_cache: Optional[Dict[int, AdcTransferLut]] = None

    def _build_transfer_lut(self, max_value: int) -> AdcTransferLut:
        raise NotImplementedError

    def transfer_lut(self, max_value: int) -> AdcTransferLut:
        """The tabulated transfer function covering inputs ``0 … max_value``."""
        if max_value < 0:
            raise ValueError(f"max_value must be non-negative, got {max_value}")
        if self._lut_cache is None:
            self._lut_cache = {}
        lut = self._lut_cache.get(max_value)
        if lut is None:
            lut = self._build_transfer_lut(int(max_value))
            self._lut_cache[max_value] = lut
        return lut

    def convert_codes(self, codes: np.ndarray, max_value: int) -> Tuple[np.ndarray, int]:
        """Convert an array of exact integer bit-line values via the LUT.

        Bit-identical to ``convert(codes.astype(float))`` — same quantized
        values, same total operation count, same statistics — but executed as
        one gather plus one ``bincount`` instead of per-element float math.
        """
        lut = self.transfer_lut(max_value)
        codes = np.asarray(codes)
        counts = np.bincount(codes.ravel(), minlength=lut.values.size)
        if counts.size > lut.values.size:
            raise ValueError(
                f"bit-line value {int(codes.max())} exceeds the LUT bound {lut.max_value}"
            )
        total_ops = self.record_code_counts(counts, lut)
        return lut.values[codes], total_ops

    def record_code_counts(self, counts: np.ndarray, lut: AdcTransferLut) -> int:
        """Record statistics for a histogram of converted codes.

        ``counts[v]`` is how many conversions saw bit-line value ``v``.  The
        operation, detection and region totals derived from the histogram are
        exactly those the element-wise ``convert`` would have accumulated.
        Returns the total A/D-operation count.
        """
        conversions = int(counts.sum())
        total_ops = int(counts @ lut.ops_per_value)
        if lut.in_r1 is not None:
            num_r1 = int(counts[lut.in_r1].sum())
            self.stats.record(
                conversions=conversions,
                operations=total_ops,
                detection_operations=conversions * lut.detection_ops,
                in_r1=num_r1,
                in_r2=conversions - num_r1,
            )
        else:
            self.stats.record(conversions=conversions, operations=total_ops)
        return total_ops
