"""Vectorised Twin-Range SAR ADC (the paper's modified converter).

The analog front end (sample-and-hold, comparator, capacitive DAC) is
untouched; only the SAR control logic changes (paper Section III-D).  The
conversion therefore has exactly the transfer function of
:func:`repro.core.trq.twin_range_quantize`, plus an A/D-operation cost of
``ν + NR1`` for samples in the dense range and ``ν + NR2`` for the rest
(paper Eq. 9).  The cycle-accurate reference in :mod:`repro.adc.sar`
reproduces the same values and op counts step by step; the test suite checks
the two agree on every input.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.adc.config import AdcConfig, AdcMode
from repro.adc.counters import ConversionStats
from repro.adc.lut import AdcTransferLut, LutConversionMixin, compact_levels
from repro.core.trq import TRQParams, classify_regions, twin_range_levels, twin_range_quantize


class TwinRangeAdc(LutConversionMixin):
    """Array-oriented twin-range SAR ADC model with statistics tracking."""

    def __init__(self, params: TRQParams) -> None:
        self.params = params
        self.stats = ConversionStats()

    @classmethod
    def from_config(cls, config: AdcConfig) -> "TwinRangeAdc":
        if config.mode is not AdcMode.TWIN_RANGE or config.trq is None:
            raise ValueError("config is not in TWIN_RANGE mode")
        return cls(params=config.trq)

    def convert(self, values: np.ndarray) -> Tuple[np.ndarray, int]:
        """Convert an array of bit-line values; returns ``(quantized, ops)``."""
        values = np.asarray(values, dtype=np.float64)
        quantized, in_r1 = twin_range_quantize(values, self.params)
        num_r1 = int(np.count_nonzero(in_r1))
        num_r2 = int(values.size - num_r1)
        detection = values.size * self.params.detection_ops
        search = num_r1 * self.params.n_r1 + num_r2 * self.params.n_r2
        total = detection + search
        self.stats.record(
            conversions=values.size,
            operations=total,
            detection_operations=detection,
            in_r1=num_r1,
            in_r2=num_r2,
        )
        return quantized, total

    @property
    def level_scale(self) -> float:
        """The integer-level step: quantized value = ``delta_r1 · level``."""
        return self.params.delta_r1

    def convert_levels(
        self, values: np.ndarray, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, int]:
        """Convert to integer output levels; returns ``(levels, ops)``.

        Same statistics and operation count as :meth:`convert`; the quantized
        value is exactly ``level_scale · level`` (see
        :func:`repro.core.trq.twin_range_levels`, which also defines
        ``out``: the levels may be computed in place).
        """
        values = np.asarray(values, dtype=np.float64)
        levels, in_r1 = twin_range_levels(values, self.params, out=out)
        num_r1 = int(np.count_nonzero(in_r1))
        num_r2 = int(values.size - num_r1)
        detection = values.size * self.params.detection_ops
        total = detection + num_r1 * self.params.n_r1 + num_r2 * self.params.n_r2
        self.stats.record(
            conversions=values.size,
            operations=total,
            detection_operations=detection,
            in_r1=num_r1,
            in_r2=num_r2,
        )
        return levels, total

    def _build_transfer_lut(self, max_value: int) -> AdcTransferLut:
        """Tabulate the twin-range transfer function and per-region op costs."""
        inputs = np.arange(max_value + 1, dtype=np.float64)
        quantized, in_r1 = twin_range_quantize(inputs, self.params)
        levels, _ = twin_range_levels(inputs, self.params)
        search_ops = self.params.ops_for_region(in_r1).astype(np.int64)
        return AdcTransferLut(
            values=quantized,
            ops_per_value=self.params.detection_ops + search_ops,
            levels=compact_levels(levels),
            scale=self.params.delta_r1,
            in_r1=in_r1,
            detection_ops=self.params.detection_ops,
        )

    def region_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of samples handled by the dense range (no stats)."""
        return classify_regions(np.asarray(values, dtype=np.float64), self.params)

    def reset_stats(self) -> None:
        self.stats.reset()


def build_adc(config: AdcConfig):
    """Instantiate the vectorised ADC model matching ``config``."""
    if config.mode is AdcMode.UNIFORM:
        from repro.adc.uniform import UniformAdc

        return UniformAdc.from_config(config)
    return TwinRangeAdc.from_config(config)
