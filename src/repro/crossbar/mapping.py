"""Mapping quantized MVM layers onto crossbar resources.

:class:`MappedMVMLayer` is the workhorse of the PIM simulator: it takes the
integer weight matrix of one Conv2d/Linear layer (already lowered to a 2-D
``(in_features, out_features)`` matrix by im2col), applies the differential
positive/negative mapping, spatial weight bit-slicing and word-line
segmentation of the paper's datapath, and exposes a vectorised
``matmul(input_codes, adc)`` that reproduces — bit-line value by bit-line
value — what the accelerator's ADCs would digitise.

Layout of the internal "plane matrix"
-------------------------------------
All weight bit planes of both signs are packed side by side into one matrix
of shape ``(in_features, 2 · planes · out_features)`` with the output index
fastest, plane next and sign slowest.  One matmul per (input cycle, row
segment) then produces *every* bit-line value of that cycle/segment at once,
which keeps the Python overhead negligible while remaining exactly equivalent
to simulating each 128×128 array separately (verified by unit tests against
:func:`repro.crossbar.merge.shift_add_merge`).

Simulation engines
------------------
``matmul`` offers two engines behind the ``engine`` switch:

* ``"reference"`` — the original loop over ``num_input_cycles ×
  num_segments`` blocks, one matmul and one element-wise ADC conversion per
  block.  Slow but maximally transparent; kept as the verification oracle.
* ``"fast"`` — the fused kernel, which packs *groups* of input cycles into
  one operand.  Bit-line values are exact non-negative integers below a
  radix ``R = max_bitline_value + 1``, and they are linear in the inputs.
  So when ``g`` consecutive DAC slices of an input row are written into one
  float32 operand row as base-``R`` digits (``Σ R^i · slice_i``), a single
  GEMM per segment yields the joint index ``I = Σ R^i · v_i`` of all ``g``
  cycles' bit-line values.  LUT-capable ADCs (see :mod:`repro.adc.lut`)
  then convert the whole group with one ``take`` from a joint level table
  ``J[I] = Σ levels[v_i] << (i · RDA)``, and the per-value histogram that
  yields the exact op and region totals is the marginal of one
  ``np.bincount`` over ``I``.  The groups and segments collapse by int64
  shift-and-add, and one float64 GEMM with a ``(columns × out)`` ±2^p
  sign/plane merge matrix produces the outputs.

  ``g`` is the largest divisor of ``num_input_cycles`` with ``R^g ≤
  min(2^16, rows · columns)`` (:func:`cycle_group_size`): it follows from
  the layer and chunk geometry, and the joint table is never larger than
  one group's gather.  ``g`` is 1 — one block per input cycle — whenever a
  ``partial_observer`` or per-block noise needs the per-cycle blocks.

  Noise-free ideal conversion needs none of this: lossless conversion makes
  the bit-sliced datapath the identity on integers, so the outputs are one
  float64 GEMM of the input codes with the exact signed integer weights
  ``Σ ±2^(p·Rcell) · plane``.  The GEMM is exact in any summation order
  because every product and partial sum is an integer below ``2^53``, and
  adding ``+0.0`` normalises the ``-0.0`` a zero input row can give against
  a negative column, so the bytes match the reference loop.  The op count
  is the analytic baseline.  A ``partial_observer`` still receives the
  per-cycle blocks of a stacked GEMM, which are not converted or merged.
  Ideal conversion under integer-domain noise runs the packed kernel with
  the identity level table.

Bit-reproducibility rests on the **integer-domain invariant**: every quantity
the datapath merges is an exact integer.  ADCs with a uniform level grid
expose integer *output levels* ``k`` (quantized value = ``scale · k``
exactly), and the shift-and-add factors and DAC cycle weights are signed
powers of two.  The fast engine keeps three bounds that make every step
exact:

* joint indices stay below ``2^16 < 2^24``, so the float32 GEMM that forms
  them is exact (all its partial sums are non-negative integers below the
  final index);
* the group/segment collapse runs in int64;
* the merged sums stay below ``2^53``, so the float64 merge GEMM (and the
  ideal-conversion GEMM) is exact in any summation order.

Both engines therefore compute the same exact integers, scale them once per
output, and produce bit-identical results with identical operation counts
(asserted by the test suite and by ``benchmarks/bench_engine_fastpath.py``).

Device non-idealities (the optional ``noise`` argument, a
:class:`repro.nonideal.stack.LayerNoiseState`) perturb the raw bit-line
blocks before conversion.  Because every perturbation is a *keyed,
counter-based* function of the block's logical coordinates (chunk, segment,
input cycle) rather than a shared RNG stream, both engines reconstruct the
same noise sample for sample and remain bit-identical under noise.

Which converters take which fast-engine path:

* **Packed LUT gather** — level-grid converters (anything with a
  ``transfer_lut`` whose ``levels`` exist: ``TwinRangeAdc``,
  ``UniformAdc``) without noise or under integer-domain noise (stuck-at
  faults, quantized variation, retention drift), and ideal conversion under
  integer-domain noise (identity level table).  Pure per-value maps are
  folded into the transfer LUT itself
  (:func:`repro.adc.lut.compose_transfer_lut`).
* **Per-block level conversion** — level-grid converters (anything with
  ``convert_levels``) under continuous noise (read noise, analog variation,
  IR drop).  Each noisy block is perturbed and converted in place in one
  reused float64 buffer, then joins the same int64 collapse and merge GEMM
  as the gather path.
* **Ordered float merge** — converters without a level grid (e.g. the
  non-uniform baseline) and ideal conversion under continuous noise.  Their
  float merges depend on summation order, so the reference order is
  replayed.
* **One exact GEMM** — noise-free ideal conversion.

Observable differences are limited to the optional ``partial_observer``: the
reference engine emits blocks cycle-major, the fast engine segment-major
(block shapes and values are identical), and fast-engine blocks are
transient views into reused scratch buffers — observers must copy what they
keep.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.adc.lut import (
    compact_levels,
    compose_transfer_lut,
    gather_levels,
    joint_level_table,
    marginal_counts,
)
from repro.crossbar.slicing import (
    num_slices,
    slice_inputs_temporal,
    slice_weights_differential,
)
from repro.quantization.qconfig import DEFAULT_QUANT_CONFIG, QuantizationConfig
from repro.utils.validation import check_in_range, check_integer


@dataclasses.dataclass(frozen=True)
class CrossbarTopology:
    """Physical array parameters of the accelerator (paper Section V-A)."""

    crossbar_size: int = 128
    bits_per_cell: int = 1
    dac_bits: int = 1

    def __post_init__(self) -> None:
        check_in_range(check_integer(self.crossbar_size, "crossbar_size"), "crossbar_size", low=2)
        check_in_range(check_integer(self.bits_per_cell, "bits_per_cell"), "bits_per_cell", low=1, high=4)
        check_in_range(check_integer(self.dac_bits, "dac_bits"), "dac_bits", low=1, high=8)

    @property
    def ideal_adc_resolution(self) -> int:
        """Paper Eq. 2 with the stated architecture-level simplification:
        ``RADC,ideal = log2(S) + RDA + Rcell + δ`` where ``δ = −1`` when both
        the DAC and the cell are single-bit (so an S-row array with 1-bit
        operands needs ``log2(S) + 1`` bits)."""
        delta = -1 if (self.dac_bits == 1 and self.bits_per_cell == 1) else 0
        resolution = int(np.log2(self.crossbar_size)) + self.dac_bits + self.bits_per_cell + delta
        return max(1, resolution)


DEFAULT_TOPOLOGY = CrossbarTopology()

#: Largest joint index of a digit-packed cycle group: keeps the packed float32
#: GEMM exact (indices < 2^16 < 2^24) and the joint level table small.
MAX_JOINT_INDEX = 1 << 16


def cycle_group_size(radix: int, num_cycles: int, elements: int) -> int:
    """Input cycles the fast engine digit-packs into one GEMM operand row.

    The largest divisor ``g`` of ``num_cycles`` whose joint index range
    ``radix^g`` stays within :data:`MAX_JOINT_INDEX` and within ``elements``
    (the chunk's ``rows × columns`` bit-line values per cycle), so the
    joint level table is never larger than one group's gather.  At least 1.
    Every bit-line bound is a multiple of the largest DAC code, so a radix
    of at least 2 is at least ``2^RDA``: a group's input field (``g · RDA``
    bits, see :meth:`MappedMVMLayer._stack_cycles`) then spans at most 16
    bits too.
    """
    if radix < 2:  # a single-valued domain (all-zero weights): nothing to pack
        return 1
    limit = min(MAX_JOINT_INDEX, elements)
    return max(
        group
        for group in range(1, num_cycles + 1)
        if num_cycles % group == 0 and (group == 1 or radix**group <= limit)
    )


@dataclasses.dataclass
class MappingFootprint:
    """Resource accounting of one mapped layer."""

    in_features: int
    out_features: int
    num_segments: int
    num_weight_planes: int
    num_input_cycles: int
    total_columns: int
    num_crossbar_pairs: int
    conversions_per_mvm: int

    @property
    def num_crossbars(self) -> int:
        """Physical arrays used (a pair = one positive + one negative array)."""
        return 2 * self.num_crossbar_pairs


class MappedMVMLayer:
    """One MVM layer mapped onto ReRAM crossbars.

    Parameters
    ----------
    weight_codes:
        Signed integer weight matrix of shape ``(in_features, out_features)``
        (im2col-lowered for convolutions).
    quant_config:
        Bit-widths of the algorithm-level datapath (``Kw``, ``Ki``).
    topology:
        Crossbar size, cell and DAC resolutions.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        quant_config: QuantizationConfig = DEFAULT_QUANT_CONFIG,
        topology: CrossbarTopology = DEFAULT_TOPOLOGY,
    ) -> None:
        weight_codes = np.asarray(weight_codes, dtype=np.int64)
        if weight_codes.ndim != 2:
            raise ValueError(f"weight_codes must be 2-D, got {weight_codes.shape}")
        self.quant_config = quant_config
        self.topology = topology
        self.in_features, self.out_features = weight_codes.shape

        magnitude_bits = quant_config.weight_magnitude_bits
        self.num_weight_planes = num_slices(magnitude_bits, topology.bits_per_cell)
        self.num_input_cycles = num_slices(quant_config.activation_bits, topology.dac_bits)

        pos_slices, neg_slices = slice_weights_differential(
            weight_codes, magnitude_bits, topology.bits_per_cell
        )
        # (2, planes, in, out) -> (in, 2, planes, out) -> (in, 2*planes*out)
        planes = np.stack([pos_slices, neg_slices], axis=0)
        self._plane_matrix = np.ascontiguousarray(
            planes.transpose(2, 0, 1, 3).reshape(
                self.in_features, 2 * self.num_weight_planes * self.out_features
            ),
            dtype=np.float32,
        )
        # Per-(sign, plane) merge factors.
        plane_shifts = np.array(
            [1 << (p * topology.bits_per_cell) for p in range(self.num_weight_planes)],
            dtype=np.float64,
        )
        self._merge_factors = np.stack([plane_shifts, -plane_shifts], axis=0)  # (2, planes)
        # The exact signed integer weights the planes encode, Σ ±2^(p·Rcell)
        # · plane: noise-free ideal conversion is one GEMM with this matrix.
        self._weight_matrix = np.einsum(
            "sp,spio->io", self._merge_factors, planes.astype(np.float64)
        )
        size = topology.crossbar_size
        self._segments: List[slice] = [
            slice(start, min(start + size, self.in_features))
            for start in range(0, self.in_features, size)
        ]
        # Exact upper bound on any bit-line value of this layer: the largest
        # per-segment column sum of the plane matrix times the largest DAC
        # code.  Sizes the ADC transfer LUTs of the fast engine.
        dac_max = (1 << topology.dac_bits) - 1
        self._max_bitline = int(
            dac_max
            * max(
                (float(self._plane_matrix[seg].sum(axis=0).max()) for seg in self._segments),
                default=0.0,
            )
        )

    # ------------------------------------------------------------------ #
    # resource accounting
    # ------------------------------------------------------------------ #
    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def max_bitline_value(self) -> int:
        """Largest bit-line value this layer can produce (LUT bound)."""
        return self._max_bitline

    @property
    def segment_sizes(self) -> List[int]:
        return [seg.stop - seg.start for seg in self._segments]

    def footprint(self) -> MappingFootprint:
        """Crossbar usage and the number of A/D conversions per MVM (Eq. 3)."""
        size = self.topology.crossbar_size
        columns_per_sign = self.num_weight_planes * self.out_features
        crossbar_pairs = self.num_segments * (-(-columns_per_sign // size))
        conversions = (
            self.num_input_cycles
            * self.num_segments
            * 2
            * self.num_weight_planes
            * self.out_features
        )
        return MappingFootprint(
            in_features=self.in_features,
            out_features=self.out_features,
            num_segments=self.num_segments,
            num_weight_planes=self.num_weight_planes,
            num_input_cycles=self.num_input_cycles,
            total_columns=2 * columns_per_sign,
            num_crossbar_pairs=crossbar_pairs,
            conversions_per_mvm=conversions,
        )

    # ------------------------------------------------------------------ #
    # datapath
    # ------------------------------------------------------------------ #
    def bitline_partials(self, input_slice: np.ndarray, segment_index: int) -> np.ndarray:
        """Bit-line values of one (input cycle, row segment) combination.

        Parameters
        ----------
        input_slice:
            ``(batch, in_features)`` DAC codes of the current input cycle.
        segment_index:
            Which word-line segment (group of ≤ ``crossbar_size`` rows) drives
            the arrays.

        Returns
        -------
        ``(batch, 2 · planes · out_features)`` float32 array of exact integer
        bit-line values, ordered ``[sign, plane, out]`` with ``out`` fastest.
        """
        segment = self._segments[segment_index]
        x = np.asarray(input_slice, dtype=np.float32)[:, segment]
        return x @ self._plane_matrix[segment]

    def merge_partials(self, partials: np.ndarray) -> np.ndarray:
        """Shift-and-add merge of one cycle/segment block -> ``(batch, out)``."""
        batch = partials.shape[0]
        block = partials.reshape(batch, 2, self.num_weight_planes, self.out_features)
        return np.einsum(
            "bspo,sp->bo",
            np.asarray(block, dtype=np.float64),
            self._merge_factors,
            optimize=True,
        )

    def matmul(
        self,
        input_codes: np.ndarray,
        adc: Optional[object] = None,
        partial_observer: Optional[Callable[[np.ndarray], None]] = None,
        engine: str = "reference",
        noise: Optional[object] = None,
    ) -> Tuple[np.ndarray, int]:
        """Execute the full bit-sliced MVM for a batch of input vectors.

        Parameters
        ----------
        input_codes:
            ``(batch, in_features)`` unsigned activation codes (``Ki`` bits).
        adc:
            Optional ADC model with a vectorised
            ``convert(values) -> (quantized_values, total_ops)`` method; when
            omitted the conversion is ideal (lossless) and the returned op
            count assumes the baseline ``RADC`` operations per conversion.
        partial_observer:
            Optional callable receiving every raw bit-line block (used to
            capture the value distributions of paper Fig. 3a).  Observers see
            the *ideal* (pre-noise) values.
        engine:
            ``"reference"`` (per-cycle/segment loop, the oracle) or ``"fast"``
            (fused cycles + integer-domain LUT conversion).  Both produce
            bit-identical results and identical operation counts; see the
            module docstring.
        noise:
            Optional :class:`repro.nonideal.stack.LayerNoiseState` bound to
            this layer.  Perturbations are keyed on (chunk, segment, cycle),
            so both engines apply identical noise and stay bit-identical.

        Returns
        -------
        results:
            ``(batch, out_features)`` merged signed integer results (float64).
        total_ops:
            Total number of A/D operations performed for the batch.
        """
        input_codes = np.asarray(input_codes)
        if input_codes.ndim != 2 or input_codes.shape[1] != self.in_features:
            raise ValueError(
                f"input_codes must be (batch, {self.in_features}), got {input_codes.shape}"
            )
        if engine == "reference":
            cycles = slice_inputs_temporal(
                input_codes, self.quant_config.activation_bits, self.topology.dac_bits
            )
            return self._matmul_reference(cycles, adc, partial_observer, noise)
        if engine == "fast":
            return self._matmul_fast(input_codes, adc, partial_observer, noise)
        raise ValueError(f"unknown engine {engine!r} (expected 'fast' or 'reference')")

    def _checked_codes(self, input_codes: np.ndarray) -> np.ndarray:
        """``input_codes`` as int64, with the range validation of
        :func:`repro.crossbar.slicing.slice_inputs_temporal`."""
        activation_bits = self.quant_config.activation_bits
        codes = input_codes.astype(np.int64, copy=False)
        if codes.size:
            if codes.min() < 0:
                raise ValueError("bit_slice expects non-negative integers")
            if codes.max() >= (1 << activation_bits):
                raise ValueError(
                    f"values exceed {activation_bits} bits (max={codes.max()})"
                )
        return codes

    def _stack_cycles(
        self, input_codes: np.ndarray, group: int = 1, radix: int = 1
    ) -> np.ndarray:
        """Temporal slicing fused with cycle stacking for the fast engine.

        Writes the DAC slices into one reused ``(cycles / group · batch,
        in_features)`` float32 operand (group-major), with the same range
        validation and slice values as
        :func:`repro.crossbar.slicing.slice_inputs_temporal`.  Each row of
        group ``j`` digit-packs the slices of cycles ``j·group … j·group +
        group − 1`` as ``Σ_i radix^i · slice_(j·group+i)``; ``group=1`` is
        plain cycle stacking.
        """
        dac_bits = self.topology.dac_bits
        batch = input_codes.shape[0]
        codes = self._checked_codes(input_codes)
        num_groups = self.num_input_cycles // group
        stacked = self._fast_buffer(
            "stacked", (num_groups * batch, self.in_features), np.float32
        )
        view = stacked.reshape(num_groups, batch, self.in_features)
        # A group reads one (group · RDA)-bit field of every code; tabulate
        # the packed row value of each field once, then gather per group.
        field_bits = group * dac_bits
        fields = np.arange(1 << field_bits)
        mask = (1 << dac_bits) - 1
        packed = sum(
            radix**digit * ((fields >> (digit * dac_bits)) & mask)
            for digit in range(group)
        ).astype(np.float32)
        for group_index in range(num_groups):
            np.take(
                packed,
                (codes >> (group_index * field_bits)) & ((1 << field_bits) - 1),
                out=view[group_index],
            )
        return stacked

    def _matmul_reference(
        self,
        cycles: np.ndarray,
        adc: Optional[object],
        partial_observer: Optional[Callable[[np.ndarray], None]],
        noise: Optional[object] = None,
    ) -> Tuple[np.ndarray, int]:
        """The per-``(cycle, segment)`` block loop (oracle path).

        LUT-free by construction: conversions go through the ADC's
        transparent per-element float formulas (``convert_levels`` when the
        converter has an integer level grid, ``convert`` otherwise), so this
        path independently defines the behaviour the fused engine must
        reproduce.  For level-grid converters the loop merges integer levels
        and applies the step scale once per output — the integer-domain
        semantics of the datapath — which can differ from scaling each
        reconstructed value individually by ~1 ulp per sample.  Noise, when
        given, perturbs each raw block after the observer and before
        conversion, via the keyed sampling that both engines share.
        """
        batch = cycles.shape[1]
        accumulator = np.zeros((batch, self.out_features), dtype=np.float64)
        total_ops = 0
        baseline_ops = self.topology.ideal_adc_resolution
        convert_levels = getattr(adc, "convert_levels", None)
        scale = float(adc.level_scale) if convert_levels is not None else 1.0

        for cycle_index in range(cycles.shape[0]):
            cycle_factor = float(1 << (cycle_index * self.topology.dac_bits))
            cycle_slice = cycles[cycle_index]
            for segment_index in range(self.num_segments):
                partials = self.bitline_partials(cycle_slice, segment_index)
                if partial_observer is not None:
                    partial_observer(partials)
                if noise is not None:
                    partials = noise.perturb_block(partials, segment_index, cycle_index)
                if adc is None:
                    total_ops += partials.size * baseline_ops
                elif convert_levels is not None:
                    partials, ops = convert_levels(partials)
                    total_ops += int(ops)
                else:
                    partials, ops = adc.convert(partials)
                    total_ops += int(ops)
                accumulator += cycle_factor * self.merge_partials(partials)
        if scale != 1.0:
            accumulator *= scale
        return accumulator, total_ops

    #: Elements per conversion tile of the fast engine; sized so the tile's
    #: integer codes and gathered levels stay cache-resident.
    _FAST_TILE = 1 << 18

    def _matmul_fast(
        self,
        input_codes: np.ndarray,
        adc: Optional[object],
        partial_observer: Optional[Callable[[np.ndarray], None]],
        noise: Optional[object] = None,
    ) -> Tuple[np.ndarray, int]:
        """Fused kernel: digit-packed cycle groups, integer-domain conversion.

        With radix ``R`` = the size of the level table's domain (``max
        bitline + 1``), ``g`` consecutive DAC slices of each input row are
        written into one float32 operand row as base-``R`` digits (see
        :meth:`_stack_cycles`).  Bit-line values are linear in the inputs,
        so one GEMM per segment yields the joint index ``I = Σ R^i · v_i``
        of ``g`` cycles directly, and one gather from the joint level table
        (:func:`repro.adc.lut.joint_level_table`) converts and shift-merges
        all ``g`` cycles at once.  The code histogram the converter's
        statistics need is the exact marginal of one ``bincount`` over ``I``
        (:func:`repro.adc.lut.marginal_counts`).  Groups and segments
        collapse by int64 shift-and-add; one float64 GEMM with the ±2^p
        sign/plane merge matrix then yields the outputs, scaled once.
        ``g`` is chosen by :func:`cycle_group_size`, and is 1 whenever the
        observer or per-block noise needs per-cycle blocks.

        Noise-free ideal conversion skips all of this: it is one float64
        GEMM of the input codes with the exact signed integer weights (see
        :meth:`_matmul_ideal`).  Ideal conversion under integer-domain noise
        runs the packed kernel with the identity level table of the
        perturbed bound.  Both charge the analytic baseline op count.

        Integer-domain noise keeps the gather: pure per-value maps are
        folded into the transfer LUT (zero per-element cost), column-
        dependent integer perturbations are applied per (cycle, segment)
        block before the gather with the LUT sized to the perturbed bound.
        Continuous noise leaves the integer domain: level-grid converters
        (``convert_levels``) then convert each noisy block element-wise
        but collapse and merge it the same exact way
        (:meth:`_matmul_fast_levels`).  Converters without a level grid
        (e.g. the non-uniform baseline) and ideal conversion under
        continuous noise take :meth:`_matmul_fast_fallback`.

        Blocks handed to ``partial_observer`` are transient views into a
        reused buffer — observers must copy what they keep (the distribution
        collector does).
        """
        if adc is None and noise is None:
            return self._matmul_ideal(input_codes, partial_observer)
        num_cycles, batch = self.num_input_cycles, input_codes.shape[0]
        integer_noise = noise is None or noise.integer_domain
        lut = None
        value_mapped = False
        if adc is not None:
            transfer_lut = getattr(adc, "transfer_lut", None)
            if transfer_lut is not None and integer_noise:
                if noise is None:
                    lut = transfer_lut(self._max_bitline)
                else:
                    vmap = noise.pure_value_map()
                    if vmap is not None:
                        lut = transfer_lut(int(vmap.max(initial=0)))
                        if lut.levels is not None:
                            lut = compose_transfer_lut(lut, vmap)
                            value_mapped = True
                    else:
                        lut = transfer_lut(noise.lut_bound)
                if lut is not None and lut.levels is None:
                    lut = None
            if lut is None:
                if not integer_noise and getattr(adc, "convert_levels", None) is not None:
                    return self._matmul_fast_levels(
                        input_codes, adc, partial_observer, noise
                    )
                return self._matmul_fast_fallback(
                    self._stack_cycles(input_codes), num_cycles, batch, adc,
                    partial_observer, noise,
                )
        elif not integer_noise:
            return self._matmul_fast_fallback(
                self._stack_cycles(input_codes), num_cycles, batch, None,
                partial_observer, noise,
            )

        perturb_blocks = noise is not None and not value_mapped
        cols = 2 * self.num_weight_planes * self.out_features
        if lut is None:  # ideal conversion of integer-domain noisy values
            levels = compact_levels(np.arange(noise.lut_bound + 1))
        else:
            levels = lut.levels
        radix = levels.size
        if partial_observer is not None or perturb_blocks:
            group = 1
        else:
            group = cycle_group_size(radix, num_cycles, batch * cols)
        num_groups = num_cycles // group
        group_shift = group * self.topology.dac_bits
        table = joint_level_table(levels, radix, group, self.topology.dac_bits)
        stacked = self._stack_cycles(input_codes, group, radix)
        partials_buf = self._fast_buffer("partials", (num_groups * batch, cols), np.float32)
        levels_buf = self._fast_buffer("levels", (num_groups * batch, cols), table.dtype)
        if perturb_blocks:
            noisy_buf = self._fast_buffer("noisy", (num_cycles * batch, cols), np.float64)
        counts = None if lut is None else np.zeros(table.size, dtype=np.int64)
        collapsed = self._fast_buffer("collapsed", (batch, cols), np.int64)
        collapsed.fill(0)
        # Holds one shifted group during the collapse, then the float64 copy
        # of the collapsed sums for the merge GEMM.
        scratch = self._fast_buffer("merge_scratch", (batch, cols), np.int64)

        for segment_index, segment in enumerate(self._segments):
            np.matmul(
                stacked[:, segment], self._plane_matrix[segment], out=partials_buf
            )
            if partial_observer is not None:
                blocks = partials_buf.reshape(num_cycles, batch, cols)
                for cycle_index in range(num_cycles):
                    partial_observer(blocks[cycle_index])
            if perturb_blocks:
                # Same keyed draws as the reference loop's per-block calls.
                raw = partials_buf.reshape(num_cycles, batch, cols)
                noisy = noisy_buf.reshape(num_cycles, batch, cols)
                for cycle_index in range(num_cycles):
                    noise.perturb_block(
                        raw[cycle_index], segment_index, cycle_index,
                        out=noisy[cycle_index],
                    )
                conversion_source = noisy_buf
            else:
                conversion_source = partials_buf
            gather_levels(
                table,
                conversion_source.reshape(-1),
                counts,
                levels_buf.reshape(-1),
                tile=self._FAST_TILE,
            )
            # Exact int64 shift-and-add over the cycle groups and segments.
            for group_index, block in enumerate(levels_buf.reshape(num_groups, batch, cols)):
                np.left_shift(block, group_index * group_shift, out=scratch, dtype=np.int64)
                collapsed += scratch

        if lut is None:
            total_ops = collapsed.size * num_cycles * self.num_segments * (
                self.topology.ideal_adc_resolution
            )
        else:
            total_ops = adc.record_code_counts(
                marginal_counts(counts, radix, group), lut
            )
        scale = 1.0 if lut is None else lut.scale
        return self._merge_collapsed(collapsed, scratch, scale), total_ops

    def _matmul_fast_levels(
        self,
        input_codes: np.ndarray,
        adc: object,
        partial_observer: Optional[Callable[[np.ndarray], None]],
        noise: object,
    ) -> Tuple[np.ndarray, int]:
        """Element-wise level conversion with the fused kernel's exact merge.

        For level-grid converters under continuous noise, where a transfer
        LUT over integer bit-line values no longer applies.  One float32
        GEMM per segment yields every cycle's bit-line values.  Each
        (segment, cycle) block is perturbed into one reused float64 buffer (the same keyed draws
        as the reference loop), converted to integer levels in place by
        ``adc.convert_levels(..., out=...)``, and shift-added into the int64
        ``collapsed`` sums.  The merge GEMM then scales once per output.
        Levels are exact integers and every sum stays below ``2^53``, so
        the result matches the reference loop bit for bit in any order, and
        the converter sees the same blocks, so its statistics do too.
        """
        num_cycles, batch = self.num_input_cycles, input_codes.shape[0]
        cols = 2 * self.num_weight_planes * self.out_features
        stacked = self._stack_cycles(input_codes)
        partials_buf = self._fast_buffer("partials", (num_cycles * batch, cols), np.float32)
        noisy = self._fast_buffer("noisy", (batch, cols), np.float64)
        collapsed = self._fast_buffer("collapsed", (batch, cols), np.int64)
        collapsed.fill(0)
        # Holds one shifted block during the collapse, then the float64 copy
        # of the collapsed sums for the merge GEMM.
        scratch = self._fast_buffer("merge_scratch", (batch, cols), np.int64)
        total_ops = 0
        for segment_index, segment in enumerate(self._segments):
            np.matmul(
                stacked[:, segment], self._plane_matrix[segment], out=partials_buf
            )
            blocks = partials_buf.reshape(num_cycles, batch, cols)
            for cycle_index, block in enumerate(blocks):
                if partial_observer is not None:
                    partial_observer(block)
                noise.perturb_block(block, segment_index, cycle_index, out=noisy)
                levels, ops = adc.convert_levels(noisy, out=noisy)
                total_ops += int(ops)
                np.multiply(
                    levels, 1 << (cycle_index * self.topology.dac_bits),
                    out=scratch, casting="unsafe",
                )
                collapsed += scratch
        return self._merge_collapsed(collapsed, scratch, float(adc.level_scale)), total_ops

    def _merge_collapsed(
        self, collapsed: np.ndarray, scratch: np.ndarray, scale: float
    ) -> np.ndarray:
        """Outputs from int64 ``(batch, columns)`` collapsed level sums.

        One float64 GEMM with the ``(columns, out)`` merge matrix, in which
        column ``(sign, plane, o)`` feeds output ``o`` with factor
        ``±2^(plane·Rcell)``, then one multiplication by ``scale``.
        ``scratch`` (int64, ``collapsed``'s shape) holds the float64 copy.
        """
        as_float = scratch.view(np.float64)
        np.copyto(as_float, collapsed)
        merge_matrix = np.kron(
            self._merge_factors.reshape(-1, 1), np.eye(self.out_features)
        )
        accumulator = np.matmul(as_float, merge_matrix)
        if scale != 1.0:
            accumulator *= scale
        return accumulator

    def _matmul_ideal(
        self,
        input_codes: np.ndarray,
        partial_observer: Optional[Callable[[np.ndarray], None]],
    ) -> Tuple[np.ndarray, int]:
        """Noise-free ideal conversion: one exact float64 GEMM.

        Lossless conversion makes the bit-sliced datapath the identity on
        integers: the DAC slices recombine to the input codes and the
        sign/plane shift-and-add recombines to the signed weights.  So the
        outputs are ``codes @ W`` with ``W = Σ ±2^(p·Rcell) · plane`` (built
        once in ``__init__``).  Every product and partial sum is an integer
        of magnitude below ``2^53``, so the GEMM is exact in any summation
        order; ``+ 0.0`` turns the ``-0.0`` an all-zero input row can give
        against a negative column into the ``+0.0`` of the reference loop.
        The op count is analytic.  With a ``partial_observer``, the
        per-cycle stacked GEMM still produces its blocks, segment-major, but
        is not converted or merged.
        """
        num_cycles, batch = self.num_input_cycles, input_codes.shape[0]
        cols = 2 * self.num_weight_planes * self.out_features
        if partial_observer is None:
            codes = self._checked_codes(input_codes)
        else:
            stacked = self._stack_cycles(input_codes)  # range-checks the codes
            partials_buf = self._fast_buffer(
                "partials", (num_cycles * batch, cols), np.float32
            )
            for segment in self._segments:
                np.matmul(
                    stacked[:, segment], self._plane_matrix[segment], out=partials_buf
                )
                for block in partials_buf.reshape(num_cycles, batch, cols):
                    partial_observer(block)
            codes = input_codes.astype(np.int64, copy=False)
        outputs = np.matmul(codes.astype(np.float64), self._weight_matrix)
        outputs += 0.0
        total_ops = batch * cols * num_cycles * self.num_segments * (
            self.topology.ideal_adc_resolution
        )
        return outputs, total_ops

    def _matmul_fast_fallback(
        self,
        stacked: np.ndarray,
        num_cycles: int,
        batch: int,
        adc: Optional[object],
        partial_observer: Optional[Callable[[np.ndarray], None]],
        noise: Optional[object] = None,
    ) -> Tuple[np.ndarray, int]:
        """Fused-GEMM path for converters that merge floats.

        Converters without a level grid (e.g. the non-uniform baseline), and
        ideal conversion under continuous noise, produce float values whose
        merge depends on summation order.  One matmul per segment is kept;
        conversion and noise run per (cycle, segment) block — the same
        blocks, values and keyed noise draws as the reference loop — and the
        ``cycles × segments`` contributions are replayed in the reference
        (cycle-major) order, so the result matches the loop path bit for
        bit whenever the converter is deterministic.  This trades memory for
        bit-parity at large ``chunk_size``; shrink the chunk if that matters.
        """
        total_ops = 0
        baseline_ops = self.topology.ideal_adc_resolution
        contributions: List[List[np.ndarray]] = [[] for _ in range(num_cycles)]
        for segment_index, segment in enumerate(self._segments):
            partials = np.matmul(stacked[:, segment], self._plane_matrix[segment])
            blocks = partials.reshape(num_cycles, batch, -1)
            if partial_observer is not None:
                for cycle_index in range(num_cycles):
                    partial_observer(blocks[cycle_index])
            for cycle_index in range(num_cycles):
                block = blocks[cycle_index]
                if noise is not None:
                    block = noise.perturb_block(block, segment_index, cycle_index)
                if adc is None:
                    quantized = block
                    total_ops += block.size * baseline_ops
                else:
                    quantized, ops = adc.convert(block)
                    total_ops += int(ops)
                cycle_factor = float(1 << (cycle_index * self.topology.dac_bits))
                contributions[cycle_index].append(cycle_factor * self.merge_partials(quantized))
        accumulator = np.zeros((batch, self.out_features), dtype=np.float64)
        for per_cycle in contributions:
            for contribution in per_cycle:
                accumulator += contribution
        return accumulator, total_ops

    def _fast_buffer(self, name: str, shape: Tuple[int, int], dtype) -> np.ndarray:
        """A reusable scratch buffer (avoids large re-allocations per chunk)."""
        cache = getattr(self, "_fast_buffers", None)
        if cache is None:
            cache = self._fast_buffers = {}
        buffer = cache.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != np.dtype(dtype):
            buffer = cache[name] = np.empty(shape, dtype=dtype)
        return buffer

    def release_scratch(self) -> None:
        """Free the fast engine's scratch buffers.

        The buffers are sized ``num_input_cycles · batch × total_columns``
        and are kept between ``matmul`` calls so consecutive chunks of one
        execution reuse them; call this after a run to return the memory
        (the backend does so after each layer execution).
        """
        self._fast_buffers = None
