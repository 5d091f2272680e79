"""PIM compute backend: executes Conv2d/Linear layers on the crossbar + ADC
models instead of the NumPy fast path.

The backend implements the :class:`repro.nn.layers.ComputeBackend` protocol,
so attaching it to a model's MVM layers (``layer.compute_backend = backend``)
re-routes inference through the full bit-sliced datapath:

    quantize inputs → im2col → temporal input slicing → per-segment bit-line
    partial sums → device non-idealities (optional) → ADC conversion
    (uniform / twin-range / ideal) → shift-and-add merge → dequantize →
    bias add

while accumulating per-layer conversion statistics and, optionally, feeding a
:class:`repro.sim.capture.DistributionCollector` with the raw bit-line values.

Engines
-------
The backend executes the crossbar datapath with one of two engines (see the
:mod:`repro.crossbar.mapping` module docstring for the full contract):

* ``engine="fast"`` (default) — fused cycle/segment kernel with
  integer-domain LUT conversion.  Relies on the invariant that bit-line
  values are exact non-negative integers, so LUT-capable ADCs replace float
  round/clip/compare math with an integer gather plus ``np.bincount``.
* ``engine="reference"`` — the per-(cycle, segment) Python loop, kept as the
  verification oracle.

Both engines produce bit-identical outputs and identical A/D-operation and
region statistics — including under device noise: non-ideality models from
:mod:`repro.nonideal` draw every perturbation from counter-based keyed
streams (per layer / chunk / segment / cycle), so the engines reconstruct
identical noise despite traversing blocks in different orders.  Only legacy
``apply``-protocol noise objects (wrapped with a deprecation warning) retain
the old statistical-only agreement.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.adc.config import AdcConfig
from repro.adc.trq import build_adc
from repro.crossbar.mapping import DEFAULT_TOPOLOGY, CrossbarTopology, MappedMVMLayer
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear
from repro.nonideal.stack import LayerNoiseState, NonIdealityStack, as_stack
from repro.quantization.ptq import QuantizedModel, find_mvm_layers
from repro.sim.capture import DistributionCollector
from repro.sim.fidelity import NoNoise
from repro.sim.stats import LayerSimStats
from repro.utils.validation import check_in_range, check_integer

#: Bounds of the fast engine's throughput chunking (``chunk_size=None``).
#: The sweet spot is workload-dependent: per-chunk Python/LUT overhead argues
#: for large chunks, while the fused kernel's scratch buffers
#: (``cycles · chunk × columns``) must stay cache-resident or the per-segment
#: matmul and gather turn memory-bound.  The adaptive default below holds the
#: scratch footprint near ``_CHUNK_ELEMENT_BUDGET`` elements, clamped to
#: these bounds — measured faster than any fixed chunk across the LeNet
#: layer shapes (see ``bench_ablation_calibration.py``).
MAX_CHUNK_SIZE = 16_384
MIN_CHUNK_SIZE = 512
_CHUNK_ELEMENT_BUDGET = 1 << 21


def throughput_chunk_size(num_input_cycles: int, total_columns: int) -> int:
    """The fast engine's throughput chunk for one mapped layer's geometry.

    Chosen so the fused kernel's per-chunk scratch (``cycles · chunk ×
    columns`` partials plus the level/noise gather buffers) stays within the
    element budget; wide conv layers get smaller chunks, narrow FC layers the
    maximum.  Used wherever ``chunk_size=None`` is passed — in particular by
    the calibration search's accuracy oracle, whose wall-time is dominated by
    these chunks.
    """
    per_row = max(1, int(num_input_cycles) * int(total_columns))
    return max(MIN_CHUNK_SIZE, min(MAX_CHUNK_SIZE, _CHUNK_ELEMENT_BUDGET // per_row))


class PimBackend:
    """Crossbar + ADC execution backend for the MVM layers of one model.

    Parameters
    ----------
    quantized:
        PTQ artefacts of the model (integer weights, input/weight scales).
    topology:
        Crossbar geometry (128×128, 1-bit cells, 1-bit DAC by default).
    adc_configs:
        Per-layer ADC configuration.  Layers missing from the mapping (or the
        whole argument being ``None``) are converted *ideally*: the partial
        sums pass through unquantized and the operation count assumes the
        full-resolution baseline.
    chunk_size:
        Number of MVMs (output positions) processed per inner batch; bounds
        peak memory for large feature maps.  ``None`` (default) selects the
        adaptive per-layer throughput chunking
        (:func:`throughput_chunk_size`).
    collector:
        Optional bit-line value collector (paper Fig. 3a / calibration).
        Observers always see the ideal (pre-noise) values.
    noise:
        Optional device non-idealities applied to bit-line values before
        conversion: a :class:`repro.nonideal.NonIdealityStack`, a single
        model, a list of models/spec dicts, or a legacy ``apply``-protocol
        object (deprecated).
    engine:
        ``"fast"`` (fused kernel + LUT ADCs, default) or ``"reference"``
        (per-cycle/segment loop oracle).  Outputs and statistics are
        bit-identical between the two, with or without noise (legacy noise
        objects excepted; see the module docstring).
    """

    _ENGINES = ("fast", "reference")

    def __init__(
        self,
        quantized: QuantizedModel,
        topology: CrossbarTopology = DEFAULT_TOPOLOGY,
        adc_configs: Optional[Dict[str, AdcConfig]] = None,
        chunk_size: Optional[int] = None,
        collector: Optional[DistributionCollector] = None,
        noise=None,
        engine: str = "fast",
    ) -> None:
        if chunk_size is not None:
            check_in_range(check_integer(chunk_size, "chunk_size"), "chunk_size", low=1)
        if engine not in self._ENGINES:
            raise ValueError(f"unknown engine {engine!r} (expected one of {self._ENGINES})")
        self.engine = engine
        self.quantized = quantized
        self.topology = topology
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self.collector = collector
        if isinstance(noise, NoNoise):
            noise = None
        self.noise: Optional[NonIdealityStack] = as_stack(noise)
        self._adc_configs = dict(adc_configs) if adc_configs else {}

        self._layer_names: Dict[int, str] = {
            id(layer): name for name, layer in find_mvm_layers(quantized.model)
        }
        self._mapped: Dict[str, MappedMVMLayer] = {}
        self._adcs: Dict[str, object] = {}
        self._layer_noise: Dict[str, LayerNoiseState] = {}
        self.layer_stats: Dict[str, LayerSimStats] = {}

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _layer_name(self, layer) -> str:
        name = self._layer_names.get(id(layer))
        if name is None:
            raise KeyError(
                "layer is not part of the quantized model this backend was built from"
            )
        return name

    def _mapped_layer(self, name: str, kind: str) -> MappedMVMLayer:
        if name not in self._mapped:
            lq = self.quantized.layer(name)
            if kind == "conv":
                out_channels = lq.weight_codes.shape[0]
                weight_matrix = lq.weight_codes.reshape(out_channels, -1).T
            else:
                weight_matrix = lq.weight_codes.T
            self._mapped[name] = MappedMVMLayer(
                weight_matrix, self.quantized.config, self.topology
            )
        return self._mapped[name]

    def _adc_for(self, name: str):
        if name not in self._adcs:
            config = self._adc_configs.get(name)
            self._adcs[name] = build_adc(config) if config is not None else None
        return self._adcs[name]

    def _noise_for(self, name: str, mapped: MappedMVMLayer) -> Optional[LayerNoiseState]:
        """The layer's bound noise state (static device draws + chunk counter).

        Bound once per layer per backend: static draws (variation factors,
        fault maps) model one physical device for the whole run, and the
        chunk counter advances identically in both engines.
        """
        if self.noise is None:
            return None
        state = self._layer_noise.get(name)
        if state is None:
            state = self.noise.bind_mapped(name, mapped)
            self._layer_noise[name] = state
        return state

    def _stats_for(self, name: str, kind: str, mapped: MappedMVMLayer) -> LayerSimStats:
        if name not in self.layer_stats:
            footprint = mapped.footprint()
            self.layer_stats[name] = LayerSimStats(
                name=name,
                kind=kind,
                crossbar_pairs=footprint.num_crossbar_pairs,
                conversions_per_mvm=footprint.conversions_per_mvm,
            )
        return self.layer_stats[name]

    # ------------------------------------------------------------------ #
    # core execution
    # ------------------------------------------------------------------ #
    def _execute(self, name: str, kind: str, x_rows: np.ndarray) -> np.ndarray:
        """Run ``x_rows`` (MVM input vectors, one per row) through the datapath."""
        lq = self.quantized.layer(name)
        if lq.input_params.signed:
            raise NotImplementedError(
                f"layer '{name}' has signed inputs; the differential crossbar "
                "mapping implemented here expects non-negative MVM inputs "
                "(images or post-ReLU activations)"
            )
        mapped = self._mapped_layer(name, kind)
        adc = self._adc_for(name)
        noise_state = self._noise_for(name, mapped)
        stats = self._stats_for(name, kind, mapped)
        if self.collector is not None:
            self.collector.set_layer(name)

        input_codes = lq.input_params.quantize(x_rows)
        rows = input_codes.shape[0]
        outputs = np.empty((rows, mapped.out_features), dtype=np.float64)
        chunk_size = self.chunk_size
        if chunk_size is None:
            chunk_size = throughput_chunk_size(
                mapped.num_input_cycles,
                2 * mapped.num_weight_planes * mapped.out_features,
            )

        # The collector records the ideal (noise-free) bit-line values the
        # crossbar produces; noise, when enabled, perturbs the blocks after
        # the observer so only the conversion sees it.
        observer = self.collector

        prev_r1, prev_r2 = self._region_counters(adc)
        try:
            for start in range(0, rows, chunk_size):
                chunk = input_codes[start : start + chunk_size]
                if noise_state is not None:
                    noise_state.next_chunk()
                merged, ops = mapped.matmul(
                    chunk,
                    adc=adc,
                    partial_observer=observer,
                    engine=self.engine,
                    noise=noise_state,
                )
                outputs[start : start + chunk.shape[0]] = merged
                conversions = chunk.shape[0] * mapped.footprint().conversions_per_mvm
                stats.mvm_count += chunk.shape[0]
                stats.conversions += conversions
                stats.operations += int(ops)
        finally:
            # Scratch buffers are reused across the chunks above; free them so
            # peak memory is bounded by one layer's working set at a time.
            mapped.release_scratch()
        new_r1, new_r2 = self._region_counters(adc)
        stats.in_r1 += new_r1 - prev_r1
        stats.in_r2 += new_r2 - prev_r2

        return outputs * lq.output_scale

    @staticmethod
    def _region_counters(adc) -> Tuple[int, int]:
        stats = getattr(adc, "stats", None)
        if stats is None:
            return 0, 0
        return stats.in_r1, stats.in_r2

    # ------------------------------------------------------------------ #
    # ComputeBackend protocol
    # ------------------------------------------------------------------ #
    def conv2d(
        self,
        layer: Conv2d,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        name = self._layer_name(layer)
        cols, (oh, ow) = F.im2col(x, layer.kernel_size, stride, padding)
        out = self._execute(name, "conv", cols)
        if bias is not None:
            out = out + bias
        n = x.shape[0]
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    def linear(
        self,
        layer: Linear,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
    ) -> np.ndarray:
        name = self._layer_name(layer)
        out = self._execute(name, "linear", x)
        if bias is not None:
            out = out + bias
        return out

    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        """Clear all accumulated per-layer statistics."""
        self.layer_stats.clear()
        for adc in self._adcs.values():
            if adc is not None:
                adc.reset_stats()

    def mapping_footprints(self) -> Dict[str, object]:
        """Resource footprint of every layer mapped so far."""
        return {name: mapped.footprint() for name, mapped in self._mapped.items()}
