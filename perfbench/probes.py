"""Spans around the public calls into each layer of ``repro``, from outside.

:func:`install` replaces each traced function or method by a wrapper that
records a span and returns a :class:`~perfbench.spans.Patcher` whose
``restore()`` puts every original back.  Names bound at import time are
wrapped where they are looked up: ``gather_levels`` in
``repro.crossbar.mapping``, ``execute_job`` and ``build_job_graph`` in
``repro.experiments.runner`` (executors import ``execute_job`` from there
at call time) and ``prepare_workload`` in ``repro.workloads`` (the runner
imports it at call time).  :func:`layer_metrics` turns the recorded spans
into the per-layer metrics of :data:`perfbench.contract.PER_LAYER`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Optional

import numpy as np

from perfbench import contract
from perfbench.spans import Patcher, SpanIndex, SpanRecorder


def _digest(*parts) -> str:
    sha = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


def _noise_key(noise) -> object:
    if noise is None:
        return None
    specs = getattr(noise, "specs", None)
    return (repr(specs()) if callable(specs) else type(noise).__name__,
            getattr(noise, "seed", None))


def _evaluate_key(sim, images, labels=None, adc_configs=None, batch_size=16, noise=None):
    configs = sorted(adc_configs.items()) if adc_configs else None
    return {"key": _digest(images, configs, batch_size, _noise_key(noise))}


def _evaluate_ops(result) -> Dict[str, object]:
    return {"ops": result.total_operations, "conversions": result.total_conversions}


def _capture_key(sim, images, batch_size=8, capacity_per_layer=100_000, seed=0):
    return {"key": _digest(images, batch_size, capacity_per_layer, seed)}


def _matmul_work(mapped, input_codes, *args, **kwargs):
    rows = int(np.shape(input_codes)[0])
    columns = 2 * mapped.num_weight_planes * mapped.out_features
    return {
        "mvms": rows,
        "macs": rows * mapped.num_input_cycles * mapped.in_features * columns,
    }


def _block_elems(state, block, *args, **kwargs):
    return {"elems": int(np.size(block))}


def _job_kind(job, *args, **kwargs):
    return {"kind": job.kind}


class _LayerNames:
    """``PimBackend.conv2d``/``linear`` receive the layer module; name it
    ``<model>.<layer>`` from :func:`repro.quantization.ptq.find_mvm_layers`."""

    def __init__(self) -> None:
        self._names: Dict[int, str] = {}

    def __call__(self, backend, layer, *args, **kwargs):
        name = self._names.get(id(layer))
        if name is None:
            from repro.quantization.ptq import find_mvm_layers

            model = backend.quantized.model
            prefix = type(model).__name__.lower()
            for layer_name, module in find_mvm_layers(model):
                self._names[id(module)] = f"{prefix}.{layer_name}"
            name = self._names[id(layer)]
        return {"layer": name}


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap every traced call; the caller must ``restore()`` the patcher."""
    import repro.crossbar.mapping as mapping
    import repro.experiments.runner as runner
    import repro.nn.functional as functional
    import repro.workloads as workloads
    from repro.adc.nonuniform import NonUniformAdc
    from repro.adc.trq import TwinRangeAdc
    from repro.adc.uniform import UniformAdc
    from repro.core.calibration import TwinRangeCalibrator
    from repro.core.co_design import CoDesignOptimizer
    from repro.crossbar.mapping import MappedMVMLayer
    from repro.experiments.store import ResultStore
    from repro.nonideal.stack import LayerNoiseState
    from repro.quantization.uniform import QuantParams
    from repro.sim.capture import DistributionCollector
    from repro.sim.pim_layer import PimBackend
    from repro.sim.simulator import PimSimulator

    patcher = Patcher()

    def trace(owner, attr, name, **options) -> None:
        patcher.wrap(owner, attr, lambda fn: recorder.wrap(name, fn, **options))

    layer_names = _LayerNames()
    try:
        trace(MappedMVMLayer, "matmul", "crossbar.matmul", before=_matmul_work)
        trace(mapping, "gather_levels", "adc.gather")
        for adc_class in (TwinRangeAdc, UniformAdc, NonUniformAdc):
            for attr in ("convert", "convert_levels"):
                if attr in vars(adc_class):
                    trace(adc_class, attr, "adc.convert")
        trace(LayerNoiseState, "perturb_block", "nonideal.perturb", before=_block_elems)
        trace(PimSimulator, "evaluate", "sim.evaluate",
              before=_evaluate_key, after=_evaluate_ops)
        trace(PimSimulator, "collect_bitline_distributions", "sim.collect",
              before=_capture_key)
        trace(DistributionCollector, "__call__", "sim.capture")
        trace(PimBackend, "conv2d", "sim.backend", before=layer_names)
        trace(PimBackend, "linear", "sim.backend", before=layer_names)
        trace(functional, "im2col", "nn.im2col")
        trace(QuantParams, "quantize", "quantization.quantize")
        trace(CoDesignOptimizer, "run", "core.codesign")
        trace(TwinRangeCalibrator, "calibrate", "core.calibrate")
        trace(runner, "execute_job", "experiments.job", before=_job_kind, new_request=True)
        trace(runner, "build_job_graph", "experiments.schedule")
        trace(ResultStore, "save", "experiments.store.save")
        trace(ResultStore, "load", "experiments.store.load")
        trace(ResultStore, "load_arrays", "experiments.store.load")
        trace(workloads, "prepare_workload", "workloads.prepare")
    except BaseException:
        patcher.restore()
        raise
    return patcher


def _layer_of(index: SpanIndex, position: int) -> Optional[str]:
    for span in index.ancestors(position):
        if span.name == "sim.backend" and span.attrs:
            return span.attrs.get("layer")
    return None


def layer_metrics(
    recorder: SpanRecorder, extra: Mapping[str, float], overhead_frac: float
) -> Dict[str, float]:
    """Every :data:`~perfbench.contract.PER_LAYER` metric of a traced run.

    ``extra`` carries what spans cannot see (``experiments.store.bytes``);
    layers the workload never entered report 0.
    """
    index = SpanIndex(recorder.spans)
    metrics: Dict[str, float] = dict.fromkeys(contract.PER_LAYER, 0.0)

    matmul_busy = index.busy("crossbar.matmul")
    gmac = index.attr_sum("crossbar.matmul", "macs") / 1e9
    metrics.update({
        "crossbar.matmul.busy_s": matmul_busy,
        "crossbar.matmul.self_s": index.self_time("crossbar.matmul"),
        "crossbar.matmul.calls": index.count("crossbar.matmul"),
        "crossbar.matmul.mvms": index.attr_sum("crossbar.matmul", "mvms"),
        "crossbar.matmul.gmac": gmac,
        "crossbar.matmul.gmac_per_s": gmac / matmul_busy if matmul_busy else 0.0,
    })
    for position, span in enumerate(recorder.spans):
        if span.name == "crossbar.matmul":
            layer = _layer_of(index, position)
            key = f"crossbar.matmul.{layer}.busy_s"
            if key in metrics:
                metrics[key] += span.duration

    ops = index.attr_sum("sim.evaluate", "ops")
    conversions = index.attr_sum("sim.evaluate", "conversions")
    metrics.update({
        "adc.gather.busy_s": index.busy("adc.gather"),
        "adc.convert.busy_s": index.busy("adc.convert"),
        "adc.ops_per_conversion": ops / conversions if conversions else 0.0,
        "nonideal.perturb.busy_s": index.busy("nonideal.perturb"),
        "nonideal.perturb.calls": index.count("nonideal.perturb"),
        "nonideal.perturb.melems": index.attr_sum("nonideal.perturb", "elems") / 1e6,
        "sim.evaluate.busy_s": index.busy("sim.evaluate"),
        "sim.evaluate.calls": index.count("sim.evaluate"),
        "sim.evaluate.distinct_ratio": index.distinct_ratio("sim.evaluate"),
        "sim.capture.busy_s": index.busy("sim.capture"),
        "sim.capture.calls": index.count("sim.collect"),
        "sim.capture.distinct_ratio": index.distinct_ratio("sim.collect"),
        "sim.backend.self_s": index.self_time("sim.backend"),
        "nn.im2col.busy_s": index.busy("nn.im2col"),
        "quantization.quantize.busy_s": index.busy("quantization.quantize"),
        "core.codesign.busy_s": index.busy("core.codesign"),
        "core.calibrate.busy_s": index.busy("core.calibrate"),
        "experiments.store.save.busy_s": index.busy("experiments.store.save"),
        "experiments.store.save.calls": index.count("experiments.store.save"),
        "experiments.store.load.busy_s": index.busy("experiments.store.load"),
        "experiments.store.load.calls": index.count("experiments.store.load"),
        "experiments.schedule.busy_s": index.busy("experiments.schedule"),
        "workloads.prepare.busy_s": index.busy("workloads.prepare"),
        "trace.overhead_frac": overhead_frac,
    })
    jobs = index.outermost("experiments.job")
    for kind in contract.JOB_KINDS:
        of_kind = [span for span in jobs if span.attrs and span.attrs.get("kind") == kind]
        metrics[f"experiments.job.{kind}.busy_s"] = sum(span.duration for span in of_kind)
        metrics[f"experiments.job.{kind}.count"] = len(of_kind)
    if jobs:
        metrics["experiments.overhead_s"] = (
            index.busy("bench.call") - sum(span.duration for span in jobs)
        )
    metrics.update(extra)
    return metrics
