"""What the benchmark measures: workloads, metrics, predictions and pins.

``BENCHMARK.json`` at the repository root is generated from this module
(:func:`benchmark_json`) and a test keeps the two identical.

``accuracy`` and ``adc_ops_remaining`` are *simulated* quantities of an
unvalidated model: there is no hardware reference, so no error figure
exists for them.  The paper's 42-62 % remaining A/D operations is the only
point of comparison.  Every other metric is host time or memory.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

DEFAULT_SEED = 0

#: Benchmark command and run length recorded in ``BENCHMARK.json``.
COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 20

#: Workload name -> why it was chosen (one line each).
WORKLOADS: Dict[str, str] = {
    "fig6": (
        "Full fig6 preset (24 jobs, lenet5 + resnet20) on an empty store: the only "
        "workload where experiments, Algorithm 1 search and distribution capture work"
    ),
    "lenet-eval": (
        "TRQ-4 PimSimulator.evaluate calls on LeNet-5: fused crossbar kernel plus "
        "integer-LUT gather, no store, search or noise; control for fig6-only layers"
    ),
    "lenet-mc": (
        "run_monte_carlo under read noise + stuck-at faults: element-wise fallback and "
        "noise draws dominate, LUT gather bypassed; control for LUT changes"
    ),
}

#: End-to-end metrics, reported on every workload: name -> (unit, better, bound).
#: One *call* is one ``run_sweep`` (fig6), one ``evaluate`` of 64 images
#: (lenet-eval) or one 8-trial ``run_monte_carlo`` of 16 images (lenet-mc).
#: Times (``setup_s``, the median of three set-ups in fresh processes, call
#: latencies and ``images_per_s``) are scaled to a nominal host speed by a
#: fixed NumPy probe timed between the calls (``perfbench.worker.HostProbe``).
#: ``adc_ops_remaining`` repeats exactly for a seed; its bound covers how
#: much it differs between seeds, since run-to-run spread is taken over runs
#: on different seeds.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "call_p50_ms": ("ms", "lower", 0.25),
    "call_p90_ms": ("ms", "lower", 0.25),
    "images_per_s": ("images/s", "higher", 0.25),
    "adc_ops_remaining": ("ratio", "lower", 0.25),
}

#: The host probe's median time on the 2-core VM the benchmark was written
#: on: times are reported at the host speed where the probe takes this long.
PROBE_NOMINAL_S = 0.009

_ALL = ("fig6", "lenet-eval", "lenet-mc")

#: Printed by name with their unit but not bounded: ``failed_frac`` is 0 on a
#: correct run (the JSON carries it as ``failed``/``attempted``), and
#: ``accuracy`` is a per-seed property of the trained model whose spread
#: across seeds no bound holds.  ``sweep_s`` and ``trials_per_s`` restate
#: ``call_p50_ms`` and ``images_per_s`` in the workload's own unit.  The
#: ``raw_*`` metrics are the times before host-speed scaling, and
#: ``probe_ms`` the host probe's median time.
REPORTED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "failed_frac": ("ratio", _ALL),
    "accuracy": ("top-1", _ALL),
    "sweep_s": ("s", ("fig6",)),
    "trials_per_s": ("trials/s", ("lenet-mc",)),
    "raw_setup_s": ("s", _ALL),
    "raw_call_p50_ms": ("ms", _ALL),
    "raw_images_per_s": ("images/s", _ALL),
    "probe_ms": ("ms", _ALL),
}

#: MVM layers of the two figure workloads, in forward order.
MVM_LAYERS: Dict[str, Tuple[str, ...]] = {
    "lenet5": ("features.0", "features.3", "classifier.1", "classifier.3", "classifier.5"),
    "resnet20": (
        "stem.0",
        "stage1.0.conv1", "stage1.0.conv2",
        "stage2.0.conv1", "stage2.0.conv2", "stage2.0.downsample.0",
        "stage3.0.conv1", "stage3.0.conv2", "stage3.0.downsample.0",
        "head.1",
    ),
}

#: Job kinds the fig6 preset executes.
JOB_KINDS = ("evaluate", "calibration", "distribution")

_BUSY = ("s", "lower")
_COUNT = ("count", "lower")


def _per_layer() -> Dict[str, Tuple[str, str]]:
    metrics: Dict[str, Tuple[str, str]] = {
        "crossbar.matmul.busy_s": _BUSY,
        "crossbar.matmul.self_s": _BUSY,
        "crossbar.matmul.calls": _COUNT,
        "crossbar.matmul.mvms": _COUNT,
        "crossbar.matmul.gmac": ("GMAC", "lower"),
        "crossbar.matmul.gmac_per_s": ("GMAC/s", "higher"),
    }
    for model, layers in MVM_LAYERS.items():
        for layer in layers:
            metrics[f"crossbar.matmul.{model}.{layer}.busy_s"] = _BUSY
    metrics.update({
        "adc.gather.busy_s": _BUSY,
        "adc.convert.busy_s": _BUSY,
        "adc.ops_per_conversion": ("ops", "lower"),
        "nonideal.perturb.busy_s": _BUSY,
        "nonideal.perturb.calls": _COUNT,
        "nonideal.perturb.melems": ("Melem", "lower"),
        "sim.evaluate.busy_s": _BUSY,
        "sim.evaluate.calls": _COUNT,
        "sim.evaluate.distinct_ratio": ("ratio", "higher"),
        "sim.capture.busy_s": _BUSY,
        "sim.capture.calls": _COUNT,
        "sim.capture.distinct_ratio": ("ratio", "higher"),
        "sim.backend.self_s": _BUSY,
        "nn.im2col.busy_s": _BUSY,
        "quantization.quantize.busy_s": _BUSY,
        "core.codesign.busy_s": _BUSY,
        "core.calibrate.busy_s": _BUSY,
    })
    for kind in JOB_KINDS:
        metrics[f"experiments.job.{kind}.busy_s"] = _BUSY
        metrics[f"experiments.job.{kind}.count"] = _COUNT
    metrics.update({
        "experiments.store.save.busy_s": _BUSY,
        "experiments.store.save.calls": _COUNT,
        "experiments.store.load.busy_s": _BUSY,
        "experiments.store.load.calls": _COUNT,
        "experiments.store.bytes": ("B", "lower"),
        "experiments.schedule.busy_s": _BUSY,
        "experiments.overhead_s": _BUSY,
        "workloads.prepare.busy_s": _BUSY,
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return metrics


#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = _per_layer()

#: Which end-to-end metric each layer metric should move, and where it
#: should not: (layer metrics, should move, no change predicted on).
PREDICTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("crossbar.matmul.{busy_s,self_s,calls,mvms,gmac,gmac_per_s,<model>.<layer>.busy_s}",
     "images_per_s on lenet-eval and lenet-mc; call_p50_ms on fig6", "-"),
    ("adc.gather.busy_s", "images_per_s on lenet-eval; call_p50_ms on fig6", "lenet-mc"),
    ("adc.convert.busy_s, adc.ops_per_conversion",
     "images_per_s on lenet-mc; adc_ops_remaining", "lenet-eval"),
    ("nonideal.perturb.{busy_s,calls,melems}", "images_per_s on lenet-mc",
     "lenet-eval, fig6"),
    ("sim.evaluate.*, sim.capture.*, sim.backend.self_s",
     "call_p50_ms on fig6; sim.backend.self_s also the lenet-* images_per_s",
     "lenet-* for the capture and distinct-ratio metrics"),
    ("nn.im2col.busy_s, quantization.quantize.busy_s", "images_per_s everywhere", "-"),
    ("core.codesign.busy_s, core.calibrate.busy_s",
     "call_p50_ms on fig6; setup_s on lenet-*", "lenet-* images_per_s"),
    ("experiments.*", "call_p50_ms and peak_rss_mb on fig6", "lenet-*"),
    ("workloads.prepare.busy_s", "setup_s; call_p50_ms on fig6", "-"),
    ("trace.overhead_frac", "- (the cost of measuring)", "-"),
)

#: Simulated metrics on :data:`DEFAULT_SEED`: a change of the datapath that
#: moves any of them is a wrong result, not a speed-up.
PINNED: Dict[str, Dict[str, float]] = {
    "fig6": {"accuracy": 0.984375, "adc_ops_remaining": 0.5764364879589876},
    "lenet-eval": {"accuracy": 0.92578125, "adc_ops_remaining": 0.6237678659438147},
    "lenet-mc": {"accuracy": 0.5859375, "adc_ops_remaining": 0.6237678659438147},
}


def check_workload(name: str) -> str:
    """Return ``name`` if it is a benchmark workload, else raise ``ValueError``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (expected one of {sorted(WORKLOADS)})")
    return name


def reported_for(workload: str) -> Tuple[str, ...]:
    """The unbounded metrics printed for ``workload``."""
    check_workload(workload)
    return tuple(name for name, (_, where) in REPORTED.items() if workload in where)


def declared(trace: bool) -> Mapping[str, Tuple[str, ...]]:
    """The metrics a run prints: end-to-end untraced, per-layer traced."""
    return PER_LAYER if trace else END_TO_END


def unit(name: str) -> str:
    """Unit of any declared or reported metric; ``KeyError`` if unknown."""
    for table in (END_TO_END, PER_LAYER):
        if name in table:
            return table[name][0]
    if name in REPORTED:
        return REPORTED[name][0]
    raise KeyError(f"unknown metric {name!r}")


def metrics_block(values: Mapping[str, float], trace: bool) -> Dict[str, Dict[str, object]]:
    """The result's ``metrics`` object; the keys must be exactly the declared set."""
    expected = set(declared(trace))
    unknown = sorted(set(values) - expected)
    missing = sorted(expected - set(values))
    if unknown or missing:
        raise ValueError(f"metric set mismatch: unknown {unknown}, missing {missing}")
    return {
        name: {"value": float(values[name]), "unit": unit(name)}
        for name in declared(trace)
    }


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit_, "better": better, "bound": bound}
            for name, (unit_, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit_, "better": better}
            for name, (unit_, better) in PER_LAYER.items()
        ],
    }
