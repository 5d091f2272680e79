"""The benchmark's own tests: its declared contract, the span arithmetic,
and a seconds-fast smoke pass over every workload."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import contract, probes, run, worker, workloads
from perfbench.spans import Patcher, Span, SpanIndex, SpanRecorder

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_is_generated_from_the_contract():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == contract.benchmark_json()


def test_end_to_end_metrics():
    assert contract.END_TO_END == {
        "setup_s": ("s", "lower", 0.25),
        "peak_rss_mb": ("MiB", "lower", 0.1),
        "call_p50_ms": ("ms", "lower", 0.25),
        "call_p90_ms": ("ms", "lower", 0.25),
        "images_per_s": ("images/s", "higher", 0.25),
        "adc_ops_remaining": ("ratio", "lower", 0.25),
    }
    raw = ("raw_setup_s", "raw_call_p50_ms", "raw_images_per_s", "probe_ms")
    assert {name: contract.reported_for(name) for name in contract.WORKLOADS} == {
        "fig6": ("failed_frac", "accuracy", "sweep_s", *raw),
        "lenet-eval": ("failed_frac", "accuracy", *raw),
        "lenet-mc": ("failed_frac", "accuracy", "trials_per_s", *raw),
    }


def test_per_layer_metric_keys():
    per_mvm_layer = {
        f"crossbar.matmul.{model}.{layer}.busy_s"
        for model, layers in contract.MVM_LAYERS.items() for layer in layers
    }
    assert len(per_mvm_layer) == 15
    assert set(contract.PER_LAYER) - per_mvm_layer == {
        "crossbar.matmul.busy_s", "crossbar.matmul.self_s", "crossbar.matmul.calls",
        "crossbar.matmul.mvms", "crossbar.matmul.gmac", "crossbar.matmul.gmac_per_s",
        "adc.gather.busy_s", "adc.convert.busy_s", "adc.ops_per_conversion",
        "nonideal.perturb.busy_s", "nonideal.perturb.calls", "nonideal.perturb.melems",
        "sim.evaluate.busy_s", "sim.evaluate.calls", "sim.evaluate.distinct_ratio",
        "sim.capture.busy_s", "sim.capture.calls", "sim.capture.distinct_ratio",
        "sim.backend.self_s", "nn.im2col.busy_s", "quantization.quantize.busy_s",
        "core.codesign.busy_s", "core.calibrate.busy_s",
        "experiments.job.evaluate.busy_s", "experiments.job.evaluate.count",
        "experiments.job.calibration.busy_s", "experiments.job.calibration.count",
        "experiments.job.distribution.busy_s", "experiments.job.distribution.count",
        "experiments.store.save.busy_s", "experiments.store.save.calls",
        "experiments.store.load.busy_s", "experiments.store.load.calls",
        "experiments.store.bytes", "experiments.schedule.busy_s",
        "experiments.overhead_s", "workloads.prepare.busy_s", "trace.overhead_frac",
    }


def test_mvm_layer_names_match_the_models():
    from repro.nn.models import build_model
    from repro.quantization.ptq import find_mvm_layers

    assert {
        name: tuple(layer for layer, _ in find_mvm_layers(build_model(name, preset="tiny")))
        for name in contract.MVM_LAYERS
    } == contract.MVM_LAYERS


def test_unknown_workload_or_metric_raises():
    with pytest.raises(ValueError, match="unknown workload"):
        contract.check_workload("resnet-eval")
    with pytest.raises(ValueError, match="unknown workload"):
        contract.reported_for("resnet-eval")
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "resnet-eval"])
    with pytest.raises(KeyError, match="unknown metric"):
        contract.unit("latency_ms")
    values = dict.fromkeys(contract.END_TO_END, 1.0)
    with pytest.raises(ValueError, match=r"unknown \['latency_ms'\]"):
        contract.metrics_block({**values, "latency_ms": 1.0}, trace=False)
    del values["setup_s"]
    with pytest.raises(ValueError, match=r"missing \['setup_s'\]"):
        contract.metrics_block(values, trace=False)


def test_span_busy_self_and_counts():
    # call [0, 10] > evaluate [1, 9] > matmul [2, 5] > matmul [3, 4]
    #                                 > matmul [6, 8]
    spans = [
        Span("bench.call", 0.0, 10.0, None, 1),
        Span("sim.evaluate", 1.0, 9.0, 0, 1, {"key": "a"}),
        Span("crossbar.matmul", 2.0, 5.0, 1, 1, {"mvms": 4}),
        Span("crossbar.matmul", 3.0, 4.0, 2, 1, {"mvms": 100}),
        Span("crossbar.matmul", 6.0, 8.0, 1, 1, {"mvms": 2}),
    ]
    index = SpanIndex(spans)
    assert {
        name: (index.busy(name), index.self_time(name), index.count(name))
        for name in ("bench.call", "sim.evaluate", "crossbar.matmul")
    } == {
        "bench.call": (10.0, 2.0, 1),
        "sim.evaluate": (8.0, 3.0, 1),
        "crossbar.matmul": (5.0, 5.0, 2),
    }
    assert index.attr_sum("crossbar.matmul", "mvms") == 6
    assert index.distinct_ratio("sim.evaluate") == 1.0


def test_recorder_nests_spans_and_gives_each_call_a_request():
    recorder = SpanRecorder()
    with recorder.span("bench.setup"):
        with recorder.span("workloads.prepare"):
            pass
    for _ in range(2):
        with recorder.span("bench.call", new_request=True):
            recorder.wrap("sim.evaluate", lambda: None, after=lambda _: {"ops": 1})()
    assert [(s.name, s.parent, s.request, s.attrs) for s in recorder.spans] == [
        ("bench.setup", None, 0, None),
        ("workloads.prepare", 0, 0, None),
        ("bench.call", None, 1, None),
        ("sim.evaluate", 2, 1, {"ops": 1}),
        ("bench.call", None, 2, None),
        ("sim.evaluate", 4, 2, {"ops": 1}),
    ]
    assert all(span.end >= span.start for span in recorder.spans)


def test_patcher_restores_every_original():
    from repro.crossbar import mapping
    from repro.sim.simulator import PimSimulator

    originals = (PimSimulator.__dict__["evaluate"], mapping.gather_levels)
    patcher = probes.install(SpanRecorder())
    assert PimSimulator.__dict__["evaluate"] is not originals[0]
    patcher.restore()
    assert (PimSimulator.__dict__["evaluate"], mapping.gather_levels) == originals

    class Owner:
        def method(self):
            return 1

    patcher = Patcher()
    patcher.wrap(Owner, "method", lambda fn: lambda self: fn(self) + 1)
    assert Owner().method() == 2
    patcher.restore()
    assert Owner().method() == 1


@pytest.mark.parametrize("workload", sorted(contract.WORKLOADS))
def test_smoke_pass_traced(workload, tmp_path):
    result = worker.measure(
        workload, seed=3, seconds=0.01, trace=True, scale=workloads.SMOKE, work=tmp_path
    )
    assert result["check_failures"] == []
    assert result["failed"] == 0
    assert result["attempted"] >= 3  # calls or jobs, outputs, traced == untraced
    layers = result["layers"]
    assert set(layers) == set(contract.PER_LAYER)
    assert layers["crossbar.matmul.busy_s"] > 0
    assert (tmp_path / "spans" / f"{workload}-seed3.json").is_file()
    experiments = [value for name, value in layers.items() if name.startswith("experiments.")]
    if workload == "fig6":
        assert 0 < layers["sim.capture.distinct_ratio"] < 1
        assert layers["experiments.job.calibration.count"] > 0
        assert not (tmp_path / "stores").exists() or not any((tmp_path / "stores").iterdir())
    else:
        assert not any(experiments)
    if workload == "lenet-eval":
        assert not any(v for name, v in layers.items() if name.startswith("nonideal."))
    if workload == "lenet-mc":
        assert layers["nonideal.perturb.calls"] > 0


def test_command_line_smoke(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "lenet-eval",
         "--seed", "3", "--seconds", "0.01", "--trace", "0", "--smoke",
         "--work-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _, _) in contract.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_latencies_are_normalized_by_the_host_probe():
    nominal = worker.HostProbe.NOMINAL_S
    loop = worker.Loop(
        latencies=[0.1, 0.2, 0.3], probes=[nominal, 2 * nominal, 2 * nominal, 9 * nominal],
        traced=[True, False, False], images=30, elapsed_s=0.7,
    )
    assert loop.normalized().tolist() == pytest.approx([0.05, 0.1, 0.15])
    summary = loop.summary()
    assert summary["call_p50_ms"] == pytest.approx(100.0)
    assert summary["raw_call_p50_ms"] == pytest.approx(200.0)
    assert summary["images_per_s"] == pytest.approx(100.0)
    assert summary["raw_images_per_s"] == pytest.approx(50.0)
    assert loop.mean_latency(True) == pytest.approx(0.05)
