"""Tests for the PIM simulator: capture, backend, end-to-end evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adc import uniform_config, twin_range_config
from repro.core import TRQParams, uniform_adc_configs
from repro.nonideal import GaussianReadNoise, NonIdealityStack
from repro.quantization import FakeQuantBackend, attach_backend, detach_backend, quantize_model
from repro.sim import (
    DistributionCollector,
    PimSimulator,
    ReservoirSampler,
)
from repro.sim.stats import LayerSimStats, SimulationResult


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #
class TestCapture:
    def test_reservoir_keeps_everything_below_capacity(self, rng):
        sampler = ReservoirSampler(capacity=1000, seed=0)
        data = rng.normal(size=500)
        sampler.add(data)
        np.testing.assert_array_equal(np.sort(sampler.values), np.sort(data))
        assert len(sampler) == 500 and sampler.total_seen == 500

    def test_reservoir_bounds_memory_and_subsamples(self, rng):
        sampler = ReservoirSampler(capacity=500, seed=0)
        for _ in range(20):
            sampler.add(rng.normal(size=400))
        assert len(sampler) <= 500
        assert sampler.total_seen == 8000
        assert sampler.values.size == len(sampler)

    def test_reservoir_validation(self):
        with pytest.raises(ValueError):
            ReservoirSampler(capacity=0)
        sampler = ReservoirSampler(capacity=10)
        sampler.add(np.array([]))
        assert sampler.values.size == 0

    def test_collector_routes_by_layer(self, rng):
        collector = DistributionCollector(capacity_per_layer=100, seed=0)
        with pytest.raises(RuntimeError):
            collector(np.ones(3))
        collector.set_layer("a")
        collector(np.ones(5))
        collector.set_layer("b")
        collector(np.zeros(3))
        collector.set_layer("a")
        collector(2 * np.ones(2))
        assert set(collector.layer_names) == {"a", "b"}
        assert collector.samples("a").size == 7
        assert collector.total_seen("a") == 7
        assert collector.total_seen("missing") == 0
        with pytest.raises(KeyError):
            collector.samples("missing")
        assert set(collector.all_samples()) == {"a", "b"}


# --------------------------------------------------------------------- #
# backend + simulator (uses the shared trained LeNet workload)
# --------------------------------------------------------------------- #
class TestSimulator:
    def test_ideal_pim_matches_fake_quant_reference(self, lenet_workload, lenet_eval_data):
        """With an ideal ADC, the crossbar datapath must equal plain 8/8
        fake-quantized inference (the bit-sliced merge is exact)."""
        images, labels = lenet_eval_data
        images = images[:16]
        quantized = lenet_workload.quantized
        model = lenet_workload.model

        result = lenet_workload.simulator.evaluate(images, labels[:16], None, batch_size=8)

        backend = FakeQuantBackend(quantized)
        attach_backend(model, backend)
        try:
            model.eval()
            reference_logits = model(images)
        finally:
            detach_backend(model)
        # Bias handling and dequantization differ only by float rounding.
        np.testing.assert_allclose(result.logits, reference_logits, rtol=1e-6, atol=1e-8)

    def test_layer_stats_are_populated(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        result = lenet_workload.simulator.evaluate(images[:8], labels[:8], None, batch_size=8)
        assert set(result.layer_stats) == set(lenet_workload.simulator.layer_names())
        for stats in result.layer_stats.values():
            assert stats.conversions > 0
            assert stats.operations == stats.conversions * 8  # ideal = baseline ops
            assert stats.mvm_count > 0
        assert result.remaining_ops_fraction == pytest.approx(1.0)
        assert result.summary()["accuracy"] == result.accuracy

    def test_uniform_adc_configs_change_ops_and_accuracy(self, lenet_workload,
                                                         lenet_eval_data,
                                                         lenet_bitline_samples):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        low_bit = sim.evaluate(
            images[:16], labels[:16],
            uniform_adc_configs(lenet_bitline_samples, bits=3),
            batch_size=8,
        )
        assert low_bit.remaining_ops_fraction == pytest.approx(3 / 8)
        assert low_bit.total_operations == 3 * low_bit.total_conversions

    def test_trq_configs_reduce_ops(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.0)
        configs = {name: twin_range_config(params) for name in sim.layer_names()}
        result = sim.evaluate(images[:16], labels[:16], configs, batch_size=8)
        assert result.remaining_ops_fraction < 1.0
        assert result.ops_reduction_factor > 1.0
        # Some conversions must land in each region for a realistic layer.
        total_r1 = sum(s.in_r1 for s in result.layer_stats.values())
        total_r2 = sum(s.in_r2 for s in result.layer_stats.values())
        assert total_r1 > 0 and total_r2 > 0

    def test_noise_degrades_or_preserves_accuracy_but_runs(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        result = sim.evaluate(images[:8], labels[:8], None, batch_size=8,
                              noise=NonIdealityStack([GaussianReadNoise(sigma=0.5)], seed=0))
        assert 0.0 <= result.accuracy <= 1.0

    def test_collect_bitline_distributions(self, lenet_workload, lenet_bitline_samples):
        assert set(lenet_bitline_samples) == set(lenet_workload.simulator.layer_names())
        for samples in lenet_bitline_samples.values():
            assert samples.size > 0
            assert samples.min() >= 0.0
            # Integer partial sums (1-bit operands): all values are integers.
            np.testing.assert_allclose(samples, np.round(samples))

    def test_accuracy_evaluator_closure(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        evaluator = lenet_workload.simulator.accuracy_evaluator(images[:8], labels[:8], batch_size=8)
        assert 0.0 <= evaluator(None) <= 1.0

    def test_mapping_summary(self, lenet_workload):
        footprints = lenet_workload.simulator.mapping_summary()
        assert set(footprints) == set(lenet_workload.simulator.layer_names())
        assert all(f.conversions_per_mvm > 0 for f in footprints.values())

    def test_batch_size_invariance(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        a = sim.evaluate(images[:12], labels[:12], None, batch_size=4)
        b = sim.evaluate(images[:12], labels[:12], None, batch_size=12)
        np.testing.assert_allclose(a.logits, b.logits, rtol=1e-9)
        assert a.total_conversions == b.total_conversions


# --------------------------------------------------------------------- #
# stats containers
# --------------------------------------------------------------------- #
class TestStats:
    def test_layer_stats_fractions(self):
        stats = LayerSimStats(name="l", kind="conv", conversions=100, operations=400)
        assert stats.mean_ops_per_conversion == 4.0
        assert stats.remaining_fraction(8) == 0.5
        empty = LayerSimStats(name="e", kind="conv")
        assert empty.mean_ops_per_conversion == 0.0
        assert empty.remaining_fraction(8) == 0.0

    def test_simulation_result_aggregation(self):
        layers = {
            "a": LayerSimStats(name="a", kind="conv", conversions=10, operations=40),
            "b": LayerSimStats(name="b", kind="linear", conversions=10, operations=80),
        }
        result = SimulationResult(accuracy=0.9, num_images=4, layer_stats=layers,
                                  baseline_ops_per_conversion=8)
        assert result.total_conversions == 20
        assert result.total_operations == 120
        assert result.mean_ops_per_conversion == 6.0
        assert result.remaining_ops_fraction == pytest.approx(0.75)
        assert result.ops_reduction_factor == pytest.approx(1 / 0.75)
        per_layer = result.per_layer_remaining_fraction()
        assert per_layer["a"] == pytest.approx(0.5)
