"""Fast-engine equivalence and sampler bugfix regression tests.

The fused cycle/segment kernel with integer-domain LUT conversion
(``engine="fast"``) must be *bit-identical* to the per-(cycle, segment)
reference loop — same merged outputs (``np.array_equal``), same A/D-operation
totals, same conversion/region statistics — for every converter type.  These
tests pin that contract at the mapped-layer level and end-to-end through
:class:`repro.sim.PimSimulator`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.adc import NonUniformAdc, TwinRangeAdc, UniformAdc, twin_range_config, uniform_config
from repro.adc.lut import gather_levels, joint_level_table, marginal_counts
from repro.core import TRQParams
from repro.crossbar import CrossbarTopology, MappedMVMLayer
from repro.crossbar.mapping import cycle_group_size
from repro.nonideal import NonIdealityStack, RetentionDrift
from repro.quantization import QuantizationConfig
from repro.sim import DistributionCollector, PimSimulator, ReservoirSampler
from repro.sim.pim_layer import PimBackend


def _assert_engines_agree(layer, inputs, make_adc):
    ref_adc, fast_adc = make_adc(), make_adc()
    ref, ref_ops = layer.matmul(inputs, adc=ref_adc, engine="reference")
    fast, fast_ops = layer.matmul(inputs, adc=fast_adc, engine="fast")
    np.testing.assert_array_equal(ref, fast)
    assert ref_ops == fast_ops
    if ref_adc is not None:
        assert ref_adc.stats == fast_adc.stats
    return ref


class TestEngineEquivalence:
    def test_ideal_conversion_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(300, 9)))
        inputs = rng.integers(0, 256, size=(17, 300))
        _assert_engines_agree(layer, inputs, lambda: None)

    def test_uniform_adc_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(140, 7)))
        inputs = rng.integers(0, 256, size=(11, 140))
        _assert_engines_agree(layer, inputs, lambda: UniformAdc(bits=5, delta=3.7))

    def test_twin_range_adc_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        inputs = rng.integers(0, 256, size=(13, 200))
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=0.9, bias=3)
        _assert_engines_agree(layer, inputs, lambda: TwinRangeAdc(params))

    def test_nonuniform_adc_bit_identical(self, rng):
        """Converters without an integer level grid use the element-wise
        fallback inside the fused kernel and must still match exactly."""
        layer = MappedMVMLayer(rng.integers(-7, 8, size=(30, 4)),
                               QuantizationConfig(weight_bits=4, activation_bits=4))
        inputs = rng.integers(0, 16, size=(9, 30))
        grid = np.unique(rng.uniform(0.0, layer.max_bitline_value + 1.0, size=13))
        _assert_engines_agree(layer, inputs, lambda: NonUniformAdc(grid))

    @pytest.mark.parametrize("crossbar_size,bits_per_cell,dac_bits", [
        (16, 1, 1), (64, 2, 1), (128, 1, 2), (32, 2, 2),
    ])
    def test_bit_identical_across_topologies(self, rng, crossbar_size, bits_per_cell, dac_bits):
        topology = CrossbarTopology(crossbar_size, bits_per_cell, dac_bits)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(90, 6)),
                               QuantizationConfig(), topology)
        inputs = rng.integers(0, 256, size=(7, 90))
        params = TRQParams(n_r1=3, n_r2=6, m=2, delta_r1=1.0, bias=1)
        _assert_engines_agree(layer, inputs, lambda: TwinRangeAdc(params))
        _assert_engines_agree(layer, inputs, lambda: None)

    def test_fast_engine_is_chunk_invariant(self, rng):
        """Reused scratch buffers must not leak state between calls."""
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(150, 8)))
        adc = TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3))
        big = rng.integers(0, 256, size=(64, 150))
        whole, _ = layer.matmul(big, adc=adc, engine="fast")
        parts = [layer.matmul(big[i : i + 16], adc=adc, engine="fast")[0] for i in range(0, 64, 16)]
        np.testing.assert_array_equal(whole, np.concatenate(parts, axis=0))

    def test_observer_sees_same_values_in_both_engines(self, rng):
        """Block order differs (cycle-major vs segment-major) but the multiset
        of observed bit-line values must be identical."""
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(150, 4)))
        inputs = rng.integers(0, 256, size=(5, 150))
        seen = {"reference": [], "fast": []}
        for engine in seen:
            layer.matmul(
                inputs,
                partial_observer=lambda block, e=engine: seen[e].append(
                    np.asarray(block, dtype=np.float64).ravel().copy()
                ),
                engine=engine,
            )
        ref = np.sort(np.concatenate(seen["reference"]))
        fast = np.sort(np.concatenate(seen["fast"]))
        np.testing.assert_array_equal(ref, fast)

    def test_unknown_engine_rejected(self, rng):
        layer = MappedMVMLayer(rng.integers(-3, 4, size=(4, 2)),
                               QuantizationConfig(weight_bits=3, activation_bits=2))
        with pytest.raises(ValueError):
            layer.matmul(np.zeros((1, 4), dtype=int), engine="warp")

    def test_fast_engine_rejects_out_of_range_inputs(self, rng):
        layer = MappedMVMLayer(rng.integers(-3, 4, size=(4, 2)),
                               QuantizationConfig(weight_bits=3, activation_bits=2))
        with pytest.raises(ValueError):
            layer.matmul(np.array([[-1, 0, 0, 0]]), engine="fast")
        with pytest.raises(ValueError):
            layer.matmul(np.array([[0, 0, 0, 99]]), engine="fast")


CONVERTERS = {
    "ideal": lambda: None,
    "uniform": lambda: UniformAdc(bits=4, delta=1.7),
    "trq": lambda: TwinRangeAdc(TRQParams(n_r1=2, n_r2=4, m=2, delta_r1=0.9, bias=1)),
}


def _assert_engines_agree_under_value_map(layer, inputs, make_adc):
    """Both engines under a pure value-map noise model (a composed LUT)."""
    stack = NonIdealityStack([RetentionDrift(time=50.0, nu=0.08)], seed=3)
    results = {}
    for engine in ("reference", "fast"):
        adc = make_adc()
        state = stack.bind_mapped("layer", layer).next_chunk()
        merged, ops = layer.matmul(inputs, adc=adc, engine=engine, noise=state)
        results[engine] = (merged, ops, getattr(adc, "stats", None))
    (ref, ref_ops, ref_stats), (fast, fast_ops, fast_stats) = results.values()
    np.testing.assert_array_equal(ref, fast)
    assert ref_ops == fast_ops
    assert ref_stats == fast_stats


def _columns(layer):
    return 2 * layer.num_weight_planes * layer.out_features


@st.composite
def packed_kernel_cases(draw):
    """A random layer and a batch sized so the group rule aims at ``g``."""
    topology = CrossbarTopology(
        128, draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    )
    quant = QuantizationConfig(
        weight_bits=draw(st.integers(2, 8)),
        activation_bits=draw(st.one_of(st.just(8), st.integers(1, 8))),
    )
    in_features = draw(st.integers(1, 300))
    out_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limit = draw(st.integers(1, (1 << (quant.weight_bits - 1)) - 1))
    # Sparse weights give the small bit-line bounds that large groups need.
    density = draw(st.sampled_from([1.0, 0.1, 0.01, 0.002]))
    weights = rng.integers(-limit, limit + 1, size=(in_features, out_features))
    weights *= rng.random(weights.shape) < density
    layer = MappedMVMLayer(weights, quant, topology)
    radix = layer.max_bitline_value + 1
    target = draw(st.sampled_from([1, 2, 4, 8]))
    batch = int(np.clip(-(-(radix**target) // _columns(layer)), 1, 4096))
    inputs = rng.integers(0, 1 << quant.activation_bits, size=(batch, in_features))
    return layer, inputs, draw(st.sampled_from(sorted(CONVERTERS)))


class TestDigitPackedKernel:
    """The digit-packed cycle groups of the fast engine, at every group size."""

    @settings(max_examples=80, deadline=None)
    @given(case=packed_kernel_cases())
    def test_fast_equals_reference_for_random_layers(self, case):
        layer, inputs, converter = case
        group = cycle_group_size(
            layer.max_bitline_value + 1,
            layer.num_input_cycles,
            inputs.shape[0] * _columns(layer),
        )
        event(f"group={group}")
        ref_adc, fast_adc = CONVERTERS[converter](), CONVERTERS[converter]()
        ref, ref_ops = layer.matmul(inputs, adc=ref_adc, engine="reference")
        fast, fast_ops = layer.matmul(inputs, adc=fast_adc, engine="fast")
        assert np.array_equal(ref, fast)
        assert ref_ops == fast_ops
        if ref_adc is not None:
            assert ref_adc.stats == fast_adc.stats
            assert (ref_adc.stats.in_r1, ref_adc.stats.in_r2) == (
                fast_adc.stats.in_r1, fast_adc.stats.in_r2
            )
        if converter != "ideal":
            _assert_engines_agree_under_value_map(layer, inputs, CONVERTERS[converter])

    @pytest.mark.parametrize("group,batch", [(1, 1), (2, 2), (4, 11), (8, 821)])
    def test_every_group_size_is_bit_identical(self, group, batch):
        # Two all-ones rows: radix 3 over 8 cycles and 8 columns.
        layer = MappedMVMLayer(
            np.ones((2, 4), dtype=np.int64), QuantizationConfig(weight_bits=2)
        )
        assert (layer.max_bitline_value + 1, layer.num_input_cycles, _columns(layer)) == (3, 8, 8)
        assert cycle_group_size(3, 8, batch * 8) == group
        inputs = np.random.default_rng(group).integers(0, 256, size=(batch, 2))
        for make_adc in CONVERTERS.values():
            _assert_engines_agree(layer, inputs, make_adc)
        _assert_engines_agree_under_value_map(layer, inputs, CONVERTERS["trq"])

    def test_group_size_rule(self):
        shapes = [(14, 8, 262136), (24, 8, 89600), (15, 8, 4704)]
        assert {shape: cycle_group_size(*shape) for shape in shapes} == {
            (14, 8, 262136): 4,
            (24, 8, 89600): 2,
            (15, 8, 4704): 2,
        }
        assert cycle_group_size(1, 8, 1 << 20) == 1

    def test_joint_level_table_of_three_levels(self):
        table = joint_level_table(np.array([0, 1, 3]), radix=3, group=2, shift_bits=1)
        assert table.tolist() == [0, 1, 3, 2, 3, 5, 6, 7, 9]
        assert joint_level_table(np.array([0, 1, 3]), 3, 1, 1).tolist() == [0, 1, 3]
        with pytest.raises(ValueError):
            joint_level_table(np.array([0, 1, 3]), radix=4, group=2, shift_bits=1)

    def test_marginal_counts_equal_per_cycle_bincounts(self, rng):
        digits = rng.integers(0, 5, size=(3, 1000))
        joint = digits[0] + 5 * digits[1] + 25 * digits[2]
        hist = np.bincount(joint, minlength=125)
        expected = sum(np.bincount(d, minlength=5) for d in digits)
        assert marginal_counts(hist, radix=5, group=3).tolist() == expected.tolist()
        assert marginal_counts(expected, radix=5, group=1).tolist() == expected.tolist()

    def test_gather_levels_matches_take_and_full_length_bincount(self, rng):
        table = np.array([0.0, 2.0, 3.0, 7.0, 11.0, 13.0])
        values = rng.integers(0, 4, size=1000).astype(np.float32)  # top 2 unused
        levels = np.empty(values.size)
        counts = np.zeros(table.size, dtype=np.int64)
        gather_levels(table, values, counts, levels, tile=96)
        codes = values.astype(np.int64)
        assert levels.tolist() == table[codes].tolist()
        assert counts.tolist() == np.bincount(codes, minlength=table.size).tolist()

    def test_gather_levels_without_histogram(self, rng):
        table = np.arange(5, dtype=np.float64) * 3.0
        values = rng.integers(0, 5, size=300)
        levels = np.empty(values.size)
        gather_levels(table, values, None, levels, tile=64)
        assert levels.tolist() == table[values].tolist()

    def test_gather_levels_rejects_values_beyond_the_table(self):
        levels = np.empty(3)
        counts = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds the LUT bound 3"):
            gather_levels(np.arange(4.0), np.array([0, 2, 4]), counts, levels)

    def test_out_of_range_codes_rejected_before_packing(self):
        for bad in (-1, 256):
            layer = MappedMVMLayer(
                np.ones((2, 4), dtype=np.int64), QuantizationConfig(weight_bits=2)
            )
            inputs = np.zeros((821, 2), dtype=np.int64)
            inputs[5, 1] = bad
            with pytest.raises(ValueError):
                layer.matmul(inputs, engine="fast")
            assert getattr(layer, "_fast_buffers", None) is None


@st.composite
def ideal_cases(draw):
    """A random multi-segment layer with one strictly negative weight
    column, and a batch with one all-zero input row."""
    topology = CrossbarTopology(
        draw(st.sampled_from([16, 64, 128])),
        draw(st.sampled_from([1, 2])),
        draw(st.sampled_from([1, 2])),
    )
    quant = QuantizationConfig(
        weight_bits=draw(st.integers(2, 8)),
        activation_bits=draw(st.integers(1, 8)),
    )
    in_features = draw(st.integers(1, 300))
    out_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limit = (1 << (quant.weight_bits - 1)) - 1
    weights = rng.integers(-limit, limit + 1, size=(in_features, out_features))
    weights[:, draw(st.integers(0, out_features - 1))] = -rng.integers(
        1, limit + 1, size=in_features
    )
    batch = draw(st.integers(1, 40))
    inputs = rng.integers(0, 1 << quant.activation_bits, size=(batch, in_features))
    inputs[draw(st.integers(0, batch - 1))] = 0
    return MappedMVMLayer(weights, quant, topology), inputs


class TestIdealGemm:
    """Noise-free ideal conversion is one exact float64 GEMM."""

    @settings(max_examples=60, deadline=None)
    @given(case=ideal_cases())
    def test_fast_equals_reference_bytes(self, case):
        layer, inputs = case
        ref, ref_ops = layer.matmul(inputs, engine="reference")
        fast, fast_ops = layer.matmul(inputs, engine="fast")
        # tobytes tells -0.0 from 0.0, which array_equal does not.
        assert fast.tobytes() == ref.tobytes()
        assert (fast.dtype, fast.shape) == (ref.dtype, ref.shape)
        assert fast_ops == ref_ops

    @settings(max_examples=30, deadline=None)
    @given(case=ideal_cases())
    def test_observer_blocks_are_reference_blocks_segment_major(self, case):
        layer, inputs = case
        seen = {"reference": [], "fast": []}
        results = {}
        for engine, blocks in seen.items():
            results[engine] = layer.matmul(
                inputs,
                partial_observer=lambda block, blocks=blocks: blocks.append(block.copy()),
                engine=engine,
            )
        assert results["fast"][0].tobytes() == results["reference"][0].tobytes()
        assert results["fast"][1] == results["reference"][1]
        cycles, segments = layer.num_input_cycles, layer.num_segments
        reordered = [
            seen["reference"][cycle * segments + segment]
            for segment in range(segments)
            for cycle in range(cycles)
        ]
        assert len(seen["fast"]) == len(reordered) == cycles * segments
        for fast_block, ref_block in zip(seen["fast"], reordered):
            assert fast_block.shape == ref_block.shape
            assert fast_block.tobytes() == ref_block.tobytes()

    def test_signed_zeros_normalised_for_any_summation_order(self, monkeypatch):
        """A GEMM that seeds each sum with its first product gives -0.0 for
        a zero input row against a negative column; the ideal path must
        still return the reference's +0.0."""

        def first_product_matmul(a, b, out=None):
            result = a[:, :1] * b[:1]
            for k in range(1, a.shape[1]):
                result += a[:, k : k + 1] * b[k : k + 1]
            return result

        layer = MappedMVMLayer(-np.ones((3, 2), dtype=np.int64))
        inputs = np.array([[0, 0, 0], [1, 2, 3]])
        monkeypatch.setattr(np, "matmul", first_product_matmul)
        fast, _ = layer.matmul(inputs, engine="fast")
        ref, _ = layer.matmul(inputs, engine="reference")
        assert fast.tobytes() == ref.tobytes()
        assert fast.tolist() == [[0.0, 0.0], [-6.0, -6.0]]
        assert not np.signbit(fast[0]).any()

    def test_out_of_range_codes_rejected(self):
        layer = MappedMVMLayer(
            np.ones((2, 4), dtype=np.int64), QuantizationConfig(weight_bits=2)
        )
        for bad in (-1, 256):
            inputs = np.zeros((3, 2), dtype=np.int64)
            inputs[1, 0] = bad
            with pytest.raises(ValueError):
                layer.matmul(inputs, engine="fast")


class TestSimulatorEngineEquivalence:
    def test_end_to_end_bit_identical(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        images, labels = images[:8], labels[:8]
        names = lenet_workload.simulator.layer_names()
        configs = {
            name: twin_range_config(TRQParams(n_r1=2, n_r2=5, m=3))
            if index % 2 == 0
            else uniform_config(resolution=8, bits=4)
            for index, name in enumerate(names)
        }
        results = {}
        for engine in ("reference", "fast"):
            sim = PimSimulator(lenet_workload.quantized, engine=engine)
            results[engine] = sim.evaluate(images, labels, configs, batch_size=4)
        ref, fast = results["reference"], results["fast"]
        np.testing.assert_array_equal(ref.logits, fast.logits)
        assert set(ref.layer_stats) == set(fast.layer_stats)
        for name in ref.layer_stats:
            a, b = ref.layer_stats[name], fast.layer_stats[name]
            assert (a.conversions, a.operations, a.in_r1, a.in_r2) == (
                b.conversions, b.operations, b.in_r1, b.in_r2
            ), name

    def test_backend_rejects_unknown_engine(self, lenet_workload):
        with pytest.raises(ValueError):
            PimBackend(lenet_workload.quantized, engine="turbo")

    def test_default_engine_is_fast(self, lenet_workload):
        assert PimBackend(lenet_workload.quantized).engine == "fast"
        assert PimSimulator(lenet_workload.quantized).engine == "fast"


class TestAdcLut:
    def test_convert_codes_matches_convert_bitwise(self, rng):
        params = TRQParams(n_r1=3, n_r2=5, m=2, delta_r1=0.7, bias=1)
        values = rng.integers(0, 129, size=(64, 33))
        a, b = TwinRangeAdc(params), TwinRangeAdc(params)
        ref, ref_ops = a.convert(values.astype(np.float64))
        lut_q, lut_ops = b.convert_codes(values, 128)
        np.testing.assert_array_equal(ref, lut_q)
        assert ref_ops == lut_ops
        assert a.stats == b.stats

    def test_uniform_convert_codes_matches_convert(self, rng):
        adc_a, adc_b = UniformAdc(bits=4, delta=2.3), UniformAdc(bits=4, delta=2.3)
        values = rng.integers(0, 129, size=200)
        ref, _ = adc_a.convert(values.astype(np.float64))
        lut_q, _ = adc_b.convert_codes(values, 128)
        np.testing.assert_array_equal(ref, lut_q)

    def test_levels_times_scale_reconstruct_quantized(self):
        """The integer-level invariant: scale · level reconstructs the
        quantized value (to within 1 ulp of the element-wise float path)."""
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.5, bias=0)
        adc = TwinRangeAdc(params)
        lut = adc.transfer_lut(128)
        np.testing.assert_allclose(
            lut.levels.astype(np.float64) * lut.scale, lut.values, rtol=0, atol=1e-12
        )
        assert lut.levels.dtype == np.uint8  # compact storage for the merge

    def test_lut_bound_violation_raises(self):
        adc = UniformAdc(bits=4, delta=1.0)
        with pytest.raises(ValueError):
            adc.convert_codes(np.array([200]), 128)
        with pytest.raises(ValueError):
            adc.transfer_lut(-1)


# --------------------------------------------------------------------- #
# satellite bugfixes (reservoir capacity + per-layer seeds)
# --------------------------------------------------------------------- #
class TestReservoirCapacityRegression:
    def test_one_huge_block_cannot_exceed_capacity(self):
        """Regression: a block much larger than ``total_seen`` used to be
        accepted almost wholesale and appended after eviction without
        clamping, overshooting the documented capacity bound."""
        for seed in range(20):
            sampler = ReservoirSampler(capacity=100, seed=seed)
            sampler.add(np.arange(10.0))          # small history ...
            sampler.add(np.arange(50_000.0))      # ... then one huge block
            assert len(sampler) <= 100, f"seed {seed}: {len(sampler)} > 100"
            assert sampler.values.size == len(sampler)

    def test_capacity_bound_holds_under_any_block_sequence(self, rng):
        sampler = ReservoirSampler(capacity=64, seed=1)
        for _ in range(50):
            sampler.add(rng.normal(size=int(rng.integers(1, 5000))))
            assert len(sampler) <= 64
        assert sampler.total_seen > 64

    def test_huge_first_block_is_uniformly_clamped(self):
        sampler = ReservoirSampler(capacity=100, seed=0)
        sampler.add(np.arange(100_000.0))
        # Acceptance is stochastic at rate capacity/total_seen, so the fill is
        # approximate — but the capacity bound is hard.
        assert 50 <= len(sampler) <= 100
        # A uniform subsample of [0, 100000) should span the range broadly.
        assert sampler.values.max() > 50_000


def _golden_stream():
    """Float32 blocks that drive a capacity-64, seed-3 sampler through a
    fill, an empty block, a partial fill, evictions, a clamped block larger
    than capacity and blocks accepting nothing, in that order."""
    data = np.random.default_rng(20240601)
    for size in (10, 0, 100, 30, 5000, 1, 700, 3):
        yield data.normal(60.0, 15.0, size=size).astype(np.float32)


class TestReservoirGolden:
    """The reservoir's RNG-call sequence is part of the artifact contract:
    captured samples, and so every stored calibration, depend on it."""

    def test_pinned_stream(self):
        sampler = ReservoirSampler(capacity=64, seed=3)
        for block in _golden_stream():
            sampler.add(block)
        values = sampler.values
        assert values.dtype == np.float64
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "dbd6d68398b548a078ec6f28dd6bd112a6c928af4d4ea39e2a1765a0979bf920"
        )
        assert (sampler.total_seen, len(sampler)) == (5844, 64)
        assert sampler._rng.bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {
                "state": 182126622271328600403282905736161391829,
                "inc": 222003063171874261427395693950637096479,
            },
            "has_uint32": 1,
            "uinteger": 620565297,
        }
        with pytest.raises(ValueError):
            ReservoirSampler(capacity=0)


class TestCollectorSeedIndependence:
    def test_layers_draw_independent_acceptance_streams(self):
        """Regression: every layer used to receive the *same* seed, so all
        reservoirs accepted identical index streams (correlated subsampling)."""
        collector = DistributionCollector(capacity_per_layer=200, seed=123)
        data = np.arange(20_000.0)
        for layer in ("a", "b"):
            collector.set_layer(layer)
            collector(data)
            collector(data)
        kept_a = set(collector.samples("a").tolist())
        kept_b = set(collector.samples("b").tolist())
        assert kept_a != kept_b  # identical streams would retain identical sets

    def test_collection_is_reproducible_for_fixed_seed(self):
        def collect():
            collector = DistributionCollector(capacity_per_layer=100, seed=7)
            collector.set_layer("x")
            collector(np.arange(5_000.0))
            return collector.samples("x")

        np.testing.assert_array_equal(collect(), collect())
