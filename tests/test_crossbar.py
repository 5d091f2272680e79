"""Tests for the ReRAM crossbar substrate: slicing, arrays, mapping, merging."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import UniformAdc
from repro.crossbar import (
    CrossbarTopology,
    MappedMVMLayer,
    bit_slice,
    num_slices,
    reconstruct_from_slices,
    reference_integer_matmul,
    shift_add_merge,
    slice_inputs_temporal,
    slice_weights_differential,
    weight_plane_factors,
    input_cycle_factors,
)
from repro.quantization import QuantizationConfig


# --------------------------------------------------------------------- #
# bit slicing
# --------------------------------------------------------------------- #
class TestSlicing:
    def test_num_slices(self):
        assert num_slices(8, 1) == 8
        assert num_slices(8, 2) == 4
        assert num_slices(7, 2) == 4
        with pytest.raises(ValueError):
            num_slices(0, 1)

    def test_bit_slice_round_trip_simple(self):
        values = np.array([[0, 1, 5], [255, 128, 37]])
        slices = bit_slice(values, total_bits=8, bits_per_slice=1)
        assert slices.shape == (8, 2, 3)
        assert set(np.unique(slices)) <= {0, 1}
        np.testing.assert_array_equal(reconstruct_from_slices(slices, 1), values)

    def test_bit_slice_rejects_invalid(self):
        with pytest.raises(ValueError):
            bit_slice(np.array([-1]), 8)
        with pytest.raises(ValueError):
            bit_slice(np.array([256]), 8)

    @given(
        bits_per_slice=st.integers(min_value=1, max_value=4),
        total_bits=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_slice_reconstruct_identity(self, bits_per_slice, total_bits, data):
        max_value = (1 << total_bits) - 1
        values = np.array(
            data.draw(st.lists(st.integers(min_value=0, max_value=max_value), min_size=1, max_size=30))
        )
        slices = bit_slice(values, total_bits, bits_per_slice)
        np.testing.assert_array_equal(reconstruct_from_slices(slices, bits_per_slice), values)
        assert slices.max(initial=0) < (1 << bits_per_slice)

    def test_differential_weight_slicing(self):
        weights = np.array([[5, -3], [0, -127]])
        pos, neg = slice_weights_differential(weights, magnitude_bits=7)
        np.testing.assert_array_equal(reconstruct_from_slices(pos, 1), np.maximum(weights, 0))
        np.testing.assert_array_equal(reconstruct_from_slices(neg, 1), np.maximum(-weights, 0))
        with pytest.raises(ValueError):
            slice_weights_differential(np.array([[200]]), magnitude_bits=7)

    def test_temporal_input_slicing(self):
        inputs = np.array([[0, 255, 7]])
        slices = slice_inputs_temporal(inputs, activation_bits=8, dac_bits=1)
        assert slices.shape == (8, 1, 3)
        np.testing.assert_array_equal(reconstruct_from_slices(slices, 1), inputs)


# --------------------------------------------------------------------- #
# shift-and-add merge + the mapped layer
# --------------------------------------------------------------------- #
class TestMergeAndMapping:
    def test_merge_factor_helpers(self):
        np.testing.assert_array_equal(weight_plane_factors(4, 1), [1, 2, 4, 8])
        np.testing.assert_array_equal(input_cycle_factors(3, 2), [1, 4, 16])

    def test_shift_add_merge_shape_validation(self):
        with pytest.raises(ValueError):
            shift_add_merge(np.zeros((2, 3, 4, 5, 6, 7)))

    def test_reference_matmul_validation(self):
        with pytest.raises(ValueError):
            reference_integer_matmul(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_topology_ideal_resolution(self):
        assert CrossbarTopology(128, 1, 1).ideal_adc_resolution == 8
        assert CrossbarTopology(128, 2, 1).ideal_adc_resolution == 10
        with pytest.raises(ValueError):
            CrossbarTopology(crossbar_size=1)

    def test_mapped_layer_exact_reconstruction_small(self, rng):
        """Bit-sliced partials + ideal conversion + shift-add == integer matmul."""
        weights = rng.integers(-127, 128, size=(40, 6))
        inputs = rng.integers(0, 256, size=(7, 40))
        topology = CrossbarTopology(crossbar_size=16)
        layer = MappedMVMLayer(weights, QuantizationConfig(), topology)
        out, ops = layer.matmul(inputs)
        np.testing.assert_array_equal(out, reference_integer_matmul(inputs, weights))
        footprint = layer.footprint()
        assert footprint.num_segments == 3  # ceil(40 / 16)
        # Ideal conversion is charged at the topology's baseline resolution.
        assert ops == inputs.shape[0] * footprint.conversions_per_mvm * topology.ideal_adc_resolution

    def test_mapped_layer_matches_shift_add_reference(self, rng):
        """The packed plane-matrix fast path equals the explicit 6-D merge."""
        topology = CrossbarTopology(crossbar_size=8)
        config = QuantizationConfig(weight_bits=4, activation_bits=3)
        weights = rng.integers(-7, 8, size=(13, 5))
        inputs = rng.integers(0, 8, size=(4, 13))
        layer = MappedMVMLayer(weights, config, topology)
        fast, _ = layer.matmul(inputs)

        # Build the explicit partial tensor (cycles, 2, planes, segments, batch, out).
        pos, neg = slice_weights_differential(weights, config.weight_magnitude_bits, 1)
        cycles = slice_inputs_temporal(inputs, config.activation_bits, 1)
        planes = pos.shape[0]
        segments = [slice(s, min(s + 8, 13)) for s in range(0, 13, 8)]
        partials = np.zeros((cycles.shape[0], 2, planes, len(segments), 4, 5))
        for ci in range(cycles.shape[0]):
            for pi in range(planes):
                for si, seg in enumerate(segments):
                    partials[ci, 0, pi, si] = cycles[ci][:, seg] @ pos[pi][seg]
                    partials[ci, 1, pi, si] = cycles[ci][:, seg] @ neg[pi][seg]
        reference = shift_add_merge(partials, bits_per_cell=1, dac_bits=1)
        np.testing.assert_allclose(fast, reference)

    def test_mapped_layer_with_full_resolution_adc_is_exact(self, rng):
        weights = rng.integers(-127, 128, size=(130, 4))  # forces 2 segments of 128
        inputs = rng.integers(0, 256, size=(3, 130))
        layer = MappedMVMLayer(weights, QuantizationConfig())
        adc = UniformAdc(bits=8, delta=1.0)
        out, ops = layer.matmul(inputs, adc=adc)
        np.testing.assert_array_equal(out, reference_integer_matmul(inputs, weights))
        assert adc.stats.conversions > 0
        assert ops == adc.stats.operations

    def test_mapped_layer_partial_observer_sees_all_values(self, rng):
        weights = rng.integers(-3, 4, size=(10, 3))
        inputs = rng.integers(0, 4, size=(2, 10))
        layer = MappedMVMLayer(weights, QuantizationConfig(weight_bits=3, activation_bits=2))
        seen = []
        layer.matmul(inputs, partial_observer=lambda block: seen.append(block.size))
        footprint = layer.footprint()
        assert sum(seen) == inputs.shape[0] * footprint.conversions_per_mvm

    def test_mapped_layer_validation(self, rng):
        layer = MappedMVMLayer(rng.integers(-3, 4, size=(10, 3)),
                               QuantizationConfig(weight_bits=3, activation_bits=2))
        with pytest.raises(ValueError):
            layer.matmul(np.zeros((2, 7), dtype=int))
        with pytest.raises(ValueError):
            MappedMVMLayer(np.zeros((2, 2, 2), dtype=int))

    def test_footprint_counts_match_eq3(self, rng):
        """conversions/MVM = Ki/RDA x Kw/Rcell x segments x 2 x out (Eq. 3)."""
        weights = rng.integers(-127, 128, size=(300, 17))
        layer = MappedMVMLayer(weights, QuantizationConfig())
        footprint = layer.footprint()
        segments = -(-300 // 128)
        assert footprint.conversions_per_mvm == 8 * 7 * segments * 2 * 17
        assert footprint.num_crossbar_pairs == segments * (-(-(7 * 17) // 128))
        assert footprint.num_crossbars == 2 * footprint.num_crossbar_pairs

    @given(
        in_features=st.integers(min_value=1, max_value=40),
        out_features=st.integers(min_value=1, max_value=6),
        crossbar_size=st.sampled_from([4, 8, 16]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_exact_reconstruction(self, in_features, out_features, crossbar_size, seed):
        """For any geometry, the sliced datapath reproduces the exact MVM."""
        rng = np.random.default_rng(seed)
        config = QuantizationConfig(weight_bits=5, activation_bits=4)
        weights = rng.integers(-15, 16, size=(in_features, out_features))
        inputs = rng.integers(0, 16, size=(3, in_features))
        layer = MappedMVMLayer(weights, config, CrossbarTopology(crossbar_size=crossbar_size))
        out, _ = layer.matmul(inputs)
        np.testing.assert_array_equal(out, reference_integer_matmul(inputs, weights))
