"""In-place level conversion equals the new-array formulas exactly.

The fused kernel converts noisy bit-line blocks in place
(``twin_range_levels(..., out=)`` and ``convert_levels(..., out=)``).  Both
engines share these functions, so a drift in them would not show as a
fast/reference mismatch.  These properties pin them, bit for bit, against
test-local copies of the new-array formulas, on the inputs where float
rounding decides: exact midpoints ``(k + ½)·Δ``, the ``r1_high`` and
``r1_low`` edges ± 1 ulp, negatives, subnormals and values above full scale.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc.trq import TwinRangeAdc
from repro.adc.uniform import UniformAdc
from repro.core.trq import TRQParams, twin_range_levels
from repro.utils.numeric import round_half_up

# Values near the float64 maximum divided by a step below 1 overflow to
# ``inf`` on purpose: both forms must clip that to the top code alike.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

DELTAS = [1.0, 0.5, 0.75, 1.5, 3.0, 0.1, 1.0 / 3.0]
TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal


def formula_twin_range_levels(values, params):
    """The new-array ``twin_range_levels`` formula, kept verbatim."""
    values = np.asarray(values, dtype=np.float64)
    below_upper = values < params.r1_high
    in_r1 = below_upper if params.bias == 0 else below_upper & (values >= params.r1_low)
    codes_r1 = np.clip(
        np.floor((values - params.r1_low) / params.delta_r1 + 0.5), 0, (1 << params.n_r1) - 1
    )
    codes_r2 = np.clip(np.floor(values / params.delta_r2 + 0.5), 0, (1 << params.n_r2) - 1)
    offset = float(params.bias << params.n_r1)
    return np.where(in_r1, offset + codes_r1, codes_r2 * float(1 << params.m)), in_r1


def formula_uniform_codes(values, bits, delta):
    """The new-array ``UniformAdc.convert_levels`` formula, kept verbatim."""
    values = np.asarray(values, dtype=np.float64)
    return np.clip(np.floor(values / delta + 0.5), 0, (1 << bits) - 1)


def _around(points):
    """Each point with its neighbours one ulp below and above."""
    points = np.asarray(points, dtype=np.float64)
    return np.concatenate(
        [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
    )


def _common_edges(full_scale):
    return [
        0.0, -0.0, TINY, -TINY, 1e-310, np.finfo(np.float64).tiny,
        -0.5, -1.0, -7.25, -1e300,
        full_scale, full_scale * 1.5, 1e300, np.inf, -np.inf,
    ]


def twin_range_edges(params):
    steps = [(k + 0.5) * params.delta_r1 for k in range(-2, (1 << params.n_r1) + 2)]
    steps_r1 = [params.r1_low + step for step in steps]
    steps_r2 = [(k + 0.5) * params.delta_r2 for k in range(-1, (1 << params.n_r2) + 1)]
    edges = [params.r1_low, params.r1_high, params.r2_max]
    return _around(steps + steps_r1 + steps_r2 + edges + _common_edges(params.r2_max))


def uniform_edges(adc):
    steps = [(k + 0.5) * adc.delta for k in range(-2, adc.max_code + 2)]
    return _around(steps + [adc.full_scale] + _common_edges(adc.full_scale))


def assert_bit_identical(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


finite_or_inf = st.floats(allow_nan=False, allow_infinity=True, width=64)
trq_params = st.builds(
    TRQParams,
    n_r1=st.integers(min_value=1, max_value=6),
    n_r2=st.integers(min_value=1, max_value=7),
    m=st.integers(min_value=0, max_value=5),
    delta_r1=st.sampled_from(DELTAS),
    bias=st.integers(min_value=0, max_value=3),
)


class TestTwinRangeLevels:
    @given(params=trq_params, extra=st.lists(finite_or_inf, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_in_place_equals_the_formula(self, params, extra):
        values = np.concatenate([twin_range_edges(params), np.asarray(extra, np.float64)])
        expected, expected_r1 = formula_twin_range_levels(values, params)

        fresh, in_r1 = twin_range_levels(values, params)
        assert_bit_identical(fresh, expected)
        assert in_r1.tolist() == expected_r1.tolist()

        buffer = values.copy()
        aliased, in_r1 = twin_range_levels(buffer, params, out=buffer)
        assert aliased is buffer
        assert_bit_identical(buffer, expected)
        assert in_r1.tolist() == expected_r1.tolist()

        out = np.full(values.shape, np.nan)
        snapshot = values.copy()
        assert twin_range_levels(values, params, out=out)[0] is out
        assert_bit_identical(out, expected)
        assert_bit_identical(values, snapshot)

    @given(params=trq_params, extra=st.lists(finite_or_inf, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_adc_in_place_matches_new_array_stats(self, params, extra):
        values = np.concatenate([twin_range_edges(params), np.asarray(extra, np.float64)])
        fresh_adc, in_place_adc = TwinRangeAdc(params), TwinRangeAdc(params)
        levels, ops = fresh_adc.convert_levels(values)
        buffer = values.reshape(1, -1).copy()
        in_place, in_place_ops = in_place_adc.convert_levels(buffer, out=buffer)
        assert in_place is buffer
        assert_bit_identical(in_place.ravel(), levels)
        assert in_place_ops == ops
        assert in_place_adc.stats == fresh_adc.stats

    def test_biased_window_edges(self):
        params = TRQParams(n_r1=2, n_r2=4, m=2, delta_r1=0.75, bias=1)
        assert (params.r1_low, params.r1_high) == (3.0, 6.0)
        values = np.array([np.nextafter(3.0, 0.0), 3.0, np.nextafter(6.0, 0.0), 6.0])
        levels, in_r1 = twin_range_levels(values.copy(), params, out=np.empty(4))
        assert in_r1.tolist() == [False, True, True, False]
        assert levels.tolist() == [4.0, 4.0, 7.0, 8.0]


class TestUniformLevels:
    @given(
        bits=st.integers(min_value=1, max_value=8),
        delta=st.sampled_from(DELTAS),
        extra=st.lists(finite_or_inf, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_in_place_equals_the_formula(self, bits, delta, extra):
        adc = UniformAdc(bits, delta)
        values = np.concatenate([uniform_edges(adc), np.asarray(extra, np.float64)])
        expected = formula_uniform_codes(values, bits, delta)

        fresh, ops = UniformAdc(bits, delta).convert_levels(values)
        assert_bit_identical(fresh, expected)
        assert ops == values.size * bits

        buffer = values.copy()
        in_place, in_place_ops = adc.convert_levels(buffer, out=buffer)
        assert in_place is buffer
        assert_bit_identical(buffer, expected)
        assert in_place_ops == ops
        assert adc.stats.conversions == values.size

        quantized, _ = UniformAdc(bits, delta).convert(values)
        assert_bit_identical(quantized, expected * delta)


BAD_OUTS = {
    "float32": np.empty(6, dtype=np.float32),
    "int64": np.empty(6, dtype=np.int64),
    "short": np.empty(5),
    "column": np.empty((6, 1)),
    "list": [0.0] * 6,
}


class TestOutValidation:
    @pytest.mark.parametrize("out", BAD_OUTS.values(), ids=BAD_OUTS.keys())
    def test_twin_range_levels_rejects_a_wrong_out(self, out):
        params = TRQParams(n_r1=2, n_r2=5, m=3)
        with pytest.raises(ValueError):
            twin_range_levels(np.arange(6.0), params, out=out)
        with pytest.raises(ValueError):
            TwinRangeAdc(params).convert_levels(np.arange(6.0), out=out)

    @pytest.mark.parametrize("out", BAD_OUTS.values(), ids=BAD_OUTS.keys())
    def test_uniform_convert_levels_rejects_a_wrong_out(self, out):
        with pytest.raises(ValueError):
            UniformAdc(4, 1.0).convert_levels(np.arange(6.0), out=out)

    @pytest.mark.parametrize("out", BAD_OUTS.values(), ids=BAD_OUTS.keys())
    def test_round_half_up_rejects_a_wrong_out(self, out):
        with pytest.raises(ValueError):
            round_half_up(np.arange(6.0), out=out)

    def test_rejected_out_records_no_statistics(self):
        adc = TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3))
        with pytest.raises(ValueError):
            adc.convert_levels(np.arange(6.0), out=np.empty(5))
        assert adc.stats.conversions == 0

    def test_round_half_up_in_place_rounds_halves_up(self):
        values = np.array([-1.5, -0.5, 0.5, 1.5, 2.4999999999999996])
        assert round_half_up(values, out=values) is values
        assert values.tolist() == [-1.0, 0.0, 1.0, 2.0, 2.0]
