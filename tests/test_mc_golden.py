"""Pinned golden digests of ``PimSimulator.run_monte_carlo``.

Every recipe below runs the per-trial Monte Carlo loop on a tiny quantized
LeNet-5 under both engines, and the sha256 fingerprint of everything an MC
artifact persists (summary row, per-layer statistics, per-trial accuracies
and flip rates) must equal the pinned value exactly.  The digests are a
numerics canary: any change to the datapath, the ADC models, the noise
models or the MC aggregation that moves a single bit fails here.

The pins are keyed to :func:`repro.experiments.store.code_version_salt`.
A salt bump — a deliberate, reviewed change of the numerics, which also
invalidates every cached store artifact — is the only legitimate reason to
re-pin them; update :data:`PINNED_SALT` in the same change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.adc import build_adc, twin_range_config, uniform_config
from repro.core import TRQParams
from repro.crossbar.mapping import MappedMVMLayer
from repro.datasets import build_dataset
from repro.experiments.store import code_version_salt
from repro.nn.models import build_model
from repro.nonideal.registry import registered_models
from repro.nonideal.stack import NonIdealityStack
from repro.quantization import quantize_model
from repro.sim import PimSimulator

#: One recipe per registered noise model: static integer-domain (variation,
#: stuck-at, drift), static column-dependent (IR drop) and per-read
#: chunk-keyed draws (gaussian).
NOISE_RECIPES = {
    "variation_quantized": [
        {"model": "conductance_variation", "sigma": 0.08, "quantize": True}
    ],
    "stuck_at": [{"model": "stuck_at_faults", "rate_on": 0.01, "rate_off": 0.01}],
    "drift": [{"model": "retention_drift", "time": 24.0, "nu": 0.06}],
    "ir_drop": [{"model": "ir_drop", "alpha": 0.04}],
    "gaussian": [{"model": "gaussian_read_noise", "sigma": 1.2}],
}

TRQ_PARAMS = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.0, bias=0)

#: Converters of the composite recipes, by name.  ``trq_bias`` has the
#: biased dense window ``[3, 6)`` (two-sided detection) and a non-unit step;
#: ``uniform`` a non-power-of-two LSB of 3.
ADC_CONFIGS = {
    "trq": twin_range_config(TRQ_PARAMS),
    "trq_bias": twin_range_config(TRQParams(n_r1=2, n_r2=4, m=2, delta_r1=0.75, bias=1)),
    "uniform": uniform_config(resolution=8, bits=6, v_grid=0.75),
}

_GAUSSIAN = {"model": "gaussian_read_noise", "sigma": 1.2}
_STUCK_AT = {"model": "stuck_at_faults", "rate_on": 0.02, "rate_off": 0.05}

#: ``{recipe: (noise specs, ADC_CONFIGS key)}``: stacks of several models and
#: continuous noise under other converters.  Both engines share each
#: converter's ``convert_levels``, so fast == reference alone cannot catch a
#: drift common to both; these digests can.  ``rate_off > rate_on`` gives
#: negative stuck-at shifts, so the clamp after the second model matters.
COMPOSITE_RECIPES = {
    "gaussian+stuck_at": ([_GAUSSIAN, _STUCK_AT], "trq"),
    "stuck_at+gaussian": ([_STUCK_AT, _GAUSSIAN], "trq"),
    "ir_drop+gaussian": ([{"model": "ir_drop", "alpha": 0.04}, _GAUSSIAN], "trq"),
    "gaussian@trq_bias": ([_GAUSSIAN], "trq_bias"),
    "gaussian@uniform": ([_GAUSSIAN], "uniform"),
}

#: The salt the digests below were pinned under.
PINNED_SALT = "1.1.0/schema-v2"

#: ``{recipe: {trials: mc_fingerprint}}`` — identical for both engines.
GOLDEN = {
    "drift": {
        3: "a9c59b457617c487c0ce7697b1077682d4efc2ed01232a5d4c1da964ae907300",
        5: "0024a19e0ddc29256e9a54e09726a344857e5cf2a5de5514ffbc3e1202bd53fb",
    },
    "gaussian": {
        3: "745849d9f5132aaf7671c9d56d53293e4765c3c39e99c4cdbbf3838e49af9c47",
        5: "9352f36de6dd569201136cc97355b904850c89fa27e35dd96d3e39144e353a7f",
    },
    "ir_drop": {
        3: "ee65085dcc9febc4fd5723125e9632ed26e998b298a6d6480193c544843a10a7",
        5: "af8cac6fda3fe9c440b8c6c7890ca605ea909d69e6c1c9ecc1fad702a4add72d",
    },
    "stuck_at": {
        3: "9d0e9d3aa600e5e63452ba03b5e04e5d2d9ca4679f33088ae6fd155ca557f70a",
        5: "76af534aa2c7a72d7f9add2abfef54be1bcfbfedaf1e664682ac1047088f6306",
    },
    "variation_quantized": {
        3: "04796204c9033cf8f5747fb18dda40156ede272e67687b9d3ee462eb3a725966",
        5: "34286727905f95276d35cf61f50b7d4e3a159a1d2abf09173826e090756945c2",
    },
}

#: ``{recipe: mc_fingerprint}`` of three trials — identical for both engines.
GOLDEN_COMPOSITE = {
    "gaussian+stuck_at": "64296bc1c7381ad95d561df75349a1a27a37fb6acc74c62b47192f181342db1c",
    "gaussian@trq_bias": "4200d8f50a472072eb4f2dbe0da25619729354f8a133811f46321b13f1c04377",
    "gaussian@uniform": "b4cd9bb05e8bfbb0f840595efdd8417a4f87fd4b53008fed611e81c5d145dc04",
    "ir_drop+gaussian": "c6ebdb19c019d07a1dca32b76e01dfb6eb11439e3b8af0ed5fb1e4f9b34f29b8",
    "stuck_at+gaussian": "ee3122f19b94a0b0a3cf35bc3631394571ad8dabfcf8366e127d8b22f677ba74",
}

#: ``{ADC_CONFIGS key: matmul_fingerprint}`` of one noisy layer MVM.  The MC
#: digests see the outputs only through a few predictions; these pin the
#: merged outputs themselves.
GOLDEN_MATMUL = {
    "trq": "17f750fc31777425a05b5a213d437464f891de0d0b0ce595c4fe74d5b2c08a7f",
    "trq_bias": "af98cd77b2e652bb3ff6fe01bd5b3096ff09d5acc2ec061b47d63b7617ba6794",
    "uniform": "086c55f0363e942f2b03927ee2e41bdfb4b40048abbc7be4c5bbed469ad3865e",
}


@pytest.fixture(scope="module")
def harness():
    """A tiny untrained-but-quantized LeNet-5 and its evaluation inputs.

    Training changes no engine arithmetic, so the numerics are exercised
    just as well without it — and the module stays fast.
    """
    dataset = build_dataset("mnist", train_size=32, test_size=8, seed=0)
    model = build_model("lenet5", preset="tiny", num_classes=dataset.num_classes, rng=0)
    model.eval()
    quantized = quantize_model(model, dataset.train.images[:16])
    configs = {
        name: twin_range_config(TRQ_PARAMS)
        for name in PimSimulator(quantized).layer_names()
    }
    return quantized, configs, dataset.test.images[:4], dataset.test.labels[:4]


@pytest.fixture(scope="module")
def mc_results(harness):
    """Memoised ``run_mc`` results, shared by the tests of this module."""
    cache = {}

    def get(recipe, engine, trials):
        key = (recipe, engine, trials)
        if key not in cache:
            cache[key] = run_mc(harness, recipe, engine, trials)
        return cache[key]

    return get


def mc_fingerprint(result) -> str:
    """Byte-level fingerprint of everything a MC artifact persists."""
    blob = json.dumps(
        {
            "summary": result.summary(),
            "layer_stats": {
                name: dataclasses.asdict(stats)
                for name, stats in result.layer_stats.items()
            },
        },
        sort_keys=True,
    ).encode()
    digest = hashlib.sha256(blob)
    digest.update(result.accuracies.tobytes())
    digest.update(result.flip_rates.tobytes())
    return digest.hexdigest()


def run_mc(harness, recipe, engine, trials):
    quantized, configs, images, labels = harness
    if recipe in COMPOSITE_RECIPES:
        specs, adc = COMPOSITE_RECIPES[recipe]
        configs = dict.fromkeys(configs, ADC_CONFIGS[adc])
    else:
        specs = NOISE_RECIPES[recipe]
    stack = NonIdealityStack(specs, seed=5)
    return PimSimulator(quantized, engine=engine).run_monte_carlo(
        images, labels, stack, adc_configs=configs, trials=trials, batch_size=4, seed=3
    )


def matmul_fingerprint(adc_name: str, engine: str) -> str:
    """Digest of a three-segment layer's outputs, op count and converter
    statistics under read noise followed by stuck-at faults."""
    rng = np.random.default_rng(11)
    mapped = MappedMVMLayer(rng.integers(-127, 128, size=(300, 10)))
    noise = NonIdealityStack([_GAUSSIAN, _STUCK_AT], seed=5).bind_mapped("fc", mapped)
    adc = build_adc(ADC_CONFIGS[adc_name])
    outputs, ops = mapped.matmul(
        rng.integers(0, 256, size=(24, 300)), adc, engine=engine, noise=noise
    )
    digest = hashlib.sha256(outputs.tobytes())
    digest.update(repr((ops, dataclasses.asdict(adc.stats))).encode())
    return digest.hexdigest()


def test_digests_pinned_under_current_salt():
    assert code_version_salt() == PINNED_SALT


def test_every_registered_noise_model_is_pinned():
    models = sorted(spec["model"] for specs in NOISE_RECIPES.values() for spec in specs)
    assert models == sorted(registered_models())
    assert sorted(GOLDEN) == sorted(NOISE_RECIPES)
    assert sorted(GOLDEN_COMPOSITE) == sorted(COMPOSITE_RECIPES)


@pytest.mark.parametrize("trials", [3, 5])
@pytest.mark.parametrize("recipe", sorted(NOISE_RECIPES))
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_monte_carlo_matches_golden_digest(mc_results, recipe, engine, trials):
    assert mc_fingerprint(mc_results(recipe, engine, trials)) == GOLDEN[recipe][trials]


@pytest.mark.parametrize("recipe", sorted(COMPOSITE_RECIPES))
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_composite_monte_carlo_matches_golden_digest(mc_results, recipe, engine):
    assert mc_fingerprint(mc_results(recipe, engine, 3)) == GOLDEN_COMPOSITE[recipe]


@pytest.mark.parametrize("adc_name", sorted(ADC_CONFIGS))
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_noisy_matmul_matches_golden_digest(adc_name, engine):
    assert matmul_fingerprint(adc_name, engine) == GOLDEN_MATMUL[adc_name]


@pytest.mark.parametrize("recipe", sorted(NOISE_RECIPES))
def test_trials_are_independent_of_the_trial_count(mc_results, recipe):
    """Trial ``t`` draws its device from ``(stack seed, seed, t)`` alone, so
    a longer run only appends trials: the first three of a five-trial run
    are the three-trial run."""
    short = mc_results(recipe, "fast", 3)
    long = mc_results(recipe, "fast", 5)
    assert long.accuracies[:3].tolist() == short.accuracies.tolist()
    assert long.flip_rates[:3].tolist() == short.flip_rates.tolist()


def test_precomputed_clean_reference_matches_golden(harness):
    quantized, configs, images, labels = harness
    simulator = PimSimulator(quantized)
    clean = simulator.evaluate(images, labels, adc_configs=configs, batch_size=4)
    stack = NonIdealityStack(NOISE_RECIPES["gaussian"], seed=5)
    result = simulator.run_monte_carlo(
        images, labels, stack, adc_configs=configs, trials=3, batch_size=4, seed=3,
        clean=clean,
    )
    assert mc_fingerprint(result) == GOLDEN["gaussian"][3]


def test_repro_backend_environment_is_ignored(harness, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "torch")
    result = run_mc(harness, "gaussian", "fast", trials=3)
    assert mc_fingerprint(result) == GOLDEN["gaussian"][3]


def test_trial_batch_keyword_is_gone(harness):
    quantized, configs, images, labels = harness
    stack = NonIdealityStack(NOISE_RECIPES["gaussian"], seed=5)
    with pytest.raises(TypeError):
        PimSimulator(quantized).run_monte_carlo(
            images, labels, stack, adc_configs=configs, trials=3, trial_batch=2
        )


def test_zero_trials_rejected(harness):
    with pytest.raises(ValueError):
        run_mc(harness, "stuck_at", "fast", trials=0)
