"""Shared fixtures for the test suite.

Expensive artefacts (a trained tiny LeNet workload and its quantized /
simulated counterparts) are session-scoped so the integration tests reuse
them instead of retraining per test module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import PreparedWorkload, prepare_workload


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def lenet_workload() -> PreparedWorkload:
    """A small trained LeNet-5 on synthetic MNIST (shared by integration tests)."""
    return prepare_workload(
        "lenet5",
        preset="tiny",
        train_size=256,
        test_size=96,
        calibration_images=16,
        epochs=20,
        seed=7,
    )


@pytest.fixture(scope="session")
def lenet_eval_data(lenet_workload: PreparedWorkload):
    """A fixed, small evaluation subset for accuracy comparisons."""
    split = lenet_workload.eval_split(48)
    return split.images, split.labels


@pytest.fixture(scope="session")
def lenet_bitline_samples(lenet_workload: PreparedWorkload):
    """Per-layer bit-line value samples collected on the calibration images."""
    return lenet_workload.simulator.collect_bitline_distributions(
        lenet_workload.calibration.images[:8],
        batch_size=8,
        capacity_per_layer=20_000,
        seed=3,
    )


@pytest.fixture()
def skewed_samples(rng: np.random.Generator) -> np.ndarray:
    """A synthetic zero-skewed bit-line-like distribution (the paper's Fig. 3a)."""
    body = rng.exponential(scale=3.0, size=6000)
    tail = rng.uniform(40, 120, size=300)
    values = np.concatenate([body, tail])
    return np.clip(np.round(values), 0, 128)


@pytest.fixture()
def normal_samples(rng: np.random.Generator) -> np.ndarray:
    """A unimodal distribution centred away from zero (paper Section IV-B)."""
    return np.clip(np.round(rng.normal(60, 5, size=6000)), 0, 128)


@pytest.fixture()
def multimodal_samples(rng: np.random.Generator) -> np.ndarray:
    """A bimodal distribution (the 'other' case of Algorithm 1)."""
    a = rng.normal(20, 4, size=3000)
    b = rng.normal(90, 6, size=3000)
    return np.clip(np.round(np.concatenate([a, b])), 0, 128)
