"""What one call of each workload does, through the public ``repro`` API.

Every workload takes its seed and derives all its inputs from it:
the dataset and training seed, the order in which lenet-* calls rotate over
the test split and the Monte Carlo seed.  Calls go through module
attributes (``runner.run_sweep``, ``repro.workloads.prepare_workload``) so the
traced run's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
from repro.telemetry import events as telemetry_events
from repro.telemetry.tracer import Tracer

#: lenet-* noise: the ``robustness-noise`` preset point sigma=0.25 with
#: stuck-at faults at rate_on=1e-3.
MC_SIGMA = 0.25
MC_FAULT_RATE = 1e-3


@dataclasses.dataclass(frozen=True)
class Scale:
    """Workload sizes; :data:`SMOKE` shrinks every one for a seconds-fast pass."""

    train_size: int = 256
    test_size: int = 256
    calibration_images: int = 32
    epochs: int = 20
    #: Images per lenet-eval call and per lenet-mc call.
    window: int = 64
    mc_window: int = 16
    trials: int = 8
    check_images: int = 16
    smoke: bool = False


FULL = Scale()
SMOKE = Scale(
    train_size=64, test_size=16, calibration_images=8, epochs=1,
    window=8, mc_window=4, trials=2, check_images=4, smoke=True,
)


@dataclasses.dataclass
class CallResult:
    """Work one call did: images scored, attempts (calls or jobs) and failures."""

    images: int
    attempted: int = 1
    failed: int = 0


class Workload:
    """One workload: ``train`` once per seed, ``setup`` per process, then calls."""

    name = ""
    weights_group = ""
    #: Calls every run makes, whatever ``--seconds`` says (the simulated
    #: metrics are taken from them), and the most it makes.
    min_calls = 1
    max_calls: Optional[int] = None

    def __init__(self, seed: int, scale: Scale, work: Path) -> None:
        self.seed = int(seed)
        self.scale = scale
        self.work = Path(work)
        self.cache = self.work / "weights" / self.weights_group

    def train(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, index: int, checkpoint: Callable[[], None]) -> CallResult:
        """One call.  ``checkpoint()`` may be called at safe points inside it
        to sample host speed; the time it takes is not part of the call."""
        raise NotImplementedError

    def simulated(self) -> Dict[str, float]:
        """``accuracy`` and ``adc_ops_remaining`` of the first calls."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Output checks, outside the timed region: the names of those failed."""
        raise NotImplementedError

    def layer_extra(self) -> Dict[str, float]:
        """Per-layer metrics spans cannot see."""
        return {}

    def close(self) -> None:
        """Remove what the calls left on disk."""


class _Lenet(Workload):
    weights_group = "lenet"
    #: Images per call (a :class:`Scale` field).
    window_field = "window"

    def _prepare(self):
        import repro.workloads as repro_workloads

        scale = self.scale
        return repro_workloads.prepare_workload(
            "lenet5", preset="tiny", train_size=scale.train_size,
            test_size=scale.test_size, calibration_images=scale.calibration_images,
            epochs=scale.epochs, seed=self.seed, cache_dir=str(self.cache),
        )

    def train(self) -> None:
        self._prepare()

    def setup(self) -> None:
        from repro.core import CoDesignOptimizer
        from repro.utils.rng import derive_seed

        self.prepared = self._prepare()
        optimizer = CoDesignOptimizer(
            self.prepared.model,
            self.prepared.calibration.images,
            self.prepared.calibration.labels,
        )
        self.configs = optimizer.run(use_accuracy_loop=False, initial_n_max=4).adc_configs
        test = self.prepared.dataset.test
        size = getattr(self.scale, self.window_field)
        order = np.random.default_rng(derive_seed(self.seed, "rotation")).permutation(
            len(test.labels) // size
        )
        self.windows = [
            (test.images[start : start + size], test.labels[start : start + size])
            for start in (int(w) * size for w in order)
        ]

    def _reference(self):
        from repro.sim import PimSimulator

        return PimSimulator(self.prepared.quantized, engine="reference")


def _same_stats(left: Dict[str, object], right: Dict[str, object]) -> bool:
    return left.keys() == right.keys() and all(left[k] == right[k] for k in left)


class LenetEval(_Lenet):
    """``PimSimulator.evaluate`` of 64 images with the TRQ-4 configs."""

    name = "lenet-eval"

    def setup(self) -> None:
        super().setup()
        self.min_calls = len(self.windows)
        self.first: List = []

    def call(self, index: int, checkpoint: Callable[[], None]) -> CallResult:
        images, labels = self.windows[index % len(self.windows)]
        result = self.prepared.simulator.evaluate(images, labels, self.configs, batch_size=16)
        if len(self.first) < len(self.windows):
            self.first.append(result)
        return CallResult(images=len(labels))

    def simulated(self) -> Dict[str, float]:
        """Over the first rotation, i.e. the whole test split."""
        correct = sum(r.accuracy * r.num_images for r in self.first)
        images = sum(r.num_images for r in self.first)
        operations = sum(r.total_operations for r in self.first)
        baseline = sum(
            r.total_conversions * r.baseline_ops_per_conversion for r in self.first
        )
        return {"accuracy": correct / images, "adc_ops_remaining": operations / baseline}

    def check(self) -> List[str]:
        images, labels = self.windows[0]
        fast = self.first[0]
        reference = self._reference().evaluate(images, labels, self.configs, batch_size=16)
        same = np.array_equal(fast.logits, reference.logits) and _same_stats(
            fast.layer_stats, reference.layer_stats
        )
        return [] if same else ["fast engine != reference engine"]


class LenetMonteCarlo(_Lenet):
    """``run_monte_carlo`` with 8 trials x 16 images under read noise + faults.

    Calls of about a second, rather than the 6 s of 64 images, give a run
    enough calls for a steady median and enough host probes between them.
    """

    name = "lenet-mc"
    window_field = "mc_window"

    def setup(self) -> None:
        from repro.experiments.presets import sigma_fault_scenarios

        super().setup()
        scenario = sigma_fault_scenarios([MC_SIGMA], [MC_FAULT_RATE], seed=self.seed)[0]
        self.stack = scenario.build_stack()
        # The noise-free reference of each window, shared by its calls the
        # way the experiment runner shares it across grid points.
        self.clean = [
            self.prepared.simulator.evaluate(images, labels, self.configs, batch_size=16)
            for images, labels in self.windows
        ]
        self.first = None

    def _monte_carlo(self, simulator, images, labels, trials, clean=None):
        return simulator.run_monte_carlo(
            images, labels, self.stack, self.configs, trials=trials,
            batch_size=16, seed=self.seed, clean=clean,
        )

    def call(self, index: int, checkpoint: Callable[[], None]) -> CallResult:
        window = index % len(self.windows)
        images, labels = self.windows[window]
        result = self._monte_carlo(
            self.prepared.simulator, images, labels, self.scale.trials, self.clean[window]
        )
        if self.first is None:
            self.first = result
        return CallResult(images=self.scale.trials * len(labels))

    def simulated(self) -> Dict[str, float]:
        """Mean trial accuracy and conversion-weighted remaining A/D
        operations of the first call."""
        conversions = {
            name: stats.conversions for name, stats in self.clean[0].layer_stats.items()
        }
        remaining = sum(
            conversions[name] * stats.mean_remaining_fraction
            for name, stats in self.first.layer_stats.items()
        )
        return {
            "accuracy": self.first.mean_accuracy,
            "adc_ops_remaining": remaining / sum(conversions.values()),
        }

    def check(self) -> List[str]:
        images, labels = (part[: self.scale.check_images] for part in self.windows[0])
        reference = self._reference()
        failed = []
        noisy = self.stack.derive_trial(self.seed, 0)
        fast_eval, ref_eval = (
            sim.evaluate(images, labels, self.configs, batch_size=16, noise=noisy)
            for sim in (self.prepared.simulator, reference)
        )
        if not (np.array_equal(fast_eval.logits, ref_eval.logits)
                and _same_stats(fast_eval.layer_stats, ref_eval.layer_stats)):
            failed.append("noisy evaluate: fast engine != reference engine")
        fast_mc, ref_mc = (
            self._monte_carlo(sim, images, labels, trials=2)
            for sim in (self.prepared.simulator, reference)
        )
        if not (np.array_equal(fast_mc.accuracies, ref_mc.accuracies)
                and np.array_equal(fast_mc.flip_rates, ref_mc.flip_rates)
                and _same_stats(fast_mc.layer_stats, ref_mc.layer_stats)):
            failed.append("run_monte_carlo: fast engine != reference engine")
        return failed


class Fig6(Workload):
    """``run_sweep`` of the whole ``fig6`` preset, serial, on an empty store."""

    name = "fig6"
    weights_group = "fig6"
    #: One sweep (16-22 s on a 2-core VM) per run, whatever ``--seconds``
    #: says: a second sweep would double a run for one more latency sample.
    max_calls = 1

    def _spec(self):
        from repro.experiments import presets

        if self.scale.smoke:
            scale = self.scale
            workloads = [presets.WorkloadSpec(
                "lenet5", preset="tiny", train_size=scale.train_size,
                test_size=scale.test_size, calibration_images=scale.calibration_images,
                epochs=scale.epochs, seed=self.seed,
            )]
        else:
            workloads = [
                dataclasses.replace(presets.benchmark_workload(name), seed=self.seed)
                for name in presets.FIGURE_WORKLOAD_NAMES
            ]
        return presets.build_preset("fig6", smoke=self.scale.smoke, workloads=workloads)

    def train(self) -> None:
        import repro.workloads as repro_workloads

        jobs = self._spec().sweep.expand()
        for spec in dict.fromkeys(job.workload for job in jobs):
            repro_workloads.prepare_workload(
                spec.name, preset=spec.preset, train_size=spec.train_size,
                test_size=spec.test_size, calibration_images=spec.calibration_images,
                epochs=spec.epochs, seed=spec.seed, cache_dir=str(self.cache),
            )

    def setup(self) -> None:
        import repro.experiments.runner  # noqa: F401  (the import is set-up cost)

        self.experiment = self._spec()
        self.jobs = self.experiment.sweep.expand()
        self.stores: List[Path] = []
        self.first = None

    def _sweep(self, store: Path, checkpoint: Optional[Callable[[], None]] = None):
        import repro.experiments.runner as runner

        return runner.run_sweep(
            self.experiment.sweep, store, executor="serial",
            weights_cache_dir=str(self.cache), experiment=self.experiment,
            max_failures=len(self.jobs),
            trace=None if checkpoint is None else _JobStartCheckpoint(checkpoint),
        )

    def call(self, index: int, checkpoint: Callable[[], None]) -> CallResult:
        import repro.experiments.runner as runner

        # Every sweep starts cold: no prepared workload or shared artifact
        # survives from an earlier call in this process.
        runner.clear_runner_memos()
        store = self.work / "stores" / f"{self.name}-{id(self)}-{index}"
        shutil.rmtree(store, ignore_errors=True)
        self.stores.append(store)
        run = self._sweep(store, checkpoint)
        if self.first is None:
            self.first = run
        return CallResult(
            images=sum(job.images for job in self.jobs),
            attempted=len(self.jobs), failed=len(run.failures),
        )

    def _trq4_rows(self) -> List[Dict[str, object]]:
        return [row for row in self.first.rows if row.get("config") == "trq4"]

    def simulated(self) -> Dict[str, float]:
        """Means over the TRQ-4 rows (one per workload)."""
        rows = self._trq4_rows()
        return {
            "accuracy": float(np.mean([row["accuracy"] for row in rows])),
            "adc_ops_remaining": float(np.mean([row["remaining_ops_fraction"] for row in rows])),
        }

    def check(self) -> List[str]:
        rerun = self._sweep(self.stores[0])
        failed = []
        if rerun.stats.computed or rerun.stats.cached != rerun.stats.total:
            failed.append("re-run on the populated store computed jobs")
        if json.dumps(rerun.rows, sort_keys=True) != json.dumps(self.first.rows, sort_keys=True):
            failed.append("re-run rows differ")
        if not self._trq4_rows():
            failed.append("no trq4 rows")
        return failed

    def layer_extra(self) -> Dict[str, float]:
        store = self.stores[0]
        return {
            "experiments.store.bytes": float(
                sum(path.stat().st_size for path in store.rglob("*") if path.is_file())
            )
        }

    def close(self) -> None:
        for store in self.stores:
            shutil.rmtree(store, ignore_errors=True)


class _JobStartCheckpoint(Tracer):
    """A disabled tracer (it writes no events) whose ``job_start`` hook
    samples host speed before each job of a sweep."""

    def __init__(self, checkpoint: Callable[[], None]) -> None:
        self._checkpoint = checkpoint

    def emit(self, event: str, **fields: object) -> None:
        if event == telemetry_events.JOB_START:
            self._checkpoint()


WORKLOADS = {workload.name: workload for workload in (Fig6, LenetEval, LenetMonteCarlo)}


def make(name: str, seed: int, scale: Scale, work: Path) -> Workload:
    return WORKLOADS[name](seed, scale, work)

