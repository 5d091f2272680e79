"""The benchmark's child process: ``train``, ``setup`` or ``measure`` one workload.

``python -m perfbench.worker <mode> --workload <name> --seed <n> --work <dir>``
prints one JSON line last on standard output:

* ``train`` fills the trained-weight cache for the seed (``train_s``);
* ``setup`` sets the workload up and reports the wall-clock instant it was
  ready (``ready``), from which the parent derives ``setup_s``;
* ``measure`` sets up, runs back-to-back calls for ``--seconds`` (one
  closed-loop caller), then the output checks.  With ``--trace 1`` it then
  sets the workload up again with every layer wrapped, runs the loop again
  alternating traced and bare calls, restores the wrappers and reports the
  per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import contract, probes, workloads
from perfbench.spans import SpanRecorder


class HostProbe:
    """A fixed NumPy kernel, timed between calls, that gauges host speed.

    The shared 2-core VM this benchmark was written on drifts in speed by
    about +-20 % over a minute, with bursts far slower; the probe drifts
    with it (11.7-15.4 ms while a LeNet-5 call took 109-165 ms).  A run's
    times multiplied by ``NOMINAL_S / median probe time of the run`` are
    its times at the nominal host speed; across runs they spread about half
    as much as the raw times.  The kernel mixes a BLAS GEMM with a gather
    and a histogram, like the crossbar kernel, and never changes with
    ``repro``.
    """

    NOMINAL_S = contract.PROBE_NOMINAL_S
    REPEATS = 3

    def __init__(self) -> None:
        #: One entry per :meth:`sample`; ``spent`` is the time they took.
        self.samples: List[float] = []
        self.spent = 0.0
        # About 4 MiB in all, allocated once, so the probe barely moves
        # peak_rss_mb.
        rng = np.random.default_rng(0)
        self._a = rng.random((512, 512), dtype=np.float32)
        self._b = rng.random((512, 512), dtype=np.float32)
        self._codes = rng.integers(0, 1024, 1 << 18)
        self._levels = rng.random(1024, dtype=np.float32)
        self._gathered = np.empty(self._codes.size, dtype=np.float32)

    def _once(self) -> float:
        started = time.perf_counter()
        for _ in range(4):
            self._a @ self._b
            np.take(self._levels, self._codes, out=self._gathered)
            np.bincount(self._codes, minlength=self._levels.size)
        return time.perf_counter() - started

    def sample(self) -> None:
        started = time.perf_counter()
        self.samples.append(statistics.median(self._once() for _ in range(self.REPEATS)))
        self.spent += time.perf_counter() - started


@dataclasses.dataclass
class Loop:
    """Latencies, host-speed probes and work of one closed loop of calls."""

    #: Call latencies, without the host probes run inside a call.
    latencies: List[float] = dataclasses.field(default_factory=list)
    #: Every host probe time of the run.
    probes: List[float] = dataclasses.field(default_factory=list)
    traced: List[bool] = dataclasses.field(default_factory=list)
    images: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0

    def normalized(self) -> np.ndarray:
        """Latencies at the nominal host speed."""
        return np.array(self.latencies) * HostProbe.NOMINAL_S / statistics.median(self.probes)

    def mean_latency(self, traced: bool) -> float:
        chosen = self.normalized()[np.array(self.traced) == traced]
        return float(chosen.mean()) if chosen.size else float("nan")

    def summary(self) -> Dict[str, float]:
        normalized = self.normalized()
        return {
            "calls": len(self.latencies),
            "elapsed_s": self.elapsed_s,
            "call_p50_ms": float(np.percentile(normalized, 50)) * 1e3,
            "call_p90_ms": float(np.percentile(normalized, 90)) * 1e3,
            "images_per_s": self.images / float(normalized.sum()),
            "raw_call_p50_ms": float(np.percentile(self.latencies, 50)) * 1e3,
            "raw_images_per_s": self.images / sum(self.latencies),
            "probe_ms": statistics.median(self.probes) * 1e3,
            "attempted": self.attempted,
            "failed": self.failed,
        }


def run_loop(
    workload: workloads.Workload, seconds: float, recorder: Optional[SpanRecorder] = None
) -> Loop:
    """Closed loop: the next call starts when the previous one returned.

    The host probe runs before and after every call and wherever the
    workload checkpoints inside one; its time is not part of the latency.  With a
    ``recorder``, even-numbered calls run with every layer wrapped (inside a
    ``bench.call`` span) and odd-numbered calls run bare, so the traced and
    untraced calls share the same process and machine state.
    """
    loop = Loop()
    probe = HostProbe()
    probe.sample()
    started = time.perf_counter()
    while len(loop.latencies) < workload.min_calls or (
        time.perf_counter() - started < seconds
        and len(loop.latencies) != workload.max_calls
    ):
        index = len(loop.latencies)
        traced = recorder is not None and index % 2 == 0
        patcher = probes.install(recorder) if traced else None
        span = recorder.span if traced else _untraced
        spent = probe.spent
        began = time.perf_counter()
        try:
            with span("bench.call", new_request=True):
                # Probes inside a traced call would land in its layer spans.
                outcome = workload.call(index, _no_checkpoint if traced else probe.sample)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = workloads.CallResult(images=0, failed=1)
        finally:
            loop.latencies.append(time.perf_counter() - began - (probe.spent - spent))
            if patcher is not None:
                patcher.restore()
        probe.sample()
        loop.traced.append(traced)
        loop.images += outcome.images
        loop.attempted += outcome.attempted
        loop.failed += outcome.failed
    loop.elapsed_s = time.perf_counter() - started
    loop.probes = probe.samples
    return loop


def _untraced(name: str, new_request: bool = False):
    return contextlib.nullcontext()


def _no_checkpoint() -> None:
    return None


def _checked(checks: Dict[str, Callable[[], List[str]]]) -> Dict[str, List[str]]:
    """Run each output check; an exception is a failed check."""
    results = {}
    for name, check in checks.items():
        try:
            results[name] = check()
        except Exception as error:
            traceback.print_exc(file=sys.stderr)
            results[name] = [f"{type(error).__name__}: {error}"]
    return results


def _pinned(name: str, simulated: Dict[str, float]) -> List[str]:
    return [
        f"{metric} = {simulated[metric]!r}, pinned {value!r}"
        for metric, value in contract.PINNED[name].items() if simulated[metric] != value
    ]


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: workloads.Scale, work: Path,
) -> Dict[str, object]:
    workload = workloads.make(name, seed, scale, work)
    try:
        workload.setup()
        ready = time.time()
        untraced = run_loop(workload, seconds)
        result: Dict[str, object] = {"ready": ready, **untraced.summary()}
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["trials_per_s"] = result["images_per_s"] / scale.mc_window
        simulated = workload.simulated()
        failures = _checked({"outputs": workload.check})
    finally:
        workload.close()
    checks = {}
    if seed == contract.DEFAULT_SEED and not scale.smoke:
        checks["pinned"] = lambda: _pinned(name, simulated)
    if trace:
        traced, result["layers"] = _traced_run(name, seed, seconds, scale, work, untraced)
        checks["traced == untraced"] = lambda: (
            [] if traced == simulated else [f"traced {traced} != untraced {simulated}"]
        )
    failures.update(_checked(checks))
    result.update(
        simulated=simulated,
        attempted=result["attempted"] + len(failures),
        failed=result["failed"] + sum(1 for found in failures.values() if found),
        check_failures=[f"{check}: {text}" for check, found in failures.items() for text in found],
    )
    return result


def _traced_run(name, seed, seconds, scale, work, untraced: Loop):
    """Set the workload up again with every layer wrapped, then alternate
    traced and bare calls; the tracing overhead compares their mean latency
    (against the untraced loop when no bare call fitted in ``seconds``)."""
    workload = workloads.make(name, seed, scale, work)
    recorder = SpanRecorder()
    patcher = probes.install(recorder)
    try:
        with recorder.span("bench.setup"):
            workload.setup()
    finally:
        patcher.restore()
    try:
        loop = run_loop(workload, seconds, recorder)
        bare = loop if False in loop.traced else untraced
        overhead = loop.mean_latency(True) / bare.mean_latency(False) - 1.0
        layers = probes.layer_metrics(recorder, workload.layer_extra(), overhead)
        simulated = workload.simulated()
    finally:
        workload.close()
    recorder.dump(work / "spans" / f"{name}-seed{seed}.json")
    return simulated, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("train", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(contract.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=contract.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    scale = workloads.SMOKE if args.smoke else workloads.FULL

    if args.mode == "measure":
        payload = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          scale, args.work)
    else:
        workload = workloads.make(args.workload, args.seed, scale, args.work)
        started = time.perf_counter()
        if args.mode == "train":
            workload.train()
            payload = {"train_s": time.perf_counter() - started}
        else:
            workload.setup()
            payload = {"ready": time.time()}
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
