"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6 --seed 0 --seconds 20 --trace 0

Steps, each in a fresh child process (``perfbench.worker``) with BLAS held
to at most two threads:

1. fill the trained-weight cache for ``--seed`` (timed and printed, not
   gated, so ``setup_s`` always measures a warm-cache start);
2. ``--trace 0``: set the workload up :data:`SETUP_REPEATS` times and
   report the median as ``setup_s`` (the last set-up is the measuring
   child's), run back-to-back calls for ``--seconds`` and check the outputs;
   ``--trace 1``: the same loop, then a second set-up and loop with every
   layer wrapped on alternate calls, reporting the per-layer metrics and the
   tracing overhead.

Times are scaled to a nominal host speed (see ``perfbench.worker.HostProbe``);
the raw ones are printed next to them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Caches, result
stores and span dumps go under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import contract  # noqa: E402  (needs ROOT on sys.path)

SETUP_REPEATS = 3
BLAS_THREADS = 2
#: Training a seed's weights may take minutes on a cold cache; everything
#: after it must end within three minutes of the start.
TRAIN_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A worker process exited non-zero, timed out or printed no result."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, type=contract.check_workload,
                        help=f"one of {', '.join(contract.WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=contract.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the benchmark's own tests")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_build" / "perfbench")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = threads
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: List[str], deadline: float) -> Tuple[float, Dict[str, object]]:
    """Run ``perfbench.worker`` with ``args`` until the ``time.time()``
    ``deadline``: (spawn wall time, its JSON result)."""
    spawned = time.time()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"worker {args[0]} timed out after {error.timeout} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args[0]} exited with code {done.returncode}")
    try:
        return spawned, json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"worker {args[0]} printed no JSON result") from None


def end_to_end(setups: List[float], result: Dict[str, object]) -> Dict[str, float]:
    """``setups`` holds the raw set-up times; like the call times, their
    median is scaled to the nominal host speed by the run's probe."""
    host_scale = contract.PROBE_NOMINAL_S * 1e3 / result["probe_ms"]
    return {
        "setup_s": statistics.median(setups) * host_scale,
        "peak_rss_mb": result["peak_rss_mb"],
        "call_p50_ms": result["call_p50_ms"],
        "call_p90_ms": result["call_p90_ms"],
        "images_per_s": result["images_per_s"],
        "adc_ops_remaining": result["simulated"]["adc_ops_remaining"],
    }


def reported(workload: str, setups: List[float], result: Dict[str, object]) -> Dict[str, float]:
    """The unbounded metrics printed next to the end-to-end ones."""
    values = {
        "raw_setup_s": statistics.median(setups),
        "failed_frac": result["failed"] / result["attempted"],
        "accuracy": result["simulated"]["accuracy"],
        "sweep_s": result["call_p50_ms"] / 1e3,
        "trials_per_s": result["trials_per_s"],
        "raw_call_p50_ms": result["raw_call_p50_ms"],
        "raw_images_per_s": result["raw_images_per_s"],
        "probe_ms": result["probe_ms"],
    }
    return {name: values[name] for name in contract.reported_for(workload)}


def _print_table(title: str, values: Dict[str, float]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<48} {value:>16.6g} {contract.unit(name)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run it from a full checkout",
              file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(args.work_dir)] + (["--smoke"] if args.smoke else [])
    try:
        _, trained = run_child(["train", *common], time.time() + TRAIN_TIMEOUT_S)
        print(f"one-time training for seed {args.seed}: {trained['train_s']:.2f} s "
              "(not gated)")
        deadline = time.time() + RUN_TIMEOUT_S
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                spawned, ready = run_child(["setup", *common], deadline)
                setups.append(ready["ready"] - spawned)
        spawned, result = run_child([
            "measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], deadline)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    setups.append(result["ready"] - spawned)

    print(f"workload {args.workload}, seed {args.seed}: {result['calls']} calls in "
          f"{result['elapsed_s']:.2f} s")
    if args.trace:
        values = result["layers"]
        _print_table("per-layer metrics (traced run)", values)
    else:
        values = end_to_end(setups, result)
        _print_table("end-to-end metrics", values)
    _print_table("also reported (not bounded)", reported(args.workload, setups, result))
    for failure in result["check_failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract.metrics_block(values, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
