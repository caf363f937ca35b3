#!/usr/bin/env python3
"""rootkgd benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from anywhere inside a checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload tep-stream --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one caller, one operation in flight; the only extra
processes are the scoring workers the default config starts, one per CPU):

- ``tep-stream``: in-process ``pipeline.run_diagnose`` plus ``format_report``
  per fault episode on the bundled TEP graph (70 candidates), with synthetic
  correlated data and a 10-sigma step on one variable per episode.
- ``plant800-diagnose``: one cold ``rootkgd diagnose`` subprocess per episode
  on an 800-device synthetic plant (3,199 candidates, 1,600 variables).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` the same run is made with spans
around every call into the traced public functions (see ``tracing.py``) and
the metrics are the per-layer ones. Times and rates are scaled to seconds of
a reference host by the run's calibration (see ``calibrate.py``). The lines
before it print every metric by name and unit, unscaled beside it, and the
environment (CPU count, Python, numpy, BLAS threads).
Each result, with that environment, its latencies and any failures, is also
written to ``perfbench/results/``; traced runs write their spans beside it.
The exit code is 0 whenever a result is printed, and non-zero, with no result,
when the checkout has no ``src/rootkgd`` to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics: unit and the direction that is better.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
    "top1_variable_rate": "ratio",
    "top3_physical_rate": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tep-stream", "plant800-diagnose"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and insist rootkgd comes from it."""
    package = SRC / "rootkgd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no rootkgd sources at {package}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import rootkgd

    if Path(rootkgd.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported rootkgd from {rootkgd.__file__}, not {package}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None when it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }


def percentile(values: list[float], p: int) -> float:
    """Linearly interpolated percentile, as ``statistics.quantiles`` (inclusive) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def scaled(values: dict[str, float], units: dict[str, str], scale: float) -> dict[str, float]:
    """Times in reference-host seconds: ``s`` and ``us`` times ``scale``, ``1/s`` over it."""
    factor = {"s": scale, "us": scale, "1/s": 1 / scale}
    return {name: value * factor.get(units[name], 1.0) for name, value in values.items()}


def end_to_end(outcome) -> dict[str, float]:
    """The end-to-end metrics in this host's seconds; ``scaled`` converts them."""
    latencies = outcome.loop.latencies
    attempted = len(latencies)
    return {
        "setup_s": statistics.median(outcome.setup_times),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "ops_per_s": attempted / outcome.loop.elapsed,
        "peak_rss_mb": outcome.peak_rss_mb,
        "ok_ops_ratio": (attempted - len(outcome.failures)) / attempted,
        "top1_variable_rate": outcome.top1_variable_rate,
        "top3_physical_rate": outcome.top3_physical_rate,
    }


def main(argv: list[str] | None = None, sizes=None, out: Path = HERE) -> dict:
    """Run one workload and print its result; returns the printed object.

    Scratch files go to ``out/.work`` and are removed; results to ``out/results``.
    """
    args = parse_args(argv)
    load_program()
    from calibrate import REFERENCE_PROBE_S, Calibration
    from inputs import Sizes
    from tracing import LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    env = environment()
    work = out / ".work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer(bool(args.trace), str(work / "workers"))
    calibration = Calibration()
    tracer.install()
    try:
        outcome = WORKLOADS[args.workload](work, args.seed, args.seconds, sizes or Sizes(), tracer,
                                           calibration)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        measured = layer_metrics(tracer.spans, outcome.cycle)
        measured["trace.latency_p50_s"] = percentile(outcome.loop.latencies, 50)
        units = {**LAYER_UNITS, "trace.latency_p50_s": "s"}
    else:
        measured = end_to_end(outcome)
        units = END_TO_END_UNITS
    scale = calibration.scale
    values = scaled(measured, units, scale)
    result = {
        "correct": not outcome.failures,
        "attempted": len(outcome.loop.latencies),
        "failed": len(outcome.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    results = out / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "setup_times_s": outcome.setup_times,
        "latencies_s": outcome.loop.latencies,
        "probe_times_s": calibration.times,
        "scale": scale,
        "unscaled": measured,
        "failures": {str(i): reason for i, reason in sorted(outcome.failures.items())},
        "result": result,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)

    for i, reason in sorted(outcome.failures.items()):
        print(f"operation {i} failed: {reason}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed; host scale {scale:.4f} "
          f"(mean probe {REFERENCE_PROBE_S / scale * 1e3:.2f} ms)")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} "
              f"(unscaled {measured[name]:.6g})")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
