"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics (see ``perfbench/layers.json``), each layer's self time
and the tracing overhead.  A human-readable report precedes the last line of
standard output, which is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The report and the spans are also
written under ``.perfbench_runs/``.  The exit code is 0 only when every
operation passed the correctness oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ".perfbench_runs"
WORKLOADS = ("serve_warm", "serve_cold", "tune_unseen")
#: Exit code when the checkout holds no program to measure.
EXIT_NO_PROGRAM = 2
#: Thread-pool sizes fixed before numpy loads, here and in the fleet
#: processes that inherit the environment.  The workloads' dense kernels are
#: small; a second BLAS thread buys little on a 2-core host and, when another
#: process holds a core, makes every kernel wait on a descheduled thread.
THREAD_POOLS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


@dataclass
class Context:
    """What every workload receives."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    recorder: object


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def layer_values(catalogue: dict, recorder, computed: dict) -> dict:
    """Every per-layer metric: from spans, samples or the workload."""
    from perfbench.report import median

    values = {}
    for name, entry in catalogue.items():
        kind, _, key = entry["source"].partition(":")
        if kind == "span":
            data = recorder.durations_ms(key)
        elif kind == "sample":
            data = recorder.samples.get(key, [])
        else:
            data = [computed[name]] if name in computed else []
        values[name] = median(data) if data else 0.0
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    os.environ.update(THREAD_POOLS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import report, serving, tuning
    from perfbench.spans import SpanRecorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = json.loads((ROOT / "perfbench" / "layers.json")
                           .read_text(encoding="utf-8"))
    recorder = SpanRecorder(enabled=bool(args.trace))
    ctx = Context(ROOT, args.seed, args.seconds, bool(args.trace), recorder)
    run = {"serve_warm": serving.serve_warm, "serve_cold": serving.serve_cold,
           "tune_unseen": tuning.tune_unseen}[args.workload]
    started = time.time()
    outcome = run(ctx)

    attempted, failed = outcome.attempted, outcome.failed
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = layer_values(catalogue["layers"], recorder,
                              outcome.per_layer)
    else:
        values = outcome.end_to_end
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} is {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    full = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == args.workload),
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "provenance": report.provenance(ROOT, args.seed),
        "tail_percentile": outcome.details.get("tail"),
        "error_rate": failed / max(attempted, 1),
        "end_to_end": outcome.end_to_end,
        "details": outcome.details,
    }
    if args.trace:
        full["per_layer"] = values
        full["self_times_ms"] = recorder.self_times_ms()
        full["tracing_overhead_ms"] = outcome.per_layer.get("trace.overhead_ms")
    runs = ROOT / RUNS_DIR
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str),
                                       encoding="utf-8")
    if args.trace:
        recorder.write(runs / f"{stem}-spans.jsonl")

    _print_report(full, metrics, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _print_report(full: dict, metrics: dict, attempted: int,
                  failed: int) -> None:
    print(f"perfbench {full['workload']} seed={full['provenance']['workload_seed']}"
          f" seconds={full['seconds']:g} trace={full['trace']}")
    print(f"  why: {full['why']}")
    provenance = full["provenance"]
    print("  host: nproc={nproc} python={python} numpy={numpy} scipy={scipy} "
          "commit={git_commit} source={source_sha256:.12}".format(**provenance))
    tail = full["tail_percentile"]
    if tail:
        print(f"  tail percentile: p{tail['percentile']:g} of {tail['samples']}"
              f" samples ({tail['samples_beyond']} beyond)")
    print(f"  operations: {attempted} attempted, {failed} failed, "
          f"error_rate={full['error_rate']:.4g} ratio")
    for error in full["details"].get("errors", []):
        print(f"  error: {error}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    if "self_times_ms" in full:
        print("  self time by span (count, total ms, self ms):")
        for name, row in sorted(full["self_times_ms"].items()):
            print(f"    {name:28s} {row['count']:6d} {row['total_ms']:12.3f}"
                  f" {row['self_ms']:12.3f}")
        print(f"  tracing overhead: {full['tracing_overhead_ms']:.4g} ms "
              "(traced minus untraced median latency)")


if __name__ == "__main__":
    sys.exit(main())
