"""Run one benchmark workload against the hedgekit sources beside it.

    python3 bench/run.py --workload small-sweep --seed 1 --seconds 20 --trace 0

Set-up (imports, a warm-up solve and seeded input generation) is timed
apart from the operations.  The workload's operations then run in whole
rounds until ``--seconds`` have passed (at least one round); every
output is checked untimed after its operation.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end to end with ``--trace 0`` and per layer with ``--trace 1``.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: OpenBLAS defaults to one thread per core; unless the caller says
#: otherwise, the benchmark runs single-threaded (see README.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"


@dataclass
class Round:
    op_s: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    layers: dict | None = None


def run_round(ops, tracer=None) -> Round:
    """Run every operation once, timing ``run`` and checking untimed."""
    from checks import Failed, Wrong
    from hedgekit.errors import HedgekitError

    out = Round()
    results = {}
    first_span = len(tracer.spans) if tracer else 0
    for op in ops:
        start = time.perf_counter()
        try:
            value = op.run()
        except HedgekitError as exc:
            value = exc
        out.op_s.append(time.perf_counter() - start)
        try:
            if isinstance(value, HedgekitError):
                raise Failed(f"{type(value).__name__}: {value}")
            results[op.name] = op.check(value, results)
        except Failed as exc:
            out.failed.append(f"{op.name}: {exc}")
        except Wrong as exc:
            out.wrong.append(f"{op.name}: {exc}")
    if tracer:
        from tracing import layer_totals

        out.layers = layer_totals(tracer.spans[first_span:])
    return out


def run_rounds(ops, seconds: float, tracer=None):
    deadline = time.perf_counter() + seconds
    rounds = [run_round(ops, tracer)]
    while time.perf_counter() < deadline:
        rounds.append(run_round(ops, tracer))
    return rounds


def end_to_end(rounds, setup_s: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(sum(r.op_s) for r in rounds), "unit": "s"},
        "op_p50_ms": {
            "value": 1000.0 * statistics.median(t for r in rounds for t in r.op_s),
            "unit": "ms",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def tail_summary(op_s) -> str:
    """The highest of p99/p90 with at least ten operations beyond it."""
    for q in (99, 90):
        if len(op_s) * (100 - q) / 100 >= 10:
            value = 1000.0 * statistics.quantiles(op_s, n=100)[q - 1]
            return f"op_p{q}_ms {value:.4g} over {len(op_s)} operations"
    return f"no tail percentile: {len(op_s)} operations"


def per_layer(rounds) -> dict:
    """Medians over rounds; counts take the lower median, so they stay whole."""
    out = {}
    for name in rounds[0].layers:
        unit = "count" if name == "solver.iterations" else "ms"
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = {"value": median(r.layers[name] for r in rounds), "unit": unit}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "hedgekit" / "__init__.py").is_file():
        print(f"run.py: no hedgekit sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    # numpy (through the benchmark's modules) loads only after the BLAS
    # variables are set: OpenBLAS reads them once, at load time
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - start

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tracer = Tracer() if args.trace else None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workloads.warm_up()
            ops = workloads.WORKLOADS[args.workload](args.seed, scratch)
            setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.install()
        try:
            rounds = run_rounds(ops, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [msg for r in rounds for msg in r.failed]
    wrong = [msg for r in rounds for msg in r.wrong]
    for msg in sorted(set(failed)):
        print(f"failed: {msg}", file=sys.stderr)
    for msg in wrong:
        print(f"WRONG: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(ops)} "
          f"operations, round wall {[round(sum(r.op_s), 4) for r in rounds]} s",
          file=sys.stderr)
    print(tail_summary([t for r in rounds for t in r.op_s]), file=sys.stderr)
    if tracer:
        metrics = per_layer(rounds)
        spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps([asdict(s) for s in tracer.spans]))
    else:
        metrics = end_to_end(rounds, imports_s + statistics.median(setups))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops) * len(rounds),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
