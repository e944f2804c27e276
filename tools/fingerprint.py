"""Print one line per solve of a fixed ladder of problems, so that two
source trees can be compared solve for solve, bit for bit.

    python3 tools/fingerprint.py > after.txt
    (cd ../other-tree && python3 tools/fingerprint.py) > before.txt
    diff before.txt after.txt

It imports hedgekit from the ``src`` directory beside it and the game
builders from ``bench``, and runs with one BLAS thread unless the
environment says otherwise, as the benchmark does.  The ladder:

- the bundled hedging game at n = 1..4 copies and every k, and the value
  objective ``(0, 1)`` at n = 2..4 (at n = 1 it is the k = 1 rung);
- ``bench/workloads.random_game(default_rng(s))`` for s = 0..5 at n = 3
  and 4 and every k;
- round 1, round 2 and the stacked game of each tol = 1e-10 two-round
  product seed, solved at tol = 1e-10;
- every operation of the ``small-sweep`` workload at seed 1.

Each line holds the solve's name, status and iteration count, the primal
and dual values as float hex, sha256 prefixes of the multipliers, the
Farkas ray and the primal blocks as read (a copy-symmetric ``X`` is
lifted), ``solved_blocks`` and ``reason``.  A solve that raises prints
the error in place of its report.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The two-round product seeds solved at tol = 1e-10 (ROADMAP item 1).
PRODUCT_SEEDS = (1002, 1020, 1030, 1058, 1069, 1126, 1172, 1190, 1279, 1397, 1421, 1436, 1465, 1481)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def line(name: str, report) -> str:
    import numpy as np

    if isinstance(report, Exception):
        return f"{name} raised {type(report).__name__}: {report}"
    ray = "-" if report.farkas_ray is None else digest(np.asarray(report.farkas_ray).tobytes())
    blocks = b"".join(report.primal_blocks[k].entries.tobytes() for k in report.primal_blocks)
    fields = [
        name,
        report.status,
        str(report.iterations),
        float(report.primal_value).hex(),
        float(report.dual_value).hex(),
        "y=" + digest(np.asarray(report.dual_multipliers).tobytes()),
        "farkas=" + ray,
        "X=" + digest(blocks),
        "blocks=" + ",".join(map(str, report.solved_blocks)),
        repr(report.reason),
    ]
    return " ".join(fields)


def ladder(outdir: str):
    """``(name, solve)`` pairs, each ``solve`` returning a report."""
    import numpy as np

    import workloads
    from hedgekit import compile_primal, parallel_rounds, solve, threshold_objective, value_objective
    from hedgekit.hedging import hedging_game

    def copies(game, n, objective, tol=1e-8):
        return lambda: solve(compile_primal(parallel_rounds(game, n), objective), tol=tol)

    def single(game, outcome, tol):
        return lambda: solve(compile_primal(game, outcome), tol=tol)

    hedge = hedging_game()
    yield "hedging-n1-k1", single(hedge, hedge.outcomes[1], 1e-8)
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            yield f"hedging-n{n}-k{k}", copies(hedge, n, threshold_objective(hedge, n, k))
        yield f"hedging-n{n}-avg", copies(hedge, n, value_objective(hedge, (0.0, 1.0), n))
    for s in range(6):
        game = workloads.random_game(np.random.default_rng(s))
        for n in (3, 4):
            for k in range(1, n + 1):
                yield f"random{s}-n{n}-k{k}", copies(game, n, threshold_objective(game, n, k))
    for s in PRODUCT_SEEDS:
        g1, g2, stacked = workloads.r2_product_game(np.random.default_rng(s))
        yield f"product{s}-round1", single(g1, g1.outcomes[1], 1e-10)
        yield f"product{s}-round2", single(g2, g2.outcomes[1], 1e-10)
        yield f"product{s}-stacked", single(stacked, stacked.outcomes[3], 1e-10)
    for op in workloads.small_sweep_ops(1, outdir):
        yield f"small-sweep-{op.name}", op.run


def main() -> int:
    # set before numpy is first imported, which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from hedgekit.errors import HedgekitError

    with tempfile.TemporaryDirectory() as outdir:
        for name, run in ladder(outdir):
            try:
                report = run()
            except HedgekitError as exc:
                report = exc
            print(line(name, report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
