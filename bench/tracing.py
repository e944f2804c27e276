"""Spans around hedgekit's public functions, recorded from outside.

:class:`Tracer` replaces each traced function in every module that
holds a reference to it (``hedgekit.cli`` calls ``parallel_game``
through its own namespace, ``hedgekit.sdp`` calls the solver through
``hedgekit.solver``), so callers pick up the wrapper wherever they look
the name up.  Spans are kept in memory; a span's self time is its
duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

#: (module, function) pairs wrapped by the tracer, named by span.
TRACED = {
    "games.parallel_game": ("hedgekit.games", "parallel_game"),
    "games.threshold_objective": ("hedgekit.games", "threshold_objective"),
    "games.value_objective": ("hedgekit.games", "value_objective"),
    "sdp.compile_primal": ("hedgekit.sdp", "compile_primal"),
    "sdp.solve": ("hedgekit.sdp", "solve"),
    "sdp.check_dual_feasibility": ("hedgekit.sdp", "check_dual_feasibility"),
    "solver.interior_point": ("hedgekit.solver", "interior_point"),
    "witnesses.single_round_witness": ("hedgekit.witnesses", "single_round_witness"),
    "witnesses.witness_average": ("hedgekit.witnesses", "witness_average"),
    "witnesses.witness_tensor_power": ("hedgekit.witnesses", "witness_tensor_power"),
    "witnesses.witness_naive": ("hedgekit.witnesses", "witness_naive"),
    "witnesses.witness_recursive_snk": ("hedgekit.witnesses", "witness_recursive_snk"),
    "witnesses.witness_classical_binomial": (
        "hedgekit.witnesses", "witness_classical_binomial"),
    "cli.main": ("hedgekit.cli", "main"),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    iterations: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Records spans while installed; ``spans`` grows across rounds."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if name == "sdp.solve":
                span.iterations = out.iterations
            return out

        return traced

    def install(self):
        """Wrap every traced function in each hedgekit module that refers
        to it.  The benchmark calls hedgekit through module attributes
        (``sdp.solve``), so it picks up the wrappers too."""
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "hedgekit" or n.startswith("hedgekit.")]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


def layer_totals(spans) -> dict:
    """Per-layer metrics (milliseconds, counts) from one round's spans."""
    total = {}
    own = {}
    iterations = 0
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + span.self_time
        if span.iterations is not None:
            iterations += span.iterations

    def ms(table, prefix):
        return 1000.0 * sum(v for k, v in table.items() if k.startswith(prefix))

    ipm_ms = ms(total, "solver.interior_point")
    return {
        "games.build_ms": ms(total, "games."),
        "sdp.compile_ms": ms(total, "sdp.compile_primal"),
        "sdp.solve_self_ms": ms(own, "sdp.solve"),
        "solver.ipm_ms": ipm_ms,
        "solver.iterations": iterations,
        "solver.iter_ms": ipm_ms / iterations if iterations else 0.0,
        "witnesses.construct_ms": ms(own, "witnesses."),
        "sdp.check_ms": ms(total, "sdp.check_dual_feasibility"),
        "cli.self_ms": ms(own, "cli.main"),
    }
