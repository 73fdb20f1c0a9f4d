"""Per-layer call tracer for bluffsolve, installed from outside the package.

The tracer wraps the public functions of each layer and ``Strategy``
construction, and records per traced name: calls, total time, self time
(duration minus the time covered by traced child calls) and a few work counts
taken from arguments or results. It touches no source file.

A module that does ``from .analytic import expected_payoff`` holds its own
binding, so patching ``bluffsolve.analytic`` alone would miss the calls made
through it. ``installed()`` therefore patches every ``bluffsolve`` module
namespace that binds the traced object, and ``Strategy.__init__`` on the
class, which covers every constructor site. Nothing stays installed outside
the ``installed()`` context, so untraced code pays nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Traced public functions as (module, attribute) under ``bluffsolve``.
TRACED_FUNCTIONS = (
    ("cli", "main"),
    ("strategy", "refine"),
    ("analytic", "expected_payoff"),
    ("analytic", "conditional_evs"),
    ("solver", "best_response"),
    ("solver", "fictitious_play"),
    ("montecarlo", "simulate"),
)

#: Name under which ``Strategy`` construction is recorded.
STRATEGY = "strategy.Strategy"


def _refine_work(args, result) -> dict[str, int]:
    return {"pieces": len(result[0].high_prob)}


def _fictitious_play_work(args, result) -> dict[str, int]:
    return {"iterations": result.iterations}


def _simulate_work(args, result) -> dict[str, int]:
    # replay_rate = replays / deals, so deals = hands / (1 - replay_rate).
    deals = round(result.hands / (1.0 - result.replay_rate))
    return {"hands": result.hands, "deals": deals, "replays": deals - result.hands}


#: Work counts read from a traced call's positional arguments and result.
_WORK = {
    "strategy.refine": _refine_work,
    "solver.fictitious_play": _fictitious_play_work,
    "montecarlo.simulate": _simulate_work,
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Accumulates ``LayerStats`` per traced name while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {
            f"{module}.{attr}": LayerStats() for module, attr in TRACED_FUNCTIONS
        }
        self.stats[STRATEGY] = LayerStats()
        # Time covered by finished child spans, one entry per open span.
        self._open: list[float] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        work = _WORK.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if work is not None:
                for key, value in work(args, result).items():
                    stats.work[key] = stats.work.get(key, 0) + value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced names; restore them on exit."""
        from bluffsolve.strategy import Strategy

        for module_name, _ in TRACED_FUNCTIONS:
            importlib.import_module(f"bluffsolve.{module_name}")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "bluffsolve" or n.startswith("bluffsolve."))
        ]
        patched = []
        try:
            for module_name, attr in TRACED_FUNCTIONS:
                original = getattr(sys.modules[f"bluffsolve.{module_name}"], attr)
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapper)
                            patched.append((module, binding, original))
            init = Strategy.__init__
            Strategy.__init__ = self._wrap(STRATEGY, init)
            patched.append((Strategy, "__init__", init))
            yield self
        finally:
            for owner, binding, original in reversed(patched):
                setattr(owner, binding, original)
