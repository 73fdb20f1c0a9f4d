"""Best responses, exploitability, and fictitious-play equilibrium search.

The conditional EVs of the two bets are piecewise linear in the own card, so
a best response is found exactly: per piece, the sign changes of their
difference come from a linear solve, and the pointwise argmax action rule is
assembled from those cut points. Exploitability is the best-response value;
in this symmetric zero-sum game it is zero exactly at a symmetric equilibrium
strategy.

Fictitious play runs over strategies constant on K uniform bins. Pointwise
averaging of the High-probability curves is exact because the payoff is
affine in each player's curve. Because coarse bins cannot always distinguish
strategies that differ only on indifference regions, the solver additionally
polishes its incumbent with per-bin golden-section descent on the (convex)
exploitability whenever plain averaging stalls; the result it reports is the
best strategy found, certified by the exploitability operation itself.

The fictitious-play loop and the polish work on the bin curve as a numpy
array, and a ``Strategy`` is built only for the result. Each running average
gets one best response: its value is the average's exploitability and its
action rule feeds the next averaging step. The public ``best_response`` and
``exploitability`` take and return ``Strategy`` objects and run the same EV,
action-rule, grid-merge and payoff kernels, so they certify the solver's
figures bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .analytic import (
    _ev_arrays,
    _payoff_terms,
    closed_form_equilibrium,
    conditional_evs,
    expected_payoff,
)
from .engine import GameConfig
from .strategy import Strategy, merge_breakpoints, probabilities_on

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

#: A 0/1 action rule as arrays: breakpoints, and the High value per piece.
_Rule = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class BestResponse:
    """A pointwise-argmax action rule and its exact value vs the opponent."""

    action_rule: Strategy
    value: float


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of a fictitious-play run.

    ``trace`` records checkpoints as (iteration, exploitability of the running
    average at that iteration, best exploitability found so far).
    """

    strategy: Strategy
    exploitability: float
    iterations: int
    bin_count: int
    converged: bool
    trace: tuple[tuple[int, float, float], ...]


@dataclass(frozen=True)
class RatioSweepRow:
    ratio: float
    t_star: float
    p_star: float
    exploitability: float
    iterations: int
    converged: bool


def _action_rule(knots: np.ndarray, d: np.ndarray) -> _Rule:
    """Pointwise argmax of the piecewise-linear EV gap ``d`` (ties bet High)."""
    # A piece whose ends differ in sign holds one root; rounding may put it
    # on a knot, and then it adds no cut. Keep the root's operation order:
    # the solver's outputs are pinned bit for bit.
    k0, k1, d0, d1 = knots[:-1], knots[1:], d[:-1], d[1:]
    crossing = np.flatnonzero(d0 * d1 < 0.0)
    k0, k1, d0, d1 = k0[crossing], k1[crossing], d0[crossing], d1[crossing]
    roots = k0 + (k1 - k0) * d0 / (d0 - d1)
    cuts = np.sort(np.concatenate((knots, roots[(k0 < roots) & (roots < k1)])))

    # Classify each cell by the difference at its midpoint; ties go High.
    actions = np.interp((cuts[:-1] + cuts[1:]) / 2.0, knots, d) >= 0.0
    changes = np.flatnonzero(actions[1:] != actions[:-1]) + 1
    return cuts[changes], actions[np.concatenate(([0], changes))].astype(float)


def best_response(cfg: GameConfig, opponent: Strategy) -> BestResponse:
    """Exact pure best response against a fixed opponent (ties bet High)."""
    evs = conditional_evs(cfg, opponent)
    d = np.asarray(evs.ev_high.values) - np.asarray(evs.ev_low.values)
    breakpoints, high = _action_rule(np.asarray(evs.ev_high.knots), d)
    rule = Strategy(breakpoints=tuple(breakpoints.tolist()), high_prob=tuple(high.tolist()))
    value = expected_payoff(cfg, rule, opponent).value
    return BestResponse(action_rule=rule, value=value)


def exploitability(cfg: GameConfig, s: Strategy) -> float:
    """Best-response value against ``s``; zero certifies a symmetric equilibrium."""
    return best_response(cfg, s).value


def _bin_edges(bins: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, bins + 1)


def _binned_response(
    a: float, b: float, edges: np.ndarray, h: np.ndarray
) -> tuple[_Rule, float]:
    """Best response to the curve ``h`` on bins ``edges``: (rule arrays, value).

    Runs the kernels of ``best_response(cfg, Strategy(edges[1:-1], h))`` on
    the same grids, so rule and value equal that call's exactly.
    """
    ev_high, ev_low = _ev_arrays(a, b, edges, h)
    breakpoints, high = _action_rule(edges, ev_high - ev_low)
    interior = edges[1:-1]
    grid = merge_breakpoints(breakpoints, interior)
    payoff = _payoff_terms(
        a,
        b,
        np.concatenate(([0.0], grid, [1.0])),
        probabilities_on(breakpoints, high, grid),
        probabilities_on(interior, h, grid),
    )
    return (breakpoints, high), payoff.value


def _bin_high_fraction(rule: _Rule, edges: np.ndarray) -> np.ndarray:
    """Measure of each bin on which a 0/1 action rule bets High, as a fraction."""
    breakpoints, high = rule
    bins = len(edges) - 1
    out = np.zeros(bins)
    pieces = (0.0, *breakpoints, 1.0)
    for lo, hi, val in zip(pieces[:-1], pieces[1:], high):
        if val == 0.0:
            continue
        overlap = np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1])
        out += np.maximum(overlap, 0.0)
    return out * bins


def _golden_min(f: Callable[[float], float], tol: float = 1e-13) -> tuple[float, float]:
    """Minimize a unimodal function on [0, 1]; checks both endpoints too."""
    lo, hi = 0.0, 1.0
    c = hi - _INV_PHI * (hi - lo)
    e = lo + _INV_PHI * (hi - lo)
    fc, fe = f(c), f(e)
    while hi - lo > tol:
        if fc <= fe:
            hi, e, fe = e, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, e, fe
            e = lo + _INV_PHI * (hi - lo)
            fe = f(e)
    candidates = [((lo + hi) / 2.0, f((lo + hi) / 2.0)), (0.0, f(0.0)), (1.0, f(1.0))]
    return min(candidates, key=lambda item: item[1])


def _polish(
    respond: Callable[[np.ndarray], tuple[_Rule, float]],
    h: np.ndarray,
    best_value: float,
    epsilon: float,
    max_sweeps: int = 4,
) -> tuple[np.ndarray, float]:
    """Per-bin golden-section descent on exploitability (convex per coordinate)."""
    h = h.copy()
    for _ in range(max_sweeps):
        improved = False
        for i in range(len(h)):

            def objective(x: float, _i: int = i) -> float:
                trial = h.copy()
                trial[_i] = x
                return respond(trial)[1]

            x, fx = _golden_min(objective)
            if fx < best_value:
                h[i] = x
                best_value = fx
                improved = True
            if best_value <= epsilon:
                return h, best_value
        if not improved:
            break
    return h, best_value


def fictitious_play(
    cfg: GameConfig,
    bins: int,
    epsilon: float,
    max_iters: int = 5000,
) -> EquilibriumResult:
    """Find a low-exploitability binned strategy by best-response averaging.

    Starts from the uninformative curve h = 1/2, best-responds to the running
    average, and averages the response's per-bin High measure back in. Stops
    at the first strategy with exploitability <= epsilon; otherwise returns
    the best strategy found within ``max_iters`` (after a final polish pass).
    A non-converged run is reported via ``converged=False``, never raised.
    """
    if not cfg.is_continuous:
        raise ValueError("fictitious play runs on the continuous card model")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")

    edges = _bin_edges(bins)
    respond = functools.partial(
        _binned_response, float(cfg.high_bet), float(cfg.low_bet), edges
    )
    h = np.full(bins, 0.5)
    rule, best_value = respond(h)

    best_h = h.copy()
    last_value = best_value
    trace: list[tuple[int, float, float]] = [(0, best_value, best_value)]
    iterations = 0
    last_improvement = 0
    polish_budget = 10
    # Mid-run polishing is cheap only for small bin counts; large runs polish
    # once at the end if still above epsilon.
    stall_window = 250 if bins <= 64 else max_iters + 1

    if best_value > epsilon:
        for n in range(1, max_iters + 1):
            iterations = n
            h = (n * h + _bin_high_fraction(rule, edges)) / (n + 1)
            rule, last_value = respond(h)
            if last_value < best_value:
                if last_value < best_value * 0.99:
                    last_improvement = n
                best_value = last_value
                best_h = h.copy()
            if n % 50 == 0:
                trace.append((n, last_value, best_value))
            if best_value <= epsilon:
                break
            if n - last_improvement >= stall_window and polish_budget > 0:
                polish_budget -= 1
                last_improvement = n
                best_h, best_value = _polish(respond, best_h, best_value, epsilon)
                if best_value <= epsilon:
                    break

    if best_value > epsilon and polish_budget > 0:
        best_h, best_value = _polish(respond, best_h, best_value, epsilon)

    if trace and trace[-1][0] == iterations:
        trace.pop()
    trace.append((iterations, last_value, best_value))
    return EquilibriumResult(
        strategy=Strategy(
            breakpoints=tuple(edges[1:-1].tolist()), high_prob=tuple(best_h.tolist())
        ),
        exploitability=best_value,
        iterations=iterations,
        bin_count=bins,
        converged=best_value <= epsilon,
        trace=tuple(trace),
    )


def ratio_sweep(
    ratios: Sequence[float],
    bins: int = 200,
    epsilon: float = 1e-3,
    max_iters: int = 5000,
) -> list[RatioSweepRow]:
    """Closed-form equilibrium plus fictitious-play verification per bet ratio.

    Each row carries the closed-form (t*, p*) for the ratio and the achieved
    exploitability and iteration count of the solver run (low bet fixed at 1,
    so epsilon is in units of the low bet). Non-convergence is flagged on the
    row, not raised.
    """
    rows = []
    for ratio in ratios:
        if ratio <= 1.0:
            raise ValueError(f"bet ratio must exceed 1, got {ratio!r}")
        cfg = GameConfig(Fraction(ratio), Fraction(1))
        point = closed_form_equilibrium(cfg)
        result = fictitious_play(cfg, bins=bins, epsilon=epsilon, max_iters=max_iters)
        rows.append(
            RatioSweepRow(
                ratio=float(ratio),
                t_star=point.t_star,
                p_star=point.p_star,
                exploitability=result.exploitability,
                iterations=result.iterations,
                converged=result.converged,
            )
        )
    return rows
