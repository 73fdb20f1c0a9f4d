"""Best responses, exploitability, and the binned equilibrium search.

The conditional EVs of the two bets are piecewise linear in the own card, so
a best response is found exactly: per piece, the sign changes of their
difference come from a linear solve, and the pointwise argmax action rule is
assembled from those cut points. Exploitability is the best-response value;
in this symmetric zero-sum game it is zero exactly at a symmetric equilibrium
strategy, and it is a convex function e(h) of the strategy's curve h.

The equilibrium search runs over strategies constant on K uniform bins and
advances two sequences of curves together:

(a) Predictive regret matching+ (PRM+; Farina, Kroer & Sandholm, AAAI 2021)
    in self-play on the K-bin game. Each bin keeps clipped cumulative
    regrets of High and Low, predicts the next regrets by the last ones, and
    plays High with probability [Q + m]+_High / ([Q + m]+_High + [Q + m]+_Low)
    (1/2 where both vanish). The bin action values are the integrals of
    ev_high and ev_low over the bin, exact by the trapezoid rule because the
    EVs are linear there.
(b) Projected subgradient descent on e with Polyak's step size (Polyak,
    1969), using the known lower bound e >= 0 (the game value):
    y <- clip(y - e(y) g / |g|^2, 0, 1), where g is the gradient in y of the
    payoff of y's best response, a subgradient of e at y.

Every iterate of both sequences is certified by the exact continuous
exploitability, the solver returns the best certified iterate, and it stops
at the first one within epsilon. Each step reuses the arrays of the last two
certificates: PRM+ integrates the EV gap at the bin edges of x's, and the
Polyak gradient runs on the merged grid and rule curve of y's. The EV gaps
and the Polyak step run at the unit bets of ``_unit_bets``, where no gap or
|g|^2 overflows or underflows; payoffs use the true bets.

Neither sequence suffices alone. PRM+ minimises regret in the bin-restricted
game, whose equilibria need not be continuous ones: at K=2 and ratio 2 it
settles on always-High. Against always-High the bin [0, 1/2) is indifferent
on average, so no bin strategy beats it, but the continuous response that
bets Low below 1/4 wins 0.125.
The Polyak sequence targets e itself and reaches the exact K=2 equilibrium
(1/3, 1), but alone it took 470 steps to reach 1e-3 at K=200 and ratio 2,
where the two together take 99.

The search works on the bin curve as a numpy array, and a ``Strategy`` is
built only for the result. The public ``best_response`` and
``exploitability`` take and return ``Strategy`` objects and run the same EV,
action-rule, grid-merge and payoff kernels, so they certify the solver's
figures bit for bit. The search keeps its historical name
``fictitious_play`` so that callers of the API and the CLI keep working.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .analytic import (
    _ev_arrays,
    _payoff_terms,
    _require_continuous,
    closed_form_equilibrium,
    conditional_evs,
    expected_payoff,
)
from .engine import ArgumentError, GameConfig
from .strategy import Strategy, merge_breakpoints

#: A 0/1 action rule as arrays: breakpoints, and the High value per piece.
_Rule = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class BestResponse:
    """A pointwise-argmax action rule and its exact value vs the opponent."""

    action_rule: Strategy
    value: float


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of an equilibrium search (see ``fictitious_play``).

    ``strategy`` is the best certified iterate of the two sequences and
    ``exploitability`` its exact continuous exploitability. ``iterations``
    counts joint steps of the sequences. ``trace`` records checkpoints as
    (iteration, exploitability of the linear average of the PRM+ iterates,
    best exploitability found so far); the average is certified only at the
    checkpoints, every 50 steps and at the end, and is never a candidate for
    the result.
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


def _unit_bets(a: float, b: float) -> tuple[int, float, float]:
    """(k, a / 2**k, b / 2**k): a / 2**k in [1/2, 1), k lowered until b / 2**k is normal.

    Sums and products of the unit bets stay in range; the scaling is exact.
    """
    k = min(math.frexp(a)[1], math.frexp(b)[1] + 1021)
    return k, math.ldexp(a, -k), math.ldexp(b, -k)


def _action_rule(knots: np.ndarray, d: np.ndarray) -> _Rule:
    """Pointwise argmax of the piecewise-linear EV gap ``d`` (ties bet High)."""
    # A piece whose ends differ in sign holds one root; rounding may put it
    # on a knot, and then it adds no cut. Keep the root's operation order:
    # the solver's outputs are pinned bit for bit. The ends' signs are
    # multiplied, not the ends: a product of tiny gaps underflows to zero
    # and would drop the root, and one of huge gaps overflows.
    k0, k1, d0, d1 = knots[:-1], knots[1:], d[:-1], d[1:]
    sign = np.sign(d)
    crossing = (sign[:-1] * sign[1:] < 0.0).nonzero()[0]
    k0, k1, d0, d1 = k0[crossing], k1[crossing], d0[crossing], d1[crossing]
    roots = k0 + (k1 - k0) * d0 / (d0 - d1)
    cuts = np.concatenate((knots, roots[(k0 < roots) & (roots < k1)]))
    cuts.sort()

    # Classify each cell by the difference at its midpoint; ties go High.
    actions = np.interp((cuts[:-1] + cuts[1:]) / 2.0, knots, d) >= 0.0
    changes = (actions[1:] != actions[:-1]).nonzero()[0] + 1
    return cuts[changes], actions[np.concatenate(([0], changes))].astype(float)


def best_response(cfg: GameConfig, opponent: Strategy) -> BestResponse:
    """Exact pure best response against a fixed opponent (ties bet High)."""
    evs = conditional_evs(cfg, opponent)
    k = _unit_bets(float(cfg.high_bet), float(cfg.low_bet))[0]
    d = np.ldexp(evs.ev_high.values, -k) - np.ldexp(evs.ev_low.values, -k)
    breakpoints, high = _action_rule(np.asarray(evs.ev_high.knots), d)
    rule = Strategy(breakpoints=tuple(breakpoints.tolist()), high_prob=tuple(high.tolist()))
    value = expected_payoff(cfg, rule, opponent).value
    return BestResponse(action_rule=rule, value=value)


def exploitability(cfg: GameConfig, s: Strategy) -> float:
    """Best-response value against ``s``; zero certifies a symmetric equilibrium."""
    return best_response(cfg, s).value


class _Response(NamedTuple):
    """A binned best response with the arrays the next solver step reuses.

    ``gap`` is ev_high - ev_low at the bin edges against the curve, taken at
    the bets over 2**k. ``knots`` are the rule's cuts merged with the bin
    edges, ``lengths`` their differences, and ``curve`` the rule's High value
    per piece between them.
    """

    rule: _Rule
    value: float
    gap: np.ndarray
    knots: np.ndarray
    lengths: np.ndarray
    curve: np.ndarray


def _binned_response(a: float, b: float, edges: np.ndarray, h: np.ndarray) -> _Response:
    """Best response to the curve ``h`` on bins ``edges``, with its kernels' arrays.

    Runs the kernels of ``best_response(cfg, Strategy(edges[1:-1], h))`` on
    the same grids, so rule and value equal that call's exactly.
    """
    _, a_unit, b_unit = _unit_bets(a, b)
    ev_high, ev_low = _ev_arrays(a_unit, b_unit, edges[1:] - edges[:-1], h)
    gap = ev_high - ev_low
    breakpoints, high = _action_rule(edges, gap)
    interior = edges[1:-1]
    knots = np.concatenate(([0.0], merge_breakpoints(breakpoints, interior), [1.0]))
    # Each curve plays on a piece what a right-sided search finds at the
    # piece's start, as in probabilities_on.
    starts = knots[:-1]
    curve = high[breakpoints.searchsorted(starts, side="right")]
    lengths = knots[1:] - starts
    payoff = _payoff_terms(a, b, lengths, curve, h[interior.searchsorted(starts, side="right")])
    return _Response((breakpoints, high), payoff.value, gap, knots, lengths, curve)


def _bin_gaps(
    a: float, b: float, edges: np.ndarray, knots: np.ndarray, lengths: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Per-bin integral of ev_high - ev_low against the curve ``h`` on ``knots``.

    ``knots`` hold the bin edges and possibly more breakpoints, ``lengths``
    their differences; ``h`` gives the opponent's High probability per piece.
    Both EVs are linear on every piece, so the trapezoid rule is exact.
    """
    ev_high, ev_low = _ev_arrays(a, b, lengths, h)
    gap = ev_high - ev_low
    pieces = lengths * (gap[:-1] + gap[1:]) / 2.0
    return np.add.reduceat(pieces, knots.searchsorted(edges[:-1]))


def fictitious_play(
    cfg: GameConfig,
    bins: int,
    epsilon: float,
    max_iters: int = 5000,
) -> EquilibriumResult:
    """Find a low-exploitability strategy constant on ``bins`` uniform bins.

    Starts both sequences of the module docstring, PRM+ self-play and the
    Polyak subgradient step, from the curve h = 1/2 and advances them
    together, certifying every iterate with the exact continuous
    exploitability. Stops at the first iterate with exploitability / b <=
    epsilon, the same iterate at every bet scale while the payoffs stay
    normal floats; otherwise returns the best certified iterate within
    ``max_iters`` steps. A non-converged run is reported via
    ``converged=False``, never raised; an out-of-range ``bins``, ``epsilon``
    or ``max_iters`` raises ``ArgumentError``. The search is deterministic.
    The name is kept from the fictitious-play solver it replaced.
    """
    _require_continuous(cfg)
    if bins < 2:
        raise ArgumentError("bins", f"need at least 2 bins, got {bins}")
    if not 0 < epsilon < math.inf:
        raise ArgumentError("epsilon", f"epsilon must be positive and finite, got {epsilon}")
    if max_iters < 1:
        raise ArgumentError("max_iters", f"max_iters must be at least 1, got {max_iters}")

    a, b = float(cfg.high_bet), float(cfg.low_bet)
    # The Polyak step runs at the bets over 2**k (see the module docstring).
    k, a_unit, b_unit = _unit_bets(a, b)
    edges = np.linspace(0.0, 1.0, bins + 1)
    widths = edges[1:] - edges[:-1]
    x = y = half = np.full(bins, 0.5)
    best_h, best_value, converged = y, math.inf, False

    def certify(h: np.ndarray) -> _Response:
        nonlocal best_h, best_value, converged
        response = _binned_response(a, b, edges, h)
        if response.value < best_value:
            best_h, best_value = h, response.value
            converged = best_value / b <= epsilon
        return response

    x_response = y_response = certify(y)

    # PRM+ state: clipped cumulative regrets of High and Low per bin.
    regret_high, regret_low = np.zeros(bins), np.zeros(bins)
    # Linear average of the PRM+ iterates, certified for the trace only.
    weighted_sum, weight = np.zeros(bins), 0
    trace: list[tuple[int, float, float]] = [(0, best_value, best_value)]
    iterations = 0
    while not converged and iterations < max_iters:
        iterations += 1

        # (a) PRM+: this iterate's regrets update the clipped sums and are
        # the prediction for the next iterate. The bin integrals of the EV
        # gap come from x's certificate: the trapezoid rule on each bin.
        d = x_response.gap
        gap = widths * (d[:-1] + d[1:]) / 2.0
        last_high, last_low = (1.0 - x) * gap, -x * gap
        regret_high = np.maximum(regret_high + last_high, 0.0)
        regret_low = np.maximum(regret_low + last_low, 0.0)
        high_part = np.maximum(regret_high + last_high, 0.0)
        total = high_part + np.maximum(regret_low + last_low, 0.0)
        x = np.divide(high_part, total, out=half.copy(), where=total > 0.0)
        weighted_sum += iterations * x
        weight += iterations
        x_response = certify(x)
        if converged:
            break

        # (b) Polyak step on e, whose minimum is at least the game value 0;
        # the gradient of y's response payoff is a subgradient of e at y. It
        # runs on the merged grid and rule curve of y's certificate.
        g = -_bin_gaps(
            a_unit, b_unit, edges, y_response.knots, y_response.lengths, y_response.curve
        )
        norm = float(np.add.reduce(g * g))
        if norm > 0.0:
            y = (y - (math.ldexp(y_response.value, -k) / norm) * g).clip(0.0, 1.0)
        y_response = certify(y)

        if iterations % 50 == 0:
            average = _binned_response(a, b, edges, weighted_sum / weight).value
            trace.append((iterations, average, best_value))

    if trace[-1][0] != iterations:
        average = _binned_response(a, b, edges, weighted_sum / weight).value
        trace.append((iterations, average, best_value))
    return EquilibriumResult(
        strategy=Strategy(
            breakpoints=tuple(edges[1:-1].tolist()), high_prob=tuple(best_h.tolist())
        ),
        exploitability=best_value,
        iterations=iterations,
        bin_count=bins,
        converged=converged,
        trace=tuple(trace),
    )


def ratio_sweep(
    ratios: Sequence[float],
    bins: int = 200,
    epsilon: float = 1e-3,
    max_iters: int = 5000,
) -> list[RatioSweepRow]:
    """Closed-form equilibrium plus PRM+/Polyak solver verification per bet ratio.

    Each row carries the closed-form (t*, p*) for the ratio and the achieved
    exploitability and iteration count of the solver run at low bet 1; epsilon
    is in units of the low bet, as in ``fictitious_play``. Non-convergence is
    flagged on the row, not raised.
    """
    # Every ratio is checked before any is solved.
    configs = [GameConfig(ratio, 1) for ratio in ratios]
    rows = []
    for ratio, cfg in zip(ratios, configs):
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
