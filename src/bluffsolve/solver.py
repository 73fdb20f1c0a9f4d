"""Best responses, exploitability, and the binned equilibrium search.

The conditional EVs of the two bets are piecewise linear in the own card, so
a best response is found exactly: per piece, the sign changes of their
difference come from a linear solve, and the pointwise argmax action rule is
assembled from those cut points. Exploitability is the best-response value;
in this symmetric zero-sum game it is zero exactly at a symmetric equilibrium
strategy, and it is a convex function e(h) of the strategy's curve h.

The equilibrium search runs over strategies constant on K uniform bins and
advances three sequences of curves together:

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
(c) The same Polyak step on e + I_box, I_box the indicator of [0, 1]^K, from
    always-High, with a heavy-ball term (Polyak, 1964):
    z <- clip(z - e(z) s / |s|^2 + beta (z - z_prev), 0, 1), beta = 1/2,
    where z_prev is z before its last step and starts equal to z, and s is
    the min-norm element of g + N(z), N the normal cone of the box. That is
    g with the parts zeroed where z = 1 and g < 0, or z = 0 and g > 0. The
    zeroed parts would be clipped back anyway, so they only lengthen the
    step, e/|s|^2 >= e/|g|^2. A step with s = 0 is skipped and leaves z and
    z_prev as they are. Without the heavy-ball term s is a subgradient of
    e + I_box at z and Polyak's guarantee would hold; with it the guarantee
    no longer covers z. What the solver returns stays sound, because every
    figure of it is certified (below).

The three iterates of a step are scored together, on the (3, K) stack of
their curves, by one fixed-shape closed-form kernel (``_scores``) at the
unit bets of ``_unit_bets``, where no gap or |g|^2 overflows or underflows.
It gives the EV gap at the bin edges, its bin integrals for PRM+, the
best-response value e of each curve, and the Polyak subgradient, with no
merged grid and no action rule. The solver keeps the best scored iterate.
Every figure it returns is a certificate of the public kernels: once the
best iterate's score is within epsilon, ``_binned_response`` certifies it at
the true bets, and the search stops only if the certificate is within
epsilon too; the trace's average and best are certified at each checkpoint,
and the result at the end.

No sequence suffices alone. PRM+ minimises regret in the bin-restricted
game, whose equilibria need not be continuous ones: at K=2 and ratio 2 it
settles on always-High. Against always-High the bin [0, 1/2) is indifferent
on average, so no bin strategy beats it, but the continuous response that
bets Low below 1/4 wins 0.125.
The Polyak sequence y targets e itself and reaches the exact K=2 equilibrium
(1/3, 1), but alone it took 470 steps to reach 1e-3 at K=200 and ratio 2,
where x and y together take 99. With z the three take 29, and 16 / 29 / 51
at ratios 1.5 / 2 / 3, against 67 / 99 / 345 without z and 12 / 52 / 112
with z but no heavy-ball term. The term damps z's zigzag: over 14 ratios
from 1.1 to 10 at K=200 the steps fell from 1376 to 815 in all, though
ratios 1.2 to 1.5 take a few more, and at K=1000 and epsilon 1e-4 ratio 2
takes 1584 steps instead of 1276 (ratio 3: 2464 instead of 3357).
z starts at always-High because a bin then leaves 1 only where the gradient
pulls it inward. From h = 1/2 its step without the heavy-ball term converged
at ratio 2 and K=200 in 26 steps, but to a ramp from 0.46 to 1 over
[0.475, 0.53], whose lowest h above 0.51 was 0.85; from always-High that
value is 0.994.
y stays because z's step aims at the target 0, and overshoots where the best
K-bin value lies far above it: at K=2 and an unreachable epsilon of 1e-6,
x and z alone end at 0.041667 at ratio 1.5, where y reaches 0.0404508.

The search works on the bin curves as numpy arrays, and a ``Strategy`` is
built only for the result. The public ``best_response`` and
``exploitability`` take and return ``Strategy`` objects and run the same EV,
action-rule, grid-merge and payoff kernels as ``_binned_response``, so every
figure the solver returns equals theirs bit for bit. The search keeps its
historical name ``fictitious_play`` so that callers of the API and the CLI
keep working.
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

#: Weight of the heavy-ball term in the box-constrained Polyak step (c).
_HEAVY_BALL = 0.5


@dataclass(frozen=True)
class BestResponse:
    """A pointwise-argmax action rule and its exact value vs the opponent."""

    action_rule: Strategy
    value: float


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of an equilibrium search (see ``fictitious_play``).

    ``strategy`` is the best iterate of the three sequences, as scored in
    closed form at the unit bets, and ``exploitability`` its exact
    continuous exploitability, certified by the public kernels.
    ``iterations`` counts joint steps of the sequences. ``trace`` records
    checkpoints, every 50 steps and at the end, as (iteration,
    exploitability of the linear average of the PRM+ iterates, exploitability
    of the best iterate so far), both certified; the average is never a
    candidate for the result. Checkpoint 0 holds the certificate of the best
    start in both columns.
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
    """A binned best response: its 0/1 rule as arrays, and its exact value."""

    rule: _Rule
    value: float


def _binned_response(a: float, b: float, edges: np.ndarray, h: np.ndarray) -> _Response:
    """Best response to the curve ``h`` on bins ``edges``, as arrays.

    Runs the kernels of ``best_response(cfg, Strategy(edges[1:-1], h))`` on
    the same grids, so rule and value equal that call's exactly.
    """
    _, a_unit, b_unit = _unit_bets(a, b)
    ev_high, ev_low = _ev_arrays(a_unit, b_unit, edges[1:] - edges[:-1], h)
    breakpoints, high = _action_rule(edges, ev_high - ev_low)
    interior = edges[1:-1]
    knots = np.concatenate(([0.0], merge_breakpoints(breakpoints, interior), [1.0]))
    # Each curve plays on a piece what a right-sided search finds at the
    # piece's start, as in probabilities_on.
    starts = knots[:-1]
    curve = high[breakpoints.searchsorted(starts, side="right")]
    lengths = knots[1:] - starts
    payoff = _payoff_terms(a, b, lengths, curve, h[interior.searchsorted(starts, side="right")])
    return _Response((breakpoints, high), payoff.value)


class _Scores(NamedTuple):
    """Closed-form scores of a curve, or of each row of a stack (see ``_scores``)."""

    gap: np.ndarray
    area: np.ndarray
    value: np.ndarray
    gradient: np.ndarray


def _edge_gaps(a: float, b: float, base: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """ev_high - ev_low at the bin edges v against High mass ``mass`` per bin.

    With H(v) the opponent's High mass below v and H its total, the gap is
    2b (1 - v) + (a + b) (2 H(v) - H), and ``base`` holds 2b (1 - v): one
    prefix sum per row.
    """
    below = np.zeros((*mass.shape[:-1], mass.shape[-1] + 1))
    np.add.accumulate(mass, axis=-1, out=below[..., 1:])
    return base + (a + b) * (2.0 * below - below[..., -1:])


def _scores(a: float, b: float, edges: np.ndarray, h: np.ndarray) -> _Scores:
    """The EV gap, its bin integrals, e(h) and a subgradient of e, in closed form.

    ``h`` is a curve on the bins ``edges``, or a stack of curves in its last
    axis; the solver passes the unit bets. Returns per curve the EV gap d at
    the edges, its integral per bin, the best-response value e(h), and the
    gradient in h of the payoff of h's best response r, a subgradient of e.
    Each row of a stack gets the bits of a call on that row alone.

    A player who plays h against h earns 0, so e(h) is the integral of
    (1 - h) max(d, 0) + h max(-d, 0). On a bin d is linear from d0 to d1.
    Where it keeps its sign, each part is a trapezoid; across a root it is
    the triangle up to the root, w max(d0, d1)^2 / (2 |d1 - d0|) and
    w min(d0, d1)^2 / (2 |d1 - d0|), with |d1 - d0| = |d0| + |d1|. With pos
    and neg the sums of max(d, 0) and max(-d, 0) at the two ends and share
    = pos / (pos + neg), the two are w/2 pos share and w/2 neg (1 - share)
    in either case. Every term is at least 0.

    The response bets High on the part share of each bin where d >= 0 (all
    of it where d is 0 throughout: ties bet High), at its top where d rises
    and at its bottom where d falls. Against r the gap d_r is the formula of
    ``_edge_gaps`` with r's High length R(v) below v, which is linear on the
    bin but for r's one cut there. So the integral of R over the bin misses
    its trapezoid by l (w - l) / 2, with l = w share, and the bin's integral
    of d_r is its trapezoid minus (a + b) l (w - l) where d rises, plus
    where it falls. The gradient is minus that integral.
    """
    widths = edges[1:] - edges[:-1]
    half = widths / 2.0
    base = 2.0 * b * (1.0 - edges)
    d = _edge_gaps(a, b, base, widths * h)
    d0, d1 = d[..., :-1], d[..., 1:]
    positive = np.maximum(d, 0.0)
    negative = positive - d
    pos = positive[..., :-1] + positive[..., 1:]
    neg = negative[..., :-1] + negative[..., 1:]
    span = pos + neg
    share = np.divide(pos, span, out=np.ones_like(span), where=span > 0.0)
    terms = (1.0 - h) * (half * pos * share) + h * (half * neg * (1.0 - share))
    length = widths * share
    d_r = _edge_gaps(a, b, base, length)
    kink = (a + b) * length * (widths - length)
    gradient = np.where(d1 > d0, kink, -kink) - half * (d_r[..., :-1] + d_r[..., 1:])
    return _Scores(d, half * (d0 + d1), np.add.reduce(terms, axis=-1), gradient)


def fictitious_play(
    cfg: GameConfig,
    bins: int,
    epsilon: float,
    max_iters: int = 5000,
) -> EquilibriumResult:
    """Find a low-exploitability strategy constant on ``bins`` uniform bins.

    Starts the three sequences of the module docstring, PRM+ self-play and
    the Polyak subgradient step from the curve h = 1/2 and the box-constrained
    Polyak step with a heavy-ball term from always-High, and advances them
    together, scoring the three iterates of a step in closed form. At 200
    bins and epsilon 1e-3 this takes 16 / 29 / 51 steps at ratios
    1.5 / 2 / 3. The heavy-ball term leaves z outside Polyak's guarantee; what
    is returned stays sound because ``_binned_response`` certifies it. Stops
    at the first best iterate whose certified exploitability / b is at most
    epsilon, the same iterate at every bet scale while the payoffs stay
    normal floats; otherwise returns the best iterate within ``max_iters``
    steps, certified. A non-converged run is reported via
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
        raise ArgumentError("max_iters", f"need at least 1 step, got {max_iters}")

    a, b = float(cfg.high_bet), float(cfg.low_bet)
    # Scores run at the bets over 2**k (see the module docstring),
    # certificates at the true bets.
    _, a_unit, b_unit = _unit_bets(a, b)
    edges = np.linspace(0.0, 1.0, bins + 1)
    x = y = half = np.full(bins, 0.5)
    z = z_prev = np.ones(bins)
    scores = _scores(a_unit, b_unit, edges, np.stack((x, y, z)))
    best_h, best_score = half, math.inf
    certificate: tuple[np.ndarray | None, float] = (None, math.nan)

    def keep_best() -> bool:
        """Make the lowest-scored curve of the step the best, if it beats it."""
        nonlocal best_h, best_score
        improved = False
        for h, score in zip((x, y, z), scores.value.tolist()):
            if score < best_score:
                best_h, best_score, improved = h, score, True
        return improved

    def certify_best() -> float:
        nonlocal certificate
        if certificate[0] is not best_h:
            certificate = best_h, _binned_response(a, b, edges, best_h).value
        return certificate[1]

    keep_best()
    start = certify_best()
    converged = best_score / b_unit <= epsilon and start / b <= epsilon

    # PRM+ state: clipped cumulative regrets of High and Low per bin.
    regret_high, regret_low = np.zeros(bins), np.zeros(bins)
    # Linear average of the PRM+ iterates, certified for the trace only.
    weighted_sum, weight = np.zeros(bins), 0
    trace: list[tuple[int, float, float]] = [(0, start, start)]
    iterations = 0
    while not converged and iterations < max_iters:
        iterations += 1

        # (a) PRM+: this iterate's regrets update the clipped sums and are
        # the prediction for the next iterate; they are x's bin integrals
        # of the EV gap.
        gap = scores.area[0]
        last_high, last_low = (1.0 - x) * gap, -x * gap
        regret_high = np.maximum(regret_high + last_high, 0.0)
        regret_low = np.maximum(regret_low + last_low, 0.0)
        high_part = np.maximum(regret_high + last_high, 0.0)
        total = high_part + np.maximum(regret_low + last_low, 0.0)
        x = np.divide(high_part, total, out=half.copy(), where=total > 0.0)
        weighted_sum += iterations * x
        weight += iterations

        # (b) Polyak step on e, whose minimum is at least the game value 0.
        g = scores.gradient[1]
        norm = float(np.add.reduce(g * g))
        if norm > 0.0:
            y = (y - (float(scores.value[1]) / norm) * g).clip(0.0, 1.0)

        # (c) The same step on z with s, the min-norm element of g + N(z):
        # the parts of g that the clip would undo are zeroed. The heavy-ball
        # term carries on along z's last move.
        g = scores.gradient[2]
        s = np.where(((z == 1.0) & (g < 0.0)) | ((z == 0.0) & (g > 0.0)), 0.0, g)
        norm = float(np.add.reduce(s * s))
        if norm > 0.0:
            step = (float(scores.value[2]) / norm) * s
            z, z_prev = (z - step + _HEAVY_BALL * (z - z_prev)).clip(0.0, 1.0), z

        scores = _scores(a_unit, b_unit, edges, np.stack((x, y, z)))
        # A closed-form score within epsilon is checked by the certificate.
        if keep_best() and best_score / b_unit <= epsilon:
            converged = certify_best() / b <= epsilon

        if iterations % 50 == 0:
            average = _binned_response(a, b, edges, weighted_sum / weight).value
            trace.append((iterations, average, certify_best()))

    if trace[-1][0] != iterations:
        average = _binned_response(a, b, edges, weighted_sum / weight).value
        trace.append((iterations, average, certify_best()))
    return EquilibriumResult(
        strategy=Strategy(
            breakpoints=tuple(edges[1:-1].tolist()), high_prob=tuple(best_h.tolist())
        ),
        exploitability=certify_best(),
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
