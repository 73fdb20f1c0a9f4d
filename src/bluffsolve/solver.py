"""Best responses, exploitability, and the binned equilibrium search.

The conditional EVs of the two bets are piecewise linear in the own card, so
a best response is found exactly: per piece, the sign changes of their
difference come from a linear solve, and the pointwise argmax action rule is
assembled from those cut points. Exploitability is the best-response value;
in this symmetric zero-sum game it is zero exactly at a symmetric equilibrium
strategy, and it is a convex function e(h) of the strategy's curve h.

The equilibrium search runs over strategies constant on K uniform bins and
advances two sequences of curves together:

(a) CFR-BR: regret matching+ against the exact best response (Johanson,
    Bard, Burch & Bowling, AAAI 2012), from h = 1/2. Against the response
    r to w, the loss of High in a bin is the gradient g of r's payoff
    there. Each bin keeps clipped cumulative regrets of High and Low and
    plays High with probability R_High / (R_High + R_Low) (1/2 where both
    vanish).
(b) Projected subgradient descent on e + I_box with Polyak's step size
    (Polyak, 1969), I_box the indicator of [0, 1]^K, using the known lower
    bound e >= 0 (the game value), with a heavy-ball term (Polyak, 1964),
    from always-High:
    z <- clip(z - e(z) s / |s|^2 + beta (z - z_prev), 0, 1), beta = 1/2,
    where z_prev is z before its last step and starts equal to z, and s is
    the min-norm element of g + N(z), N the normal cone of the box. That is
    the subgradient g with the parts zeroed where z = 1 and g < 0, or z = 0
    and g > 0. The zeroed parts would be clipped back anyway, so they only
    lengthen the step, e/|s|^2 >= e/|g|^2. A step with s = 0 is skipped and
    leaves z and z_prev as they are. The heavy-ball term takes z outside
    Polyak's guarantee, which holds for s alone; what the solver returns
    stays sound, because every figure of it is certified (below).

The two iterates of a step are scored together, on the (2, K) stack of
their curves, by one fixed-shape closed-form kernel (``_scores``) at the
unit bets of ``_unit_bets``, where no gap or |g|^2 overflows or underflows.
It gives the EV gap at the bin edges, the best-response value e of each
curve, and the gradient g in the curve of the payoff of its best response,
a subgradient of e, with no merged grid and no action rule. The solver
keeps the best scored iterate. Every exploitability it returns is a
certificate of the public kernels: once the best iterate's score is within
epsilon, ``_binned_response`` certifies it at the true bets, and the search
stops only if the certificate is within epsilon too; the trace's best is
certified at each checkpoint, and the result at the end.

The payoff of the response r_t to w_t is e(w_t) + g_t.(x - w_t), linear in
the K-bin curve x, and e(x) is at least each such plane, so at least their
linearly weighted average. Over the box that gives the lower bound
LB = (C + sum_i min(G_i, 0)) / W on the best K-bin exploitability, with
C = sum_t t (e(w_t) - g_t.w_t), G = sum_t t g_t and W = sum_t t (the start
is t = 1), O(K) a step; RM+'s regret bound drives it up to that optimum.
The trace reports it at the true bets. It is a float figure, not yet a
proof, as its rounding is not bounded, so the search does not stop on it.

Two rows suffice. Over 90 runs (15 ratios from 1.1 to 20, K = 2, 3, 8, 50,
200 and 400, epsilon 1e-3), w and z converge in the same 50 runs as the
three rows they replaced (PRM+ self-play, the plain Polyak step and z), all
in the same steps but ratio 3 at K=3 (15 against 10). 39 of the other 40
end with LB above epsilon, which shows epsilon out of reach at that K. w
does the plain Polyak step's job: z's step aims at the target 0 and
overshoots where the best K-bin value lies far above it, and at K=2 and an
unreachable epsilon of 1e-6, w ends at the 2-bin optima phi/40 = 0.0404508
(ratio 1.5) and 5/64 (ratio 3), with LB within 6e-8 of each.
z starts at always-High because a bin then leaves 1 only where the gradient
pulls it inward; from h = 1/2 it reached 1e-3 at ratio 2 and K=200 on a
ramp whose lowest h above 0.51 was 0.85, against 0.994. The heavy-ball term
damps z's zigzag: over 14 ratios from 1.1 to 10 at K=200 the steps fell
from 1376 to 815 in all.

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
from .strategy import Strategy, merge_breakpoints, probabilities_on

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

    ``strategy`` is the best iterate of the two sequences, as scored in
    closed form at the unit bets, and ``exploitability`` its exact
    continuous exploitability, certified by the public kernels.
    ``iterations`` counts joint steps of the sequences. ``trace`` records
    checkpoints, every 50 steps and at the end, as (iteration, the CFR-BR
    lower bound on the best binned exploitability, the certified
    exploitability of the best iterate so far), both at the true bets; the
    bound is a float figure, not a proof. Checkpoint 0 holds the bound from
    the CFR-BR start and the certificate of the best start.
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
    (knots, ev_high), (_, ev_low) = evs.ev_high.arrays(), evs.ev_low.arrays()
    breakpoints, high = _action_rule(knots, np.ldexp(ev_high, -k) - np.ldexp(ev_low, -k))
    rule = Strategy(breakpoints=breakpoints, high_prob=high)
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
    starts = knots[:-1]
    curve = probabilities_on(breakpoints, high, starts)
    payoff = _payoff_terms(a, b, knots[1:] - starts, curve, probabilities_on(interior, h, starts))
    return _Response((breakpoints, high), payoff.value)


class _Scores(NamedTuple):
    """Closed-form scores of a curve, or of each row of a stack (see ``_scores``)."""

    gap: np.ndarray
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
    """The EV gap, e(h) and a subgradient of e, in closed form.

    ``h`` is a curve on the bins ``edges``, or a stack of curves in its last
    axis; the solver passes the unit bets. Returns per curve the EV gap d at
    the edges, the best-response value e(h), and the
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
    return _Scores(d, np.add.reduce(terms, axis=-1), gradient)


def fictitious_play(
    cfg: GameConfig,
    bins: int,
    epsilon: float,
    max_iters: int = 5000,
) -> EquilibriumResult:
    """Find a low-exploitability strategy constant on ``bins`` uniform bins.

    Starts the two sequences of the module docstring, CFR-BR from the curve
    h = 1/2 and the box-constrained Polyak step with a heavy-ball term from
    always-High, and advances them together, scoring the two iterates of a
    step in closed form. At 200 bins and epsilon 1e-3 this takes
    16 / 29 / 51 steps at ratios 1.5 / 2 / 3. CFR-BR's lower bound goes to
    the trace only. Stops at the first best iterate whose exploitability / b,
    certified by ``_binned_response``, is at most epsilon, the same iterate
    at every bet scale while the payoffs stay normal floats; otherwise
    returns the best iterate within ``max_iters`` steps, certified. A
    non-converged run is reported via ``converged=False``, never raised; an
    out-of-range ``bins``, ``epsilon`` or ``max_iters`` raises
    ``ArgumentError``. The search is deterministic.
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
    k, a_unit, b_unit = _unit_bets(a, b)
    edges = np.linspace(0.0, 1.0, bins + 1)
    w = half = np.full(bins, 0.5)
    z = z_prev = np.ones(bins)
    scores = _scores(a_unit, b_unit, edges, np.stack((w, z)))
    best_h, best_score = half, math.inf
    certificate: tuple[np.ndarray | None, float] = (None, math.nan)
    # CFR-BR state: clipped cumulative regrets of High and Low per bin, and
    # the linearly weighted sums C, G and W of the responses' payoff planes.
    regret_high, regret_low = np.zeros(bins), np.zeros(bins)
    plane_sum, slope_sum, weight = 0.0, np.zeros(bins), 0

    def keep_best() -> bool:
        """Make the lowest-scored curve of the step the best, if it beats it."""
        nonlocal best_h, best_score
        improved = False
        for h, score in zip((w, z), scores.value.tolist()):
            if score < best_score:
                best_h, best_score, improved = h, score, True
        return improved

    def certify_best() -> float:
        nonlocal certificate
        if certificate[0] is not best_h:
            certificate = best_h, _binned_response(a, b, edges, best_h).value
        return certificate[1]

    def add_plane(t: int) -> None:
        """Add t times the payoff plane e(w) + g.(x - w) of w's response."""
        nonlocal plane_sum, slope_sum, weight
        g = scores.gradient[0]
        plane_sum += t * (float(scores.value[0]) - float(np.add.reduce(g * w)))
        slope_sum = slope_sum + t * g
        weight += t

    def lower_bound() -> float:
        """The weighted planes' minimum over the box, at the true bets."""
        low = float(np.add.reduce(np.minimum(slope_sum, 0.0)))
        return math.ldexp((plane_sum + low) / weight, k)

    keep_best()
    add_plane(1)
    start = certify_best()
    converged = best_score / b_unit <= epsilon and start / b <= epsilon

    trace: list[tuple[int, float, float]] = [(0, lower_bound(), start)]
    iterations = 0
    while not converged and iterations < max_iters:
        iterations += 1

        # (a) RM+ against w's best response: the loss of High in a bin is
        # the response's gradient there.
        gap = -scores.gradient[0]
        regret_high = np.maximum(regret_high + (1.0 - w) * gap, 0.0)
        regret_low = np.maximum(regret_low - w * gap, 0.0)
        total = regret_high + regret_low
        w = np.divide(regret_high, total, out=half.copy(), where=total > 0.0)

        # (b) Polyak's step on z with s, the min-norm element of g + N(z):
        # the parts of g that the clip would undo are zeroed. The heavy-ball
        # term carries on along z's last move.
        g = scores.gradient[1]
        s = np.where(((z == 1.0) & (g < 0.0)) | ((z == 0.0) & (g > 0.0)), 0.0, g)
        norm = float(np.add.reduce(s * s))
        if norm > 0.0:
            step = (float(scores.value[1]) / norm) * s
            z, z_prev = (z - step + _HEAVY_BALL * (z - z_prev)).clip(0.0, 1.0), z

        scores = _scores(a_unit, b_unit, edges, np.stack((w, z)))
        add_plane(iterations + 1)
        # A closed-form score within epsilon is checked by the certificate.
        if keep_best() and best_score / b_unit <= epsilon:
            converged = certify_best() / b <= epsilon

        if iterations % 50 == 0:
            trace.append((iterations, lower_bound(), certify_best()))

    if trace[-1][0] != iterations:
        trace.append((iterations, lower_bound(), certify_best()))
    return EquilibriumResult(
        strategy=Strategy(breakpoints=edges[1:-1], high_prob=best_h),
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
    """Closed-form equilibrium plus CFR-BR/Polyak solver verification per bet ratio.

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
