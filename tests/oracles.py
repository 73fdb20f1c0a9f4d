"""Independent verification oracles for the test suite.

These deliberately avoid the production code paths: expected payoffs come
from dense two-dimensional Riemann sums or adaptive quadrature over the
defining integrals, conditional EVs from adaptive quadrature, and finite
decks from a literal loop over every card pair and bet combination through
the settlement rule. None of them refine breakpoint grids or use prefix sums.
Three are earlier versions of production code, kept as references for the
code they check: ``simulate_reference``, the Monte Carlo simulator that fills
a payoff array per chunk and sums it, run one chunk after another;
``brute_force_reference``, the exact discrete-deck value summed card by card
with prefix sums in rational arithmetic; and ``response_value``, a strategy's
payoff integrated against the opponent's conditional EVs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
from scipy import integrate

from bluffsolve.analytic import ConditionalEV
from bluffsolve.engine import MAX_CONSECUTIVE_REPLAYS, BetAction, Card, GameConfig, settle
from bluffsolve.montecarlo import (
    DEFAULT_CHUNK_SIZE,
    MAX_ENUMERATED_DECK,
    ExactDiscreteValue,
    MCEstimate,
)
from bluffsolve.strategy import Strategy


def riemann_payoff(cfg: GameConfig, s1: Strategy, s2: Strategy, n1: int = 1201, n2: int = 1301) -> float:
    """Midpoint Riemann sum of the settled payoff over the unit square.

    Accuracy is O(1/n) from the cells cut by strategy jumps and the diagonal;
    with the default grids that is a few times 1e-3. The two axes use
    different resolutions so no sample pair ever ties exactly.
    """
    a, b = float(cfg.high_bet), float(cfg.low_bet)
    u = (np.arange(n1) + 0.5) / n1
    w = (np.arange(n2) + 0.5) / n2
    h1 = np.array([s1.high_probability(x) for x in u])[:, None]
    h2 = np.array([s2.high_probability(x) for x in w])[None, :]
    sign = np.sign(u[:, None] - w[None, :])
    cell = (
        h1 * h2 * a * sign
        + h1 * (1.0 - h2) * b
        - (1.0 - h1) * h2 * b
        + (1.0 - h1) * (1.0 - h2) * b * sign
    )
    return float(cell.mean())


def quad_ev_high(cfg: GameConfig, opponent: Strategy, v: float) -> float:
    a, b = float(cfg.high_bet), float(cfg.low_bet)

    def integrand(w: float) -> float:
        h = opponent.high_probability(w)
        return h * a * float(np.sign(v - w)) + (1.0 - h) * b

    points = sorted({v, *opponent.breakpoints})
    value, _ = integrate.quad(integrand, 0.0, 1.0, points=points, limit=200)
    return value


def quad_ev_low(cfg: GameConfig, opponent: Strategy, v: float) -> float:
    b = float(cfg.low_bet)

    def integrand(w: float) -> float:
        h = opponent.high_probability(w)
        return -h * b + (1.0 - h) * b * float(np.sign(v - w))

    points = sorted({v, *opponent.breakpoints})
    value, _ = integrate.quad(integrand, 0.0, 1.0, points=points, limit=200)
    return value


def quad_payoff(cfg: GameConfig, s1: Strategy, s2: Strategy) -> float:
    """High-accuracy payoff oracle by iterated adaptive quadrature (~1e-9)."""

    def integrand(v: float) -> float:
        h = s1.high_probability(v)
        return h * quad_ev_high(cfg, s2, v) + (1.0 - h) * quad_ev_low(cfg, s2, v)

    points = sorted({*s1.breakpoints, *s2.breakpoints})
    value, _ = integrate.quad(integrand, 0.0, 1.0, points=points or None, limit=200)
    return value


def response_value(s: Strategy, evs: ConditionalEV) -> float:
    """Expected payoff of playing ``s`` against the opponent behind ``evs``.

    Integrates h(v) ev_high(v) + (1-h(v)) ev_low(v) exactly: per merged piece
    the weight is constant and each EV linear, so the trapezoid rule is exact.
    """
    knots = np.array(sorted({*evs.ev_high.knots, *evs.ev_low.knots, *s.breakpoints, 0.0, 1.0}))
    high = evs.ev_high(knots)
    low = evs.ev_low(knots)
    lengths = np.diff(knots)
    h = np.array([s.high_probability(v) for v in knots[:-1]])
    avg_high = (high[:-1] + high[1:]) / 2.0
    avg_low = (low[:-1] + low[1:]) / 2.0
    return float(np.sum(lengths * (h * avg_high + (1.0 - h) * avg_low)))


def enumerate_discrete(cfg: GameConfig, s1: Strategy, s2: Strategy) -> tuple[Fraction, Fraction]:
    """Literal enumeration of every card pair and bet pair through ``settle``.

    Returns (conditioned expected payoff, replay probability), both exact.
    Only viable for small decks; used to validate the fast exact oracle.
    """
    m = cfg.deck_size
    assert m is not None and m <= 60, "literal enumeration is for small decks"
    one = Fraction(1)
    settled_sum = Fraction(0)
    replay_sum = Fraction(0)
    for i in range(m):
        card1 = Card(i / (m - 1))
        p1 = Fraction(s1.high_probability(card1.value))
        for j in range(m):
            card2 = Card(j / (m - 1))
            p2 = Fraction(s2.high_probability(card2.value))
            for bet1, q1 in ((BetAction.HIGH, p1), (BetAction.LOW, one - p1)):
                for bet2, q2 in ((BetAction.HIGH, p2), (BetAction.LOW, one - p2)):
                    weight = q1 * q2
                    if weight == 0:
                        continue
                    outcome = settle(cfg, card1, card2, bet1, bet2)
                    if outcome.is_replay:
                        replay_sum += weight
                    else:
                        settled_sum += weight * outcome.payoff_to_player1()
    pairs = m * m
    replay_probability = replay_sum / pairs
    value = (settled_sum / pairs) / (one - replay_probability)
    return value, replay_probability


def random_strategy(
    rng: np.random.Generator, max_breakpoints: int = 6, grid: int | None = None
) -> Strategy:
    """A random piecewise-constant strategy; optionally grid-aligned breakpoints."""
    k = int(rng.integers(0, max_breakpoints + 1))
    if grid is not None:
        k = min(k, grid - 1)
        picks = rng.choice(np.arange(1, grid), size=k, replace=False)
        breakpoints = tuple(float(i) / grid for i in sorted(picks))
    else:
        raw = sorted(set(float(x) for x in rng.random(k) if 0.0 < x < 1.0))
        breakpoints = tuple(raw)
    probs = tuple(float(p) for p in rng.random(len(breakpoints) + 1))
    return Strategy(breakpoints=breakpoints, high_prob=probs)


def simulate_reference(
    cfg: GameConfig,
    s1: Strategy,
    s2: Strategy,
    hands: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    mirrored: bool = False,
) -> MCEstimate:
    """``montecarlo.simulate`` with a payoff per hand, summed chunk by chunk.

    Draws the same Philox stream: chunk k uses ``Philox(seed).jumped(k)`` and
    each round draws four uniforms for every hand still pending.
    """
    a, b = float(cfg.high_bet), float(cfg.low_bet)
    bp1, pr1 = np.asarray(s1.breakpoints), np.asarray(s1.high_prob)
    bp2, pr2 = np.asarray(s2.breakpoints), np.asarray(s2.high_prob)
    deck = cfg.deck_size

    total = 0.0
    total_sq = 0.0
    replays = 0
    done = 0
    chunk_index = 0
    while done < hands:
        n = min(chunk_size, hands - done)
        rng = np.random.Generator(np.random.Philox(key=seed % (1 << 64)).jumped(chunk_index))
        payoff = np.empty(n)
        pending = np.arange(n)
        rounds = 0
        while pending.size:
            rounds += 1
            assert rounds <= MAX_CONSECUTIVE_REPLAYS
            u = rng.random((pending.size, 4))
            if mirrored:
                u = u[:, [1, 0, 3, 2]]
            if deck is None:
                c1, c2 = u[:, 0], u[:, 1]
                tie = c1 == c2
            else:
                i1 = np.minimum((u[:, 0] * deck).astype(np.int64), deck - 1)
                i2 = np.minimum((u[:, 1] * deck).astype(np.int64), deck - 1)
                tie = i1 == i2
                c1 = i1 / (deck - 1)
                c2 = i2 / (deck - 1)
            h1 = pr1[np.searchsorted(bp1, c1, side="right")]
            h2 = pr2[np.searchsorted(bp2, c2, side="right")]
            high1 = u[:, 2] < h1
            high2 = u[:, 3] < h2
            sign = np.sign(c1 - c2)
            pay = np.where(
                high1 == high2,
                np.where(high1, a, b) * sign,
                np.where(high1, b, -b),
            )
            replay = (high1 == high2) & tie
            settled = ~replay
            payoff[pending[settled]] = pay[settled]
            replays += int(replay.sum())
            pending = pending[replay]
        total += float(payoff.sum())
        total_sq += float((payoff * payoff).sum())
        done += n
        chunk_index += 1

    mean = total / hands
    if hands > 1:
        variance = max((total_sq - hands * mean * mean) / (hands - 1), 0.0)
        std_error = math.sqrt(variance / hands)
    else:
        std_error = 0.0
    return MCEstimate(
        mean=mean,
        std_error=std_error,
        hands=hands,
        seed=seed,
        replay_rate=replays / (hands + replays),
        chunk_size=chunk_size,
    )


def _exact_piece_values(s: Strategy, grid: list[Fraction]) -> list[Fraction]:
    # Exact comparisons: grid points are rationals, breakpoints exact floats.
    return [Fraction(s.high_prob[bisect_right(s.breakpoints, x)]) for x in grid]


def _sign_weighted_sum(xs: list[Fraction], ys: list[Fraction]) -> Fraction:
    total = sum(ys, Fraction(0))
    running = Fraction(0)
    acc = Fraction(0)
    for x, y in zip(xs, ys):
        above = total - running - y
        acc += x * (running - above)
        running += y
    return acc


def brute_force_reference(cfg: GameConfig, s1: Strategy, s2: Strategy) -> ExactDiscreteValue:
    """``montecarlo.brute_force_discrete`` summed over every card.

    Card i is the exact rational i/(M-1). Every one of the M^2 equally likely
    card pairs contributes its four bet combinations with exact rational
    probabilities; pairwise card-comparison terms are accumulated with
    prefix sums over the M cards.
    """
    m = cfg.deck_size
    if m is None:
        raise ValueError("brute force needs a discrete deck; use analytic.expected_payoff")
    if m > MAX_ENUMERATED_DECK:
        raise ValueError(f"deck of {m} cards exceeds the enumeration limit {MAX_ENUMERATED_DECK}")
    a, b = cfg.high_bet, cfg.low_bet
    grid = [Fraction(i, m - 1) for i in range(m)]
    p1 = _exact_piece_values(s1, grid)
    p2 = _exact_piece_values(s2, grid)
    one = Fraction(1)
    q1 = [one - p for p in p1]
    q2 = [one - p for p in p2]

    hh = a * _sign_weighted_sum(p1, p2)
    ll = b * _sign_weighted_sum(q1, q2)
    hl = b * sum(p1, Fraction(0)) * sum(q2, Fraction(0))
    lh = -b * sum(q1, Fraction(0)) * sum(p2, Fraction(0))
    settled_sum = hh + hl + lh + ll

    replay_sum = sum((x * y + (one - x) * (one - y) for x, y in zip(p1, p2)), Fraction(0))
    pairs = Fraction(m * m)
    replay_probability = replay_sum / pairs
    if replay_probability == 1:
        raise ValueError("every deal replays; the configured game never settles")
    value = (settled_sum / pairs) / (one - replay_probability)
    return ExactDiscreteValue(value=value, replay_probability=replay_probability)
