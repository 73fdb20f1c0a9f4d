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
``exploitability_exact`` and ``response_gradient_exact`` take the EV gap and
its integrals in rational arithmetic throughout. The indifference
conditions ``indifference_threshold`` and ``indifference_bluff`` derive the
equilibrium (t*, p*) independently of its closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
from scipy import integrate

from bluffsolve.analytic import ConditionalEV
from bluffsolve.engine import BetAction, Card, GameConfig, settle
from bluffsolve.montecarlo import (
    DEFAULT_CHUNK_SIZE,
    MAX_CONSECUTIVE_REPLAYS,
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


def indifference_threshold(p: float, ratio: float) -> float:
    """Threshold making the marginal card indifferent, given bluff rate ``p``.

    Solves (ratio-1)(1-t) = (ratio+1) t p, the equality of the extra loss from
    betting High with the marginal card against stronger opponents and the
    extra gain against weaker opponents who bet High with probability p. At
    ratio 2 this is exactly 1/t = 1 + 3p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bluff probability must lie in [0, 1], got {p!r}")
    if ratio <= 1.0:
        raise ValueError(f"bet ratio must exceed 1, got {ratio!r}")
    t = (ratio - 1.0) / ((ratio - 1.0) + (ratio + 1.0) * p)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"no threshold in (0, 1] for p={p!r}, ratio={ratio!r}")
    return t


def indifference_bluff(ratio: float) -> float:
    """Below-threshold High probability making weak cards indifferent.

    Betting High with a weak card costs an extra 2a p x against slightly
    stronger bluffing opponents while betting Low costs 2b (1-p) x; equality
    gives ratio * p = 1 - p, i.e. p = 1/(ratio+1) = b/(a+b).
    """
    if ratio <= 1.0:
        raise ValueError(f"bet ratio must exceed 1, got {ratio!r}")
    return 1.0 / (ratio + 1.0)


def _exact_gaps(
    a: Fraction, b: Fraction, knots: list[Fraction], probs: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """ev_low and ev_high - ev_low at each knot against a piecewise-constant curve.

    ``knots`` run from 0 to 1 and ``probs`` give the High probability per
    piece, all exact rationals. With H(v) and L(v) the opponent's High and
    Low mass below v, ev_high(v) = a (2H(v) - H) + b L and ev_low(v) = -b H +
    b (2L(v) - L).
    """
    lengths = [k1 - k0 for k0, k1 in zip(knots, knots[1:])]
    high = [length * p for length, p in zip(lengths, probs)]
    total_high = sum(high, Fraction(0))
    total_low = 1 - total_high
    below_high = below_low = Fraction(0)
    ev_low, gap = [], []
    for length, mass in zip([*lengths, Fraction(0)], [*high, Fraction(0)]):
        low_value = -b * total_high + b * (2 * below_low - total_low)
        ev_low.append(low_value)
        gap.append(a * (2 * below_high - total_high) + b * total_low - low_value)
        below_high += mass
        below_low += length - mass
    return ev_low, gap


def exploitability_exact(cfg: GameConfig, s: Strategy) -> Fraction:
    """Exact best-response value against ``s``: the integral of max(ev_high, ev_low).

    The bets and the strategy's floats count as exact rationals. Both EVs
    are linear on each piece of ``s``, so each piece adds the trapezoid of
    ev_low plus the part of the trapezoid of ev_high - ev_low that lies
    above zero.
    """
    knots = [Fraction(0), *map(Fraction, s.breakpoints), Fraction(1)]
    ev_low, gap = _exact_gaps(cfg.high_bet, cfg.low_bet, knots, [*map(Fraction, s.high_prob)])
    value = Fraction(0)
    for k0, k1, l0, l1, d0, d1 in zip(knots, knots[1:], ev_low, ev_low[1:], gap, gap[1:]):
        length = k1 - k0
        value += length * (l0 + l1) / 2
        if d0 >= 0 and d1 >= 0:
            value += length * (d0 + d1) / 2
        elif d0 > 0 or d1 > 0:
            # One end above zero: the triangle up to the root.
            top = max(d0, d1)
            value += length * top * top / (2 * abs(d0 - d1))
    return value


def response_gradient_exact(
    a: float, b: float, edges: np.ndarray, h: np.ndarray
) -> tuple[list[Fraction], list[Fraction]]:
    """Exact subgradient of the exploitability at the bin curve ``h``, and its EV gap.

    Bets, bin edges and curve count as exact rationals. Returns, per bin,
    minus the integral of ev_high - ev_low against h's best response r, and
    the EV gap d of ``h`` at the edges. r bets High where d >= 0, with a cut
    at each root of d inside a bin; a bin that does not cross zero plays the
    sign of its midpoint, High on a tie. The gap against r is linear between
    the edges and r's cuts, so the trapezoid rule on that grid is exact.
    """
    a, b = Fraction(a), Fraction(b)
    edges = [Fraction(e) for e in edges]
    _, d = _exact_gaps(a, b, edges, [Fraction(p) for p in h])
    knots, rule, pieces = [edges[0]], [], []
    for e0, e1, d0, d1 in zip(edges, edges[1:], d, d[1:]):
        if (d0 > 0 > d1) or (d0 < 0 < d1):
            knots.append(e0 + (e1 - e0) * d0 / (d0 - d1))
            rule += [Fraction(d0 > 0), Fraction(d1 > 0)]
            pieces.append(2)
        else:
            rule.append(Fraction(d0 + d1 >= 0))
            pieces.append(1)
        knots.append(e1)
    _, d_r = _exact_gaps(a, b, knots, rule)
    trapezoids = [
        (k1 - k0) * (g0 + g1) / 2 for k0, k1, g0, g1 in zip(knots, knots[1:], d_r, d_r[1:])
    ]
    gradient, start = [], 0
    for count in pieces:
        gradient.append(-sum(trapezoids[start : start + count], Fraction(0)))
        start += count
    return gradient, d


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
) -> MCEstimate:
    """``montecarlo.simulate`` with a payoff per hand, summed chunk by chunk.

    Draws the same streams: chunk k reads the seed's PCG64DXSM stream, jumped
    k times for chunk k, and each round draws four uniforms for every hand
    still pending. The sums and moments are exact rationals of the float
    payoffs, rounded once.
    """
    a, b = float(cfg.high_bet), float(cfg.low_bet)
    bp1, pr1 = np.asarray(s1.breakpoints), np.asarray(s1.high_prob)
    bp2, pr2 = np.asarray(s2.breakpoints), np.asarray(s2.high_prob)
    deck = cfg.deck_size

    total = Fraction(0)
    total_sq = Fraction(0)
    replays = 0
    done = 0
    chunk_index = 0
    while done < hands:
        n = min(chunk_size, hands - done)
        rng = np.random.Generator(np.random.PCG64DXSM(seed % (1 << 64)).jumped(chunk_index))
        payoff = np.empty(n)
        pending = np.arange(n)
        rounds = 0
        while pending.size:
            rounds += 1
            assert rounds <= MAX_CONSECUTIVE_REPLAYS
            u = rng.random((pending.size, 4))
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
        # Exact sums: each distinct payoff value times the hands that paid it.
        for value, count in zip(*np.unique(payoff, return_counts=True)):
            total += Fraction(value) * int(count)
            total_sq += Fraction(value) ** 2 * int(count)
        done += n
        chunk_index += 1

    # The moments exactly, rounded once; the square root is taken at the
    # variance of the mean over 4**j, a float near 1, and scaled by 2**j.
    if hands > 1:
        variance = (total_sq - total * total / hands) / (hands - 1) / hands
        j = (variance.numerator.bit_length() - variance.denominator.bit_length()) // 2
        std_error = math.ldexp(math.sqrt(float(variance / Fraction(4) ** j)), j)
    else:
        std_error = 0.0
    return MCEstimate(
        mean=float(total / hands),
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


def payoff_terms_double_sum(
    a: Fraction, b: Fraction, weights: list[Fraction], h1: list[Fraction], h2: list[Fraction]
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(hh, hl, lh, ll) of curve ``h1`` vs ``h2`` per piece, as a literal double sum.

    Every pair of pieces (i, j) adds its weight product times the settlement of
    each bet pair; equal pieces compare as a tie (sgn 0).
    """
    hh = hl = lh = ll = Fraction(0)
    for i, (w1, p1) in enumerate(zip(weights, h1)):
        for j, (w2, p2) in enumerate(zip(weights, h2)):
            sign = (i > j) - (i < j)
            pair = w1 * w2
            hh += pair * p1 * p2 * a * sign
            hl += pair * p1 * (1 - p2) * b
            lh -= pair * (1 - p1) * p2 * b
            ll += pair * (1 - p1) * (1 - p2) * b * sign
    return hh, hl, lh, ll


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
