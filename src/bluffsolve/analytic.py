"""Closed-form expected payoffs, conditional bet values, and the equilibrium.

Everything here is exact up to floating-point rounding. Expected payoffs are
integrals of the settlement rule over independent uniform cards and the
players' bet randomizations. On the refined common breakpoint grid the
integrand is constant per cell except for the card-comparison sign, whose
integral is zero inside a diagonal cell and +/-1 times the cell area off the
diagonal, so the whole expectation reduces to weighted prefix sums. The same
payoff kernel weighs each piece by its card count instead of its length to
give the exact value of a discrete deck (``montecarlo.brute_force_discrete``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ArgumentError, GameConfig
from .strategy import Strategy, a_type, b_type, m_deterministic, probabilities_on, refine

#: Row/column order of the strategy-type payoff table.
TAXONOMY_KEYS = ("a", "b", "m")


def _require_continuous(cfg: GameConfig) -> None:
    if not cfg.is_continuous:
        raise ArgumentError(
            "deck",
            "closed-form payoffs need the continuous card model; "
            "use montecarlo.brute_force_discrete for finite decks"
        )


@dataclass(frozen=True)
class PayoffValue:
    """Expected net payoff to player 1, split by bet-pair regime.

    ``hh``/``hl``/``lh``/``ll`` are the contributions of the four regimes
    (player 1's bet first), and ``value`` is their sum.
    """

    value: float
    hh: float
    hl: float
    lh: float
    ll: float


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [0, 1], stored by knot values."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __call__(self, v):
        return np.interp(v, self.knots, self.values)


@dataclass(frozen=True)
class ConditionalEV:
    """Expected payoff of each bet as a function of the own card value."""

    ev_high: PiecewiseLinear
    ev_low: PiecewiseLinear


@dataclass(frozen=True)
class EquilibriumPoint:
    t_star: float
    p_star: float


# The kernels below call ufunc methods (np.add.reduce, np.add.accumulate),
# array methods and slice differences instead of np.sum, np.cumsum and
# np.diff: on the solver's 200-element arrays, numpy's Python-level wrappers
# cost more than the arithmetic. Each does the same operations in the same
# order, so every bit of every result is the same. No float product goes
# through np.dot or @: those call BLAS, whose kernel, and so whose summation
# order, OpenBLAS picks from the CPU at run time.


def _common_grid(s1: Strategy, s2: Strategy):
    r1, r2 = refine(s1, s2)
    knots = np.array((0.0, *r1.breakpoints, 1.0))
    return knots[1:] - knots[:-1], np.array(r1.high_prob), np.array(r2.high_prob)


def _sign_weighted_sum(x: np.ndarray, y: np.ndarray, y_total):
    # sum_{i,j} x_i y_j sgn(i - j): pair each piece with the weight strictly
    # below minus the weight strictly above it; ``y_total`` is the sum of y.
    # The integer zero keeps an object array of Fractions exact and gives 0.0
    # in a float array.
    below = np.add.accumulate(y)
    below[1:] = below[:-1]
    below[0] = 0
    above = y_total - below - y
    return np.add.reduce(x * (below - above))


def _payoff_terms(
    a: float, b: float, weights: np.ndarray, h1: np.ndarray, h2: np.ndarray
) -> PayoffValue:
    """Payoff of curve ``h1`` vs ``h2``, both given per piece, summed over ``weights``.

    Piece lengths (floats) give the continuous deck's expected payoff; card
    counts with Fraction bets and curves (object arrays) give a discrete
    deck's exact payoff summed over card pairs, in Fractions.
    """
    w1h, w1l = weights * h1, weights * (1 - h1)
    w2h, w2l = weights * h2, weights * (1 - h2)
    total2h, total2l = np.add.reduce(w2h), np.add.reduce(w2l)
    hh = a * _sign_weighted_sum(w1h, w2h, total2h)
    hl = b * np.add.reduce(w1h) * total2l
    lh = -b * np.add.reduce(w1l) * total2h
    ll = b * _sign_weighted_sum(w1l, w2l, total2l)
    hh, hl, lh, ll = np.array((hh, hl, lh, ll)).tolist()
    return PayoffValue(value=hh + hl + lh + ll, hh=hh, hl=hl, lh=lh, ll=ll)


def expected_payoff(cfg: GameConfig, s1: Strategy, s2: Strategy) -> PayoffValue:
    """Exact expected net payoff to player 1 under the continuous card model."""
    _require_continuous(cfg)
    return _payoff_terms(float(cfg.high_bet), float(cfg.low_bet), *_common_grid(s1, s2))


def _ev_arrays(
    a: float, b: float, lengths: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ev_high, ev_low) at the knots against the per-piece High curve ``h``.

    The knots run from 0 to 1, and ``lengths`` are their differences.
    """
    mass_high = lengths * h
    mass_low = lengths * (1.0 - h)
    total_high = float(np.add.reduce(mass_high))
    total_low = float(np.add.reduce(mass_low))
    # Cumulative opponent mass strictly below each knot.
    below_high = np.concatenate(([0.0], np.add.accumulate(mass_high)))
    below_low = np.concatenate(([0.0], np.add.accumulate(mass_low)))
    ev_high = b * total_low + a * (2.0 * below_high - total_high)
    ev_low = -b * total_high + b * (2.0 * below_low - total_low)
    return ev_high, ev_low


def conditional_evs(cfg: GameConfig, opponent: Strategy) -> ConditionalEV:
    """Expected payoff of betting High (resp. Low) given the own card value.

    With h the opponent's High-probability curve,

        ev_high(v) = integral of  h(w) a sgn(v-w) + (1-h(w)) b  dw
        ev_low(v)  = integral of -h(w) b + (1-h(w)) b sgn(v-w)  dw

    Both are continuous piecewise-linear; on a piece where the opponent plays
    h, their difference has slope 2a h - 2b (1-h).
    """
    _require_continuous(cfg)
    knots = np.array((0.0, *opponent.breakpoints, 1.0))
    a, b = float(cfg.high_bet), float(cfg.low_bet)
    ev_high, ev_low = _ev_arrays(a, b, knots[1:] - knots[:-1], np.array(opponent.high_prob))
    knots_t = tuple(knots.tolist())
    return ConditionalEV(
        ev_high=PiecewiseLinear(knots_t, tuple(ev_high.tolist())),
        ev_low=PiecewiseLinear(knots_t, tuple(ev_low.tolist())),
    )


def closed_form_equilibrium(cfg: GameConfig) -> EquilibriumPoint:
    """Symmetric equilibrium (t*, p*) = (1 - b/a, b/(a+b)), correctly rounded.

    The fixed point of the two indifference conditions; (0.5, 1/3) at a = 2b.
    With a/b = hi/lo in integers, each is one int/int division, which Python
    rounds correctly.
    """
    _require_continuous(cfg)
    a, b = cfg.high_bet, cfg.low_bet
    hi, lo = a.numerator * b.denominator, b.numerator * a.denominator
    return EquilibriumPoint(t_star=(hi - lo) / hi, p_star=lo / (hi + lo))


def taxonomy_table(cfg: GameConfig) -> dict[str, dict[str, PayoffValue]]:
    """3x3 expected-payoff table for the named strategy types.

    Rows and columns are "a" (always High), "b" (always Low) and "m"
    (deterministic threshold at 0.5); entry [row][col] is the expected payoff
    of the row type against the column type. The table is antisymmetric with
    a zero diagonal.
    """
    _require_continuous(cfg)
    # Every type is constant on both halves of [0, 1], so the nine pairs share
    # one grid and no pair needs refine. The weights are dyadic, and each
    # term rounds exactly as on the pair's own merged grid.
    grid = np.array((0.5,))
    curves = {
        key: probabilities_on(s.breakpoints, s.high_prob, grid)
        for key, s in zip(TAXONOMY_KEYS, (a_type(), b_type(), m_deterministic(0.5)))
    }
    a, b, halves = float(cfg.high_bet), float(cfg.low_bet), np.array((0.5, 0.5))
    return {
        row: {col: _payoff_terms(a, b, halves, curves[row], curves[col]) for col in TAXONOMY_KEYS}
        for row in TAXONOMY_KEYS
    }
