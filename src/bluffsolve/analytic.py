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
from .strategy import Strategy, _Curve, a_type, b_type, m_deterministic, refine

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


class PiecewiseLinear(_Curve):
    """Continuous piecewise-linear function on [0, 1], stored by knot values.

    Its fields are the tuples ``knots`` and ``values``. It keeps read-only
    float64 copies of what it is given, for ``np.interp``, and makes the
    tuples when they are first read.
    """

    __slots__ = ()

    _NAMES = ("knots", "values")

    def __init__(self, knots, values) -> None:
        self._fields = None
        self._arrays = np.array(knots, dtype=float), np.array(values, dtype=float)
        for x in self._arrays:
            x.setflags(write=False)

    @property
    def knots(self) -> tuple[float, ...]:
        return self._tuples()[0]

    @property
    def values(self) -> tuple[float, ...]:
        return self._tuples()[1]

    def __call__(self, v):
        return np.interp(v, *self._arrays)


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
    (knots, h1), (_, h2) = r1.arrays(), r2.arrays()
    return knots[1:] - knots[:-1], h1, h2


def _sign_weighted_sum(x: np.ndarray, y: np.ndarray, y_total):
    # sum_{i,j} x_i y_j sgn(i - j) along the last axis: pair each piece with
    # the weight strictly below minus the weight strictly above it;
    # ``y_total`` is the sum of y along that axis. The integer zero keeps an
    # object array of Fractions exact and gives 0.0 in a float array.
    below = np.add.accumulate(y, -1)
    below[..., 1:] = below[..., :-1]
    below[..., 0] = 0
    above = np.asarray(y_total)[..., None] - below - y
    return np.add.reduce(x * (below - above), -1)


def _payoff_terms(
    a: float, b: float, weights: np.ndarray, h1: np.ndarray, h2: np.ndarray
) -> PayoffValue:
    """Payoff of curve ``h1`` vs ``h2``, both given per piece, summed over ``weights``.

    Piece lengths (floats) give the continuous deck's expected payoff; card
    counts with Fraction bets and curves (object arrays) give a discrete
    deck's exact payoff summed over card pairs, in Fractions.

    The pieces run along the last axis. ``h1`` and ``h2`` may be stacks of
    curves in their other axes, which broadcast; then each field holds the
    nested list of the pairs' figures. Every sum runs along the last axis, so
    each pair gets the bits of a call on that pair alone.
    """
    w1h, w1l = weights * h1, weights * (1 - h1)
    w2h, w2l = weights * h2, weights * (1 - h2)
    total2h, total2l = np.add.reduce(w2h, -1), np.add.reduce(w2l, -1)
    hh = a * _sign_weighted_sum(w1h, w2h, total2h)
    hl = b * np.add.reduce(w1h, -1) * total2l
    lh = -b * np.add.reduce(w1l, -1) * total2h
    ll = b * _sign_weighted_sum(w1l, w2l, total2l)
    return PayoffValue(*np.array((hh + hl + lh + ll, hh, hl, lh, ll)).tolist())


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
    # Row 0 is the opponent's High mass, row 1 its Low mass, and ``below``
    # their cumulative masses strictly below each knot.
    masses = lengths * np.array((h, 1.0 - h))
    total_high, total_low = np.add.reduce(masses, -1).tolist()
    below = np.zeros((2, masses.shape[-1] + 1))
    np.add.accumulate(masses, -1, out=below[:, 1:])
    ev_high = b * total_low + a * (2.0 * below[0] - total_high)
    ev_low = -b * total_high + b * (2.0 * below[1] - total_low)
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
    knots, h = opponent.arrays()
    a, b = float(cfg.high_bet), float(cfg.low_bet)
    ev_high, ev_low = _ev_arrays(a, b, knots[1:] - knots[:-1], h)
    return ConditionalEV(
        ev_high=PiecewiseLinear(knots, ev_high), ev_low=PiecewiseLinear(knots, ev_low)
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
    # one grid, need no refine and take one kernel call, the rows' curves
    # against the columns'. The weights are dyadic, and each term rounds
    # exactly as on the pair's own merged grid.
    types = (a_type(), b_type(), m_deterministic(0.5))
    curves = np.array([(s.high_probability(0.0), s.high_probability(0.5)) for s in types])
    a, b, halves = float(cfg.high_bet), float(cfg.low_bet), np.array((0.5, 0.5))
    table = vars(_payoff_terms(a, b, halves, curves[:, None], curves)).values()
    return {
        row: {col: PayoffValue(*pair) for col, pair in zip(TAXONOMY_KEYS, zip(*cells))}
        for row, cells in zip(TAXONOMY_KEYS, zip(*table))
    }
