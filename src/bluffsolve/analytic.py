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

from .engine import GameConfig
from .strategy import Strategy, a_type, b_type, m_deterministic, refine

#: Row/column order of the strategy-type payoff table.
TAXONOMY_KEYS = ("a", "b", "m")


def _require_continuous(cfg: GameConfig) -> None:
    if not cfg.is_continuous:
        raise ValueError(
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


def _common_grid(s1: Strategy, s2: Strategy):
    r1, r2 = refine(s1, s2)
    lengths = np.diff(np.array((0.0, *r1.breakpoints, 1.0)))
    return lengths, np.array(r1.high_prob), np.array(r2.high_prob)


def _sign_weighted_sum(x: np.ndarray, y: np.ndarray):
    # sum_{i,j} x_i y_j sgn(i - j): pair each piece with the weight strictly
    # below minus the weight strictly above it. The integer zero keeps an
    # object array of Fractions exact and gives 0.0 in a float array.
    below = np.cumsum(y)
    below[1:] = below[:-1]
    below[0] = 0
    above = y.sum() - below - y
    return np.dot(x, below - above)


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
    hh = a * _sign_weighted_sum(w1h, w2h)
    hl = b * w1h.sum() * w2l.sum()
    lh = -b * w1l.sum() * w2h.sum()
    ll = b * _sign_weighted_sum(w1l, w2l)
    hh, hl, lh, ll = np.array((hh, hl, lh, ll)).tolist()
    return PayoffValue(value=hh + hl + lh + ll, hh=hh, hl=hl, lh=lh, ll=ll)


def expected_payoff(cfg: GameConfig, s1: Strategy, s2: Strategy) -> PayoffValue:
    """Exact expected net payoff to player 1 under the continuous card model."""
    _require_continuous(cfg)
    return _payoff_terms(float(cfg.high_bet), float(cfg.low_bet), *_common_grid(s1, s2))


def _ev_arrays(
    a: float, b: float, knots: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ev_high, ev_low) at ``knots`` against the per-piece High curve ``h``."""
    lengths = np.diff(knots)
    mass_high = lengths * h
    mass_low = lengths * (1.0 - h)
    total_high = float(mass_high.sum())
    total_low = float(mass_low.sum())
    # Cumulative opponent mass strictly below each knot.
    below_high = np.concatenate(([0.0], np.cumsum(mass_high)))
    below_low = np.concatenate(([0.0], np.cumsum(mass_low)))
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
    ev_high, ev_low = _ev_arrays(
        float(cfg.high_bet), float(cfg.low_bet), knots, np.array(opponent.high_prob)
    )
    knots_t = tuple(knots.tolist())
    return ConditionalEV(
        ev_high=PiecewiseLinear(knots_t, tuple(ev_high.tolist())),
        ev_low=PiecewiseLinear(knots_t, tuple(ev_low.tolist())),
    )


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


def closed_form_equilibrium(cfg: GameConfig) -> EquilibriumPoint:
    """Symmetric equilibrium (t*, p*) = (1 - b/a, b/(a+b)).

    Composition of the two indifference conditions; reduces to (0.5, 1/3)
    at a = 2b.
    """
    _require_continuous(cfg)
    ratio = float(cfg.high_bet / cfg.low_bet)
    p_star = indifference_bluff(ratio)
    t_star = indifference_threshold(p_star, ratio)
    return EquilibriumPoint(t_star=t_star, p_star=p_star)


def taxonomy_table(cfg: GameConfig) -> dict[str, dict[str, PayoffValue]]:
    """3x3 expected-payoff table for the named strategy types.

    Rows and columns are "a" (always High), "b" (always Low) and "m"
    (deterministic threshold at 0.5); entry [row][col] is the expected payoff
    of the row type against the column type. The table is antisymmetric with
    a zero diagonal.
    """
    _require_continuous(cfg)
    players = {"a": a_type(), "b": b_type(), "m": m_deterministic(0.5)}
    return {
        row: {col: expected_payoff(cfg, players[row], players[col]) for col in TAXONOMY_KEYS}
        for row in TAXONOMY_KEYS
    }
