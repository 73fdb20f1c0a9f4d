"""Betting strategies as piecewise-constant High-bet probability curves.

A strategy maps the own card value v in [0, 1] to the probability of wagering
High. The curve is piecewise constant: ``breakpoints`` are strictly increasing
cut points inside (0, 1) and ``high_prob[i]`` applies on the i-th interval.
The curve is right-continuous, so a card exactly at a breakpoint plays the
piece to its right (the stronger regime).

The named families used throughout the analysis are provided as constructors:
``a_type`` (always High), ``b_type`` (always Low), ``m_deterministic(t)``
(Low below t, High at and above), and ``threshold_mix(t, p)`` (High with
probability p below t, High at and above).
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right
from typing import Any

import numpy as np


class StrategyError(ValueError):
    """Structurally invalid strategy data (bad shape, range, or ordering)."""


_INT_FLOAT = frozenset((int, float))

_FLOAT64 = np.dtype(np.float64)

#: The knots' two ends, read-only.
_ZERO, _ONE = np.zeros(1), np.ones(1)
_ZERO.setflags(write=False)
_ONE.setflags(write=False)

_Fields = tuple[tuple[float, ...], tuple[float, ...]]


class _Curve:
    """A curve on [0, 1] given by two float sequences, as tuples or arrays.

    The tuples are the fields: two curves of one class are equal, and hash
    alike, when their tuples are equal. A curve that holds its float64
    arrays makes the tuples when they are first read and keeps them; one
    that holds tuples makes new arrays at each ``arrays`` call and keeps
    none. A subclass names its fields in ``_NAMES``; one that keeps tuples
    makes its arrays from them in ``_arrays_of``.
    """

    __slots__ = ("_fields", "_arrays", "__weakref__")

    _NAMES: tuple[str, str]

    @staticmethod
    def _tuples_of(x: np.ndarray, y: np.ndarray) -> _Fields:
        return tuple(x.tolist()), tuple(y.tolist())

    def _tuples(self) -> _Fields:
        if self._fields is None:
            self._fields = self._tuples_of(*self._arrays)
        return self._fields

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept read-only arrays, or new ones made from the tuples."""
        if self._arrays is None:
            return self._arrays_of(*self._fields)
        return self._arrays

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tuples() == other._tuples()

    def __hash__(self) -> int:
        return hash(self._tuples())

    def __repr__(self) -> str:
        (x, y), (x_name, y_name) = self._tuples(), self._NAMES
        return f"{type(self).__name__}({x_name}={x!r}, {y_name}={y!r})"

    def __reduce__(self):
        return type(self), self._tuples()


class Strategy(_Curve):
    """An immutable piecewise-constant High curve (see the module docstring).

    Its fields are the tuples ``breakpoints`` and ``high_prob``, and
    ``arrays`` gives ``(knots, high_prob)`` as float64 arrays, the knots
    being ``(0, *breakpoints, 1)``. Built from two 1-D float64 arrays, a
    strategy checks them with a few array comparisons and keeps read-only
    copies. Built from anything else, it checks and keeps the tuples only.
    """

    __slots__ = ()

    _NAMES = ("breakpoints", "high_prob")

    def __init__(self, breakpoints, high_prob) -> None:
        self._fields = self._arrays = None
        if _is_vector(breakpoints) and _is_vector(high_prob):
            knots = np.concatenate((_ZERO, breakpoints, _ONE))
            high = high_prob.copy()
            # Every comparison with NaN is false, so a NaN fails a check.
            if not (
                len(high) == len(knots) - 1
                and np.count_nonzero(knots[1:] > knots[:-1]) == len(high)
                and 0.0 <= np.minimum.reduce(high)
                and np.maximum.reduce(high) <= 1.0
            ):
                _validate(tuple(breakpoints.tolist()), tuple(high.tolist()))
            knots.setflags(write=False)
            high.setflags(write=False)
            self._arrays = knots, high
        else:
            self._fields = tuple(map(float, breakpoints)), tuple(map(float, high_prob))
            _validate(*self._fields)

    @staticmethod
    def _tuples_of(knots: np.ndarray, high: np.ndarray) -> _Fields:
        return tuple(knots[1:-1].tolist()), tuple(high.tolist())

    @staticmethod
    def _arrays_of(breakpoints: tuple[float, ...], high_prob: tuple[float, ...]):
        return np.array((0.0, *breakpoints, 1.0)), np.array(high_prob)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._tuples()[0]

    @property
    def high_prob(self) -> tuple[float, ...]:
        return self._tuples()[1]

    def high_probability(self, v: float) -> float:
        """Probability of betting High with card value ``v``."""
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"card value must lie in [0, 1], got {v!r}")
        return self.high_prob[bisect_right(self.breakpoints, v)]

    def mean_high_probability(self) -> float:
        """Unconditional probability of a High bet under a uniform card."""
        knots = (0.0, *self.breakpoints, 1.0)
        return float(
            sum(p * (b - a) for p, a, b in zip(self.high_prob, knots[:-1], knots[1:]))
        )

    def to_dict(self) -> dict[str, list[float]]:
        return {"breakpoints": list(self.breakpoints), "high_prob": list(self.high_prob)}

    @classmethod
    def from_dict(cls, data: Any) -> Strategy:
        """A strategy from parsed JSON: each entry must be a JSON number (not a bool)."""
        if not isinstance(data, dict):
            raise StrategyError(f"expected an object with breakpoints/high_prob, got {type(data).__name__}")
        for key in ("breakpoints", "high_prob"):
            if key not in data:
                raise StrategyError(f"missing required key {key!r}")
            values = data[key]
            if not isinstance(values, (list, tuple)):
                raise StrategyError(f"{key!r} must be an array of numbers")
            # A bool is an int, but not a number.
            if not _INT_FLOAT.issuperset(map(type, values)):
                for i, v in enumerate(values):
                    if not isinstance(v, float) and type(v) is not int:
                        raise StrategyError(f"{key}[{i}]={v!r} is not a number")
        try:
            return cls(
                breakpoints=np.array(data["breakpoints"], dtype=float),
                high_prob=np.array(data["high_prob"], dtype=float),
            )
        except OverflowError as exc:
            raise StrategyError(f"a number is beyond the float range: {exc}") from exc

    def to_json(self) -> str:
        """Serialize losslessly (floats keep full round-trip precision)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> Strategy:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StrategyError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_dict(data)


def _is_vector(x: Any) -> bool:
    return type(x) is np.ndarray and x.dtype == _FLOAT64 and x.ndim == 1


def _validate(breakpoints: tuple[float, ...], high_prob: tuple[float, ...]) -> None:
    if len(high_prob) != len(breakpoints) + 1:
        raise StrategyError(
            f"need exactly one probability per interval: "
            f"{len(breakpoints)} breakpoints require {len(breakpoints) + 1} "
            f"probabilities, got {len(high_prob)}"
        )
    # C-level passes first; the loops below only name the first offender. A
    # comparison with NaN is false, and a NaN makes the sum NaN, which min and
    # max would miss, so no invalid input gets through.
    total = sum(high_prob)
    if (
        (not breakpoints or (0.0 < breakpoints[0] and breakpoints[-1] < 1.0))
        and all(map(operator.lt, breakpoints, breakpoints[1:]))
        and total == total
        and 0.0 <= min(high_prob)
        and max(high_prob) <= 1.0
    ):
        return
    for i, x in enumerate(breakpoints):
        if not 0.0 < x < 1.0:
            raise StrategyError(f"breakpoints[{i}]={x!r} must lie strictly inside (0, 1)")
        if i > 0 and x <= breakpoints[i - 1]:
            raise StrategyError(
                f"breakpoints must be strictly increasing: "
                f"breakpoints[{i}]={x!r} <= breakpoints[{i - 1}]={breakpoints[i - 1]!r}"
            )
    for i, p in enumerate(high_prob):
        if not 0.0 <= p <= 1.0:
            raise StrategyError(f"high_prob[{i}]={p!r} must lie in [0, 1]")


def a_type() -> Strategy:
    """Always bet High."""
    return Strategy(breakpoints=(), high_prob=(1.0,))


def b_type() -> Strategy:
    """Always bet Low."""
    return Strategy(breakpoints=(), high_prob=(0.0,))


def m_deterministic(threshold: float) -> Strategy:
    """Bet Low below ``threshold``, High at and above it."""
    return Strategy(breakpoints=(threshold,), high_prob=(0.0, 1.0))


def threshold_mix(threshold: float, bluff: float) -> Strategy:
    """Bet High with probability ``bluff`` below ``threshold``, always at and above."""
    return Strategy(breakpoints=(threshold,), high_prob=(bluff, 1.0))


def merge_breakpoints(x, y) -> np.ndarray:
    """Sorted union of two breakpoint lists, each value once.

    Sort plus a duplicate mask: ``np.union1d``/``np.unique`` would import
    ``numpy.ma`` on first use, which costs every CLI process memory.
    """
    merged = np.concatenate((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    merged.sort()
    keep = np.empty(len(merged), dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def probabilities_on(cuts: np.ndarray, high_prob: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """High probability of a curve on each piece of a finer grid.

    ``cuts`` are the curve's breakpoints as an array, which may end with 1,
    and the pieces start at ``starts``, each below 1. A right-continuous
    curve plays at a piece's start the piece that a right-sided search of
    the start in ``cuts`` finds, exactly as ``Strategy.high_probability``
    does.
    """
    return high_prob[cuts.searchsorted(starts, side="right")]


def refine(s1: Strategy, s2: Strategy) -> tuple[Strategy, Strategy]:
    """Re-express both strategies on the union of their breakpoints.

    The returned strategies represent exactly the same curves as the inputs
    and share an identical breakpoint list, which makes pairwise integration
    a walk over a common grid.
    """
    (k1, h1), (k2, h2) = s1.arrays(), s2.arrays()
    # Both knot lists hold 0 and 1, and so does the merged one.
    knots = merge_breakpoints(k1, k2)
    breakpoints, starts = knots[1:-1], knots[:-1]
    return (
        Strategy(breakpoints=breakpoints, high_prob=probabilities_on(k1[1:], h1, starts)),
        Strategy(breakpoints=breakpoints, high_prob=probabilities_on(k2[1:], h2, starts)),
    )
