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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

import numpy as np


class StrategyError(ValueError):
    """Structurally invalid strategy data (bad shape, range, or ordering)."""


@dataclass(frozen=True)
class Strategy:
    breakpoints: tuple[float, ...]
    high_prob: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(map(float, self.breakpoints)))
        object.__setattr__(self, "high_prob", tuple(map(float, self.high_prob)))
        _validate(self.breakpoints, self.high_prob)

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
        if not isinstance(data, dict):
            raise StrategyError(f"expected an object with breakpoints/high_prob, got {type(data).__name__}")
        for key in ("breakpoints", "high_prob"):
            if key not in data:
                raise StrategyError(f"missing required key {key!r}")
            if not isinstance(data[key], (list, tuple)):
                raise StrategyError(f"{key!r} must be an array of numbers")
        try:
            bps = tuple(map(float, data["breakpoints"]))
            probs = tuple(map(float, data["high_prob"]))
        except (TypeError, ValueError) as exc:
            raise StrategyError(f"non-numeric entry: {exc}") from exc
        return cls(breakpoints=bps, high_prob=probs)

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


def _validate(breakpoints: tuple[float, ...], high_prob: tuple[float, ...]) -> None:
    if len(high_prob) != len(breakpoints) + 1:
        raise StrategyError(
            f"need exactly one probability per interval: "
            f"{len(breakpoints)} breakpoints require {len(breakpoints) + 1} "
            f"probabilities, got {len(high_prob)}"
        )
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
    merged = np.sort(np.concatenate((np.asarray(x, dtype=float), np.asarray(y, dtype=float))))
    keep = np.ones(len(merged), dtype=bool)
    keep[1:] = merged[1:] != merged[:-1]
    return merged[keep]


def probabilities_on(breakpoints, high_prob, grid: np.ndarray) -> np.ndarray:
    """High probability of each piece of ``grid`` (a breakpoint superset).

    Piece i of the grid starts at ``(0.0, *grid)[i]``; a right-continuous
    curve plays there the piece found by a right-sided bisection, exactly as
    ``Strategy.high_probability`` does.
    """
    starts = np.concatenate(([0.0], grid))
    pieces = np.searchsorted(np.asarray(breakpoints, dtype=float), starts, side="right")
    return np.asarray(high_prob, dtype=float)[pieces]


def refine(s1: Strategy, s2: Strategy) -> tuple[Strategy, Strategy]:
    """Re-express both strategies on the union of their breakpoints.

    The returned strategies represent exactly the same curves as the inputs
    and share an identical breakpoint list, which makes pairwise integration
    a walk over a common grid.
    """
    merged = merge_breakpoints(s1.breakpoints, s2.breakpoints)
    breakpoints = tuple(merged.tolist())

    def expand(s: Strategy) -> Strategy:
        return Strategy(
            breakpoints=breakpoints,
            high_prob=tuple(probabilities_on(s.breakpoints, s.high_prob, merged).tolist()),
        )

    return expand(s1), expand(s2)
