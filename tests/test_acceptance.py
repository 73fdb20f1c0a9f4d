"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances and runtime budgets are pinned here, not configurable.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from bluffsolve.analytic import (
    closed_form_equilibrium,
    conditional_evs,
    expected_payoff,
    taxonomy_table,
)
from bluffsolve.cli import main
from bluffsolve.engine import BetAction, Card, GameConfig, Settlement, settle
from bluffsolve.montecarlo import brute_force_discrete, simulate
from bluffsolve.solver import best_response, exploitability, fictitious_play
from bluffsolve.strategy import a_type, b_type, m_deterministic, threshold_mix

from .oracles import random_strategy

CFG = GameConfig(2, 1)
SIGMA = threshold_mix(0.5, 1 / 3)


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_equilibrium_point(capsys):
    """equilibrium --ratio 2 returns (0.5, 1/3) to 1e-12, in under a second."""
    start = time.perf_counter()
    code = main(["equilibrium", "--ratio", "2"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert abs(data["t_star"] - 0.5) <= 1e-12
    assert abs(data["p_star"] - 1 / 3) <= 1e-12
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "equilibrium point")


def test_criterion_2_equilibrium_certificate():
    """Analytic exploitability <= 1e-9 b; Monte Carlo BR check within 3 SE of 0."""
    start = time.perf_counter()
    assert exploitability(CFG, SIGMA) <= 1e-9
    rule = best_response(CFG, SIGMA).action_rule
    est = simulate(CFG, rule, SIGMA, hands=10**6, seed=20_260_810)
    assert abs(est.mean) <= 3 * est.std_error
    assert time.perf_counter() - start < 5.0
    _report(2, "equilibrium certificate")


def test_criterion_3_indifference_structure():
    """|ev_high - ev_low| <= 1e-10 b below t*; strictly positive above."""
    evs = conditional_evs(CFG, SIGMA)
    below = np.linspace(0.0, 0.5, 1002)[:-1]
    assert below.size >= 1000
    diff_below = np.asarray(evs.ev_high(below)) - np.asarray(evs.ev_low(below))
    assert np.max(np.abs(diff_below)) <= 1e-10
    above = np.linspace(0.5, 1.0, 1002)[1:]
    diff_above = np.asarray(evs.ev_high(above)) - np.asarray(evs.ev_low(above))
    assert np.min(diff_above) > 0.0
    _report(3, "indifference structure")


def test_criterion_4_indifference_equations_hold():
    """1/t = 1 + 3p and 2p = 1 - p at the solution, to 1e-12."""
    point = closed_form_equilibrium(CFG)
    assert abs(1.0 / point.t_star - (1.0 + 3.0 * point.p_star)) <= 1e-12
    assert abs(2.0 * point.p_star - (1.0 - point.p_star)) <= 1e-12
    _report(4, "indifference equations at the solution")


def test_criterion_5_maximin_guarantee():
    """Equilibrium strategy earns >= -1e-9 b against 1000 random strategies."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        rival = random_strategy(rng)
        value = expected_payoff(CFG, SIGMA, rival).value
        worst = min(worst, value)
        assert value >= -1e-9
    assert time.perf_counter() - start < 10.0
    _report(5, f"maximin guarantee (worst {worst:.2e})")


def test_criterion_6_generalized_ratios():
    """Fictitious play at K=200 meets 1e-3 b; closed form meets 1e-9 b."""
    start = time.perf_counter()
    epsilon = 1e-3
    for ratio in (1.5, 2.0, 3.0):
        cfg = GameConfig(Fraction(ratio), 1)
        result = fictitious_play(cfg, bins=200, epsilon=epsilon, max_iters=5000)
        assert result.exploitability <= epsilon, f"ratio {ratio}"
        closed = threshold_mix(1.0 - 1.0 / ratio, 1.0 / (ratio + 1.0))
        assert exploitability(cfg, closed) <= 1e-9, f"ratio {ratio}"
    assert time.perf_counter() - start < 30.0
    _report(6, "generalized ratios")


def test_criterion_7_taxonomy_table():
    """3x3 type table equals the oracle-frozen values to 1e-10; antisymmetric."""
    table = taxonomy_table(CFG)
    # Values established by the independent Riemann/Monte Carlo oracles before
    # the analytic engine was built (see test_analytic for the oracle runs).
    expected = {
        ("a", "a"): 0.0, ("a", "b"): 1.0, ("a", "m"): 0.0,
        ("b", "a"): -1.0, ("b", "b"): 0.0, ("b", "m"): -0.25,
        ("m", "a"): 0.0, ("m", "b"): 0.25, ("m", "m"): 0.0,
    }
    for (row, col), value in expected.items():
        assert abs(table[row][col].value - value) <= 1e-10, (row, col)
    for row in "abm":
        for col in "abm":
            assert abs(table[row][col].value + table[col][row].value) <= 1e-10
    _report(7, "type taxonomy table")


def test_criterion_8_cross_validation():
    """Analytic, 1e6-hand Monte Carlo, and M=1001 brute force agree.

    Strategies are random with breakpoints snapped to the 1/1000 grid so the
    discrete comparison is grid-aligned. A Monte Carlo leg that misses 4 SE is
    retried on a fresh seed at most twice (expected once per ~16k pairs).
    """
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    cfg_discrete = GameConfig(2, 1, deck_size=1001)
    for pair_index in range(50):
        s1 = random_strategy(rng, grid=1000)
        s2 = random_strategy(rng, grid=1000)
        exact = expected_payoff(CFG, s1, s2).value

        for attempt in range(3):
            est = simulate(CFG, s1, s2, hands=10**6, seed=1000 * pair_index + attempt)
            if abs(est.mean - exact) <= 4 * max(est.std_error, 1e-12):
                break
        else:
            pytest.fail(f"Monte Carlo disagreed three times on pair {pair_index}")

        discrete = brute_force_discrete(cfg_discrete, s1, s2)
        assert abs(float(discrete.value) - exact) <= 5e-3, pair_index
    assert time.perf_counter() - start < 120.0
    _report(8, "analytic / Monte Carlo / discrete cross-validation")


def test_criterion_9_engine_conformance():
    """Every settlement sub-case over bet pairs x card orderings."""
    high, low = BetAction.HIGH, BetAction.LOW
    lo, hi = Card(0.3), Card(0.8)
    tie = Card(0.5)
    a, b = Fraction(2), Fraction(1)
    table = [
        # both High: higher card nets +a, tie replays
        ((hi, lo, high, high), Settlement(1, a)),
        ((lo, hi, high, high), Settlement(2, a)),
        ((tie, tie, high, high), Settlement(None, None)),
        # both Low: higher card nets +b, tie replays
        ((hi, lo, low, low), Settlement(1, b)),
        ((lo, hi, low, low), Settlement(2, b)),
        ((tie, tie, low, low), Settlement(None, None)),
        # mismatched: the High bettor nets +b regardless of the cards
        ((hi, lo, high, low), Settlement(1, b)),
        ((lo, hi, high, low), Settlement(1, b)),
        ((tie, tie, high, low), Settlement(1, b)),
        ((hi, lo, low, high), Settlement(2, b)),
        ((lo, hi, low, high), Settlement(2, b)),
        ((tie, tie, low, high), Settlement(2, b)),
    ]
    for (c1, c2, b1, b2), want in table:
        assert settle(CFG, c1, c2, b1, b2) == want, (c1, c2, b1, b2)
    _report(9, "engine settlement conformance")
