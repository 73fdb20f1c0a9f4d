"""Closed-form payoff engine vs independent oracles, indifference solver,
equilibrium, and the strategy-type payoff table."""

import numpy as np
import pytest
from hypothesis import given, settings

from bluffsolve.analytic import (
    closed_form_equilibrium,
    conditional_evs,
    expected_payoff,
    indifference_bluff,
    indifference_threshold,
    taxonomy_table,
)
from bluffsolve.engine import GameConfig
from bluffsolve.strategy import Strategy, a_type, b_type, m_deterministic, threshold_mix

from .oracles import (
    quad_ev_high,
    quad_ev_low,
    quad_payoff,
    random_strategy,
    response_value,
    riemann_payoff,
)
from .test_strategy import strategies_

CFG = GameConfig(2, 1)
SIGMA = threshold_mix(0.5, 1 / 3)


class TestExpectedPayoff:
    def test_self_play_is_zero(self):
        assert expected_payoff(CFG, SIGMA, SIGMA).value == pytest.approx(0.0, abs=1e-12)

    def test_always_high_vs_always_low(self):
        result = expected_payoff(CFG, a_type(), b_type())
        assert result.value == 1.0
        assert result.hl == 1.0
        assert result.hh == result.ll == 0.0

    def test_threshold_vs_always_low(self):
        # Frozen from the independent oracles (Riemann sum and quadrature, run
        # before this engine existed): the exact value is b/4 at any ratio.
        value = expected_payoff(CFG, m_deterministic(0.5), b_type()).value
        assert value == pytest.approx(0.25, abs=1e-12)
        assert value == pytest.approx(riemann_payoff(CFG, m_deterministic(0.5), b_type()), abs=5e-3)
        assert value == pytest.approx(quad_payoff(CFG, m_deterministic(0.5), b_type()), abs=1e-9)

    def test_threshold_vs_always_high(self):
        # Frozen oracle value: 0 exactly at a = 2b.
        value = expected_payoff(CFG, m_deterministic(0.5), a_type()).value
        assert value == pytest.approx(0.0, abs=1e-12)
        assert value == pytest.approx(quad_payoff(CFG, m_deterministic(0.5), a_type()), abs=1e-9)

    def test_decomposition_sums_to_value(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s1, s2 = random_strategy(rng), random_strategy(rng)
            r = expected_payoff(CFG, s1, s2)
            assert r.value == pytest.approx(r.hh + r.hl + r.lh + r.ll, abs=1e-14)
            assert abs(r.value) <= float(CFG.high_bet) + 1e-12

    def test_skew_symmetry_200_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s1, s2 = random_strategy(rng), random_strategy(rng)
            fwd = expected_payoff(CFG, s1, s2).value
            rev = expected_payoff(CFG, s2, s1).value
            assert fwd == pytest.approx(-rev, abs=1e-12)

    def test_self_play_zero_for_random_strategies(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = random_strategy(rng)
            assert expected_payoff(CFG, s, s).value == pytest.approx(0.0, abs=1e-12)

    def test_agreement_with_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            s1, s2 = random_strategy(rng), random_strategy(rng)
            assert expected_payoff(CFG, s1, s2).value == pytest.approx(
                quad_payoff(CFG, s1, s2), abs=1e-8
            )

    def test_consistency_with_conditional_evs(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            s1, s2 = random_strategy(rng), random_strategy(rng)
            direct = expected_payoff(CFG, s1, s2).value
            via_evs = response_value(s1, conditional_evs(CFG, s2))
            assert direct == pytest.approx(via_evs, abs=1e-10)

    def test_rejects_discrete_model(self):
        with pytest.raises(ValueError, match="continuous"):
            expected_payoff(GameConfig(2, 1, deck_size=5), a_type(), b_type())

    @settings(max_examples=40, deadline=None)
    @given(strategies_(), strategies_())
    def test_skew_symmetry_property(self, s1, s2):
        assert expected_payoff(CFG, s1, s2).value == pytest.approx(
            -expected_payoff(CFG, s2, s1).value, abs=1e-12
        )


class TestConditionalEVs:
    def test_vs_always_high_closed_form(self):
        # Direct integration: ev_high(v) = a (2v - 1), ev_low(v) = -b.
        evs = conditional_evs(CFG, a_type())
        for v in (0.0, 0.2, 0.5, 0.8, 1.0):
            assert float(evs.ev_high(v)) == pytest.approx(2 * (2 * v - 1), abs=1e-12)
            assert float(evs.ev_low(v)) == pytest.approx(-1.0, abs=1e-12)

    def test_vs_always_low_closed_form(self):
        evs = conditional_evs(CFG, b_type())
        for v in (0.0, 0.3, 1.0):
            assert float(evs.ev_high(v)) == pytest.approx(1.0, abs=1e-12)
            assert float(evs.ev_low(v)) == pytest.approx(2 * v - 1, abs=1e-12)

    def test_indifference_below_equilibrium_threshold(self):
        evs = conditional_evs(CFG, SIGMA)
        grid = np.linspace(0.0, 0.5, 1001)[:-1]
        diff = np.asarray(evs.ev_high(grid)) - np.asarray(evs.ev_low(grid))
        assert np.max(np.abs(diff)) <= 1e-12

    def test_strict_preference_above_threshold(self):
        evs = conditional_evs(CFG, SIGMA)
        grid = np.linspace(0.5, 1.0, 1001)[1:]
        diff = np.asarray(evs.ev_high(grid)) - np.asarray(evs.ev_low(grid))
        assert np.min(diff) > 0.0

    def test_marginal_card_equality_at_t_star(self):
        evs = conditional_evs(CFG, SIGMA)
        assert abs(float(evs.ev_high(0.5)) - float(evs.ev_low(0.5))) <= 1e-15

    def test_matches_quadrature_oracle_pointwise(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            opp = random_strategy(rng)
            evs = conditional_evs(CFG, opp)
            for v in (0.13, 0.57, 0.92):
                assert float(evs.ev_high(v)) == pytest.approx(quad_ev_high(CFG, opp, v), abs=1e-9)
                assert float(evs.ev_low(v)) == pytest.approx(quad_ev_low(CFG, opp, v), abs=1e-9)

    def test_slopes_match_finite_differences_of_quadrature(self):
        """Per-piece slopes vs central differences of the defining integrals."""
        opp = threshold_mix(0.4, 0.25)
        evs = conditional_evs(CFG, opp)
        a, b = 2.0, 1.0
        for lo, hi in ((0.0, 0.4), (0.4, 1.0)):
            v0 = lo + (hi - lo) * 0.25
            v1 = lo + (hi - lo) * 0.75
            h = opp.high_probability((v0 + v1) / 2)
            slope_high = (quad_ev_high(CFG, opp, v1) - quad_ev_high(CFG, opp, v0)) / (v1 - v0)
            slope_low = (quad_ev_low(CFG, opp, v1) - quad_ev_low(CFG, opp, v0)) / (v1 - v0)
            exact_high = (float(evs.ev_high(v1)) - float(evs.ev_high(v0))) / (v1 - v0)
            exact_low = (float(evs.ev_low(v1)) - float(evs.ev_low(v0))) / (v1 - v0)
            assert slope_high == pytest.approx(exact_high, rel=1e-6)
            assert slope_low == pytest.approx(exact_low, rel=1e-6)
            # The analytic slopes themselves: 2 a h and 2 b (1 - h).
            assert exact_high == pytest.approx(2 * a * h, rel=1e-12)
            assert exact_low == pytest.approx(2 * b * (1 - h), rel=1e-12)

    def test_difference_slope_identity(self):
        # slope(ev_high - ev_low) = 2 a h - 2 b (1 - h) on each opponent piece
        rng = np.random.default_rng(6)
        for _ in range(10):
            opp = random_strategy(rng)
            evs = conditional_evs(CFG, opp)
            knots = evs.ev_high.knots
            d = np.subtract(evs.ev_high.values, evs.ev_low.values)
            d_slopes = np.diff(d) / np.diff(knots)
            for (lo, hi), slope in zip(zip(knots[:-1], knots[1:]), d_slopes):
                h = opp.high_probability((lo + hi) / 2)
                assert slope == pytest.approx(2 * 2.0 * h - 2 * 1.0 * (1 - h), abs=1e-9)


class TestIndifferenceSolver:
    def test_default_ratio_point(self):
        assert indifference_threshold(1 / 3, 2.0) == pytest.approx(0.5, abs=1e-12)
        assert indifference_bluff(2.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_no_bluffing_pushes_threshold_to_one(self):
        assert indifference_threshold(0.0, 2.0) == 1.0

    def test_generalized_ratio_three(self):
        t = indifference_threshold(0.25, 3.0)
        assert t == pytest.approx(2 / 3, abs=1e-12)
        # Verify both sides of the defining equality (ratio-1)(1-t) = (ratio+1) t p.
        assert (3 - 1) * (1 - t) == pytest.approx((3 + 1) * t * 0.25, abs=1e-12)
        assert indifference_bluff(3.0) == pytest.approx(0.25, abs=1e-15)

    def test_bluff_limit_toward_equal_bets(self):
        assert indifference_bluff(1 + 1e-9) == pytest.approx(0.5, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            indifference_bluff(1.0)
        with pytest.raises(ValueError):
            indifference_threshold(0.5, 0.9)
        with pytest.raises(ValueError):
            indifference_threshold(1.5, 2.0)


class TestEquilibrium:
    def test_default_configuration(self):
        point = closed_form_equilibrium(CFG)
        assert point.t_star == pytest.approx(0.5, abs=1e-12)
        assert point.p_star == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "a,b,t,p",
        [(3, 1, 2 / 3, 1 / 4), (1.5, 1, 1 / 3, 2 / 5), (4, 1, 3 / 4, 1 / 5)],
    )
    def test_generalized_ratios(self, a, b, t, p):
        point = closed_form_equilibrium(GameConfig(a, b))
        assert point.t_star == pytest.approx(t, abs=1e-12)
        assert point.p_star == pytest.approx(p, abs=1e-12)

    def test_equilibrium_strategy_is_indifference_fixed_point(self):
        for a in (2, 3, 1.5):
            cfg = GameConfig(a, 1)
            point = closed_form_equilibrium(cfg)
            evs = conditional_evs(cfg, threshold_mix(point.t_star, point.p_star))
            grid = np.linspace(0.0, point.t_star, 400)[:-1]
            diff = np.asarray(evs.ev_high(grid)) - np.asarray(evs.ev_low(grid))
            assert np.max(np.abs(diff)) <= 1e-12


class TestTaxonomy:
    def test_table_values(self):
        table = taxonomy_table(CFG)
        # Frozen oracle values at a=2, b=1 (Riemann/Monte Carlo, see
        # TestExpectedPayoff for the oracle runs): diagonal zero, E(a|b) = +1,
        # E(m|b) = +1/4, E(m|a) = 0, antisymmetric completions.
        for key in "abm":
            assert table[key][key].value == pytest.approx(0.0, abs=1e-12)
        assert table["a"]["b"].value == pytest.approx(1.0, abs=1e-12)
        assert table["m"]["b"].value == pytest.approx(0.25, abs=1e-12)
        assert table["m"]["a"].value == pytest.approx(0.0, abs=1e-12)
        assert table["b"]["m"].value == pytest.approx(-0.25, abs=1e-12)

    def test_antisymmetry(self):
        table = taxonomy_table(CFG)
        for row in "abm":
            for col in "abm":
                assert table[row][col].value == pytest.approx(
                    -table[col][row].value, abs=1e-12
                )

    def test_matches_riemann_oracle(self):
        table = taxonomy_table(CFG)
        players = {"a": a_type(), "b": b_type(), "m": m_deterministic(0.5)}
        for row in "abm":
            for col in "abm":
                oracle = riemann_payoff(CFG, players[row], players[col])
                assert table[row][col].value == pytest.approx(oracle, abs=5e-3)
