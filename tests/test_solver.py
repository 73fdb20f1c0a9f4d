"""Best response, exploitability, fictitious play, and the ratio sweep."""

from fractions import Fraction

import numpy as np
import pytest

from bluffsolve import solver
from bluffsolve.analytic import _ev_arrays, closed_form_equilibrium, expected_payoff
from bluffsolve.engine import GameConfig
from bluffsolve.montecarlo import simulate
from bluffsolve.solver import best_response, exploitability, fictitious_play, ratio_sweep
from bluffsolve.strategy import Strategy, a_type, b_type, threshold_mix

from .oracles import quad_payoff, random_strategy

CFG = GameConfig(2, 1)
SIGMA = threshold_mix(0.5, 1 / 3)


class TestBestResponse:
    def test_vs_always_low(self):
        # ev_high = b everywhere beats ev_low = b(2v-1): always bet High.
        result = best_response(CFG, b_type())
        assert set(result.action_rule.high_prob) == {1.0}
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.value == pytest.approx(quad_payoff(CFG, result.action_rule, b_type()), abs=1e-8)

    def test_vs_always_high(self):
        # High beats Low exactly where a(2v-1) > -b, i.e. above v = 1/4.
        result = best_response(CFG, a_type())
        assert result.action_rule.breakpoints == (0.25,)
        assert result.action_rule.high_prob == (0.0, 1.0)
        assert result.value == pytest.approx(0.125, abs=1e-12)

    def test_vs_always_high_rule_verified_by_monte_carlo(self):
        rule = best_response(CFG, a_type()).action_rule
        est = simulate(CFG, rule, a_type(), hands=400_000, seed=11)
        assert abs(est.mean - 0.125) <= 4 * est.std_error

    def test_vs_equilibrium_value_zero(self):
        assert best_response(CFG, SIGMA).value == pytest.approx(0.0, abs=1e-9)

    def test_never_beaten_by_random_strategies(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            opponent = random_strategy(rng)
            br_value = best_response(CFG, opponent).value
            for _ in range(20):
                rival = random_strategy(rng)
                assert br_value >= expected_payoff(CFG, rival, opponent).value - 1e-10

    def test_rule_is_pure(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rule = best_response(CFG, random_strategy(rng)).action_rule
            assert set(rule.high_prob) <= {0.0, 1.0}


class TestBinnedResponse:
    """The solver's array response is the public best response, bit for bit."""

    @staticmethod
    def assert_matches_public(cfg, h):
        edges = solver._bin_edges(len(h))
        (breakpoints, high), value = solver._binned_response(
            float(cfg.high_bet), float(cfg.low_bet), edges, h
        )
        public = best_response(cfg, Strategy(tuple(edges[1:-1].tolist()), tuple(h.tolist())))
        assert tuple(breakpoints.tolist()) == public.action_rule.breakpoints
        assert tuple(high.tolist()) == public.action_rule.high_prob
        assert value == public.value

    @pytest.mark.parametrize("bins", [2, 16, 200])
    def test_random_curves(self, bins):
        rng = np.random.default_rng(bins)
        for ratio in (1.5, 2.0, 3.0):
            for _ in range(5):
                self.assert_matches_public(GameConfig(Fraction(ratio), 1), rng.random(bins))

    @pytest.mark.parametrize("bins", [2, 16, 200])
    @pytest.mark.parametrize("fill", [0.0, 1.0])
    def test_pure_curves(self, bins, fill):
        self.assert_matches_public(CFG, np.full(bins, fill))

    @pytest.mark.parametrize("bins", [2, 16, 200])
    def test_exact_gap_zeros_at_knots(self, bins):
        # h = p* below t* = 1/2: the EV gap vanishes on [0, t*], and in floats
        # exactly at some knots, where the tie rule decides the action.
        edges = solver._bin_edges(bins)
        h = np.where(edges[:-1] < 0.5, 1 / 3, 1.0)
        ev_high, ev_low = _ev_arrays(2.0, 1.0, edges, h)
        assert np.any(ev_high == ev_low)
        self.assert_matches_public(CFG, h)


class TestExploitability:
    def test_equilibrium_certificate(self):
        assert exploitability(CFG, SIGMA) <= 1e-9

    def test_pure_types(self):
        assert exploitability(CFG, b_type()) == pytest.approx(1.0, abs=1e-12)
        assert exploitability(CFG, a_type()) == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("exponent", [-305, -300, -200, -150, 0, 150, 300, 307])
    def test_scales_with_the_bets(self, exponent):
        # At tiny bets the product of two EV gaps underflows to zero, which
        # must not hide the sign change that places the best response's cut.
        scale = Fraction(10) ** exponent
        value = exploitability(GameConfig(2 * scale, scale), threshold_mix(0.5, 0.3))
        assert value >= 0.0
        expected = float(scale) * exploitability(CFG, threshold_mix(0.5, 0.3))
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert exploitability(CFG, random_strategy(rng)) >= -1e-12

    def test_maximin_guarantee_of_equilibrium(self):
        # The equilibrium strategy never loses in expectation, vs any opponent.
        rng = np.random.default_rng(3)
        for _ in range(200):
            rival = random_strategy(rng)
            assert expected_payoff(CFG, SIGMA, rival).value >= -1e-9

    def test_indifference_region_of_equilibrium(self):
        # Any pure rule that bets High above t* earns exactly the game value,
        # whatever it does below (20 random below-threshold completions).
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(0, 4))
            cuts = sorted(set(float(x) for x in rng.random(k) * 0.5 if 0.0 < x < 0.5))
            values = [float(rng.integers(0, 2)) for _ in range(len(cuts) + 1)]
            rule = Strategy(
                breakpoints=(*cuts, 0.5), high_prob=(*values, 1.0)
            )
            assert expected_payoff(CFG, rule, SIGMA).value == pytest.approx(0.0, abs=1e-10)


class TestFictitiousPlay:
    def test_two_bins_express_the_exact_equilibrium(self):
        # The bin edge at 0.5 can carry the equilibrium exactly; the solver
        # must find it to certificate precision.
        result = fictitious_play(CFG, bins=2, epsilon=1e-9, max_iters=3000)
        assert result.converged
        assert result.exploitability <= 1e-9
        below, above = result.strategy.high_prob
        assert below == pytest.approx(1 / 3, abs=1e-6)
        assert above == pytest.approx(1.0, abs=1e-9)

    def test_two_hundred_bins_at_ratio_two(self):
        result = fictitious_play(CFG, bins=200, epsilon=1e-3, max_iters=5000)
        assert result.converged
        assert result.exploitability <= 1e-3
        h = np.asarray(result.strategy.high_prob)
        edges = np.linspace(0.0, 1.0, 201)
        above = h[edges[:-1] >= 0.5]
        # h ~ 1 above the threshold; the bin touching 0.5 may stay slightly
        # mixed without hurting the certificate.
        assert np.mean(above) >= 0.98
        assert np.min(h[edges[:-1] > 0.51]) >= 0.99

    def test_recovers_generalized_equilibrium_at_ratio_three(self):
        cfg = GameConfig(3, 1)
        result = fictitious_play(cfg, bins=200, epsilon=1e-3, max_iters=5000)
        assert result.converged
        h = np.asarray(result.strategy.high_prob)
        edges = np.linspace(0.0, 1.0, 201)
        centers = (edges[:-1] + edges[1:]) / 2
        # Detected threshold: left edge of the top run of high-probability bins.
        high_bins = h >= 0.5
        idx = len(h) - 1
        while idx > 0 and high_bins[idx - 1]:
            idx -= 1
        detected_t = edges[idx]
        assert detected_t == pytest.approx(2 / 3, abs=0.05)
        below = h[centers < detected_t - 0.05]
        assert np.mean(below) == pytest.approx(0.25, abs=0.05)

    def test_trace_checkpoints_never_regress(self):
        result = fictitious_play(CFG, bins=50, epsilon=1e-6, max_iters=600)
        trace = result.trace
        assert trace[0][0] == 0
        # Best-so-far column is non-increasing by construction; the raw
        # running-average column may not regress beyond the slack either.
        for (_, raw0, best0), (_, raw1, best1) in zip(trace, trace[1:]):
            assert best1 <= best0 + 1e-15
            assert raw1 <= raw0 + 1e-6

    def test_result_strategy_matches_reported_exploitability(self):
        result = fictitious_play(CFG, bins=16, epsilon=1e-4, max_iters=800)
        assert exploitability(CFG, result.strategy) == result.exploitability

    @pytest.mark.parametrize("bins", [2, 8, 16])
    def test_every_certified_iterate_matches_the_public_certificate(self, monkeypatch, bins):
        # Both sequences and the trace's average are certified by
        # _binned_response; each value must be the public exploitability.
        respond = solver._binned_response
        certified = []

        def recording_response(a, b, edges, h):
            rule, value = respond(a, b, edges, h)
            certified.append((h.copy(), value))
            return rule, value

        monkeypatch.setattr(solver, "_binned_response", recording_response)
        result = fictitious_play(CFG, bins=bins, epsilon=1e-6, max_iters=300)
        # The start, two iterates per step, and the trace's averages.
        assert len(certified) >= 1 + 2 * (result.iterations - 1)
        interior = tuple(solver._bin_edges(bins)[1:-1].tolist())
        for h, value in certified:
            assert exploitability(CFG, Strategy(interior, tuple(h.tolist()))) == value
        assert any(value == result.exploitability for _, value in certified)

    @pytest.mark.parametrize(
        "ratio", [1.2, 2.1, 2.2, 2.4, 2.6, 2.7, 2.8, 2.9, 4.0, 10.0]
    )
    def test_converges_at_two_hundred_bins(self, ratio):
        # Fictitious play with golden-section polish did not converge at
        # ratios 2.1-2.9 within 5000 iterations.
        cfg = GameConfig(Fraction(ratio), 1)
        result = fictitious_play(cfg, bins=200, epsilon=1e-3, max_iters=5000)
        assert result.converged
        assert exploitability(cfg, result.strategy) == result.exploitability

    def test_non_convergence_is_reported_not_raised(self):
        result = fictitious_play(CFG, bins=200, epsilon=1e-15, max_iters=5)
        assert not result.converged
        assert result.exploitability > 1e-15
        assert result.iterations == 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fictitious_play(CFG, bins=1, epsilon=1e-3)
        with pytest.raises(ValueError):
            fictitious_play(CFG, bins=10, epsilon=0.0)
        with pytest.raises(ValueError):
            fictitious_play(CFG, bins=10, epsilon=float("nan"))
        with pytest.raises(ValueError):
            fictitious_play(CFG, bins=10, epsilon=1e-3, max_iters=0)
        with pytest.raises(ValueError):
            fictitious_play(GameConfig(2, 1, deck_size=5), bins=10, epsilon=1e-3)


class TestRatioSweep:
    def test_rows_match_closed_form_and_converge(self):
        # Coarse bins keep this fast; a 50-bin grid cannot express thresholds
        # off the 1/50 lattice better than ~1e-3, hence the looser epsilon
        # (the acceptance suite runs the full K=200, 1e-3 case).
        rows = ratio_sweep([1.5, 2.0, 3.0], bins=50, epsilon=5e-3, max_iters=1500)
        by_ratio = {row.ratio: row for row in rows}
        assert by_ratio[2.0].t_star == pytest.approx(0.5, abs=1e-12)
        assert by_ratio[2.0].p_star == pytest.approx(1 / 3, abs=1e-12)
        assert by_ratio[1.5].t_star == pytest.approx(1 / 3, abs=1e-12)
        assert by_ratio[1.5].p_star == pytest.approx(2 / 5, abs=1e-12)
        for row in rows:
            assert row.converged
            assert row.exploitability <= 5e-3

    def test_monotone_in_ratio(self):
        rows = ratio_sweep([1.2, 1.7, 2.5, 4.0], bins=2, epsilon=1e-2, max_iters=50)
        t = [row.t_star for row in rows]
        p = [row.p_star for row in rows]
        assert all(x < y for x, y in zip(t, t[1:]))
        assert all(x > y for x, y in zip(p, p[1:]))

    def test_rejects_ratio_at_or_below_one(self):
        with pytest.raises(ValueError):
            ratio_sweep([1.0], bins=2, epsilon=1e-2)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_rejects_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError, match="finite"):
            ratio_sweep([ratio], bins=2, epsilon=1e-2)
