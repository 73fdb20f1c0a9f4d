"""Best response, exploitability, fictitious play, and the ratio sweep."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bluffsolve import solver
from bluffsolve.analytic import (
    _ev_arrays,
    closed_form_equilibrium,
    conditional_evs,
    expected_payoff,
)
from bluffsolve.engine import ConfigError, GameConfig
from bluffsolve.montecarlo import simulate
from bluffsolve.solver import best_response, exploitability, fictitious_play, ratio_sweep
from bluffsolve.strategy import (
    Strategy,
    a_type,
    b_type,
    merge_breakpoints,
    probabilities_on,
    threshold_mix,
)

from .oracles import (
    exploitability_exact,
    quad_payoff,
    random_strategy,
    response_gradient_exact,
)

CFG = GameConfig(2, 1)
SIGMA = threshold_mix(0.5, 1 / 3)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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

    def test_ties_bet_high(self):
        # The opponent is dyadic, so ev_high - ev_low is exactly 0 on [0, 1/2],
        # and betting Low there would earn the same value.
        result = best_response(GameConfig(3, 1), Strategy((0.5, 0.75), (0.25, 0.5, 1.0)))
        assert (result.action_rule, result.value) == (a_type(), 0.03125)

    def test_roots_rounded_onto_a_knot_add_no_cut(self):
        # The exact EV gap touches 0 at the knot 11/16, from above on both
        # sides; rounding leaves it at -2**-54 there. The roots of both
        # crossings round onto the knot, so they add no cut and the rule bets
        # High throughout. Kept, they would cut at the knot twice.
        opponent = Strategy((0.6875, 0.9375), (0.0, 0.75, 1 / 3))
        evs = conditional_evs(CFG, opponent)
        assert evs.ev_high(0.6875) - evs.ev_low(0.6875) == -(2.0**-54)
        result = best_response(CFG, opponent)
        assert result.action_rule == a_type()
        assert result.value == expected_payoff(CFG, a_type(), opponent).value

    def test_unit_bets_lower_k_for_a_tiny_high_mass(self):
        # The curve's High mass is about b / 2**frexp(a)[1]; the EV gap keeps
        # its last bits only at the lowered k, where b / 2**k is normal.
        cfg = GameConfig(8.006140758047351e307, 0.7)
        opponent = Strategy((), (2.2e-308,))
        result = best_response(cfg, opponent)
        assert result.action_rule == Strategy((0.1702316095635978,), (0.0, 1.0))
        assert result.value == 0.7307566783453451 == float(exploitability_exact(cfg, opponent))

    def test_rule_is_pure(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rule = best_response(CFG, random_strategy(rng)).action_rule
            assert set(rule.high_prob) <= {0.0, 1.0}


class TestBinnedResponse:
    """The solver's array response is the public best response, bit for bit."""

    @staticmethod
    def assert_matches_public(cfg, h):
        edges = np.linspace(0.0, 1.0, len(h) + 1)
        response = solver._binned_response(float(cfg.high_bet), float(cfg.low_bet), edges, h)
        breakpoints, high = response.rule
        public = best_response(cfg, Strategy(tuple(edges[1:-1].tolist()), tuple(h.tolist())))
        assert tuple(breakpoints.tolist()) == public.action_rule.breakpoints
        assert tuple(high.tolist()) == public.action_rule.high_prob
        assert response.value == public.value

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
        edges = np.linspace(0.0, 1.0, bins + 1)
        h = np.where(edges[:-1] < 0.5, 1 / 3, 1.0)
        ev_high, ev_low = _ev_arrays(2.0, 1.0, np.diff(edges), h)
        assert np.any(ev_high == ev_low)
        self.assert_matches_public(CFG, h)


#: The unit roundoff of a double.
U = Fraction(2) ** -53


def unit_bets(ratio):
    _, a, b = solver._unit_bets(ratio, 1.0)
    return a, b


def kernel_curves(bins, seed):
    """Random curves at ratios 1.1-10, both pure curves, and h = p* below t*."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.0, 1.0, bins + 1)
    for ratio in (1.1, 1.5, 2.0, 3.0, 6.5, 10.0):
        yield ratio, rng.random(bins)
    yield 2.0, np.zeros(bins)
    yield 2.0, np.ones(bins)
    yield 2.0, np.where(edges[:-1] < 0.5, 1 / 3, 1.0)


class TestScores:
    """The solver's closed-form scores against exact rational oracles."""

    @pytest.mark.parametrize("bins", [2, 16, 200, 1000])
    def test_value_within_a_rounding_bound_of_the_exact_oracle(self, bins):
        edges = np.linspace(0.0, 1.0, bins + 1)
        interior = tuple(edges[1:-1].tolist())
        for ratio, h in kernel_curves(bins, bins):
            a, b = unit_bets(ratio)
            value = solver._scores(a, b, edges, h).value
            exact = exploitability_exact(GameConfig(a, b), Strategy(interior, tuple(h.tolist())))
            assert value >= 0.0
            assert abs(Fraction(float(value)) - exact) <= 128 * bins * U * Fraction(a), ratio

    @pytest.mark.parametrize("bins", [2, 16, 200])
    def test_gap_is_exactly_zero_at_some_knots_below_t_star(self, bins):
        # h = p* below t* = 1/2, a curve of the value test: the EV gap
        # vanishes on [0, t*], and in floats exactly at some knots.
        edges = np.linspace(0.0, 1.0, bins + 1)
        h = np.where(edges[:-1] < 0.5, 1 / 3, 1.0)
        assert np.any(solver._scores(*unit_bets(2.0), edges, h).gap == 0.0)

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
        st.floats(1 + 2**-20, 1e300),
    )
    @example(h=[5e-324, 1.0, 0.0], ratio=1e300)
    def test_value_is_never_negative(self, h, ratio):
        edges = np.linspace(0.0, 1.0, len(h) + 1)
        scores = solver._scores(*unit_bets(ratio), edges, np.array(h))
        assert scores.value >= 0.0

    @pytest.mark.parametrize("bins", [2, 16, 200, 1000])
    def test_each_row_of_a_stack_has_the_bits_of_a_single_curve(self, bins):
        edges = np.linspace(0.0, 1.0, bins + 1)
        rng = np.random.default_rng(bins)
        for ratio in (1.1, 2.0, 10.0):
            a, b = unit_bets(ratio)
            stack = rng.random((3, bins))
            stacked = solver._scores(a, b, edges, stack)
            for row, h in enumerate(stack):
                single = solver._scores(a, b, edges, h.copy())
                for field, value in zip(single._fields, single):
                    assert np.array_equal(getattr(stacked, field)[row], value), field

    @pytest.mark.parametrize("bins", [2, 16, 200, 1000])
    def test_gradient_within_a_rounding_bound_of_the_exact_integral(self, bins):
        # The bound follows the kernel's operations at the unit bets, b < a < 1:
        # - the EV gap at the edges is off by at most eps = 16 K u a: two
        #   prefix sums of K terms whose total is at most 1, times a + b < 2a,
        #   plus a few roundings;
        # - in bin j the response's High length moves by at most
        #   delta_j = w min(1, 4 eps / |d1 - d0|) + 4 u w where an end of the
        #   exact gap lies within eps of 0 or the gap crosses 0, and not at
        #   all elsewhere;
        # - a High length moved by delta moves the gap against the response
        #   by at most 3 (a + b) delta < 6 a delta everywhere;
        # - the gap against the response is off by eps again, and its
        #   integral per bin by w eps, with the kink term's roundings.
        edges = np.linspace(0.0, 1.0, bins + 1)
        widths = [Fraction(w) for w in np.diff(edges)]
        for ratio, h in kernel_curves(bins, bins + 1):
            a, b = unit_bets(ratio)
            gradient = solver._scores(a, b, edges, h).gradient
            exact, gap = response_gradient_exact(a, b, edges, h)
            eps = 16 * bins * U * Fraction(a)
            moved = Fraction(0)
            for w, d0, d1 in zip(widths, gap, gap[1:]):
                if min(abs(d0), abs(d1)) <= eps or (d0 > 0) != (d1 > 0):
                    spread = abs(d1 - d0)
                    moved += w * (1 if spread <= 4 * eps else 4 * eps / spread) + 4 * U * w
            for i, (w, value, g) in enumerate(zip(widths, exact, gradient.tolist())):
                bound = w * (2 * eps + 6 * Fraction(a) * moved)
                assert abs(Fraction(g) - value) <= bound, (ratio, i)


class TestExploitability:
    def test_equilibrium_certificate(self):
        assert exploitability(CFG, SIGMA) <= 1e-9

    def test_pure_types(self):
        assert exploitability(CFG, b_type()) == pytest.approx(1.0, abs=1e-12)
        assert exploitability(CFG, a_type()) == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize(
        "scale",
        [
            *(
                pytest.param(Fraction(10) ** e, id=str(e))
                for e in (-305, -300, -200, -150, 0, 150, 300, 307)
            ),
            pytest.param(Fraction(5 * 10**307), id="5e307"),
        ],
    )
    def test_scales_with_the_bets(self, scale):
        # At tiny bets the product of two EV gaps underflows to zero, which
        # must not hide the sign change that places the best response's cut;
        # near the float maximum the gap a + b itself would overflow.
        value = exploitability(GameConfig(2 * scale, scale), threshold_mix(0.5, 0.3))
        assert value >= 0.0
        expected = float(scale) * exploitability(CFG, threshold_mix(0.5, 0.3))
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    @settings(max_examples=100)
    @given(
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
        st.floats(1 + 2**-20, 1e3),
        st.floats(1e-300, 1e300),
    )
    # Ratios near the float maximum, where the EV gap spans a + b.
    @example(pieces=8, seed=0, ratio=1e308, scale=1.0)
    @example(pieces=8, seed=1, ratio=9e307, scale=1.1e-308)
    def test_matches_the_exact_oracle(self, pieces, seed, ratio, scale):
        rng = np.random.default_rng(seed)
        breakpoints = np.unique(rng.random(pieces - 1))
        breakpoints = breakpoints[breakpoints > 0.0]
        s = Strategy(tuple(breakpoints.tolist()), tuple(rng.random(len(breakpoints) + 1).tolist()))
        cfg = GameConfig(ratio * scale, scale)
        exact = exploitability_exact(cfg, s)
        value = exploitability(cfg, s)
        assert value >= 0.0
        bound = 64 * len(s.high_prob) * Fraction(2) ** -52 * cfg.high_bet
        assert abs(Fraction(value) - exact) <= bound
        # The oracle is exact, so it scales with the bets exactly.
        assert exact == cfg.low_bet * exploitability_exact(GameConfig(cfg.ratio, 1), s)

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
        # Best-so-far column is non-increasing by construction, and the
        # lower bound never exceeds it.
        for (_, _, best0), (_, _, best1) in zip(trace, trace[1:]):
            assert best1 <= best0 + 1e-15
        for _, lower, best in trace:
            assert lower <= best

    def test_result_strategy_matches_reported_exploitability(self):
        result = fictitious_play(CFG, bins=16, epsilon=1e-4, max_iters=800)
        assert exploitability(CFG, result.strategy) == result.exploitability

    @pytest.mark.parametrize(
        ("ratio", "iterations", "value", "strategy_sha", "trace_sha"),
        [
            pytest.param(*run, id=str(run[0]))
            for run in [
                (
                    1.5,
                    16,
                    "0.0009354260677836117",
                    "386b361ed23af58e79b37d9508626d80c74bf67d90f6f2e77363593900362f70",
                    "2257a80fc9ab795c655d7198ace861518377c6adbbd99a0fe6b6417d35b09613",
                ),
                (
                    2.0,
                    29,
                    "0.0008051425313142825",
                    "9d92a1f25153311f10708ab327026e7e8c8d5d900382200906441b7f32f8055e",
                    "80ec1a01cb3eb0bdc5132a0e16fae9a239bbab8ab4cee885aeb350d244911b3b",
                ),
                (
                    3.0,
                    51,
                    "0.0009166109252243121",
                    "dede60725170aed174752bb1af8d1abbaf31e15ba0d733e2e0d13adba6bee935",
                    "113ae79fbbc56140ec567a3844afe2d62f9107aa5ba164cb3e500933340d5c9f",
                ),
            ]
        ],
    )
    def test_pinned_two_hundred_bin_runs(self, ratio, iterations, value, strategy_sha, trace_sha):
        # Pinned bit for bit, the returned curve and the trace included: a
        # change to the search's arithmetic, or to the order of its
        # operations, moves these.
        result = fictitious_play(GameConfig(Fraction(ratio), 1), bins=200, epsilon=1e-3)
        assert (result.iterations, repr(result.exploitability)) == (iterations, value)
        digests = (sha256(repr(result.strategy)), sha256(repr(result.trace)))
        assert digests == (strategy_sha, trace_sha)

    def test_same_bits_on_every_blas_kernel(self):
        # A DYNAMIC_ARCH OpenBLAS picks its kernel from the CPU, and
        # OPENBLAS_CORETYPE overrides the pick for one process. Prescott runs
        # on any x86-64; Haswell is what Zen machines get. A float product
        # through BLAS sums in a different order on each, and moves the step
        # count of this run. Where numpy's OpenBLAS is not DYNAMIC_ARCH, or
        # its BLAS is not OpenBLAS, the variable has no effect and the runs
        # agree trivially.
        script = (
            "from fractions import Fraction\n"
            "from bluffsolve.engine import GameConfig\n"
            "from bluffsolve.solver import fictitious_play\n"
            "r = fictitious_play(GameConfig(Fraction(3), 1), bins=200, epsilon=1e-3)\n"
            "print(r.iterations, repr(r.exploitability), repr(r.strategy), repr(r.trace))\n"
        )
        path = [str(Path(solver.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        digests = []
        for core in ("Prescott", "Haswell"):
            env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": os.pathsep.join(path)}
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.append((core, sha256(done.stdout)))
        assert digests[0][1] == digests[1][1], digests

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0])
    def test_scale_equivariant(self, ratio):
        # Scaling both bets by 2**k scales every payoff exactly, so the
        # search must take the same steps, and its trace must scale exactly;
        # near the float range's ends the Polyak step's |g|^2, and at 2**1022
        # the EV gap, would overflow or underflow at the true bets.
        base = fictitious_play(GameConfig(Fraction(ratio), 1), bins=16, epsilon=1e-4, max_iters=300)
        for k in (-1000, -700, -500, 0, 500, 700, 1000, 1021, 1022):
            scale = Fraction(2) ** k
            cfg = GameConfig(Fraction(ratio) * scale, scale)
            result = fictitious_play(cfg, bins=16, epsilon=1e-4, max_iters=300)
            assert (k, result.iterations, result.strategy) == (k, base.iterations, base.strategy)
            assert (k, math.ldexp(result.exploitability, -k)) == (k, base.exploitability)
            trace = [(step, math.ldexp(lower, -k), math.ldexp(best, -k))
                     for step, lower, best in result.trace]
            assert (k, trace) == (k, list(base.trace))

    def test_final_checkpoint_is_certified_once(self, monkeypatch):
        # The best iterate at the start and at steps 50 and 100; no score
        # comes within epsilon, and the run ends on a checkpoint, which is
        # not redone.
        respond = solver._binned_response
        calls = []

        def counting_response(*args):
            calls.append(None)
            return respond(*args)

        monkeypatch.setattr(solver, "_binned_response", counting_response)
        result = fictitious_play(CFG, bins=16, epsilon=1e-15, max_iters=100)
        assert not result.converged
        assert len(calls) == 3
        assert [step for step, _, _ in result.trace] == [0, 50, 100]

    @pytest.mark.parametrize("bins", [2, 8, 16])
    def test_every_certified_iterate_matches_the_public_certificate(self, monkeypatch, bins):
        # The best iterate is certified by _binned_response; each value must
        # be the public exploitability. The two iterates of every step are
        # scored in closed form at the unit bets; each score must lie within
        # the rounding bound of the exact oracle.
        respond, score = solver._binned_response, solver._scores
        certified, scored = [], []

        def recording_response(a, b, edges, h):
            response = respond(a, b, edges, h)
            certified.append((h.copy(), response.value))
            return response

        def recording_scores(a, b, edges, h):
            scores = score(a, b, edges, h)
            scored.extend((a, b, curve.copy(), value) for curve, value in zip(h, scores.value))
            return scores

        monkeypatch.setattr(solver, "_binned_response", recording_response)
        monkeypatch.setattr(solver, "_scores", recording_scores)
        result = fictitious_play(CFG, bins=bins, epsilon=1e-6, max_iters=300)
        # The start and each step score the two curves in one call.
        assert len(scored) == 2 * (1 + result.iterations)
        interior = tuple(np.linspace(0.0, 1.0, bins + 1)[1:-1].tolist())
        for h, value in certified:
            assert exploitability(CFG, Strategy(interior, tuple(h.tolist()))) == value
        assert any(value == result.exploitability for _, value in certified)
        for a, b, h, value in scored:
            exact = exploitability_exact(GameConfig(a, b), Strategy(interior, tuple(h.tolist())))
            assert abs(Fraction(float(value)) - exact) <= 128 * bins * U * Fraction(a)

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

    @pytest.mark.parametrize(
        ("ratio", "upper", "lower"),
        [
            pytest.param(1.5, 0.040450849718747475, 0.04042, id="1.5"),
            pytest.param(3.0, 0.0781251, 0.07812, id="3.0"),
        ],
    )
    def test_unreachable_two_bin_runs_keep_their_values(self, ratio, upper, lower):
        # No 2-bin curve reaches 1e-6 at these ratios: the best 2-bin values
        # are 0.0404508 and 0.078125, with the LP lower bounds 0.04042 and
        # 0.07812 (ROADMAP item 4). The box-constrained step overshoots a
        # target of 0 that lies this far below the optimum, so the CFR-BR
        # sequence must reach these values; its lower bound must lie between
        # the LP bound and the returned value.
        result = fictitious_play(GameConfig(Fraction(ratio), 1), bins=2, epsilon=1e-6)
        assert not result.converged
        assert lower <= result.exploitability <= upper
        assert lower <= result.trace[-1][1] <= result.exploitability

    def test_zero_min_norm_step_leaves_the_curve(self):
        # At ratio 1.3 and 2 bins the gradient at always-High is negative in
        # both bins, so the min-norm element of g + N(z) is 0 and the
        # box-constrained step must be skipped, not divided by 0.
        cfg = GameConfig(Fraction(13, 10), 1)
        edges = np.linspace(0.0, 1.0, 3)
        gradient = solver._scores(*unit_bets(1.3), edges, np.ones(2)).gradient
        assert np.all(gradient < 0.0)
        result = fictitious_play(cfg, bins=2, epsilon=1e-6, max_iters=50)
        assert (result.iterations, result.exploitability) == (50, 0.01730769230769233)

    @pytest.mark.parametrize("ratio", [2, 3])
    def test_converges_at_a_thousand_bins(self, ratio):
        cfg = GameConfig(ratio, 1)
        result = fictitious_play(cfg, bins=1000, epsilon=1e-4, max_iters=5000)
        assert result.converged
        assert result.exploitability <= 1e-4

    def test_non_convergence_is_reported_not_raised(self):
        result = fictitious_play(CFG, bins=200, epsilon=1e-15, max_iters=5)
        assert not result.converged
        assert result.exploitability > 1e-15
        assert result.iterations == 5

    def test_one_step_is_the_smallest_budget(self):
        result = fictitious_play(CFG, bins=8, epsilon=1e-15, max_iters=1)
        assert not result.converged
        assert result.iterations == 1

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

    def test_rejects_non_finite_epsilon(self):
        # Every exploitability is within an infinite epsilon, so the search
        # would stop at once and report convergence.
        with pytest.raises(ValueError, match="finite"):
            fictitious_play(CFG, bins=10, epsilon=float("inf"))


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

    def test_every_ratio_is_checked_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a ratio was solved before all were checked")

        monkeypatch.setattr(solver, "fictitious_play", no_solve)
        with pytest.raises(ConfigError, match="finite"):
            ratio_sweep([2.0, 3.0, float("nan")], bins=2, epsilon=1e-2)
