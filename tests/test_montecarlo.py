"""Monte Carlo estimator and the exact discrete-deck oracle."""

import concurrent.futures
import dataclasses
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from bluffsolve.analytic import expected_payoff
from bluffsolve import montecarlo
from bluffsolve.engine import ConfigError, GameConfig
from bluffsolve.montecarlo import (
    DEFAULT_CHUNK_SIZE,
    MCEstimate,
    brute_force_discrete,
    convergence_report,
    simulate,
)
from bluffsolve.strategy import a_type, b_type, m_deterministic, threshold_mix

from .oracles import (
    brute_force_reference,
    enumerate_discrete,
    random_strategy,
    simulate_reference,
)

CFG = GameConfig(2, 1)
SIGMA = threshold_mix(0.5, 1 / 3)


class TestSimulate:
    def test_constant_payoff_has_zero_error(self):
        est = simulate(CFG, a_type(), b_type(), hands=5000, seed=0)
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert est.replay_rate == 0.0

    def test_self_play_mean_near_zero(self):
        est = simulate(CFG, SIGMA, SIGMA, hands=1_000_000, seed=1)
        assert abs(est.mean) <= 3 * est.std_error

    def test_matches_analytic_value(self):
        est = simulate(CFG, m_deterministic(0.5), b_type(), hands=1_000_000, seed=2)
        assert abs(est.mean - 0.25) <= 3 * est.std_error

    def test_agreement_with_analytic_random_pairs(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            s1, s2 = random_strategy(rng), random_strategy(rng)
            exact = expected_payoff(CFG, s1, s2).value
            est = simulate(CFG, s1, s2, hands=200_000, seed=seed)
            assert abs(est.mean - exact) <= 4 * max(est.std_error, 1e-12)

    def test_bit_identical_for_fixed_seed_and_chunking(self):
        args = (CFG, SIGMA, SIGMA)
        a = simulate(*args, hands=300_000, seed=9, chunk_size=1 << 16)
        b = simulate(*args, hands=300_000, seed=9, chunk_size=1 << 16)
        assert a == b

    def test_chunk_size_is_part_of_the_contract(self):
        est = simulate(CFG, SIGMA, SIGMA, hands=10_000, seed=4, chunk_size=1234)
        assert est.chunk_size == 1234
        assert est.seed == 4

    def test_discrete_replay_rate(self):
        cfg = GameConfig(2, 1, deck_size=2)
        est = simulate(cfg, a_type(), a_type(), hands=100_000, seed=6)
        # Equal cards (probability 1/2) always replay under equal bets.
        assert est.replay_rate == pytest.approx(0.5, abs=0.01)
        assert abs(est.mean) <= 4 * est.std_error

    def test_single_hand(self):
        est = simulate(CFG, a_type(), b_type(), hands=1, seed=7)
        assert est == MCEstimate(
            mean=1.0, std_error=0.0, hands=1, seed=7, replay_rate=0.0,
            chunk_size=est.chunk_size,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate(CFG, SIGMA, SIGMA, hands=0, seed=0)
        with pytest.raises(ValueError):
            simulate(CFG, SIGMA, SIGMA, hands=10, seed=0, chunk_size=0)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            simulate(GameConfig(2, 1, deck_size=2**53 + 1), SIGMA, SIGMA, hands=10, seed=0)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_scales_with_the_bets(self, k):
        # Scaling both bets by 2**k scales every payoff exactly; a squared
        # bet at the true bets would overflow or underflow.
        s1, s2, scale = a_type(), threshold_mix(0.5, 0.3), Fraction(2) ** k
        base = simulate(GameConfig(3, 2), s1, s2, hands=10_000, seed=1)
        scaled = simulate(GameConfig(3 * scale, 2 * scale), s1, s2, hands=10_000, seed=1)
        assert scaled == MCEstimate(
            mean=math.ldexp(base.mean, k),
            std_error=math.ldexp(base.std_error, k),
            hands=base.hands,
            seed=base.seed,
            replay_rate=base.replay_rate,
            chunk_size=base.chunk_size,
        )
        assert base.std_error > 0.0

    @pytest.mark.parametrize("high, k", [(1.0, -1020), (1e308, 0)])
    def test_hands_that_pay_only_the_low_bet(self, high, k):
        # Both bet Low, so every hand pays +-b whatever a is. At the bets
        # scaled by the high bet, the mean (about b/100) would be subnormal.
        low = math.ldexp(1.1, k)
        est = simulate(GameConfig(high, low), b_type(), b_type(), hands=1000, seed=1)
        base = simulate(GameConfig(3, 1.1), b_type(), b_type(), hands=1000, seed=1)
        scaled = dict(mean=math.ldexp(base.mean, k), std_error=math.ldexp(base.std_error, k))
        assert est == dataclasses.replace(base, **scaled)

    def test_chunk_size_does_not_size_the_seat_tables(self):
        # A table entry per card of this deck would take 8 PB a seat.
        cfg = GameConfig(2, 1, deck_size=10**15)
        est = simulate(cfg, a_type(), b_type(), hands=1, seed=0, chunk_size=10**15)
        assert est.mean == 1.0
        assert est.chunk_size == 10**15


class TestCountedKernel:
    """``simulate`` tallies outcome classes; the reference sums payoff arrays."""

    @pytest.mark.parametrize("chunk_size", [1234, DEFAULT_CHUNK_SIZE])
    @pytest.mark.parametrize(
        "deck, grid, breakpoints",
        # Breakpoints on the grid i/(M-1) put cards exactly on them; M = 5001
        # exceeds the table's cells, so it looks pieces up in a cell table
        # over i/(M-1). The grid 1/4096 puts breakpoints on the continuous
        # deck's cell edges; thousands of breakpoints split thousands of cells.
        # The ids end in "False", as they did when a seat-swapped run of
        # each case (ids ending in "True") ran beside it.
        [
            pytest.param(None, None, 6, id="None-None-False"),
            pytest.param(None, 4096, 6, id="None-4096-False"),
            pytest.param(None, None, 8000, id="None-dense-False"),
            pytest.param(2, None, 6, id="2-None-False"),
            pytest.param(11, 10, 6, id="11-10-False"),
            pytest.param(1001, 1000, 6, id="1001-1000-False"),
            pytest.param(5001, 1000, 6, id="5001-1000-False"),
        ],
    )
    def test_matches_payoff_array_reference(self, deck, grid, breakpoints, chunk_size):
        rng = np.random.default_rng([deck or 0, chunk_size])
        cfg = GameConfig(2, 1, deck_size=deck)
        s1, s2 = (random_strategy(rng, breakpoints, grid=grid) for _ in range(2))
        hands = 10_001 if chunk_size == 1234 else chunk_size + 70_001
        args = (cfg, s1, s2)
        kwargs = dict(hands=hands, seed=deck or 1, chunk_size=chunk_size)
        assert simulate(*args, **kwargs) == simulate_reference(*args, **kwargs)

    @pytest.mark.parametrize("deck", [None, 2, 11])
    def test_single_hand_matches_reference(self, deck):
        cfg = GameConfig(2, 1, deck_size=deck)
        for seed in range(20):
            assert simulate(cfg, SIGMA, SIGMA, hands=1, seed=seed) == simulate_reference(
                cfg, SIGMA, SIGMA, hands=1, seed=seed
            )

    def test_one_hand_chunks_match_reference(self):
        # Five chunks of one hand each, on five jumped streams.
        args = (GameConfig(2, 1, deck_size=11), SIGMA, m_deterministic(0.3))
        kwargs = dict(hands=5, seed=3, chunk_size=1)
        assert simulate(*args, **kwargs) == simulate_reference(*args, **kwargs)

    def test_a_chunk_in_which_no_deal_settles_raises(self, monkeypatch):
        blocks = []

        def every_deal_replays(u, deck, seats):
            blocks.append(len(u))
            return np.array([0, 0, 0, 0, len(u)], dtype=np.int64)

        monkeypatch.setattr(montecarlo, "_tally", every_deal_replays)
        with pytest.raises(RuntimeError, match="no deal settled in 64 blocks"):
            simulate(CFG, SIGMA, SIGMA, hands=10, seed=0)
        assert blocks == [10] * (montecarlo.MAX_CONSECUTIVE_REPLAYS + 1)

    @pytest.mark.parametrize(
        "s1, s2",
        [(a_type(), threshold_mix(0.5, 0.3)), (m_deterministic(0.3), m_deterministic(0.6))],
    )
    def test_non_integer_bets(self, s1, s2):
        # With a = 1.7 a float sum of the payoffs would round at every hand;
        # both take the moments exactly and round them once.
        cfg = GameConfig(1.7, 1)
        est = simulate(cfg, s1, s2, hands=100_000, seed=5, chunk_size=1234)
        ref = simulate_reference(cfg, s1, s2, hands=100_000, seed=5, chunk_size=1234)
        assert est == ref

    @pytest.mark.parametrize("chunk_size", [1234, DEFAULT_CHUNK_SIZE])
    @pytest.mark.parametrize("deck", [None, 1001, 2])
    def test_block_size_does_not_change_the_estimate(self, monkeypatch, deck, chunk_size):
        # 1000 deals a block is neither a power of two nor a divisor of a
        # chunk. At M=2 about half the deals replay, so the replay rounds
        # refill a partly used buffer.
        args = (GameConfig(2, 1, deck_size=deck), SIGMA, m_deterministic(0.3))
        kwargs = dict(hands=chunk_size + 70_001, seed=13, chunk_size=chunk_size)
        default = simulate(*args, **kwargs)
        monkeypatch.setattr(montecarlo, "_BLOCK", 1000)
        assert simulate(*args, **kwargs) == default

    def test_estimate_does_not_depend_on_worker_count(self, monkeypatch):
        # More workers than cores, switching threads as often as they can,
        # all reading the same seat tables.
        workers = 2 * montecarlo._available_cores() + 1
        kwargs = dict(hands=max(10_001, 1234 * workers), seed=3, chunk_size=1234)
        for deck in (11, None):
            args = (GameConfig(2, 1, deck_size=deck), SIGMA, m_deterministic(0.3))
            monkeypatch.setattr(montecarlo, "_available_cores", lambda: 1)
            one = simulate(*args, **kwargs)
            monkeypatch.setattr(montecarlo, "_available_cores", lambda: workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                many = simulate(*args, **kwargs)
            finally:
                sys.setswitchinterval(interval)
            assert one == many == simulate_reference(*args, **kwargs)

    @pytest.mark.parametrize("grid", [None, 1000, 4096])
    # Up to 50 000 breakpoints: far more than the table's cells, nearly all split.
    @pytest.mark.parametrize("breakpoints", [6, 3000, 50_000])
    def test_cell_lookup_equals_binary_search(self, grid, breakpoints):
        rng = np.random.default_rng([grid or 0, breakpoints])
        s = random_strategy(rng, breakpoints, grid=grid)
        bp, pr = np.asarray(s.breakpoints), np.asarray(s.high_prob)
        seat = montecarlo._seat_tables(s, None)
        cells = seat[3]
        x = np.concatenate([bp, np.arange(cells) / cells, [np.nextafter(1.0, 0)]])
        x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, 1)])
        x = x[(x >= 0) & (x < 1)]
        expected = pr[np.searchsorted(bp, x, side="right")]
        assert np.array_equal(montecarlo._high_probability(x, seat, None), expected)

        # A deck of more cards than cells: cards at and next to every breakpoint.
        for deck in (5001, 2**53):
            seat = montecarlo._seat_tables(s, deck)
            near = np.floor(bp * (deck - 1)).astype(np.int64)
            cards = np.concatenate([[0, deck - 1], *(near + k for k in (-1, 0, 1, 2))])
            cards = np.clip(cards, 0, deck - 1)
            expected = pr[np.searchsorted(bp, cards / (deck - 1), side="right")]
            assert np.array_equal(montecarlo._high_probability(cards, seat, deck), expected)

    def test_available_cores_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity (macOS, Windows) count every core.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert montecarlo._available_cores() == (os.cpu_count() or 1)

    def test_one_chunk_or_one_core_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(montecarlo, "_available_cores", lambda: 3)
        simulate(CFG, SIGMA, SIGMA, hands=1234, seed=0, chunk_size=1234)
        monkeypatch.setattr(montecarlo, "_available_cores", lambda: 1)
        simulate(CFG, SIGMA, SIGMA, hands=10_001, seed=0, chunk_size=1234)
        monkeypatch.setattr(montecarlo, "_available_cores", lambda: 3)
        with pytest.raises(AssertionError, match="thread pool"):
            simulate(CFG, SIGMA, SIGMA, hands=1235, seed=0, chunk_size=1234)


class TestBruteForceDiscrete:
    def test_two_cards_always_high(self):
        cfg = GameConfig(2, 1, deck_size=2)
        result = brute_force_discrete(cfg, a_type(), a_type())
        assert result.value == 0
        assert result.replay_probability == Fraction(1, 2)

    def test_three_cards_high_vs_low(self):
        cfg = GameConfig(2, 1, deck_size=3)
        result = brute_force_discrete(cfg, a_type(), b_type())
        assert result.value == 1
        assert result.replay_probability == 0

    def test_equilibrium_self_play_exact_zero(self):
        cfg = GameConfig(2, 1, deck_size=101)
        result = brute_force_discrete(cfg, SIGMA, SIGMA)
        assert result.value == 0

    def test_matches_literal_enumeration(self):
        rng = np.random.default_rng(8)
        for m in (5, 17):
            cfg = GameConfig(2, 1, deck_size=m)
            for _ in range(3):
                s1 = random_strategy(rng, max_breakpoints=3)
                s2 = random_strategy(rng, max_breakpoints=3)
                value, replay = enumerate_discrete(cfg, s1, s2)
                result = brute_force_discrete(cfg, s1, s2)
                assert result.value == value
                assert result.replay_probability == replay

    @pytest.mark.parametrize("cuts", ["cards", "half-cards", "off-grid"])
    @pytest.mark.parametrize(
        "deck", [2, 11, 1001, 10_000, *np.random.default_rng(12).integers(3, 1200, 3).tolist()]
    )
    def test_matches_per_card_reference(self, deck, cuts):
        # Breakpoints on the cards i/(M-1) and halfway between them put the
        # exact cards on, next to and between the cuts of the count per piece.
        rng = np.random.default_rng(deck)
        grid = {"cards": deck - 1, "half-cards": 2 * (deck - 1), "off-grid": None}[cuts]
        cfg = GameConfig(3, 2, deck_size=deck)
        for _ in range(1 if deck > 2000 else 3):
            s1, s2 = (random_strategy(rng, 6, grid=grid) for _ in range(2))
            assert brute_force_discrete(cfg, s1, s2) == brute_force_reference(cfg, s1, s2)

    def test_converges_to_continuous_value(self):
        continuous = expected_payoff(CFG, SIGMA, m_deterministic(0.25)).value
        gaps = []
        for m in (101, 1001):
            cfg = GameConfig(2, 1, deck_size=m)
            result = brute_force_discrete(cfg, SIGMA, m_deterministic(0.25))
            gaps.append(abs(float(result.value) - continuous))
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 5e-3

    def test_rejects_continuous_and_oversized(self):
        with pytest.raises(ValueError):
            brute_force_discrete(CFG, SIGMA, SIGMA)
        with pytest.raises(ValueError):
            brute_force_discrete(GameConfig(2, 1, deck_size=2**53 + 1), SIGMA, SIGMA)


def test_deck_limits_are_config_errors():
    # GameConfig holds the one deck limit, and both functions take every
    # deck it accepts.
    m = 2**53
    largest = GameConfig(2, 1, deck_size=m)
    assert simulate(largest, a_type(), b_type(), hands=1, seed=0).mean == 1.0
    assert brute_force_discrete(largest, a_type(), b_type()).value == 1
    # Against always-Low, the M/2 high cards win b on every deal, the M/2 low
    # cards lose M^2/4 deals net, and a low card against itself replays.
    exact = brute_force_discrete(largest, m_deterministic(0.5), b_type())
    assert exact.value == Fraction(m, 2 * (2 * m - 1))
    assert exact.replay_probability == Fraction(1, 2 * m)
    with pytest.raises(ConfigError, match="2\\*\\*53"):
        GameConfig(2, 1, deck_size=m + 1)


class TestConvergenceReport:
    def test_error_decays_like_root_hands(self):
        rows = convergence_report(CFG, SIGMA, SIGMA, [10**3, 10**4, 10**5], seed=10)
        assert [r.hands for r in rows] == [10**3, 10**4, 10**5]
        for row in rows:
            assert abs(row.mean) <= 3 * row.std_error
        for small, big in zip(rows, rows[1:]):
            shrink = small.std_error / big.std_error
            assert shrink == pytest.approx(math.sqrt(10), rel=0.35)

    def test_rows_match_the_analytic_oracle(self):
        exact = expected_payoff(CFG, a_type(), SIGMA).value
        rows = convergence_report(CFG, a_type(), SIGMA, [10**4, 10**5], seed=11)
        for row in rows:
            assert abs(row.mean - exact) <= 3 * row.std_error

    def test_derived_seeds_are_reproducible(self):
        rows_a = convergence_report(CFG, SIGMA, SIGMA, [1000, 2000], seed=12)
        rows_b = convergence_report(CFG, SIGMA, SIGMA, [1000, 2000], seed=12)
        assert rows_a == rows_b
        assert rows_a[1].seed == 13

    def test_one_hand_rows(self):
        rows = convergence_report(CFG, SIGMA, SIGMA, [1, 10], seed=5)
        assert rows == [
            simulate(CFG, SIGMA, SIGMA, hands=1, seed=5),
            simulate(CFG, SIGMA, SIGMA, hands=10, seed=6),
        ]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(CFG, SIGMA, SIGMA, [], seed=0)

    def test_every_hand_count_is_checked_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate ran before the schedule was checked")

        monkeypatch.setattr(montecarlo, "simulate", no_run)
        with pytest.raises(ValueError, match="at least one hand"):
            convergence_report(CFG, SIGMA, SIGMA, [10**6, 0], seed=0)
