"""Engine conformance: configuration rules, cards, settlement."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from bluffsolve.engine import (
    BetAction,
    Card,
    ConfigError,
    GameConfig,
    Settlement,
    settle,
    validate_config,
)

HIGH, LOW = BetAction.HIGH, BetAction.LOW


@pytest.fixture
def cfg():
    return GameConfig(2, 1)


class TestConfig:
    def test_default_game_is_valid(self):
        cfg = GameConfig(2, 1)
        assert validate_config(cfg) is cfg
        assert cfg.ratio == 2
        assert cfg.is_continuous

    def test_exact_rational_storage(self):
        cfg = GameConfig(1.5, 1)
        assert cfg.high_bet == Fraction(3, 2)
        assert isinstance(cfg.low_bet, Fraction)

    def test_equal_bets_rejected(self):
        with pytest.raises(ConfigError):
            GameConfig(1, 1)

    def test_high_below_low_rejected(self):
        with pytest.raises(ConfigError):
            GameConfig(1, 2)

    def test_nonpositive_low_rejected(self):
        with pytest.raises(ConfigError):
            GameConfig(2, 0)
        with pytest.raises(ConfigError):
            GameConfig(2, -1)

    def test_ratio_beyond_the_largest_float_rejected(self):
        largest = sys.float_info.max
        assert GameConfig(largest, 1).ratio == largest
        for high, low in ((2, 1e-308), (1e308, 0.5), (largest, 0.5)):
            with pytest.raises(ConfigError, match="largest float"):
                GameConfig(high, low)

    def test_degenerate_deck_rejected(self):
        with pytest.raises(ConfigError):
            GameConfig(3, 2, deck_size=1)

    def test_two_card_deck_allowed(self):
        assert GameConfig(3, 2, deck_size=2).deck_size == 2


class TestDeal:
    def test_card_range_enforced(self):
        with pytest.raises(ValueError):
            Card(1.5)
        with pytest.raises(ValueError):
            Card(-0.1)


class TestSettle:
    def test_rule_table_exhaustive(self, cfg):
        """Every bet pair x card ordering, including ties."""
        lo, hi = Card(0.3), Card(0.8)
        cases = [
            # (card1, card2, bet1, bet2) -> (winner, net)
            ((hi, lo, HIGH, HIGH), (1, Fraction(2))),
            ((lo, hi, HIGH, HIGH), (2, Fraction(2))),
            ((hi, lo, LOW, LOW), (1, Fraction(1))),
            ((lo, hi, LOW, LOW), (2, Fraction(1))),
            # Mismatched bets: High bettor wins +b regardless of the cards.
            ((hi, lo, HIGH, LOW), (1, Fraction(1))),
            ((lo, hi, HIGH, LOW), (1, Fraction(1))),
            ((hi, lo, LOW, HIGH), (2, Fraction(1))),
            ((lo, hi, LOW, HIGH), (2, Fraction(1))),
            ((hi, hi, HIGH, LOW), (1, Fraction(1))),
            ((hi, hi, LOW, HIGH), (2, Fraction(1))),
        ]
        for (c1, c2, b1, b2), (winner, net) in cases:
            outcome = settle(cfg, c1, c2, b1, b2)
            assert outcome == Settlement(winner, net), (c1, c2, b1, b2)

    def test_ties_replay_only_on_equal_bets(self, cfg):
        tie = Card(0.4)
        assert settle(cfg, tie, tie, HIGH, HIGH).is_replay
        assert settle(cfg, tie, tie, LOW, LOW).is_replay
        assert not settle(cfg, tie, tie, HIGH, LOW).is_replay
        assert not settle(cfg, tie, tie, LOW, HIGH).is_replay

    def test_canonical_cases(self, cfg):
        assert settle(cfg, Card(0.8), Card(0.3), HIGH, HIGH) == Settlement(1, Fraction(2))
        assert settle(cfg, Card(0.1), Card(0.9), HIGH, LOW) == Settlement(1, Fraction(1))
        assert settle(cfg, Card(0.4), Card(0.4), LOW, LOW).is_replay

    def test_antisymmetry(self, cfg):
        rng = np.random.default_rng(3)
        bets = [HIGH, LOW]
        for _ in range(50):
            c1, c2 = Card(float(rng.random())), Card(float(rng.random()))
            for b1 in bets:
                for b2 in bets:
                    fwd = settle(cfg, c1, c2, b1, b2)
                    rev = settle(cfg, c2, c1, b2, b1)
                    if fwd.is_replay:
                        assert rev.is_replay
                    else:
                        assert rev.net == fwd.net
                        assert {fwd.winner, rev.winner} == {1, 2}

    def test_zero_sum_and_net_domain(self, cfg):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c1, c2 = Card(float(rng.random())), Card(float(rng.random()))
            b1 = HIGH if rng.random() < 0.5 else LOW
            b2 = HIGH if rng.random() < 0.5 else LOW
            outcome = settle(cfg, c1, c2, b1, b2)
            if outcome.is_replay:
                continue
            assert outcome.net in (cfg.high_bet, cfg.low_bet)
            # Net equals the high bet only when both bets were High.
            if outcome.net == cfg.high_bet:
                assert b1 == b2 == HIGH
            # Zero-sum: player 2's payoff is the exact negation.
            assert outcome.payoff_to_player1() == -(
                outcome.net if outcome.winner == 2 else -outcome.net
            )

    def test_replay_has_no_payoff(self, cfg):
        with pytest.raises(ValueError):
            settle(cfg, Card(0.4), Card(0.4), LOW, LOW).payoff_to_player1()

