"""Core game definition: configuration and settlement.

The game is a symmetric two-player zero-sum sealed-bid contest. Each player
privately draws a card value in [0, 1], both simultaneously wager High (a) or
Low (b), and the settlement compares bets first, cards second:

* both High  -> higher card nets +a, equal cards -> replay
* both Low   -> higher card nets +b, equal cards -> replay
* mismatched -> the High bettor nets +b regardless of the cards

A replay is a full restart: new cards, new bets. Money amounts are kept as
exact rationals throughout settlement; only expectations are floats.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

#: Hard cap on consecutive replays in a single hand. Unreachable for any valid
#: configuration (a settled outcome always has positive probability); exists so
#: a degenerate state reports instead of hanging.
MAX_CONSECUTIVE_REPLAYS = 10**6

#: The largest finite float, as an exact integer.
_FLOAT_MAX = int(sys.float_info.max)


class ConfigError(ValueError):
    """A game configuration violates the bet or deck constraints."""


class BetAction(Enum):
    HIGH = "high"
    LOW = "low"


@dataclass(frozen=True)
class GameConfig:
    """Bet sizes and card model.

    ``high_bet`` and ``low_bet`` are stored as exact rationals; ints, floats
    and strings are converted via :class:`~fractions.Fraction` (a float
    contributes its exact binary value). ``deck_size=None`` selects the
    continuous model: card values i.i.d. uniform on [0, 1]. ``deck_size=M``
    (M >= 2) selects the discrete model: the M equally spaced values
    {0, 1/(M-1), ..., 1}, drawn independently with replacement.
    """

    high_bet: Fraction
    low_bet: Fraction
    deck_size: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "high_bet", Fraction(self.high_bet))
        object.__setattr__(self, "low_bet", Fraction(self.low_bet))
        validate_config(self)

    @property
    def is_continuous(self) -> bool:
        return self.deck_size is None

    @property
    def ratio(self) -> Fraction:
        """Bet ratio a/b, the game's single risk parameter."""
        return self.high_bet / self.low_bet


def validate_config(cfg: GameConfig) -> GameConfig:
    """Check every configuration invariant; return ``cfg`` unchanged if valid.

    Rejects ``low_bet <= 0``, ``high_bet <= low_bet``, a ratio ``a/b`` too
    large for a float (the closed forms evaluate it as one), and discrete decks
    with fewer than two cards.
    """
    if cfg.low_bet <= 0:
        raise ConfigError(f"low bet must be positive, got {cfg.low_bet}")
    if cfg.high_bet <= cfg.low_bet:
        raise ConfigError(
            f"high bet must exceed low bet, got high={cfg.high_bet} low={cfg.low_bet}"
        )
    # a/b > _FLOAT_MAX, cross-multiplied: a Fraction division costs more
    # than the rest of the validation together.
    a, b = cfg.high_bet, cfg.low_bet
    if a.numerator * b.denominator > _FLOAT_MAX * a.denominator * b.numerator:
        raise ConfigError(
            f"bet ratio a/b must not exceed the largest float {sys.float_info.max!r}"
        )
    if cfg.deck_size is not None:
        if not isinstance(cfg.deck_size, int) or isinstance(cfg.deck_size, bool):
            raise ConfigError(f"deck size must be an int, got {cfg.deck_size!r}")
        if cfg.deck_size < 2:
            raise ConfigError(f"discrete deck needs at least 2 cards, got {cfg.deck_size}")
    return cfg


@dataclass(frozen=True)
class Card:
    """A private card value in [0, 1]; higher is stronger."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"card value must lie in [0, 1], got {self.value!r}")


@dataclass(frozen=True)
class Settlement:
    """Outcome of one deal: a win with a net transfer, or a replay.

    ``winner`` is 1 or 2, or None for a replay. ``net`` is the winner's gain
    (equal to the loser's loss, so every settled hand is zero-sum); None for a
    replay.
    """

    winner: int | None
    net: Fraction | None

    @property
    def is_replay(self) -> bool:
        return self.winner is None

    def payoff_to_player1(self) -> Fraction:
        """Signed net to player 1. Raises on a replay (no payoff exists)."""
        if self.winner is None or self.net is None:
            raise ValueError("a replayed hand has no payoff")
        return self.net if self.winner == 1 else -self.net


REPLAY = Settlement(winner=None, net=None)


def settle(
    cfg: GameConfig, card1: Card, card2: Card, bet1: BetAction, bet2: BetAction
) -> Settlement:
    """Apply the settlement rules to one deal."""
    if bet1 != bet2:
        # Mismatched bets settle on the bets alone; cards are irrelevant.
        winner = 1 if bet1 == BetAction.HIGH else 2
        return Settlement(winner=winner, net=cfg.low_bet)
    if card1.value == card2.value:
        return REPLAY
    net = cfg.high_bet if bet1 == BetAction.HIGH else cfg.low_bet
    return Settlement(winner=1 if card1.value > card2.value else 2, net=net)
