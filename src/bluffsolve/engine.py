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

#: The largest finite float, as an exact integer.
_FLOAT_MAX = int(sys.float_info.max)


class ConfigError(ValueError):
    """A game configuration violates the bet or deck constraints."""


class ArgumentError(ValueError):
    """A function argument is out of range; ``parameter`` names the argument."""

    def __init__(self, parameter: str, message: str) -> None:
        super().__init__(message)
        self.parameter = parameter


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
    {0, 1/(M-1), ..., 1}, drawn independently with replacement. An invalid bet,
    a high bet or ratio beyond the largest float, or a deck of fewer than 2 or
    more than 2**53 cards raises ``ConfigError``.
    """

    high_bet: Fraction
    low_bet: Fraction
    deck_size: int | None = None

    def __post_init__(self) -> None:
        # Messages show the bets as given: the exact Fraction of a float such
        # as 0.3 or 1e-308 prints with dozens to hundreds of digits.
        high, low = self.high_bet, self.low_bet
        try:
            a, b = Fraction(high), Fraction(low)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(
                f"bets must be finite numbers, got high={high!r} low={low!r}"
            ) from exc
        object.__setattr__(self, "high_bet", a)
        object.__setattr__(self, "low_bet", b)
        if b <= 0:
            raise ConfigError(f"low bet must be positive, got {low}")
        if a <= b:
            raise ConfigError(f"high bet must exceed low bet, got high={high} low={low}")
        # a > _FLOAT_MAX and a/b > _FLOAT_MAX, cross-multiplied: a Fraction
        # comparison or division costs more than the rest of the validation.
        if a.numerator > _FLOAT_MAX * a.denominator:
            raise ConfigError(f"high bet must not exceed the largest float {sys.float_info.max!r}")
        if a.numerator * b.denominator > _FLOAT_MAX * a.denominator * b.numerator:
            raise ConfigError(
                f"bet ratio a/b must not exceed the largest float {sys.float_info.max!r}"
            )
        if self.deck_size is not None:
            if not isinstance(self.deck_size, int) or isinstance(self.deck_size, bool):
                raise ConfigError(f"deck size must be an int, got {self.deck_size!r}")
            if self.deck_size < 2:
                raise ConfigError(f"discrete deck needs at least 2 cards, got {self.deck_size}")
            # simulate deals a card as floor(u * M) of a 53-bit uniform u, and
            # card i has the float value i/(M-1): past 2**53 cards some cards
            # could never be dealt, and two cards could share a value.
            if self.deck_size > 2**53:
                raise ConfigError(f"a deck holds at most 2**53 cards, got {self.deck_size}")

    @property
    def is_continuous(self) -> bool:
        return self.deck_size is None

    @property
    def ratio(self) -> Fraction:
        """Bet ratio a/b, the game's single risk parameter."""
        return self.high_bet / self.low_bet


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
