"""Seeded Monte Carlo estimation and an exact brute-force oracle for finite decks.

The simulator splits the hands into chunks of ``chunk_size``, each drawing from
its own counter-based Philox stream, and runs the chunks concurrently on a
thread pool with one worker per available core (none for a single chunk).
Each simulated round consumes exactly four uniforms per hand (card, card, bet
draw, bet draw); the ``mirrored`` flag swaps the seat columns of that stream,
which replays the identical physical hands with the players' roles exchanged
and therefore negates every payoff exactly.

A chunk returns integer counts of its outcome classes (wins and losses at a
and at b, and replays), which add exactly in any order, so an estimate is
bit-identical for a fixed (seed, chunk_size) whatever the scheduling or the
core count. With integer bets it also equals, bit for bit, that of earlier
versions, which summed a float payoff per hand; with non-integer bets the
mean and standard error can differ from those in the last bits, because the
sums are now rounded once per outcome class instead of pairwise per hand.
A worker holds one block of ``_BLOCK`` deals at a time, so memory grows with
the number of workers, not with the number of hands.

Each seat looks up every deal's High probability in one read-only table that
all workers share, 8 bytes an entry. A deck of at most ``_CELLS`` cards has
an entry per card. Any other deck, the continuous one included, has an entry
per cell of the card value x: cell j holds j/G <= x < (j+1)/G, with G =
``_CELLS`` a power of two, whatever the strategy. Scaling by a power of two is
exact, so a deal's cell is exactly ``floor(x * G)``. A cell whose interior no
breakpoint splits plays one piece throughout; a deal in a split cell searches
the breakpoints with its own x. The result equals the binary search of every
deal bit for bit; a strategy with about as many breakpoints as cells splits
most cells, and most of its deals search.

The brute-force oracle gives the exact value of a discrete deck: the payoff
of every card pair and bet combination in rational arithmetic, conditioned
on the hand settling: E = E[payoff on settled deals] / (1 - P(replay)). It
runs ``analytic``'s payoff kernel over the card count of each piece of the
two strategies, so its cost grows with the pieces, not with the deck.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analytic import _payoff_terms
from .engine import MAX_CONSECUTIVE_REPLAYS, ConfigError, GameConfig
from .strategy import Strategy, merge_breakpoints, probabilities_on

DEFAULT_CHUNK_SIZE = 1 << 18

#: Deals drawn and tallied at once: 2 MB of uniforms, so a worker's arrays
#: stay small whatever the chunk size.
_BLOCK = 1 << 16

#: Cells of a High-probability table over the card value: a power of two,
#: so a card value's cell is exact, and 32 KB a seat whatever the strategy.
#: A deck of at most this many cards has a table entry per card instead.
_CELLS = 1 << 12

#: Largest deck ``simulate`` deals from: a card is ``floor(u * M)`` of a 53-bit
#: uniform u, so most cards of a larger deck could never be dealt.
MAX_SIMULATED_DECK = 1 << 53

#: Largest deck the exact oracle will enumerate.
MAX_ENUMERATED_DECK = 10_000


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean of player 1's net payoff over settled hands.

    ``std_error`` is the sample standard deviation over sqrt(hands) (0.0 when
    hands == 1, where the sample deviation is undefined). ``replay_rate`` is
    the fraction of deals that had to be replayed.
    """

    mean: float
    std_error: float
    hands: int
    seed: int
    replay_rate: float
    chunk_size: int


@dataclass(frozen=True)
class ExactDiscreteValue:
    """Exact expected settled payoff and replay probability of a finite deck."""

    value: Fraction
    replay_probability: Fraction

    @property
    def value_float(self) -> float:
        return float(self.value)

    @property
    def replay_probability_float(self) -> float:
        return float(self.replay_probability)


def _seat_tables(s: Strategy, deck: int | None) -> tuple:
    """(breakpoints, High probabilities, table, cells, split) of a seat.

    ``_high_probability`` reads each deal's High probability from ``table``,
    which always gives what ``pr[searchsorted(bp, x, side="right")]`` gives
    for the card's float value x.

    A deck of at most ``_CELLS`` cards has one entry per card i, whose value
    is ``i / (M - 1)``, and ``cells`` is None. Any other deck has ``cells + 1``
    entries, one per cell ``floor(x * cells)``; the last holds x = 1 alone.
    ``cells`` is ``_CELLS``, a power of two, so ``x * cells`` and
    ``bp * cells`` are exact and a cell's edges compare with x and the
    breakpoints exactly. A breakpoint on an edge
    leaves both cells whole, and a whole cell plays the piece of its left edge
    throughout. A cell with a breakpoint strictly inside holds NaN, and the
    deals in it search ``bp`` with their own x; ``split`` says if there is one.
    """
    bp, pr = np.asarray(s.breakpoints), np.asarray(s.high_prob)
    if deck is not None and deck <= _CELLS:
        table = pr[np.searchsorted(bp, np.arange(deck) / (deck - 1), side="right")]
        return bp, pr, table, None, False
    cells = _CELLS
    scaled = bp * cells
    # Piece k runs from the first edge at or above breakpoint k - 1 to the
    # first edge at or above breakpoint k.
    first = np.ceil(scaled).astype(np.intp)
    table = np.repeat(pr, np.diff(first, prepend=0, append=cells + 1))
    # A breakpoint off the edges splits the cell below its first edge.
    split = first[first != scaled] - 1
    table[split] = np.nan
    return bp, pr, table, cells, split.size > 0


def _cards(u: np.ndarray, deck: int | None) -> np.ndarray:
    if deck is None:
        return u
    cards = (u * deck).astype(np.int64)
    return np.minimum(cards, deck - 1, out=cards)


def _high_probability(cards: np.ndarray, seat: tuple, deck: int | None) -> np.ndarray:
    """High probability of each card: one table lookup, a search in split cells."""
    bp, pr, table, cells, split = seat
    if cells is None:
        p = table[cards]
    else:
        values = cards if deck is None else cards / (deck - 1)
        # floor(values * cells) in one pass: the cast to an integer truncates.
        cell = np.multiply(values, cells, out=np.empty(len(values), np.intp), casting="unsafe")
        p = table[cell]
    if split:
        search = np.flatnonzero(np.isnan(p))
        p[search] = pr[np.searchsorted(bp, values[search], side="right")]
    return p


def _tally(u: np.ndarray, deck: int | None, seats: tuple, columns: tuple) -> np.ndarray:
    """Player 1's outcome counts over deals ``u``, one row of uniforms each.

    Returns [wins at a, losses at a, wins at b, losses at b, replays].
    """
    card1, card2, draw1, draw2 = columns
    c1, c2 = _cards(u[:, card1], deck), _cards(u[:, card2], deck)
    high1 = u[:, draw1] < _high_probability(c1, seats[0], deck)
    high2 = u[:, draw2] < _high_probability(c2, seats[1], deck)
    above, tie = c1 > c2, c1 == c2
    both_high = high1 & high2
    both_low = ~(high1 | high2)
    n_high = np.count_nonzero(both_high)
    n_low = np.count_nonzero(both_low)
    high_wins = np.count_nonzero(both_high & above)
    high_ties = np.count_nonzero(both_high & tie)
    low_wins = np.count_nonzero(both_low & above)
    low_ties = np.count_nonzero(both_low & tie)
    # A lone High bettor nets +b whatever the cards.
    return np.array(
        [
            high_wins,
            n_high - high_wins - high_ties,
            np.count_nonzero(high1) - n_high + low_wins,
            np.count_nonzero(high2) - n_high + n_low - low_wins - low_ties,
            high_ties + low_ties,
        ],
        dtype=np.int64,
    )


def _chunk_counts(
    seed: int, index: int, n: int, deck: int | None, seats: tuple, mirrored: bool
) -> np.ndarray:
    """``_tally`` counts of chunk ``index``: ``n`` settled hands and their replays.

    Each round deals again the hands the round before replayed; which hands
    they were does not matter, only how many. A round draws its uniforms
    ``_BLOCK`` deals at a time, which continues the one Philox sequence.
    """
    rng = np.random.Generator(np.random.Philox(key=seed % (1 << 64)).jumped(index))
    columns = (1, 0, 3, 2) if mirrored else (0, 1, 2, 3)
    counts = np.zeros(5, dtype=np.int64)
    pending = n
    rounds = 0
    while pending:
        rounds += 1
        if rounds > MAX_CONSECUTIVE_REPLAYS:
            raise RuntimeError(f"hands failed to settle within {MAX_CONSECUTIVE_REPLAYS} replays")
        replayed = 0
        for start in range(0, pending, _BLOCK):
            u = rng.random((min(_BLOCK, pending - start), 4))
            block = _tally(u, deck, seats, columns)
            counts += block
            replayed += int(block[4])
        pending = replayed
    return counts


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate(
    cfg: GameConfig,
    s1: Strategy,
    s2: Strategy,
    hands: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    mirrored: bool = False,
) -> MCEstimate:
    """Estimate player 1's expected payoff from ``hands`` settled hands.

    Raises ``ConfigError`` for a deck of more than ``MAX_SIMULATED_DECK`` cards.
    """
    if hands < 1:
        raise ValueError(f"need at least one hand, got {hands}")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    deck = cfg.deck_size
    if deck is not None and deck > MAX_SIMULATED_DECK:
        limit = MAX_SIMULATED_DECK.bit_length() - 1
        raise ConfigError(f"a simulated deck holds at most 2**{limit} cards, got {deck}")
    seats = (_seat_tables(s1, deck), _seat_tables(s2, deck))
    chunks = -(-hands // chunk_size)
    workers = min(chunks, _available_cores())

    def stripe(first: int) -> np.ndarray:
        # Chunks first, first + workers, ...; counts add exactly in any order.
        counts = np.zeros(5, dtype=np.int64)
        for index in range(first, chunks, workers):
            n = min(chunk_size, hands - index * chunk_size)
            counts += _chunk_counts(seed, index, n, deck, seats, mirrored)
        return counts

    if workers == 1:
        counts = stripe(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(stripe, range(workers)))
    wins_a, losses_a, wins_b, losses_b, replays = (int(c) for c in counts)

    a, b = float(cfg.high_bet), float(cfg.low_bet)
    mean = ((wins_a - losses_a) * a + (wins_b - losses_b) * b) / hands
    if hands > 1:
        total_sq = (wins_a + losses_a) * (a * a) + (wins_b + losses_b) * (b * b)
        variance = max((total_sq - hands * mean * mean) / (hands - 1), 0.0)
        std_error = math.sqrt(variance / hands)
    else:
        std_error = 0.0
    return MCEstimate(
        mean=mean,
        std_error=std_error,
        hands=hands,
        seed=seed,
        replay_rate=replays / (hands + replays),
        chunk_size=chunk_size,
    )


def brute_force_discrete(cfg: GameConfig, s1: Strategy, s2: Strategy) -> ExactDiscreteValue:
    """Exact expected payoff over a discrete deck, from card counts per piece.

    Card i is the exact rational i/(M-1). Both curves are constant on each
    piece of their merged breakpoints, so within a piece the pairs of
    different cards cancel in the card comparison and only a card against
    itself replays: the payoff kernel of ``analytic`` over the exact card
    count of each piece gives the sum over all M^2 equally likely card
    pairs, in rational arithmetic and in O(pieces). Raises ``ConfigError``
    for a deck of more than ``MAX_ENUMERATED_DECK`` cards.
    """
    m = cfg.deck_size
    if m is None:
        raise ValueError("brute force needs a discrete deck; use analytic.expected_payoff")
    if m > MAX_ENUMERATED_DECK:
        raise ConfigError(f"deck of {m} cards exceeds the enumeration limit {MAX_ENUMERATED_DECK}")
    grid = merge_breakpoints(s1.breakpoints, s2.breakpoints)
    # Card i, the exact rational i/(M-1), lies below the cut c when i < c (M-1).
    below = [math.ceil(Fraction(c) * (m - 1)) for c in grid.tolist()]
    counts = np.diff(np.array([0, *below, m], dtype=object))
    p1, p2 = (
        np.array([Fraction(p) for p in probabilities_on(s.breakpoints, s.high_prob, grid).tolist()])
        for s in (s1, s2)
    )
    settled_sum = _payoff_terms(cfg.high_bet, cfg.low_bet, counts, p1, p2).value
    pairs = Fraction(m * m)
    replay_probability = np.dot(counts, p1 * p2 + (1 - p1) * (1 - p2)) / pairs
    if replay_probability == 1:
        raise ValueError("every deal replays; the configured game never settles")
    value = (settled_sum / pairs) / (1 - replay_probability)
    return ExactDiscreteValue(value=value, replay_probability=replay_probability)


def convergence_report(
    cfg: GameConfig,
    s1: Strategy,
    s2: Strategy,
    schedule: Sequence[int],
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[MCEstimate]:
    """Run ``simulate`` at each hand count with per-row derived seeds.

    Row k uses seed ``seed + k``, so rows are independent but the whole report
    is reproducible from the base seed.
    """
    if not schedule:
        raise ValueError("schedule must contain at least one hand count")
    return [
        simulate(cfg, s1, s2, hands=h, seed=seed + k, chunk_size=chunk_size)
        for k, h in enumerate(schedule)
    ]
