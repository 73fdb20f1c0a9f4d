"""Seeded Monte Carlo estimation and an exact brute-force oracle for finite decks.

The simulator splits the hands into chunks of ``chunk_size``, each drawing from
the seed's PCG64DXSM stream, jumped k times for chunk k, and runs the chunks
concurrently on a thread pool with one worker per available core (none for a
single chunk). Each simulated round consumes exactly four uniforms per hand
(card, card, bet draw, bet draw).

A chunk returns integer counts of its outcome classes (wins and losses at a
and at b, and replays), which add exactly in any order, so an estimate is
bit-identical for a fixed (seed, chunk_size) whatever the scheduling or the
core count. The mean and the variance come from the counts in Fractions of
the exact bets, and each is rounded once; the square root is taken at the
variance over an even power of two, so no moment over- or underflows at any
bet scale, and a payoff that never varies has a standard error of exactly 0.

A chunk draws at most ``_BLOCK`` = 2**14 deals at a time, and never more than
its hands still unsettled, into one reused buffer: so it reads the shortest
prefix of its stream that holds its hands, whatever the block size. The
buffer's 512 KB of uniforms and the tally's temporaries fit in a core's L2
cache; one worker's peak is about 1 MB, so memory grows with the number of
workers, not with the number of hands.

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
two strategies, so its cost grows with the pieces, not with the deck, up to
the 2**53 cards ``GameConfig`` allows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .analytic import _payoff_terms
from .engine import ArgumentError, GameConfig
from .strategy import Strategy, merge_breakpoints, probabilities_on

DEFAULT_CHUNK_SIZE = 1 << 18

#: Deals drawn and tallied at once: 512 KB of uniforms in one buffer that a
#: chunk reuses, so a block and its tally temporaries fit in a core's L2
#: cache (1-2 MB on current x86 cores), whatever the chunk size.
_BLOCK = 1 << 14

#: Cells of a High-probability table over the card value: a power of two,
#: so a card value's cell is exact, and 32 KB a seat whatever the strategy.
#: A deck of at most this many cards has a table entry per card instead.
_CELLS = 1 << 12

#: Consecutive blocks in which no deal settled before a chunk gives up. Two
#: draws give the same card with probability 1/M on a deck of M >= 2 cards
#: (about 2**-53 on the continuous deck), so a deal replays with probability
#: at most 1/2, and a correct chunk stalls for 64 blocks in a row with
#: probability at most 2**-64. A state in which every deal replays reports
#: within 64 blocks instead of hanging.
MAX_CONSECUTIVE_REPLAYS = 64


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
    # floor(u * deck) in one pass: the cast to an integer truncates.
    cards = np.multiply(u, deck, out=np.empty(len(u), np.int64), casting="unsafe")
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


def _tally(u: np.ndarray, deck: int | None, seats: tuple) -> np.ndarray:
    """Player 1's outcome counts over deals ``u``, one row of uniforms each.

    Returns [wins at a, losses at a, wins at b, losses at b, replays].
    """
    c1, c2 = _cards(u[:, 0], deck), _cards(u[:, 1], deck)
    high1 = u[:, 2] < _high_probability(c1, seats[0], deck)
    high2 = u[:, 3] < _high_probability(c2, seats[1], deck)
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


def _chunk_counts(seed: int, index: int, n: int, deck: int | None, seats: tuple) -> np.ndarray:
    """``_tally`` counts of chunk ``index``: ``n`` settled hands and their replays.

    It reads the seed's PCG64DXSM stream, jumped k times for chunk k =
    ``index``. Each pass draws at most ``_BLOCK`` deals, and never more than
    the hands still unsettled, into one reused buffer, which continues that
    stream exactly as ``rng.random((m, 4))`` would. A replayed deal only
    leaves its hand unsettled; which hand it was does not matter. So the
    chunk reads the shortest prefix of its stream that holds ``n`` settled
    deals, whatever the block size.
    """
    rng = np.random.Generator(np.random.PCG64DXSM(seed % (1 << 64)).jumped(index))
    buffer = np.empty((min(n, _BLOCK), 4))
    counts = np.zeros(5, dtype=np.int64)
    pending, stalled = n, 0
    while pending:
        m = min(_BLOCK, pending)
        block = _tally(rng.random(out=buffer[:m]), deck, seats)
        counts += block
        settled = m - int(block[4])
        pending -= settled
        stalled = 0 if settled else stalled + 1
        if stalled > MAX_CONSECUTIVE_REPLAYS:
            raise RuntimeError(f"no deal settled in {MAX_CONSECUTIVE_REPLAYS} blocks in a row")
    return counts


def _sqrt(x: Fraction) -> float:
    """sqrt(x) of an exact ``x >= 0``, taken at x / 4**j near 1 and scaled by 2**j.

    No float on the way over- or underflows, whatever the size of x.
    """
    j = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(float(x / Fraction(4) ** j)), j)


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
) -> MCEstimate:
    """Estimate player 1's expected payoff from ``hands`` settled hands.

    ``hands`` or ``chunk_size`` below 1 raises ``ArgumentError``.
    """
    if hands < 1:
        raise ArgumentError("hands", f"need at least one hand, got {hands}")
    if chunk_size < 1:
        raise ArgumentError("chunk_size", f"chunk size must be positive, got {chunk_size}")
    deck = cfg.deck_size
    seats = (_seat_tables(s1, deck), _seat_tables(s2, deck))
    chunks = -(-hands // chunk_size)
    workers = min(chunks, _available_cores())

    def stripe(first: int) -> np.ndarray:
        # Chunks first, first + workers, ...; counts add exactly in any order.
        counts = np.zeros(5, dtype=np.int64)
        for index in range(first, chunks, workers):
            n = min(chunk_size, hands - index * chunk_size)
            counts += _chunk_counts(seed, index, n, deck, seats)
        return counts

    if workers == 1:
        counts = stripe(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(stripe, range(workers)))
    wins_a, losses_a, wins_b, losses_b, replays = (int(c) for c in counts)

    # The moments in Fractions of the exact bets, each rounded once.
    a, b = cfg.high_bet, cfg.low_bet
    total = (wins_a - losses_a) * a + (wins_b - losses_b) * b
    if hands > 1:
        squares = (wins_a + losses_a) * a * a + (wins_b + losses_b) * b * b
        variance = (squares - total * total / hands) / (hands - 1)
        std_error = _sqrt(variance / hands)
    else:
        std_error = 0.0
    return MCEstimate(
        mean=float(total / hands),
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
    pairs, in rational arithmetic and in O(pieces). A continuous deck raises
    ``ArgumentError``.
    """
    m = cfg.deck_size
    if m is None:
        raise ArgumentError("deck", "needs a discrete deck")
    (k1, h1), (k2, h2) = s1.arrays(), s2.arrays()
    knots = merge_breakpoints(k1, k2)
    # Card i, the exact rational i/(M-1), lies below the cut c when i < c (M-1).
    below = [math.ceil(Fraction(c) * (m - 1)) for c in knots[1:-1].tolist()]
    counts = np.diff(np.array([0, *below, m], dtype=object))
    p1, p2 = (
        np.array([Fraction(p) for p in probabilities_on(k[1:], h, knots[:-1]).tolist()])
        for k, h in ((k1, h1), (k2, h2))
    )
    settled_sum = _payoff_terms(cfg.high_bet, cfg.low_bet, counts, p1, p2).value
    pairs = Fraction(m * m)
    replay_probability = np.dot(counts, p1 * p2 + (1 - p1) * (1 - p2)) / pairs
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
    is reproducible from the base seed. An empty schedule, or a hand count
    below 1, raises ``ArgumentError``.
    """
    if not schedule:
        raise ArgumentError("schedule", "schedule must contain at least one hand count")
    if min(schedule) < 1:
        raise ArgumentError("schedule", f"need at least one hand per row, got {min(schedule)}")
    return [
        simulate(cfg, s1, s2, hands=h, seed=seed + k, chunk_size=chunk_size)
        for k, h in enumerate(schedule)
    ]
