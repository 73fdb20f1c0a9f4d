"""Plant known defects, one at a time, and check that the Tier-1 suite catches each.

Run from anywhere, with the test dependencies installed:

    python tools/plant.py

For each defect the script copies the repository, without ``.git`` and
caches, to a temporary directory, replaces one exact piece of text in one
file, and runs the Tier-1 suite there with ``-x``. It prints one line per
defect: caught or ESCAPED, the first test that failed, and the seconds the
run took; then "N of N caught". A run that outlasts ``TIMEOUT_S`` is
stopped and counts as caught: the suite does not pass with the defect in.
The copies are removed.

Exit status: 0 when every defect is caught, 1 when one escapes, 2 when a
defect's old text does not occur exactly once (the code moved on and the
defect must be rewritten, not skipped) or pytest could not run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Defect(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str


DEFECTS = (
    Defect(
        "seat-table-left",
        "src/bluffsolve/montecarlo.py",
        'np.arange(deck) / (deck - 1), side="right")',
        'np.arange(deck) / (deck - 1), side="left")',
        "a card on a breakpoint plays the piece below it in a deck of at most _CELLS cards",
    ),
    Defect(
        "variance-over-n",
        "src/bluffsolve/montecarlo.py",
        "variance = (squares - total * total / hands) / (hands - 1)",
        "variance = (squares - total * total / hands) / hands",
        "the sample variance divides by n instead of n - 1",
    ),
    Defect(
        "brute-force-low-ties",
        "src/bluffsolve/montecarlo.py",
        "np.dot(counts, p1 * p2 + (1 - p1) * (1 - p2))",
        "np.dot(counts, p1 * p2)",
        "a card against itself with both bets Low no longer replays in the exact value",
    ),
    Defect(
        "draw-loop-counts-replays",
        "src/bluffsolve/montecarlo.py",
        "pending -= settled",
        "pending -= m",
        "a replayed deal counts as a settled hand, so a chunk settles fewer hands than asked",
    ),
    Defect(
        "every-deal-replays",
        "src/bluffsolve/montecarlo.py",
        "np.minimum(cards, deck - 1, out=cards)",
        "np.minimum(cards, deck - 2, out=cards)",
        "card M-1 is never dealt, so at M=2 every deal ties and the replay guard must report",
    ),
    Defect(
        "chunk-streams-shared",
        "src/bluffsolve/montecarlo.py",
        "PCG64DXSM(seed % (1 << 64)).jumped(index)",
        "PCG64DXSM(seed % (1 << 64))",
        "every chunk reads the one unjumped stream, so the chunks repeat each other's hands",
    ),
    Defect(
        "ties-bet-low",
        "src/bluffsolve/solver.py",
        "knots, d) >= 0.0",
        "knots, d) > 0.0",
        "a best response bets Low where the two bets earn exactly the same",
    ),
    Defect(
        "unit-bets-unlowered",
        "src/bluffsolve/solver.py",
        "k = min(math.frexp(a)[1], math.frexp(b)[1] + 1021)",
        "k = math.frexp(a)[1]",
        "b / 2**k can be subnormal, and the EV gap loses its last bits",
    ),
    Defect(
        "score-drops-negative-part",
        "src/bluffsolve/solver.py",
        "terms = (1.0 - h) * (half * pos * share) + h * (half * neg * (1.0 - share))",
        "terms = (1.0 - h) * (half * pos * share)",
        "the closed-form score leaves out max(-d, 0) where the curve bets High",
    ),
    Defect(
        "gradient-kink-flipped",
        "src/bluffsolve/solver.py",
        "np.where(d1 > d0, kink, -kink)",
        "np.where(d1 > d0, -kink, kink)",
        "the Polyak gradient puts the response's High part at the wrong end of a bin it cuts",
    ),
    Defect(
        "card-value-shift",
        "src/bluffsolve/montecarlo.py",
        "values = cards if deck is None else cards / (deck - 1)",
        "values = cards if deck is None else cards / deck",
        "card i of a deck over _CELLS cards plays at i / M, not at its value i / (M - 1)",
    ),
    Defect(
        "tally-drops-low-ties",
        "src/bluffsolve/montecarlo.py",
        "            high_ties + low_ties,\n",
        "            high_ties,\n",
        "both-Low ties are not counted as replays",
    ),
    Defect(
        "payoff-swapped-sum",
        "src/bluffsolve/analytic.py",
        "lh = -b * np.add.reduce(w1l, -1) * total2h",
        "lh = -b * np.add.reduce(w1h, -1) * total2l",
        "the Low-against-High regime sums the other player's masses",
    ),
    Defect(
        "validate-misses-nan",
        "src/bluffsolve/strategy.py",
        "        and total == total\n",
        "",
        "a NaN probability passes the fast validation pass",
    ),
    Defect(
        "array-check-drops-order",
        "src/bluffsolve/strategy.py",
        "np.count_nonzero(knots[1:] > knots[:-1])",
        "np.count_nonzero(knots[1:] >= knots[:-1])",
        "the array check of a strategy lets equal breakpoints, or one at 0 or 1, through",
    ),
    Defect(
        "kernel-bias",
        "src/bluffsolve/analytic.py",
        "return np.add.reduce(x * (below - above), -1)",
        "return np.add.reduce(x * (below - above), -1) + 1e-9",
        "every sign-weighted payoff sum is off by 1e-9",
    ),
    Defect(
        "ev-high-reordered",
        "src/bluffsolve/analytic.py",
        "ev_high = b * total_low + a * (2.0 * below[0] - total_high)",
        "ev_high = b * total_low + 2.0 * a * below[0] - a * total_high",
        "ev_high rounds in another order, in the solver's certificates and the public path"
        " alike; the pinned evs stdout at 2e-300 / 1e-300 sees the moved last bits",
    ),
    Defect(
        "box-step-mask-flipped",
        "src/bluffsolve/solver.py",
        "(z == 1.0) & (g < 0.0)",
        "(z == 1.0) & (g > 0.0)",
        "the box-constrained step zeroes the wrong part of g at the upper bound",
    ),
    Defect(
        "heavy-ball-prev-unadvanced",
        "src/bluffsolve/solver.py",
        "(z - step + _HEAVY_BALL * (z - z_prev)).clip(0.0, 1.0), z\n",
        "(z - step + _HEAVY_BALL * (z - z_prev)).clip(0.0, 1.0), z_prev\n",
        "z_prev stays at always-High, so the heavy-ball term adds half of z's whole move,"
        " not of its last",
    ),
    Defect(
        "lower-bound-unweighted",
        "src/bluffsolve/solver.py",
        "slope_sum = slope_sum + t * g",
        "slope_sum = slope_sum + g",
        "the lower bound's slopes G sum the response gradients without their weights t,"
        " so C, G and W no longer describe one averaged plane",
    ),
    Defect(
        "cfr-br-signal-flipped",
        "src/bluffsolve/solver.py",
        "gap = -scores.gradient[0]",
        "gap = scores.gradient[0]",
        "CFR-BR's regrets take the gain of High against the response for its loss,"
        " so w moves away from the response's weak bins",
    ),
    Defect(
        "solver-bins-unchecked",
        "src/bluffsolve/solver.py",
        "if bins < 2:",
        "if bins < 1:",
        "one bin passes the solver's check, the only guard against --bins 1",
    ),
)

#: Seconds one Tier-1 run may take before it is stopped as hung.
TIMEOUT_S = 300

#: The Tier-1 command, stopped at the first failure.
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
    "--continue-on-collection-errors", "-p", "no:cacheprovider",
]

_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".work-*"
)


def _first_failure(output: str) -> str:
    match = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    return match.group(1) if match else "an unnamed failure"


def plant(defect: Defect) -> subprocess.CompletedProcess:
    """Run Tier-1 on a copy of the repository with ``defect`` planted."""
    with tempfile.TemporaryDirectory(prefix="plant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_COPY_IGNORE)
        target = copy / defect.path
        target.write_text(target.read_text().replace(defect.old, defect.new))
        path = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            PYTEST, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )


def main() -> int:
    stale = [d for d in DEFECTS if (ROOT / d.path).read_text().count(d.old) != 1]
    for d in stale:
        print(f"{d.name}: old text does not occur exactly once in {d.path}", file=sys.stderr)
    if stale:
        return 2
    caught = 0
    for d in DEFECTS:
        start = time.perf_counter()
        try:
            done = plant(d)
        except subprocess.TimeoutExpired:
            caught += 1
            print(f"{d.name}: caught, Tier-1 ran past {TIMEOUT_S} s: {d.reason}", flush=True)
            continue
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            print(f"{d.name}: ESCAPED ({seconds:.0f} s): {d.reason}", flush=True)
        elif done.returncode == 1:  # pytest's "some tests failed"
            caught += 1
            test = _first_failure(done.stdout)
            print(f"{d.name}: caught by {test} ({seconds:.0f} s): {d.reason}", flush=True)
        else:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
            print(f"{d.name}: pytest did not run (exit {done.returncode})", file=sys.stderr)
            return 2
    print(f"{caught} of {len(DEFECTS)} caught")
    return 0 if caught == len(DEFECTS) else 1


if __name__ == "__main__":
    sys.exit(main())
