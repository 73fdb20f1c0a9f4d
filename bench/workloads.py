"""Workloads of the bluffsolve benchmark: seeded inputs, timed ops, checks.

Each workload turns a seed into a fixed list of ops. ``Op.run`` is the only
code that is timed and the only code that reaches ``bluffsolve`` with the
generated inputs; ``Op.check`` runs afterwards, outside the timed span, and
returns the op's canonical output (for the run's digest) and the reason the
output is wrong, or ``None``. Ops call into ``bluffsolve`` through module
attributes, so a tracer that patches those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bluffsolve import analytic, cli, montecarlo, solver, strategy
from bluffsolve.engine import GameConfig

#: Fixed parameters of each workload, recorded in every result.
PARAMS = {
    "solve": {
        "bins": 200,
        "epsilon": 1e-3,
        "max_iters": 5000,
        "low_bet": 1,
        # Acceptance-6 ratios. The solver's cost and convergence jump between
        # nearby ratios (2.1 and 2.2 run ~55 s and do not converge), so a
        # ratio drawn from [1.5, 3] would make runs unsteady and failing.
        "ratios": [1.5, 2.0, 3.0],
    },
    "query": {
        "file_share": 0.1,
        "file_pieces": [200, 400, 800, 1600, 3200],
        "files_per_size": 2,
        "ratio_range": [1.5, 3.0],
    },
    "verify": {
        "hands": 10**6,
        "deck_size": 1001,
        "breakpoint_grid": 1000,
        "max_breakpoints": 6,
        "mc_tolerance_se": 4.0,
    },
}


@dataclass(frozen=True)
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str | None]]


def _canonical(obj: Any) -> str:
    # json.dumps writes floats with repr, so equal text means equal values.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --- solve -----------------------------------------------------------------


def solve_ops(seed: int, count: int, workdir: Path) -> list[Op]:
    """``fictitious_play`` at the acceptance ratios, in seed-shuffled rounds."""
    p = PARAMS["solve"]
    rng = random.Random(f"solve/{seed}")
    ops = []
    while len(ops) < count:
        ratios = list(p["ratios"])
        rng.shuffle(ratios)
        for ratio in ratios[: count - len(ops)]:
            cfg = GameConfig(Fraction(ratio), Fraction(p["low_bet"]))
            ops.append(Op(run=_solve_run(cfg), check=_solve_check(cfg, ratio)))
    return ops


def _solve_run(cfg: GameConfig):
    p = PARAMS["solve"]
    return lambda: solver.fictitious_play(
        cfg, bins=p["bins"], epsilon=p["epsilon"], max_iters=p["max_iters"]
    )


def _solve_check(cfg: GameConfig, ratio: float):
    def check(result) -> tuple[str, str | None]:
        eps = PARAMS["solve"]["epsilon"]
        certificate = solver.exploitability(cfg, result.strategy)
        canonical = _canonical(
            {
                "ratio": ratio,
                "exploitability": result.exploitability,
                "iterations": result.iterations,
                "converged": result.converged,
                "strategy": result.strategy.to_dict(),
            }
        )
        if not result.converged:
            return canonical, f"ratio {ratio!r}: not converged ({result.exploitability!r})"
        if certificate != result.exploitability:
            return canonical, (
                f"ratio {ratio!r}: certificate {certificate!r} != reported "
                f"{result.exploitability!r}"
            )
        if certificate > eps:
            return canonical, f"ratio {ratio!r}: certificate {certificate!r} > {eps!r}"
        return canonical, None

    return check


# --- query -----------------------------------------------------------------

_GRID = 201  # the CLI's default --grid


def _inline_spec(rng: random.Random) -> tuple[str, strategy.Strategy]:
    kind = rng.choice(("a-type", "b-type", "m-det", "threshold"))
    if kind == "a-type":
        return kind, strategy.a_type()
    if kind == "b-type":
        return kind, strategy.b_type()
    t = rng.uniform(0.01, 0.99)
    if kind == "m-det":
        return f"m-det:{t!r}", strategy.m_deterministic(t)
    p = rng.random()
    return f"threshold:{t!r}:{p!r}", strategy.threshold_mix(t, p)


def _write_strategy_files(rng: random.Random, workdir: Path) -> list[tuple[str, strategy.Strategy]]:
    p = PARAMS["query"]
    files = []
    for pieces in p["file_pieces"]:
        for copy in range(p["files_per_size"]):
            cuts = sorted(rng.sample(range(1, 1_000_000), pieces - 1))
            s = strategy.Strategy(
                breakpoints=tuple(c / 1_000_000 for c in cuts),
                high_prob=tuple(rng.random() for _ in range(pieces)),
            )
            path = workdir / f"strategy-{pieces}-{copy}.json"
            path.write_text(s.to_json() + "\n", encoding="utf-8")
            files.append((str(path), s))
    return files


def query_ops(seed: int, count: int, workdir: Path) -> list[Op]:
    """In-process ``cli.main`` calls; about one in ten reads a large strategy file."""
    p = PARAMS["query"]
    rng = random.Random(f"query/{seed}")
    files = _write_strategy_files(rng, workdir)
    ops = []
    for _ in range(count):
        if rng.random() < 0.5:
            game_args, cfg = [], GameConfig(2, 1)
        else:
            ratio = rng.uniform(*p["ratio_range"])
            game_args, cfg = ["--ratio", repr(ratio)], GameConfig(Fraction(ratio), Fraction(1))
        if rng.random() < p["file_share"]:
            argv, expect = _file_query(rng, files, cfg)
        else:
            argv, expect = _inline_query(rng, cfg)
        argv = [argv[0], *game_args, *argv[1:]]
        # The digest names files without the per-run directory.
        label = [a.replace(f"{workdir}{os.sep}", "") for a in argv]
        ops.append(Op(run=_cli_run(argv), check=_cli_check(label, expect)))
    return ops


def _pick(rng: random.Random, flag: str, files) -> tuple[list[str], strategy.Strategy]:
    path, s = rng.choice(files)
    return [f"--{flag}-file", path], s


def _file_query(rng: random.Random, files, cfg: GameConfig):
    command = rng.choice(("payoff", "exploit", "best-response", "evs"))
    if command == "payoff":
        s1_args, s1 = _pick(rng, "s1", files)
        if rng.random() < 0.5:
            s2_args, s2 = _pick(rng, "s2", files)
        else:
            spec, s2 = _inline_spec(rng)
            s2_args = ["--s2", spec]
        return ["payoff", *s1_args, *s2_args], _expect_payoff(cfg, s1, s2)
    if command == "exploit":
        args, s = _pick(rng, "strategy", files)
        return ["exploit", *args], _expect_exploit(cfg, s)
    if command == "best-response":
        args, s = _pick(rng, "opponent", files)
        return ["best-response", *args], _expect_best_response(cfg, s)
    args, s = _pick(rng, "opponent", files)
    fmt = rng.choice(("csv", "json"))
    return ["evs", *args, "--format", fmt], _expect_evs(cfg, s, fmt)


def _inline_query(rng: random.Random, cfg: GameConfig):
    command = rng.choice(("payoff", "exploit", "best-response", "evs", "taxonomy", "equilibrium"))
    if command == "payoff":
        spec1, s1 = _inline_spec(rng)
        spec2, s2 = _inline_spec(rng)
        return ["payoff", "--s1", spec1, "--s2", spec2], _expect_payoff(cfg, s1, s2)
    if command == "exploit":
        spec, s = _inline_spec(rng)
        return ["exploit", "--s", spec], _expect_exploit(cfg, s)
    if command == "best-response":
        spec, s = _inline_spec(rng)
        return ["best-response", "--opponent", spec], _expect_best_response(cfg, s)
    if command == "evs":
        spec, s = _inline_spec(rng)
        fmt = rng.choice(("csv", "json"))
        return ["evs", "--opponent", spec, "--format", fmt], _expect_evs(cfg, s, fmt)
    if command == "taxonomy":
        fmt = rng.choice(("csv", "json"))
        return ["taxonomy", "--format", fmt], _expect_taxonomy(cfg, fmt)
    return ["equilibrium"], _expect_equilibrium(cfg)


# Each _expect_* returns a function that recomputes, by direct library calls,
# what the CLI output must parse to; it runs only inside the check.


def _expect_payoff(cfg, s1, s2):
    return lambda text: (json.loads(text), asdict(analytic.expected_payoff(cfg, s1, s2)))


def _expect_exploit(cfg, s):
    return lambda text: (json.loads(text), {"exploitability": solver.exploitability(cfg, s)})


def _expect_best_response(cfg, s):
    def expect(text):
        br = solver.best_response(cfg, s)
        return json.loads(text), {"value": br.value, "strategy": br.action_rule.to_dict()}

    return expect


def _parse_csv(text: str) -> list[list]:
    def field(x: str):
        try:
            return float(x)
        except ValueError:
            return x

    header, *rows = text.splitlines()
    return [header.split(","), *[[field(x) for x in row.split(",")] for row in rows]]


def _expect_evs(cfg, s, fmt):
    def expect(text):
        evs = analytic.conditional_evs(cfg, s)
        grid = np.linspace(0.0, 1.0, _GRID)
        columns = {
            "v": [float(x) for x in grid],
            "ev_high": [float(x) for x in evs.ev_high(grid)],
            "ev_low": [float(x) for x in evs.ev_low(grid)],
        }
        if fmt == "json":
            return json.loads(text), columns
        return _parse_csv(text), [list(columns), *map(list, zip(*columns.values()))]

    return expect


def _expect_taxonomy(cfg, fmt):
    def expect(text):
        table = analytic.taxonomy_table(cfg)
        keys = analytic.TAXONOMY_KEYS
        if fmt == "json":
            return json.loads(text), {r: {c: table[r][c].value for c in keys} for r in keys}
        rows = [[r, c, table[r][c].value] for r in keys for c in keys]
        return _parse_csv(text), [["row", "col", "value"], *rows]

    return expect


def _expect_equilibrium(cfg):
    def expect(text):
        point = analytic.closed_form_equilibrium(cfg)
        return json.loads(text), {"t_star": point.t_star, "p_star": point.p_star}

    return expect


def _cli_run(argv: list[str]):
    def run() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_check(argv: list[str], expect):
    def check(result) -> tuple[str, str | None]:
        code, out, err = result
        canonical = _canonical({"argv": argv, "code": code, "stdout": out})
        if code != 0:
            return canonical, f"{argv}: exit code {code}: {err.strip()}"
        try:
            got, want = expect(out)
        except ValueError as exc:
            return canonical, f"{argv}: unparsable output: {exc}"
        if got != want:
            return canonical, f"{argv}: output differs from the library result"
        return canonical, None

    return check


# --- verify ----------------------------------------------------------------


def _grid_strategy(rng: random.Random) -> strategy.Strategy:
    p = PARAMS["verify"]
    grid = p["breakpoint_grid"]
    k = rng.randint(0, p["max_breakpoints"])
    picks = sorted(rng.sample(range(1, grid), k))
    return strategy.Strategy(
        breakpoints=tuple(float(i) / grid for i in picks),
        high_prob=tuple(rng.random() for _ in range(k + 1)),
    )


def exact_discrete_value(cfg: GameConfig, s1, s2) -> tuple[Fraction, Fraction]:
    """Exact (settled value, replay probability) with float cards ``i/(M-1)``.

    Uses the card semantics of ``engine.settle`` and ``montecarlo.simulate``:
    card i has the float value ``i / (M - 1)`` and plays the piece that
    ``Strategy.high_probability`` gives it. Cards are grouped into runs with
    the same pair of High probabilities; pairs inside one run cancel in the
    card-comparison sums, so only run sizes enter the prefix sums.
    """
    m = cfg.deck_size
    runs: list[list] = []  # [count, p1, p2]
    for i in range(m):
        card = i / (m - 1)
        p1 = s1.high_prob[bisect_right(s1.breakpoints, card)]
        p2 = s2.high_prob[bisect_right(s2.breakpoints, card)]
        if runs and runs[-1][1] == p1 and runs[-1][2] == p2:
            runs[-1][0] += 1
        else:
            runs.append([1, p1, p2])
    n = [r[0] for r in runs]
    p1 = [Fraction(r[1]) for r in runs]
    p2 = [Fraction(r[2]) for r in runs]
    q1 = [1 - x for x in p1]
    q2 = [1 - x for x in p2]

    def mass(x) -> Fraction:
        return sum((c * v for c, v in zip(n, x)), Fraction(0))

    def sign_weighted(x, y) -> Fraction:
        # sum over card pairs of x_i y_j sgn(i - j), by runs.
        total, below, acc = mass(y), Fraction(0), Fraction(0)
        for c, xv, yv in zip(n, x, y):
            above = total - below - c * yv
            acc += c * xv * (below - above)
            below += c * yv
        return acc

    a, b = cfg.high_bet, cfg.low_bet
    settled = (
        a * sign_weighted(p1, p2)
        + b * sign_weighted(q1, q2)
        + b * mass(p1) * mass(q2)
        - b * mass(q1) * mass(p2)
    )
    replay = sum((c * (x * y + u * w) for c, x, y, u, w in zip(n, p1, p2, q1, q2)), Fraction(0))
    pairs = m * m
    replay_probability = replay / pairs
    return (settled / pairs) / (1 - replay_probability), replay_probability


def verify_ops(seed: int, count: int, workdir: Path) -> list[Op]:
    """Analytic value and the continuous and discrete Monte Carlo legs per pair.

    ``montecarlo.brute_force_discrete`` is left out: on grid-aligned pairs a
    card lands on a breakpoint, where it disagrees with the float-card
    semantics of ``simulate`` and ``engine.settle`` (see
    ``test_bench.test_brute_force_discrete_matches_float_cards``).
    """
    p = PARAMS["verify"]
    rng = random.Random(f"verify/{seed}")
    continuous = GameConfig(2, 1)
    discrete = GameConfig(2, 1, deck_size=p["deck_size"])
    ops = []
    for _ in range(count):
        s1, s2 = _grid_strategy(rng), _grid_strategy(rng)
        mc_seed = rng.randrange(1 << 32)

        def run(s1=s1, s2=s2, mc_seed=mc_seed):
            return (
                analytic.expected_payoff(continuous, s1, s2),
                montecarlo.simulate(continuous, s1, s2, hands=p["hands"], seed=mc_seed),
                montecarlo.simulate(discrete, s1, s2, hands=p["hands"], seed=mc_seed + 1),
            )

        ops.append(Op(run=run, check=_verify_check(discrete, s1, s2)))
    return ops


def _verify_check(discrete: GameConfig, s1, s2):
    p = PARAMS["verify"]

    def check(result) -> tuple[str, str | None]:
        payoff, cont, disc = result
        value, _ = exact_discrete_value(discrete, s1, s2)
        canonical = _canonical(
            {
                "pair": [s1.to_dict(), s2.to_dict()],
                "analytic": payoff.value,
                "continuous": [cont.mean, cont.std_error, cont.replay_rate],
                "discrete": [disc.mean, disc.std_error, disc.replay_rate],
            }
        )
        k = p["mc_tolerance_se"]
        problems = []
        if abs(cont.mean - payoff.value) > k * max(cont.std_error, 1e-12):
            problems.append(f"continuous MC {cont.mean!r} vs analytic {payoff.value!r}")
        if abs(disc.mean - float(value)) > k * max(disc.std_error, 1e-12):
            problems.append(f"discrete MC {disc.mean!r} vs exact {float(value)!r}")
        return canonical, "; ".join(problems) or None

    return check


#: Op-list makers by workload name: (seed, count, workdir) -> ops.
OPS = {"solve": solve_ops, "query": query_ops, "verify": verify_ops}

#: A run's op count is a whole number of rounds; a solve round is one op at
#: each ratio, so every run does the same mix of solves.
ROUND_OPS = {"solve": len(PARAMS["solve"]["ratios"]), "query": 1, "verify": 1}


# --- warm-up ---------------------------------------------------------------
# Small fixed calls through each op's code path, run during set-up so lazy
# imports and first-call costs stay out of the timed ops.


def _warm_solve() -> None:
    solver.fictitious_play(GameConfig(2, 1), bins=8, epsilon=1e-3, max_iters=20)


def _warm_query() -> None:
    for argv in (
        ["equilibrium"],
        ["payoff", "--s1", "a-type", "--s2", "threshold:0.5:0.25"],
        ["exploit", "--s", "m-det:0.5"],
        ["best-response", "--opponent", "b-type"],
        ["evs", "--opponent", "threshold:0.5:0.25", "--format", "csv"],
        ["evs", "--opponent", "m-det:0.5", "--format", "json"],
        ["taxonomy", "--format", "csv"],
    ):
        _cli_run(argv)()


def _warm_verify() -> None:
    s1, s2 = strategy.threshold_mix(0.5, 0.25), strategy.m_deterministic(0.25)
    for cfg in (GameConfig(2, 1), GameConfig(2, 1, deck_size=11)):
        montecarlo.simulate(cfg, s1, s2, hands=1000, seed=0)
    analytic.expected_payoff(GameConfig(2, 1), s1, s2)


WARM_UP = {"solve": _warm_solve, "query": _warm_query, "verify": _warm_verify}
