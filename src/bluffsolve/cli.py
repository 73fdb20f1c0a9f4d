"""Command-line entry point: every operation, reproducible and pipeable.

Single results are emitted as compact JSON, tabular results as CSV; both go
to stdout unless --out is given. Floats are rendered at full round-trip
precision, so identical argv (and seed) produce byte-identical output.

Strategies are given inline ("a-type", "b-type", "m-det:T", "threshold:T:P")
or as JSON files with keys "breakpoints" and "high_prob". The environment
variable BLUFFSOLVE_SEED supplies a default seed; an explicit --seed wins.

In-process calls of ``main`` share one argument parser, built on the first
call: parsing reads the parser and never changes it, so each call still gets a
fresh namespace of its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import analytic, montecarlo, solver
from .analytic import TAXONOMY_KEYS
from .engine import ConfigError, GameConfig
from .strategy import Strategy, StrategyError, a_type, b_type, m_deterministic, threshold_mix

ENV_SEED = "BLUFFSOLVE_SEED"


class UsageError(Exception):
    """Bad command line: unknown spec, conflicting flags, invalid config."""


class ComputationError(Exception):
    """A requested computation did not meet its own success criterion."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def parse_strategy_spec(text: str) -> Strategy:
    """Parse the inline strategy mini-language."""
    name, _, rest = text.partition(":")
    try:
        if name == "a-type" and not rest:
            return a_type()
        if name == "b-type" and not rest:
            return b_type()
        if name == "m-det":
            return m_deterministic(float(rest))
        if name == "threshold":
            t_text, sep, p_text = rest.partition(":")
            if not sep:
                raise UsageError(
                    f"malformed strategy spec {text!r}: expected threshold:T:P"
                )
            return threshold_mix(float(t_text), float(p_text))
    except (ValueError, StrategyError) as exc:
        raise UsageError(f"malformed strategy spec {text!r}: {exc}") from exc
    raise UsageError(
        f"unknown strategy spec {text!r}: use a-type, b-type, m-det:T or threshold:T:P"
    )


def _load_strategy_file(path: str) -> Strategy:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Strategy.from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read strategy file {path!r}: {exc}") from exc
    except StrategyError as exc:
        raise UsageError(f"bad strategy file {path!r}: {exc}") from exc


def _resolve_strategy(inline: str | None, path: str | None, flag: str) -> Strategy:
    if (inline is None) == (path is None):
        raise UsageError(f"exactly one of --{flag} or --{flag}-file is required")
    return parse_strategy_spec(inline) if inline is not None else _load_strategy_file(path)


def _add_game_options(p: argparse.ArgumentParser, deck: bool = False) -> None:
    p.add_argument("--a", type=float, default=None, help="high bet (default 2)")
    p.add_argument("--b", type=float, default=None, help="low bet (default 1)")
    p.add_argument(
        "--ratio", type=float, default=None, help="bet ratio a/b with b=1 (excludes --a/--b)"
    )
    if deck:
        p.add_argument(
            "--deck",
            default="continuous",
            help="card model: 'continuous' or a card count M >= 2",
        )


def _build_config(args: argparse.Namespace) -> GameConfig:
    if args.ratio is not None and (args.a is not None or args.b is not None):
        raise UsageError("--ratio and --a/--b are mutually exclusive")
    for flag in ("ratio", "a", "b"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value!r}")
    if args.ratio is not None:
        bets, high, low = "--ratio", Fraction(args.ratio), Fraction(1)
    else:
        bets = "--a/--b"
        high = Fraction(args.a) if args.a is not None else Fraction(2)
        low = Fraction(args.b) if args.b is not None else Fraction(1)
    try:
        cfg = GameConfig(high, low)
    except ConfigError as exc:
        raise UsageError(f"{bets}: {exc}") from exc
    deck = getattr(args, "deck", "continuous")
    if deck == "continuous":
        return cfg
    try:
        deck_size = int(deck)
    except ValueError:
        raise UsageError(f"--deck expects 'continuous' or an integer, got {deck!r}")
    try:
        return GameConfig(high, low, deck_size)
    except ConfigError as exc:
        raise UsageError(f"--deck: {exc}") from exc


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(ENV_SEED)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}")


def _check_solver_options(args: argparse.Namespace) -> None:
    if args.bins < 2:
        raise UsageError(f"--bins needs at least 2 bins, got {args.bins}")
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise UsageError(f"--epsilon must be positive and finite, got {args.epsilon!r}")
    if args.max_iters < 1:
        raise UsageError(f"--max-iters must be at least 1, got {args.max_iters}")


def _write_file(path: str, text: str, flag: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"--{flag}: cannot write {path!r}: {exc.strerror or exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        _write_file(args.out, text, "out")
    else:
        sys.stdout.write(text + "\n")


def _dump_strategy(args: argparse.Namespace, s: Strategy) -> None:
    path = getattr(args, "dump_strategy", None)
    if path:
        _write_file(path, s.to_json(), "dump-strategy")


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="bluffsolve",
        description="Analysis workbench for the two-action sealed-bid poker game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        return p

    p = command("equilibrium", "closed-form equilibrium (t_star, p_star)")
    _add_game_options(p)

    p = command("payoff", "exact expected payoff of strategy 1 vs strategy 2")
    _add_game_options(p)
    p.add_argument("--s1", default=None)
    p.add_argument("--s1-file", default=None)
    p.add_argument("--s2", default=None)
    p.add_argument("--s2-file", default=None)

    p = command("evs", "conditional EV of each bet vs a fixed opponent, on a grid")
    _add_game_options(p)
    p.add_argument("--opponent", default=None)
    p.add_argument("--opponent-file", default=None)
    p.add_argument("--grid", type=int, default=201, help="number of grid points")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--dump-strategy", default=None)

    p = command("best-response", "exact best response vs a fixed opponent")
    _add_game_options(p)
    p.add_argument("--opponent", default=None)
    p.add_argument("--opponent-file", default=None)
    p.add_argument("--dump-strategy", default=None)

    p = command("exploit", "exploitability (best-response value) of a strategy")
    _add_game_options(p)
    p.add_argument("--s", default=None)
    p.add_argument("--strategy-file", default=None)
    p.add_argument("--dump-strategy", default=None)

    p = command("solve", "fictitious-play equilibrium search over binned strategies")
    _add_game_options(p)
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--strict", action="store_true", help="exit 1 on non-convergence")

    p = command("sweep", "closed form plus solver verification across bet ratios")
    p.add_argument("--ratios", required=True, help="comma-separated ratios, e.g. 1.5,2,3")
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--strict", action="store_true")

    p = command("simulate", "seeded Monte Carlo estimate of the expected payoff")
    _add_game_options(p, deck=True)
    p.add_argument("--s1", default=None)
    p.add_argument("--s1-file", default=None)
    p.add_argument("--s2", default=None)
    p.add_argument("--s2-file", default=None)
    p.add_argument("--hands", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=montecarlo.DEFAULT_CHUNK_SIZE)
    p.add_argument(
        "--schedule",
        default=None,
        help="comma-separated hand counts; emits a convergence report instead",
    )
    p.add_argument("--format", choices=("json", "csv"), default=None)

    p = command("brute-force", "exact expected payoff for a discrete deck")
    _add_game_options(p, deck=True)
    p.add_argument("--s1", default=None)
    p.add_argument("--s1-file", default=None)
    p.add_argument("--s2", default=None)
    p.add_argument("--s2-file", default=None)

    p = command("taxonomy", "3x3 payoff table of the named strategy types")
    _add_game_options(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _pair(args: argparse.Namespace) -> tuple[Strategy, Strategy]:
    return (
        _resolve_strategy(args.s1, args.s1_file, "s1"),
        _resolve_strategy(args.s2, args.s2_file, "s2"),
    )


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    point = analytic.closed_form_equilibrium(cfg)
    _emit(args, _json({"t_star": point.t_star, "p_star": point.p_star}))
    return 0


def _cmd_payoff(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    s1, s2 = _pair(args)
    result = analytic.expected_payoff(cfg, s1, s2)
    _emit(
        args,
        _json(
            {
                "value": result.value,
                "hh": result.hh,
                "hl": result.hl,
                "lh": result.lh,
                "ll": result.ll,
            }
        ),
    )
    return 0


def _cmd_evs(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    opponent = _resolve_strategy(args.opponent, args.opponent_file, "opponent")
    _dump_strategy(args, opponent)
    if args.grid < 2:
        raise UsageError(f"--grid needs at least 2 points, got {args.grid}")
    evs = analytic.conditional_evs(cfg, opponent)
    grid = np.linspace(0.0, 1.0, args.grid)
    high = evs.ev_high(grid)
    low = evs.ev_low(grid)
    if args.format == "json":
        _emit(
            args,
            _json(
                {
                    "v": [float(x) for x in grid],
                    "ev_high": [float(x) for x in high],
                    "ev_low": [float(x) for x in low],
                }
            ),
        )
    else:
        rows = [f"{_fmt(v)},{_fmt(h)},{_fmt(l)}" for v, h, l in zip(grid, high, low)]
        _emit(args, _csv("v,ev_high,ev_low", rows))
    return 0


def _cmd_best_response(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    opponent = _resolve_strategy(args.opponent, args.opponent_file, "opponent")
    _dump_strategy(args, opponent)
    result = solver.best_response(cfg, opponent)
    _emit(args, _json({"value": result.value, "strategy": result.action_rule.to_dict()}))
    return 0


def _cmd_exploit(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    s = _resolve_strategy(args.s, args.strategy_file, "s")
    _dump_strategy(args, s)
    _emit(args, _json({"exploitability": solver.exploitability(cfg, s)}))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _check_solver_options(args)
    result = solver.fictitious_play(
        cfg, bins=args.bins, epsilon=args.epsilon, max_iters=args.max_iters
    )
    _emit(
        args,
        _json(
            {
                "strategy": result.strategy.to_dict(),
                "exploitability": result.exploitability,
                "iterations": result.iterations,
                "bin_count": result.bin_count,
                "converged": result.converged,
            }
        ),
    )
    if not result.converged:
        print(
            f"warning: not converged (exploitability {result.exploitability:.3g} "
            f"> epsilon {args.epsilon:.3g})",
            file=sys.stderr,
        )
        if args.strict:
            return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --ratios value {args.ratios!r}: {exc}") from exc
    if not ratios:
        raise UsageError("--ratios must list at least one ratio")
    if not all(math.isfinite(r) for r in ratios):
        raise UsageError(f"--ratios must be finite, got {args.ratios!r}")
    if any(r <= 1.0 for r in ratios):
        raise UsageError("every ratio must exceed 1")
    _check_solver_options(args)
    rows = solver.ratio_sweep(
        ratios, bins=args.bins, epsilon=args.epsilon, max_iters=args.max_iters
    )
    if args.format == "json":
        _emit(
            args,
            _json(
                [
                    {
                        "ratio": r.ratio,
                        "t_star": r.t_star,
                        "p_star": r.p_star,
                        "exploitability": r.exploitability,
                        "iterations": r.iterations,
                        "converged": r.converged,
                    }
                    for r in rows
                ]
            ),
        )
    else:
        lines = [
            f"{_fmt(r.ratio)},{_fmt(r.t_star)},{_fmt(r.p_star)},"
            f"{_fmt(r.exploitability)},{r.iterations}"
            for r in rows
        ]
        _emit(args, _csv("ratio,t_star,p_star,exploitability,iterations", lines))
    failed = [r for r in rows if not r.converged]
    for r in failed:
        print(f"warning: ratio {r.ratio:g} did not converge", file=sys.stderr)
    if failed and args.strict:
        return 1
    return 0


def _estimate_csv_row(est: montecarlo.MCEstimate) -> str:
    return (
        f"{est.hands},{_fmt(est.mean)},{_fmt(est.std_error)},"
        f"{_fmt(est.replay_rate)},{est.seed}"
    )


def _estimate_obj(est: montecarlo.MCEstimate) -> dict:
    return {
        "mean": est.mean,
        "std_error": est.std_error,
        "hands": est.hands,
        "seed": est.seed,
        "replay_rate": est.replay_rate,
        "chunk_size": est.chunk_size,
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    s1, s2 = _pair(args)
    seed = _default_seed(args.seed)
    if args.chunk_size < 1:
        raise UsageError(f"--chunk-size must be at least 1, got {args.chunk_size}")
    if cfg.deck_size is not None and cfg.deck_size > montecarlo.MAX_SIMULATED_DECK:
        limit = montecarlo.MAX_SIMULATED_DECK.bit_length() - 1
        raise UsageError(
            f"--deck: a simulated deck holds at most 2**{limit} cards, got {args.deck}"
        )
    if args.schedule is not None:
        try:
            schedule = [int(x) for x in args.schedule.split(",") if x.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --schedule value {args.schedule!r}: {exc}") from exc
        if not schedule or any(h < 1 for h in schedule):
            raise UsageError("--schedule needs positive hand counts")
        report = montecarlo.convergence_report(
            cfg, s1, s2, schedule, seed=seed, chunk_size=args.chunk_size
        )
        if args.format == "json":
            _emit(args, _json([_estimate_obj(e) for e in report]))
        else:
            _emit(
                args,
                _csv("hands,mean,std_err,replay_rate,seed", [_estimate_csv_row(e) for e in report]),
            )
        return 0
    if args.hands < 1:
        raise UsageError(f"--hands must be positive, got {args.hands}")
    est = montecarlo.simulate(cfg, s1, s2, hands=args.hands, seed=seed, chunk_size=args.chunk_size)
    if args.format == "csv":
        _emit(args, _csv("hands,mean,std_err,replay_rate,seed", [_estimate_csv_row(est)]))
    else:
        _emit(args, _json(_estimate_obj(est)))
    return 0


def _cmd_brute_force(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if cfg.deck_size is None:
        raise UsageError("brute-force needs a discrete deck: pass --deck M (M >= 2)")
    s1, s2 = _pair(args)
    try:
        result = montecarlo.brute_force_discrete(cfg, s1, s2)
    except ValueError as exc:
        raise ComputationError(str(exc)) from exc
    _emit(
        args,
        _json(
            {
                "value": str(result.value),
                "value_float": result.value_float,
                "replay_probability": str(result.replay_probability),
                "replay_probability_float": result.replay_probability_float,
            }
        ),
    )
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    table = analytic.taxonomy_table(cfg)
    if args.format == "csv":
        rows = [
            f"{row},{col},{_fmt(table[row][col].value)}"
            for row in TAXONOMY_KEYS
            for col in TAXONOMY_KEYS
        ]
        _emit(args, _csv("row,col,value", rows))
    else:
        _emit(
            args,
            _json({row: {col: table[row][col].value for col in TAXONOMY_KEYS} for row in TAXONOMY_KEYS}),
        )
    return 0


_HANDLERS = {
    "equilibrium": _cmd_equilibrium,
    "payoff": _cmd_payoff,
    "evs": _cmd_evs,
    "best-response": _cmd_best_response,
    "exploit": _cmd_exploit,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "brute-force": _cmd_brute_force,
    "taxonomy": _cmd_taxonomy,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ConfigError, StrategyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
