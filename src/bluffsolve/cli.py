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
import itertools
import json
import os
import sys

import numpy as np

from . import analytic, montecarlo, solver
from .analytic import TAXONOMY_KEYS
from .engine import ArgumentError, ConfigError, GameConfig
from .strategy import Strategy, StrategyError, a_type, b_type, m_deterministic, threshold_mix

ENV_SEED = "BLUFFSOLVE_SEED"


class UsageError(Exception):
    """Bad command line: unknown spec, conflicting flags, invalid config."""


#: Compact JSON. A result dataclass serialises as its fields in declaration
#: order: ``vars`` reads them without the deep copy ``dataclasses.asdict`` makes.
_json = json.JSONEncoder(separators=(",", ":"), default=vars).encode


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


def _strategies(args: argparse.Namespace) -> list[Strategy]:
    """The command's strategies, each from its inline spec or its JSON file.

    ``args.strategies`` holds the parser's own (spec, file) actions, so a
    message names only flags the command has.
    """
    resolved = []
    for spec, path in getattr(args, "strategies", ()):
        inline, file = getattr(args, spec.dest), getattr(args, path.dest)
        if (inline is None) == (file is None):
            raise UsageError(
                f"exactly one of {spec.option_strings[0]} or {path.option_strings[0]} is required"
            )
        resolved.append(
            parse_strategy_spec(inline) if inline is not None else _load_strategy_file(file)
        )
    return resolved


def _build_config(args: argparse.Namespace) -> GameConfig:
    if args.ratio is not None and (args.a is not None or args.b is not None):
        raise UsageError("--ratio and --a/--b are mutually exclusive")
    if args.ratio is not None:
        bets, high, low = "--ratio", args.ratio, 1
    else:
        bets = "--a/--b"
        high = 2 if args.a is None else args.a
        low = 1 if args.b is None else args.b
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
    if args.dump_strategy:
        _write_file(args.dump_strategy, s.to_json(), "dump-strategy")


def _csv(header: str, row: str, records) -> str:
    """A CSV table: ``header``, then the template ``row`` filled with each record.

    Float columns use ``{:.17g}``, which round-trips every double; integer
    columns use ``{}``, exact at any size.
    """
    return "\n".join([header, *itertools.starmap(row.format, records)])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; callers must not modify it.

    Each option group is declared once, as a parent parser, and each command
    lists its groups in the order its help shows them.
    """
    group = functools.partial(argparse.ArgumentParser, add_help=False)

    def strategies(*pairs: tuple[str, str]) -> argparse.ArgumentParser:
        g = group()
        declared = tuple((g.add_argument(spec), g.add_argument(path)) for spec, path in pairs)
        g.set_defaults(strategies=declared)
        return g

    def formats(*choices: str, default: str | None) -> argparse.ArgumentParser:
        g = group()
        g.add_argument("--format", choices=choices, default=default)
        return g

    out = group()
    out.add_argument("--out", default=None, help="write output to this path instead of stdout")
    game = group()
    game.add_argument("--a", type=float, default=None, help="high bet (default 2)")
    game.add_argument("--b", type=float, default=None, help="low bet (default 1)")
    game.add_argument(
        "--ratio", type=float, default=None, help="bet ratio a/b with b=1 (excludes --a/--b)"
    )
    deck = group()
    deck.add_argument(
        "--deck", default="continuous", help="card model: 'continuous' or a card count M >= 2"
    )
    pair = strategies(("--s1", "--s1-file"), ("--s2", "--s2-file"))
    opponent = strategies(("--opponent", "--opponent-file"))
    dump = group()
    dump.add_argument("--dump-strategy", default=None)
    solving = group()
    solving.add_argument(
        "--bins",
        type=int,
        default=200,
        help="solve over strategies constant on this many equal bins of [0, 1], at least 2 "
        "(default 200)",
    )
    solving.add_argument(
        "--epsilon",
        type=float,
        default=1e-3,
        help="stop at the first iterate whose exact exploitability, in units of the low "
        "bet b, is at most this (default 1e-3)",
    )
    solving.add_argument(
        "--max-iters",
        type=int,
        default=5000,
        help="solver steps at most; a run that ends here reports its best iterate as not "
        "converged (default 5000)",
    )
    strict = group()  # its own group: sweep's usage line puts --format before it
    strict.add_argument("--strict", action="store_true", help="exit 1 on non-convergence")
    grid = group()
    grid.add_argument("--grid", type=int, default=201, help="number of grid points")
    ratios = group()
    ratios.add_argument("--ratios", required=True, help="comma-separated ratios, e.g. 1.5,2,3")
    hands = group()
    # --hands is read only without --schedule; argparse rejects the pair.
    count = hands.add_mutually_exclusive_group()
    count.add_argument("--hands", type=int, default=100_000)
    hands.add_argument("--seed", type=int, default=None)
    hands.add_argument("--chunk-size", type=int, default=montecarlo.DEFAULT_CHUNK_SIZE)
    count.add_argument(
        "--schedule",
        default=None,
        help="comma-separated hand counts; emits a convergence report instead",
    )
    csv_first = formats("csv", "json", default="csv")
    groups = {
        "equilibrium": [game],
        "payoff": [game, pair],
        "evs": [game, opponent, grid, csv_first, dump],
        "best-response": [game, opponent, dump],
        "exploit": [game, strategies(("--s", "--strategy-file")), dump],
        "solve": [game, solving, strict],
        "sweep": [ratios, solving, csv_first, strict],
        "simulate": [game, deck, pair, hands, formats("json", "csv", default=None)],
        "brute-force": [game, deck, pair],
        "taxonomy": [game, formats("json", "csv", default="json")],
    }

    parser = argparse.ArgumentParser(
        prog="bluffsolve",
        description="Analysis workbench for the two-action sealed-bid poker game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[out, *groups[name]])
    return parser


def _cmd_equilibrium(args: argparse.Namespace, cfg: GameConfig) -> int:
    _emit(args, _json(analytic.closed_form_equilibrium(cfg)))
    return 0


def _cmd_payoff(args: argparse.Namespace, cfg: GameConfig, s1: Strategy, s2: Strategy) -> int:
    _emit(args, _json(analytic.expected_payoff(cfg, s1, s2)))
    return 0


def _cmd_evs(args: argparse.Namespace, cfg: GameConfig, opponent: Strategy) -> int:
    if args.grid < 2:
        raise UsageError(f"--grid needs at least 2 points, got {args.grid}")
    _dump_strategy(args, opponent)
    evs = analytic.conditional_evs(cfg, opponent)
    grid = np.linspace(0.0, 1.0, args.grid)
    high = evs.ev_high(grid)
    low = evs.ev_low(grid)
    if args.format == "json":
        _emit(args, _json({"v": grid.tolist(), "ev_high": high.tolist(), "ev_low": low.tolist()}))
    else:
        records = zip(grid.tolist(), high.tolist(), low.tolist())
        _emit(args, _csv("v,ev_high,ev_low", "{:.17g},{:.17g},{:.17g}", records))
    return 0


def _cmd_best_response(args: argparse.Namespace, cfg: GameConfig, opponent: Strategy) -> int:
    _dump_strategy(args, opponent)
    result = solver.best_response(cfg, opponent)
    _emit(args, _json({"value": result.value, "strategy": result.action_rule}))
    return 0


def _cmd_exploit(args: argparse.Namespace, cfg: GameConfig, s: Strategy) -> int:
    _dump_strategy(args, s)
    _emit(args, _json({"exploitability": solver.exploitability(cfg, s)}))
    return 0


def _cmd_solve(args: argparse.Namespace, cfg: GameConfig) -> int:
    result = solver.fictitious_play(
        cfg, bins=args.bins, epsilon=args.epsilon, max_iters=args.max_iters
    )
    _emit(args, _json({k: v for k, v in vars(result).items() if k != "trace"}))
    if not result.converged:
        print(
            f"warning: not converged (exploitability {result.exploitability:.3g} > "
            f"epsilon {args.epsilon:.3g} x b {float(cfg.low_bet):.3g})",
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
    try:
        rows = solver.ratio_sweep(
            ratios, bins=args.bins, epsilon=args.epsilon, max_iters=args.max_iters
        )
    except ConfigError as exc:
        raise UsageError(f"--ratios: {exc}") from exc
    if args.format == "json":
        _emit(args, _json(rows))
    else:
        template = "{:.17g},{:.17g},{:.17g},{:.17g},{}"
        records = [(r.ratio, r.t_star, r.p_star, r.exploitability, r.iterations) for r in rows]
        _emit(args, _csv("ratio,t_star,p_star,exploitability,iterations", template, records))
    failed = [r for r in rows if not r.converged]
    for r in failed:
        print(f"warning: ratio {r.ratio:g} did not converge", file=sys.stderr)
    if failed and args.strict:
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace, cfg: GameConfig, s1: Strategy, s2: Strategy) -> int:
    seed = _default_seed(args.seed)
    if args.schedule is None:
        report = [montecarlo.simulate(cfg, s1, s2, args.hands, seed, args.chunk_size)]
    else:
        try:
            schedule = [int(x) for x in args.schedule.split(",") if x.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --schedule value {args.schedule!r}: {exc}") from exc
        report = montecarlo.convergence_report(cfg, s1, s2, schedule, seed, args.chunk_size)
    # A report is a table, CSV by default; a single estimate is JSON by default.
    if args.format == "csv" or (args.format is None and args.schedule is not None):
        template = "{},{:.17g},{:.17g},{:.17g},{}"
        records = [(e.hands, e.mean, e.std_error, e.replay_rate, e.seed) for e in report]
        _emit(args, _csv("hands,mean,std_err,replay_rate,seed", template, records))
    else:
        _emit(args, _json(report if args.schedule is not None else report[0]))
    return 0


def _cmd_brute_force(args: argparse.Namespace, cfg: GameConfig, s1: Strategy, s2: Strategy) -> int:
    result = montecarlo.brute_force_discrete(cfg, s1, s2)
    exact = {}
    for name, value in vars(result).items():
        # Each exact fraction prints as its text, then as the nearest float.
        exact[name], exact[f"{name}_float"] = str(value), float(value)
    _emit(args, _json(exact))
    return 0


def _cmd_taxonomy(args: argparse.Namespace, cfg: GameConfig) -> int:
    table = analytic.taxonomy_table(cfg)
    if args.format == "csv":
        records = [
            (row, col, table[row][col].value) for row in TAXONOMY_KEYS for col in TAXONOMY_KEYS
        ]
        _emit(args, _csv("row,col,value", "{},{},{:.17g}", records))
    else:
        _emit(
            args,
            _json({row: {col: table[row][col].value for col in TAXONOMY_KEYS} for row in TAXONOMY_KEYS}),
        )
    return 0


#: Each subcommand's help line and handler, in the order ``bluffsolve --help`` lists them.
_COMMANDS = {
    "equilibrium": ("closed-form equilibrium (t_star, p_star)", _cmd_equilibrium),
    "payoff": ("exact expected payoff of strategy 1 vs strategy 2", _cmd_payoff),
    "evs": ("conditional EV of each bet vs a fixed opponent, on a grid", _cmd_evs),
    "best-response": ("exact best response vs a fixed opponent", _cmd_best_response),
    "exploit": ("exploitability (best-response value) of a strategy", _cmd_exploit),
    "solve": ("PRM+ and Polyak-step equilibrium search over binned strategies", _cmd_solve),
    "sweep": ("closed form plus solver verification across bet ratios", _cmd_sweep),
    "simulate": ("seeded Monte Carlo estimate of the expected payoff", _cmd_simulate),
    "brute-force": ("exact expected payoff for a discrete deck", _cmd_brute_force),
    "taxonomy": ("3x3 payoff table of the named strategy types", _cmd_taxonomy),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # A handler takes the game the options set (sweep, which plays a list of
        # ratios, has none), then the strategies its command reads.
        game = [_build_config(args)] if "ratio" in args else []
        _, handler = _COMMANDS[args.command]
        return handler(args, *game, *_strategies(args))
    except ArgumentError as exc:
        print(f"error: --{exc.parameter.replace('_', '-')}: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ConfigError, StrategyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
