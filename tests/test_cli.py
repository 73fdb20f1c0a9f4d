"""CLI surface: commands, formats, exit codes, reproducibility."""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bluffsolve.cli import build_parser, main, parse_strategy_spec
from bluffsolve.strategy import a_type, b_type, m_deterministic, threshold_mix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SIM = ["simulate", "--s1", "threshold:0.5:0.25", "--s2", "m-det:0.4", "--seed", "3"]
SWEEP = ["sweep", "--ratios", "1.5,2", "--bins", "2", "--max-iters", "3"]

#: Exact stdout of one argv per output shape.
EXACT_OUTPUTS = [
    (
        ["payoff", "--ratio", "3", "--s1", "m-det:0.25", "--s2", "threshold:0.5:0.25"],
        '{"value":-0.0625,"hh":-0.140625,"hl":0.28125,"lh":-0.15625,"ll":-0.046875}\n',
    ),
    (
        ["best-response", "--ratio", "2", "--opponent", "threshold:0.5:0.25"],
        '{"value":0.017578125,"strategy":{"breakpoints":[0.25,0.53125],"high_prob":[1.0,0.0,1.0]}}\n',
    ),
    (["exploit", "--ratio", "2", "--s", "m-det:0.3"], '{"exploitability":0.061250000000000145}\n'),
    (
        ["evs", "--opponent", "threshold:0.5:0.25", "--grid", "3"],
        "v,ev_high,ev_low\n0,-0.875,-1\n0.5,-0.375,-0.25\n1,1.625,-0.25\n",
    ),
    (
        ["evs", "--opponent", "threshold:0.5:0.25", "--grid", "3", "--format", "json"],
        '{"v":[0.0,0.5,1.0],"ev_high":[-0.875,-0.375,1.625],"ev_low":[-1.0,-0.25,-0.25]}\n',
    ),
    (
        ["solve", "--ratio", "2", "--bins", "2", "--max-iters", "5"],
        '{"strategy":{"breakpoints":[0.5],"high_prob":[0.4514042018441994,1.0]},'
        '"exploitability":0.02213828784578751,"iterations":5,"bin_count":2,"converged":false}\n',
    ),
    (
        SWEEP,
        "ratio,t_star,p_star,exploitability,iterations\n"
        "1.5,0.33333333333333331,0.40000000000000002,0.041666666666666657,3\n"
        "2,0.5,0.33333333333333331,0.026302499789579922,3\n",
    ),
    (
        [*SWEEP, "--format", "json"],
        '[{"ratio":1.5,"t_star":0.3333333333333333,"p_star":0.4,"exploitability":0.04166666666666666,'
        '"iterations":3,"converged":false},{"ratio":2.0,"t_star":0.5,"p_star":0.3333333333333333,'
        '"exploitability":0.026302499789579922,"iterations":3,"converged":false}]\n',
    ),
    (
        [*SIM, "--hands", "1000"],
        '{"mean":0.046,"std_error":0.04677683264258144,"hands":1000,"seed":3,"replay_rate":0.0,'
        '"chunk_size":262144}\n',
    ),
    (
        [*SIM, "--hands", "1000", "--format", "csv"],
        "hands,mean,std_err,replay_rate,seed\n1000,0.045999999999999999,0.046776832642581437,0,3\n",
    ),
    (
        [*SIM, "--schedule", "10,100"],
        "hands,mean,std_err,replay_rate,seed\n10,0.5,0.5,0,3\n"
        "100,-0.070000000000000007,0.14372743564669813,0,4\n",
    ),
    (
        [*SIM, "--schedule", "10,100", "--format", "json"],
        '[{"mean":0.5,"std_error":0.5,"hands":10,"seed":3,"replay_rate":0.0,"chunk_size":262144},'
        '{"mean":-0.07,"std_error":0.14372743564669813,"hands":100,"seed":4,"replay_rate":0.0,'
        '"chunk_size":262144}]\n',
    ),
    (
        ["taxonomy", "--format", "csv"],
        "row,col,value\na,a,0\na,b,1\na,m,0\nb,a,-1\nb,b,0\nb,m,-0.25\nm,a,0\nm,b,0.25\nm,m,0\n",
    ),
    (
        ["taxonomy"],
        '{"a":{"a":0.0,"b":1.0,"m":0.0},"b":{"a":-1.0,"b":0.0,"m":-0.25},"m":{"a":0.0,"b":0.25,"m":0.0}}\n',
    ),
    (
        ["brute-force", "--deck", "5", "--s1", "a-type", "--s2", "a-type"],
        '{"value":"0","value_float":0.0,"replay_probability":"1/5","replay_probability_float":0.2}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, stdout", EXACT_OUTPUTS, ids=[" ".join(argv) for argv, _ in EXACT_OUTPUTS]
)
def test_exact_stdout(capsys, argv, stdout):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, stdout)


class TestStrategySpecs:
    def test_named_forms(self):
        assert parse_strategy_spec("a-type") == a_type()
        assert parse_strategy_spec("b-type") == b_type()
        assert parse_strategy_spec("m-det:0.5") == m_deterministic(0.5)
        assert parse_strategy_spec("threshold:0.5:0.3333") == threshold_mix(0.5, 0.3333)

    def test_malformed_specs(self):
        from bluffsolve.cli import UsageError

        for bad in ("nope", "threshold:0.5", "m-det:2.0", "threshold:0.5:1.5", "a-type:1"):
            with pytest.raises(UsageError):
                parse_strategy_spec(bad)


class TestEquilibriumCommand:
    def test_ratio_two(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "--ratio", "2")
        assert code == 0
        assert out == '{"t_star":0.5,"p_star":0.3333333333333333}\n'

    def test_explicit_bets(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "--a", "3", "--b", "1")
        assert code == 0
        data = json.loads(out)
        assert data["t_star"] == pytest.approx(2 / 3, abs=1e-12)
        assert data["p_star"] == pytest.approx(0.25, abs=1e-12)

    def test_ratio_conflicts_with_bets(self, capsys):
        code, _, err = run(capsys, "equilibrium", "--ratio", "2", "--a", "2")
        assert code == 2
        assert "mutually exclusive" in err

    def test_invalid_config(self, capsys):
        code, _, err = run(capsys, "equilibrium", "--a", "1", "--b", "1")
        assert code == 2
        assert "high bet" in err


class TestPayoffCommand:
    def test_a_vs_b(self, capsys):
        code, out, _ = run(
            capsys, "payoff", "--a", "2", "--b", "1", "--s1", "a-type", "--s2", "b-type"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 1.0
        assert data["hh"] + data["hl"] + data["lh"] + data["ll"] == pytest.approx(1.0)

    def test_requires_both_strategies(self, capsys):
        code, _, err = run(capsys, "payoff", "--s1", "a-type")
        assert code == 2
        assert "--s2" in err


class TestExploitCommand:
    def test_equilibrium_certificate(self, capsys):
        code, out, _ = run(
            capsys, "exploit", "--ratio", "2", "--s", "threshold:0.5:0.3333333333333333"
        )
        assert code == 0
        assert json.loads(out)["exploitability"] <= 1e-9

    def test_round_trip_through_strategy_file(self, capsys, tmp_path):
        path = tmp_path / "strategy.json"
        code, first, _ = run(
            capsys,
            "exploit",
            "--ratio", "2",
            "--s", "threshold:0.5:0.3333333333333333",
            "--dump-strategy", str(path),
        )
        assert code == 0
        code, second, _ = run(
            capsys, "exploit", "--ratio", "2", "--strategy-file", str(path)
        )
        assert code == 0
        assert first == second

    def test_bad_strategy_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"breakpoints":[0.9,0.1],"high_prob":[0,0,1]}')
        code, _, err = run(capsys, "exploit", "--ratio", "2", "--strategy-file", str(path))
        assert code == 2
        assert "strictly increasing" in err

    @pytest.mark.parametrize("flags", [[], ["--s", "a-type", "--strategy-file", "unread.json"]])
    def test_needs_exactly_one_strategy(self, capsys, flags):
        code, out, err = run(capsys, "exploit", *flags)
        assert (code, out) == (2, "")
        assert err == "error: exactly one of --s or --strategy-file is required\n"


class TestEvsCommand:
    def test_grid_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "evs",
            "--ratio", "2",
            "--opponent", "threshold:0.5:0.3333333333333333",
            "--grid", "101",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,ev_high,ev_low"
        assert len(lines) == 102
        for line in lines[1:]:
            v, ev_high, ev_low = map(float, line.split(","))
            if v < 0.5:
                assert ev_high == pytest.approx(ev_low, abs=1e-10)
            elif v > 0.5:
                assert ev_high > ev_low

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "evs", "--opponent", "a-type", "--grid", "3", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["v"] == [0.0, 0.5, 1.0]
        assert data["ev_high"] == [-2.0, 0.0, 2.0]
        assert data["ev_low"] == [-1.0, -1.0, -1.0]

    def test_bad_grid_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "opponent.json"
        code, out, err = run(
            capsys, "evs", "--opponent", "a-type", "--grid", "1", "--dump-strategy", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --grid")
        assert not path.exists()


class TestBestResponseCommand:
    def test_vs_always_high(self, capsys):
        code, out, _ = run(capsys, "best-response", "--ratio", "2", "--opponent", "a-type")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.125, abs=1e-12)
        assert data["strategy"]["breakpoints"] == [0.25]
        assert data["strategy"]["high_prob"] == [0.0, 1.0]


class TestSolveCommand:
    def test_two_bins_converges(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--ratio", "2", "--bins", "2", "--epsilon", "1e-9"
        )
        assert code == 0
        data = json.loads(out)
        assert data["converged"] is True
        assert data["exploitability"] <= 1e-9
        assert data["bin_count"] == 2

    def test_strict_non_convergence_exits_one(self, capsys):
        code, out, err = run(
            capsys,
            "solve",
            "--ratio", "2",
            "--bins", "8",
            "--epsilon", "1e-15",
            "--max-iters", "3",
            "--strict",
        )
        assert code == 1
        assert json.loads(out)["converged"] is False
        assert "not converged" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--bins", "1"],
        ["solve", "--max-iters", "0"],
        ["solve", "--epsilon", "0"],
        ["solve", "--epsilon", "nan"],
        ["solve", "--epsilon", "inf"],
        ["sweep", "--ratios", "2", "--bins", "1"],
        ["sweep", "--ratios", "2", "--epsilon", "-1"],
        ["sweep", "--ratios", "2", "--max-iters", "0"],
        ["sweep", "--ratios", "nan"],
        ["sweep", "--ratios", "inf"],
        ["sweep", "--ratios", "2,nan"],
        ["solve", "--ratio", "inf", "--bins", "2"],
        ["solve", "--ratio", "nan", "--bins", "2"],
    ],
)
def test_bad_solver_arguments_are_usage_errors(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--a", "nan"],
        ["equilibrium", "--b", "inf"],
        ["equilibrium", "--b", "1e-308"],
        ["equilibrium", "--a", "1e308", "--b", "0.5"],
        ["payoff", "--s1", "a-type", "--s2", "b-type", "--ratio", "nan"],
        ["simulate", "--s1", "a-type", "--s2", "b-type", "--chunk-size", "0"],
        ["simulate", "--s1", "a-type", "--s2", "b-type", "--chunk-size", "0", "--schedule", "10"],
        ["simulate", "--deck", str(10**20), "--s1", "a-type", "--s2", "b-type", "--hands", "1000"],
        ["simulate", "--deck", str(10**400), "--s1", "a-type", "--s2", "b-type", "--hands", "1000"],
        ["brute-force", "--deck", "20000", "--s1", "a-type", "--s2", "a-type"],
    ],
)
def test_non_finite_bets_and_bad_chunk_sizes_are_usage_errors(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize(
    "deck, command, stderr",
    [
        (
            str(10**20),
            "simulate",
            "error: --deck: a simulated deck holds at most 2**53 cards, got 100000000000000000000\n",
        ),
        (
            "1_000_000_000_000_000_000",
            "simulate",
            "error: --deck: a simulated deck holds at most 2**53 cards, got 1000000000000000000\n",
        ),
        (
            "20000",
            "brute-force",
            "error: --deck: deck of 20000 cards exceeds the enumeration limit 10000\n",
        ),
    ],
    ids=["simulate", "simulate-underscores", "brute-force"],
)
def test_deck_limit_messages(capsys, deck, command, stderr):
    argv = [command, "--deck", deck, "--s1", "a-type", "--s2", "b-type"]
    assert run(capsys, *argv) == (2, "", stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--out"],
        ["best-response", "--opponent", "b-type", "--dump-strategy"],
    ],
)
def test_unwritable_output_paths_are_usage_errors(capsys, tmp_path, argv):
    assert_usage_error(capsys, [*argv, str(tmp_path / "missing" / "file")])


def test_out_of_memory_is_a_computation_error(capsys):
    # 10^15 grid points would take 7 PiB.
    code, out, err = run(capsys, "evs", "--opponent", "a-type", "--grid", str(10**15))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def assert_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestSweepCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--ratios", "1.5,2,3",
            "--bins", "2",
            "--epsilon", "1e-6",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ratio,t_star,p_star,exploitability,iterations"
        assert len(lines) == 4
        ratio2 = lines[2].split(",")
        assert float(ratio2[0]) == 2.0
        assert float(ratio2[1]) == pytest.approx(0.5, abs=1e-12)
        assert float(ratio2[2]) == pytest.approx(1 / 3, abs=1e-12)
        assert float(ratio2[3]) <= 1e-6

    def test_empty_ratio_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--ratios", "")
        assert code == 2
        assert "at least one ratio" in err

    def test_ratio_below_one_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--ratios", "0.5,2")
        assert code == 2


class TestSimulateCommand:
    def test_json_estimate(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--s1", "a-type",
            "--s2", "b-type",
            "--hands", "1000",
            "--seed", "3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["mean"] == 1.0
        assert data["hands"] == 1000
        assert data["seed"] == 3

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "simulate",
            "--s1", "threshold:0.5:0.3333333333333333",
            "--s2", "a-type",
            "--hands", "20000",
            "--seed", "17",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_schedule_emits_convergence_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--s1", "a-type",
            "--s2", "b-type",
            "--schedule", "100,1000",
            "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "hands,mean,std_err,replay_rate,seed"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "100"

    def test_env_seed_default_and_flag_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BLUFFSOLVE_SEED", "55")
        code, out, _ = run(
            capsys, "simulate", "--s1", "a-type", "--s2", "b-type", "--hands", "10"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 55
        code, out, _ = run(
            capsys,
            "simulate", "--s1", "a-type", "--s2", "b-type", "--hands", "10",
            "--seed", "7",
        )
        assert json.loads(out)["seed"] == 7

    def test_discrete_deck(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--deck", "2",
            "--s1", "a-type",
            "--s2", "a-type",
            "--hands", "5000",
            "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["replay_rate"] == pytest.approx(0.5, abs=0.05)


class TestBruteForceCommand:
    def test_exact_output(self, capsys):
        code, out, _ = run(
            capsys, "brute-force", "--deck", "3", "--s1", "a-type", "--s2", "b-type"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "1"
        assert data["value_float"] == 1.0
        assert data["replay_probability"] == "0"

    def test_requires_discrete_deck(self, capsys):
        code, _, err = run(capsys, "brute-force", "--s1", "a-type", "--s2", "b-type")
        assert code == 2
        assert "--deck" in err


class TestTaxonomyCommand:
    def test_json_table(self, capsys):
        code, out, _ = run(capsys, "taxonomy")
        assert code == 0
        table = json.loads(out)
        assert table["a"]["b"] == 1.0
        assert table["m"]["b"] == pytest.approx(0.25, abs=1e-12)
        assert table["m"]["a"] == pytest.approx(0.0, abs=1e-12)

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "taxonomy", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "row,col,value"
        assert len(lines) == 10


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "eq.json"
        code, out, _ = run(capsys, "equilibrium", "--ratio", "2", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == '{"t_star":0.5,"p_star":0.3333333333333333}\n'


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_json_floats_reparse_exactly(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "--ratio", "2")
        assert json.loads(out)["p_star"] == 1 / 3


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        assert main(["equilibrium"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["equilibrium"], ["taxonomy"], ["payoff", "--bogus"], ["evs", "--grid", "3"]):
            for _ in range(10):
                main(argv)
        assert built == []
        assert build_parser() is build_parser()

    def test_values_do_not_carry_over(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "evs", "--opponent", "a-type", "--grid", "11")
        assert code == 0 and len(out.splitlines()) == 12
        code, out, _ = run(capsys, "evs", "--opponent", "a-type")
        assert code == 0 and len(out.splitlines()) == 202

        simulate = ["simulate", "--s1", "a-type", "--s2", "b-type", "--hands", "10"]
        monkeypatch.delenv("BLUFFSOLVE_SEED", raising=False)
        assert run(capsys, *simulate, "--seed", "5")[0] == 0
        assert json.loads(run(capsys, *simulate)[1])["seed"] == 0
        monkeypatch.setenv("BLUFFSOLVE_SEED", "55")
        assert run(capsys, *simulate, "--seed", "5")[0] == 0
        assert json.loads(run(capsys, *simulate)[1])["seed"] == 55

    def test_parse_error_leaves_later_calls_unchanged(self, capsys):
        valid = ["payoff", "--ratio", "3", "--s1", "m-det:0.25", "--s2", "b-type"]
        first = run(capsys, *valid)
        assert first[0] == 0
        code, out, err = run(capsys, "payoff", "--bogus")
        assert code == 2 and out == "" and "--bogus" in err
        assert run(capsys, *valid) == first


# --- argv fuzz -------------------------------------------------------------
# Argv drawn from the CLI's own vocabulary with edge values; every example
# must exit 0, 1 or 2 without a traceback. Work is bounded per example
# (--hands <= 10^4, --grid <= 10^3, --bins <= 64, --max-iters <= 50,
# --deck <= 10^3) so the whole test takes a few seconds.


def mostly(valid, edge):
    """Draw from ``valid`` seven times in eight, else from ``edge``."""
    return st.integers(0, 7).flatmap(lambda i: edge if i == 0 else valid)


EDGE_NUMBERS = ("nan", "inf", "-inf", "1e308", "1e-308", "0", "-1", "1.5", "x", "")
edge_numbers = st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats().map(repr))


def numbers(low: float, high: float):
    return mostly(st.floats(low, high).map(repr), edge_numbers)


def ints(bound: int):
    return mostly(st.integers(1, bound).map(str), edge_numbers)


def joined(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


specs = mostly(
    st.one_of(
        st.sampled_from(("a-type", "b-type")),
        st.builds("m-det:{}".format, st.floats(0.01, 0.99)),
        st.builds("threshold:{}:{}".format, st.floats(0.01, 0.99), st.floats(0, 1)),
    ),
    st.one_of(
        st.sampled_from(("threshold:0.5", "a-type:1", "m-det:", "nope", "")),
        st.builds("m-det:{}".format, edge_numbers),
        st.builds("threshold:{}:{}".format, edge_numbers, edge_numbers),
    ),
)
# Placeholders, replaced by paths in a per-module directory.
strategy_files = mostly(
    st.just("{good}"), st.sampled_from(("{missing}", "{bad_json}", "{invalid}", "{not_object}", "{dir}"))
)
outputs = mostly(st.just("{new}"), st.sampled_from(("{unwritable}", "{dir}")))
formats = mostly(st.sampled_from(("csv", "json")), st.just("xml"))
decks = mostly(st.integers(2, 1000).map(str), st.one_of(st.just("continuous"), edge_numbers))

GAME = {"--a": numbers(1.01, 4), "--b": numbers(0.25, 0.99), "--ratio": numbers(1.01, 4), "--out": outputs}
PAIR = {"--s1": specs, "--s1-file": strategy_files, "--s2": specs, "--s2-file": strategy_files}
SOLVER = {"--bins": ints(64), "--epsilon": numbers(1e-9, 0.5), "--max-iters": ints(50), "--strict": st.none()}
OPPONENT = {"--opponent": specs, "--opponent-file": strategy_files, "--dump-strategy": outputs}

#: Every flag of each subcommand, with the values to draw for it.
FLAGS = {
    "equilibrium": GAME,
    "payoff": {**GAME, **PAIR},
    "evs": {**GAME, **OPPONENT, "--grid": ints(1000), "--format": formats},
    "best-response": {**GAME, **OPPONENT},
    "exploit": {**GAME, "--s": specs, "--strategy-file": strategy_files, "--dump-strategy": outputs},
    "solve": {**GAME, **SOLVER},
    "sweep": {"--ratios": joined(numbers(1.01, 4)), "--format": formats, "--out": outputs, **SOLVER},
    "simulate": {
        **GAME,
        **PAIR,
        "--deck": decks,
        "--hands": ints(10**4),
        "--seed": mostly(st.integers(0, 2**70).map(str), edge_numbers),
        "--chunk-size": ints(10**4),
        "--schedule": joined(ints(10**4)),
        "--format": formats,
    },
    "brute-force": {**GAME, **PAIR, "--deck": decks},
    "taxonomy": {**GAME, "--format": formats},
}
#: Flags given on every example, one of each tuple: the ones most argv need to
#: get past the usage checks, and the work flags whose defaults exceed the bound.
GIVEN = {
    "payoff": (("--s1", "--s1-file"), ("--s2", "--s2-file")),
    "evs": (("--opponent", "--opponent-file"),),
    "best-response": (("--opponent", "--opponent-file"),),
    "exploit": (("--s", "--strategy-file"),),
    "solve": (("--bins",), ("--max-iters",)),
    "sweep": (("--ratios",), ("--bins",), ("--max-iters",)),
    "simulate": (("--s1", "--s1-file"), ("--s2", "--s2-file"), ("--hands",)),
    "brute-force": (("--s1", "--s1-file"), ("--s2", "--s2-file"), ("--deck",)),
}


def test_fuzz_draws_every_flag_of_the_parser():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(FLAGS)
    for command, parser in subparsers.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == set(FLAGS[command]), command


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    given_flags = [draw(st.sampled_from(group)) for group in GIVEN.get(command, ())]
    others = sorted(set(flags) - set(given_flags))
    chosen = [*given_flags, *draw(st.lists(st.sampled_from(others), unique=True, max_size=3))]
    argv = [command]
    for flag in chosen:
        value = draw(flags[flag])
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    extra = draw(mostly(st.none(), st.sampled_from(("--bogus", "extra", "--help"))))
    return argv if extra is None else [*argv, extra]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv-fuzz")
    contents = {
        "good": '{"breakpoints":[0.5],"high_prob":[0.25,1]}',
        "bad_json": '{"breakpoints":',
        "invalid": '{"breakpoints":[0.9,0.1],"high_prob":[0,0,1]}',
        "not_object": "[0.5]",
    }
    paths = {}
    for name, text in contents.items():
        (root / f"{name}.json").write_text(text)
        paths[f"{{{name}}}"] = str(root / f"{name}.json")
    paths["{missing}"] = str(root / "missing.json")
    paths["{dir}"] = str(root)
    paths["{new}"] = str(root / "out.txt")
    paths["{unwritable}"] = str(root / "missing" / "out.txt")
    return paths


@settings(max_examples=300)
@given(argvs())
@example(["equilibrium", "--b", "1e-308"])
@example(["equilibrium", "--a", "1e308", "--b", "0.5"])
@example(["simulate", "--deck", str(10**20), "--s1", "a-type", "--s2", "b-type", "--hands", "1000"])
@example(["solve", "--ratio", "1e308", "--bins", "2", "--max-iters", "5"])
@example(["exploit", "--ratio", "1e308", "--s", "threshold:0.5:0.25"])
@example(["evs", "--opponent", "a-type", "--grid", str(10**15)])
@example(["exploit", "--a", "2e-300", "--b", "1e-300", "--s", "threshold:0.5:0.3"])
def test_any_argv_exits_cleanly(fuzz_paths, argv):
    for placeholder, path in fuzz_paths.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
