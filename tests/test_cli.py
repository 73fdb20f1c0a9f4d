"""CLI surface: commands, formats, exit codes, reproducibility."""

import json

import pytest

from bluffsolve.cli import main, parse_strategy_spec
from bluffsolve.strategy import a_type, b_type, m_deterministic, threshold_mix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ["payoff", "--s1", "a-type", "--s2", "b-type", "--ratio", "nan"],
        ["simulate", "--s1", "a-type", "--s2", "b-type", "--chunk-size", "0"],
        ["simulate", "--s1", "a-type", "--s2", "b-type", "--chunk-size", "0", "--schedule", "10"],
    ],
)
def test_non_finite_bets_and_bad_chunk_sizes_are_usage_errors(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--out"],
        ["best-response", "--opponent", "b-type", "--dump-strategy"],
    ],
)
def test_unwritable_output_paths_are_usage_errors(capsys, tmp_path, argv):
    assert_usage_error(capsys, [*argv, str(tmp_path / "missing" / "file")])


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
