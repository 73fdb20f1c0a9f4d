"""Tests of the benchmark's own machinery: tracer, checks, output contract.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "bench")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from bluffsolve import cli, montecarlo, solver  # noqa: E402
from bluffsolve.analytic import conditional_evs  # noqa: E402
from bluffsolve.engine import GameConfig  # noqa: E402
from bluffsolve.strategy import Strategy, b_type, m_deterministic, threshold_mix  # noqa: E402
from tests.oracles import enumerate_discrete  # noqa: E402
from tracer import STRATEGY, Tracer  # noqa: E402

CFG = GameConfig(2, 1)

# exploitability -> best_response -> conditional_evs, one Strategy for the
# action rule, then expected_payoff -> refine, which re-expresses both
# strategies on the merged grid (two more Strategy constructions).
EXPLOITABILITY_CALLS = {
    "solver.best_response": 1,
    "analytic.conditional_evs": 1,
    "analytic.expected_payoff": 1,
    "strategy.refine": 1,
    STRATEGY: 3,
}


def _calls(tracer: Tracer) -> dict[str, int]:
    return {name: st.calls for name, st in tracer.stats.items() if st.calls}


def test_tracer_counts_calls_made_inside_solver():
    sigma = threshold_mix(0.5, 1 / 3)
    tracer = Tracer()
    with tracer.installed():
        solver.exploitability(CFG, sigma)
    assert _calls(tracer) == EXPLOITABILITY_CALLS


def test_tracer_counts_calls_made_inside_cli():
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["exploit", "--s", "threshold:0.5:0.25"]) == 0
    # Parsing the inline spec constructs one more Strategy.
    assert _calls(tracer) == {**EXPLOITABILITY_CALLS, "cli.main": 1, STRATEGY: 4}


def test_self_time_excludes_traced_children():
    sigma = threshold_mix(0.5, 1 / 3)
    tracer = Tracer()
    with tracer.installed():
        solver.exploitability(CFG, sigma)
    br = tracer.stats["solver.best_response"]
    children = sum(
        tracer.stats[name].total_s
        for name in ("analytic.conditional_evs", "analytic.expected_payoff")
    )
    # Strategy construction directly inside best_response is its third child.
    assert 0.0 < br.self_s < br.total_s - children
    assert sum(st.self_s for st in tracer.stats.values()) == pytest.approx(br.total_s)


def test_tracer_restores_every_binding():
    init = Strategy.__init__
    with Tracer().installed():
        assert solver.conditional_evs is not conditional_evs
    assert solver.conditional_evs is conditional_evs
    assert Strategy.__init__ is init


def test_traced_and_untraced_ops_return_identical_results(tmp_path, monkeypatch):
    monkeypatch.setitem(
        workloads.PARAMS, "solve", {**workloads.PARAMS["solve"], "bins": 16, "max_iters": 200}
    )
    for name, count in (("solve", 3), ("query", 60), ("verify", 2)):
        ops = workloads.OPS[name](7, count, tmp_path)
        *_, failures, traced_digest = run._run_traced(ops)
        assert not [f for f in failures if f.startswith("traced output differs")], name
        _, _, untraced_digest, _ = run._run_untraced(ops)
        assert traced_digest == untraced_digest, name


def test_same_seed_repeats_the_same_work(tmp_path):
    digests, counts = [], []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        ops = workloads.query_ops(3, 40, workdir)
        tracer, _, _, _, digest = run._run_traced(ops)
        digests.append(digest)
        counts.append(_calls(tracer))
    assert digests[0] == digests[1]
    assert counts[0] == counts[1]


def test_query_check_rejects_output_that_differs_from_the_library(tmp_path):
    op = workloads.query_ops(0, 1, tmp_path)[0]
    code, out, err = op.run()
    assert op.check((code, out, err))[1] is None
    tampered = out.replace("1", "2", 1) if "1" in out else out + "0"
    assert op.check((code, tampered, err))[1] is not None
    assert op.check((2, out, "error: bad"))[1] is not None


@pytest.mark.parametrize("deck", [2, 11, 21])
def test_exact_discrete_value_matches_literal_enumeration(deck):
    cfg = GameConfig(2, 1, deck_size=deck)
    rng = random.Random(deck)
    grid = deck - 1
    pairs = [(m_deterministic(0.1), b_type())]  # a card lands on the breakpoint
    for _ in range(6):
        s = [
            Strategy(
                breakpoints=tuple(i / grid for i in sorted(rng.sample(range(1, grid), k))),
                high_prob=tuple(rng.random() for _ in range(k + 1)),
            )
            for k in (rng.randint(0, min(4, grid - 1)), rng.randint(0, min(4, grid - 1)))
        ]
        pairs.append(tuple(s))
    for s1, s2 in pairs:
        assert workloads.exact_discrete_value(cfg, s1, s2) == enumerate_discrete(cfg, s1, s2)


@pytest.mark.xfail(
    strict=True,
    reason="brute_force_discrete places exact Fraction cards against float breakpoints "
    "(ROADMAP item 4), so the verify workload leaves it out until this passes",
)
def test_brute_force_discrete_matches_float_cards():
    cfg = GameConfig(2, 1, deck_size=11)
    s1, s2 = m_deterministic(0.1), b_type()  # card 1/10 lands on the breakpoint
    exact = montecarlo.brute_force_discrete(cfg, s1, s2)
    assert (exact.value, exact.replay_probability) == enumerate_discrete(cfg, s1, s2)


def test_output_contract(capsys):
    assert run.main(["--workload", "query", "--seed", "0", "--seconds", "0.05", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.OPS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
