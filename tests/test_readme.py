"""The README's CLI examples run, and print what the README shows."""

import json
import pathlib
import shlex

import pytest

from bluffsolve.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    """(argv, expected stdout or None) for each command of the README's CLI block.

    A command's expected stdout is the ``# `` comment after it, where that
    comment is a complete JSON object with no elided ``...`` part.
    """
    text = README.read_text(encoding="utf-8").replace("\\\n", "")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("bluffsolve "):
            examples.append([shlex.split(line)[1:], None])
        elif line.startswith("# ") and examples and examples[-1][1] is None:
            comment = line[2:]
            try:
                json.loads(comment)
            except ValueError:
                continue
            if "..." not in comment:
                examples[-1][1] = comment + "\n"
    return [pytest.param(argv, stdout, id=argv[0]) for argv, stdout in examples]


def test_the_block_has_the_documented_examples():
    examples = cli_examples()
    assert len(examples) == 11
    assert [p.id for p in examples if p.values[1] is not None] == [
        "equilibrium",
        "payoff",
        "exploit",
        "best-response",
    ]


@pytest.mark.parametrize("argv, stdout", cli_examples())
def test_example_runs(capsys, monkeypatch, argv, stdout):
    monkeypatch.delenv("BLUFFSOLVE_SEED", raising=False)
    assert main(argv) == 0
    if stdout is not None:
        assert capsys.readouterr().out == stdout
