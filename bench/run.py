"""The bluffsolve benchmark: one seeded workload, checked, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload {solve,query,verify} --seed N --seconds S --trace {0,1}

Load model: a single process with one closed-loop client and no threads; each
op starts when the previous one has returned and its output has been checked.
The seed and ``--seconds`` fix the op list: a run executes about
``S * NOMINAL_OPS_PER_S[workload]`` ops (whole rounds of
``workloads.ROUND_OPS``), so it measures about S seconds on the baseline and
repeats exactly the same work for the same seed.
Only the generated inputs reach ``bluffsolve``; checks run outside the timed
spans.

``--trace 0`` measures end to end with no tracer installed. ``--trace 1``
runs every op twice, once untraced and once under ``tracer.Tracer`` (in
alternating order), requires identical outputs, and reports per-layer
numbers and the tracing overhead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``END_TO_END`` or ``PER_LAYER``). The lines before
it give every metric with its unit, the result digest and the provenance.
They also give ``op_tail_ms`` (latency at the highest percentile with ten ops
above it) and ``fail_share``, which stay out of the last line because the
tail is undefined on a run of three solves and the share is zero on healthy
workloads. An op fails if it raises, exits non-zero, does not converge or
fails its check; failed ops still count in the latency figures.
``setup_s`` is the median, over this process and ``SETUP_PROBES`` fresh
ones, of the time from ``import bluffsolve`` to the first timed op.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Baseline ops per second on a 2-core machine; sets the op count of a run.
NOMINAL_OPS_PER_S = {"solve": 3 / 19, "query": 380.0, "verify": 3.9}

#: Set-up is timed in this many extra fresh processes besides the run itself.
SETUP_PROBES = 6

#: End-to-end metrics in the final line of an untraced run: name -> unit.
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics in the final line of a traced run: name -> unit. These
#: are defined on every workload; the report line adds the times, rates and
#: shares of layers that only some workloads call.
PER_LAYER = {
    "cli.main.calls": "count",
    "strategy.Strategy.constructions": "count",
    "strategy.Strategy.self_s": "s",
    "strategy.refine.calls": "count",
    "strategy.refine.pieces": "count",
    "strategy.refine.self_s": "s",
    "analytic.expected_payoff.calls": "count",
    "analytic.expected_payoff.self_s": "s",
    "analytic.conditional_evs.calls": "count",
    "solver.best_response.calls": "count",
    "solver.fictitious_play.calls": "count",
    "solver.fictitious_play.iterations": "count",
    "montecarlo.simulate.calls": "count",
    "montecarlo.simulate.hands": "count",
    "trace_overhead_share": "share",
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("solve", "query", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the set-up time (used by the run itself)",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _set_up(args: argparse.Namespace, workdir: Path):
    """Import bluffsolve, build the op list and warm up; returns (ops, seconds)."""
    start = time.perf_counter()
    import workloads

    per_round = workloads.ROUND_OPS[args.workload]
    rounds = max(1, round(args.seconds * NOMINAL_OPS_PER_S[args.workload] / per_round))
    ops = workloads.OPS[args.workload](args.seed, rounds * per_round, workdir)
    workloads.WARM_UP[args.workload]()
    return ops, time.perf_counter() - start


def _probe_setup(args: argparse.Namespace) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _timed(op):
    """Run one op; returns (result, raised exception or None, seconds)."""
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a raising op is a failed op, not a failed run
        result, error = None, exc
    return result, error, time.perf_counter() - start


def _checked(op, result, error) -> tuple[str, str | None]:
    if error is not None:
        text = f"raised {type(error).__name__}: {error}"
        return text, text
    return op.check(result)


def _tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args, ops, setup_samples) -> dict:
    import numpy
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": len(ops),
        "params": workloads.PARAMS[args.workload],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "setup_samples_s": setup_samples,
    }


def _run_untraced(ops):
    latencies, failures = [], []
    digest = hashlib.sha256()
    for op in ops:
        result, error, seconds = _timed(op)
        latencies.append(seconds)
        canonical, problem = _checked(op, result, error)
        digest.update(canonical.encode())
        if problem is not None:
            failures.append(problem)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return latencies, failures, digest.hexdigest(), peak_rss_mb


def _run_traced(ops):
    from tracer import Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    failures = []
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer.installed() if traced else contextlib.nullcontext():
                runs[traced] = _timed(op)
        untraced_s += runs[False][2]
        traced_s += runs[True][2]
        canonical, problem = _checked(op, *runs[False][:2])
        traced_canonical, _ = _checked(op, *runs[True][:2])
        digest.update(canonical.encode())
        if traced_canonical != canonical:
            problem = f"traced output differs from untraced ({problem or 'untraced passed'})"
        if problem is not None:
            failures.append(problem)
    return tracer, untraced_s, traced_s, failures, digest.hexdigest()


def _layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric, with shares and rates only where defined."""
    m: dict[str, float] = {}
    for name, st in tracer.stats.items():
        m[f"{name}.constructions" if name == "strategy.Strategy" else f"{name}.calls"] = st.calls
        m[f"{name}.self_s"] = st.self_s
    m["strategy.refine.pieces"] = tracer.stats["strategy.refine"].work.get("pieces", 0)
    fp = tracer.stats["solver.fictitious_play"]
    iterations = fp.work.get("iterations", 0)
    m["solver.fictitious_play.iterations"] = iterations
    br_calls = tracer.stats["solver.best_response"].calls
    if fp.calls and br_calls:
        # Each solve makes 2 best-response calls per iteration plus one.
        m["solver.polish_br_share"] = (br_calls - 2 * iterations - fp.calls) / br_calls
    sim = tracer.stats["montecarlo.simulate"]
    m["montecarlo.simulate.hands"] = sim.work.get("hands", 0)
    if sim.calls:
        m["montecarlo.simulate.hands_per_s"] = sim.work["hands"] / sim.self_s
        m["montecarlo.simulate.replay_share"] = sim.work["replays"] / sim.work["deals"]
    m["traced_op_s"] = traced_s
    m["layer_self_share"] = sum(st.self_s for st in tracer.stats.values()) / traced_s
    m["trace_overhead_share"] = traced_s / untraced_s - 1.0
    return m


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s"):
        return "s"
    return "count"


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value!r:>24} {unit}{'  ' + note if note else ''}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "bluffsolve" / "__init__.py").is_file():
        print(f"error: no bluffsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        ops, setup_s = _set_up(args, Path(workdir))
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            tracer, untraced_s, traced_s, failures, digest = _run_traced(ops)
        else:
            latencies, failures, digest, peak_rss_mb = _run_untraced(ops)

    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [_probe_setup(args) for _ in range(SETUP_PROBES)]
    report = {"provenance": _provenance(args, ops, setup_samples), "digest": digest}
    attempted, failed = len(ops), len(failures)
    print(f"bluffsolve benchmark: workload {args.workload}, seed {args.seed}, "
          f"{attempted} ops, {'traced' if args.trace else 'untraced'}, digest {digest}")

    if args.trace:
        layers = _layer_metrics(tracer, untraced_s, traced_s)
        for name, value in layers.items():
            _print_metric(name, value, PER_LAYER.get(name, _unit(name)))
        report["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        tail = _tail(latencies)
        values = {
            "ops_per_s": attempted / sum(latencies),
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "op_p50_ms": f"(n={attempted})",
            "setup_s": f"(median of {len(setup_samples)} fresh processes)",
        }
        for name, unit in END_TO_END.items():
            _print_metric(name, values[name], unit, notes.get(name, ""))
        if tail is not None:
            values["op_tail_ms"] = 1000.0 * tail[1]
            report["op_tail_percentile"] = tail[0]
            _print_metric("op_tail_ms", values["op_tail_ms"], "ms", f"(p{tail[0]:.4g}, n={attempted})")
        values["fail_share"] = failed / attempted
        _print_metric("fail_share", values["fail_share"], "share", f"({failed}/{attempted})")
        report["end_to_end"] = values
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    if failures:
        report["failures"] = failures[:5]
        print(f"  {failed} failed ops; first: {failures[0]}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
