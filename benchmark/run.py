#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the theta3 command line.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: glued_graphs, dense_blocks, classify_sweep, closure_growth
(see benchmark/README.md for why each exists and what it should move).

Set-up generates the workload's inputs from the seed and writes them as
matroid or graph files under .bench_work/.  Each operation is then one
in-process call of the user-facing entry point `theta3.cli.main([...])`
with a fixed `--max-subsets` node cap; its stdout is captured, parsed
and checked.  One caller runs the corpus again and again (a closed
loop, single-threaded) in whole passes for about S seconds.  Every time
reported is scaled to a reference CPU speed (see `calibrate`).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the corpus
once untraced and twice with every public function of the program
wrapped in a span (benchmark/tracer.py), whatever S is, prints the
per-layer metrics of the first traced pass, and fails unless both
traced passes count exactly the same work.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A failed op is one that raised, exited
with a usage error, or returned a wrong or unverifiable report; such an
op makes the run incorrect.  An op that used up the node cap and said
so is a correct answer, but not a verified result: `answered_frac`
counts it against the workload, and `failed_frac` (traced run) counts it
as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import verify  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2

OK, BUDGET, ERROR = "ok", "budget", "error"


# -- the program ------------------------------------------------------------


def load_program():
    """Import theta3.cli from this checkout's src/, and from nowhere else.

    Every call imports the program afresh: its modules are dropped from
    sys.modules first, so their bodies run again, while the interpreter
    and the standard library stay loaded.  Returns (module, seconds).
    """
    if not (SRC / "theta3" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "theta3" or m.startswith("theta3.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("theta3.cli")
    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "theta3":
        raise SystemExit(f"benchmark: theta3 was imported from {cli.__file__}")
    return cli, seconds


@dataclass
class Op:
    seconds: float  # at the reference speed; see `calibrate`
    status: str
    detail: str = ""


# -- host speed -------------------------------------------------------------

_CALIBRATION_RNG = random.Random("calibration")
_CALIBRATION_VECTORS = [_CALIBRATION_RNG.randrange(1, 1 << 16) for _ in range(768)]
# Median of calibrate() on the 2-core Xeon host where baseline.json was
# measured.  Every time the benchmark reports is scaled to this speed.
REFERENCE_CALIBRATION_S = 0.0009
CALIBRATION_WINDOW = 5
PROBE_INTERVAL_S = 0.025


def calibrate() -> float:
    """Seconds for a fixed bit of work shaped like the program's kernels.

    GF(2) elimination over dict pivots plus set membership on ints.  On a
    shared host the CPU speed drifts by 15-30% in phases of seconds.  In
    one test, an op's median time moved by 15% between 7-second segments,
    while its time divided by this loop's, timed around it, moved by 2%.
    """
    start = time.perf_counter()
    vectors = _CALIBRATION_VECTORS
    for k in range(0, len(vectors), 24):
        inputs.rank_of(vectors[k : k + 24])
    seen: set[int] = set()
    for v in vectors:
        if v ^ 1 in seen:
            seen.discard(v)
        else:
            seen.add(v)
    return time.perf_counter() - start


class SpeedProbe:
    """Calibrates every PROBE_INTERVAL_S while an op runs, on a timer signal.

    The speed can change in the middle of a long op, so calibrations
    before and after it are not enough.  The handler runs between two
    bytecodes of the op; the time it takes is kept in `spent` and taken
    off the op's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed_scale(calibrations) -> float:
    """Factor that turns seconds measured now into reference seconds.

    Takes the median of the latest calibrations, so that one interrupted
    calibration cannot skew an op.
    """
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


class Runner:
    """Calls the CLI in-process and classifies what came back."""

    def __init__(self, cli, cap: int) -> None:
        self.cli = cli
        self.cap = str(cap)
        self.tracer: Tracer | None = None
        self.ops = 0
        self.scales: list[float] = []
        self._calibrations = deque(
            (calibrate() for _ in range(CALIBRATION_WINDOW)), maxlen=CALIBRATION_WINDOW
        )
        # Outputs of untimed verification calls, by input text.  Only the
        # first call for an input runs the program.
        self._confirmed: dict[str, bool] = {}

    def call(self, argv: list[str]) -> tuple[float, int | None, dict | None, str]:
        """One timed op; returns (reference seconds, exit code, report, problem)."""
        out, err = io.StringIO(), io.StringIO()
        argv = [*argv, "--max-subsets", self.cap]
        # Each CLI invocation a user makes starts from a fresh process, so
        # garbage a previous op left behind is collected before, untimed.
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin_op(self.ops)
        self.ops += 1
        code, problem = None, ""
        with SpeedProbe() as probe:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except Exception as exc:  # an escaping exception is a failed op
                problem = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start - probe.spent
        self._calibrations.append(calibrate())
        scale = speed_scale([*self._calibrations, *probe.samples])
        self.scales.append(scale)
        if self.tracer is not None:
            self.tracer.end_op(scale)
        seconds *= scale
        if problem:
            return seconds, code, None, problem
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            return seconds, code, None, "stdout is not one JSON report"
        if not isinstance(report, dict):
            return seconds, code, None, "report is not a JSON object"
        return seconds, code, report, ""

    def op(self, argv, check: Callable[[dict], str | None]) -> tuple[Op, dict | None]:
        seconds, code, report, problem = self.call(argv)
        if problem:
            return Op(seconds, ERROR, problem), report
        if code == 3:
            error = str(report.get("error", ""))
            if error.startswith("budget exceeded") and report.get("verdict") is None:
                return Op(seconds, BUDGET, error), report
            return Op(seconds, ERROR, f"exit 3 without a budget report: {error}"), report
        try:
            problem = check(report)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problem = f"unverifiable report: {type(exc).__name__}: {exc}"
        if problem:
            return Op(seconds, ERROR, problem), report
        return Op(seconds, OK), report

    def confirm_closed(self, path: Path, text: str) -> bool:
        """Untimed `check` of a closure's final matroid."""
        if text not in self._confirmed:
            path.write_text(text, encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                self.cli.main(["check", str(path)])
            self._confirmed[text] = json.loads(out.getvalue()).get("verdict") is True
        return self._confirmed[text]


# -- workloads --------------------------------------------------------------


def job_glued(runner: Runner, case, path: Path) -> list[Op]:
    op, _ = runner.op(["check", str(path), "--graph"], lambda r: verify.check_closed(r, case))
    return [op]


def job_dense(runner: Runner, case, path: Path) -> list[Op]:
    op, _ = runner.op(
        ["check", str(path), "--no-shortcut"], lambda r: verify.check_closed(r, case)
    )
    return [op]


def job_classify(runner: Runner, case, path: Path) -> list[Op]:
    check, report = runner.op(["check", str(path)], lambda r: verify.check_any(r, case))
    if check.status != OK:
        closed = None
    else:
        closed = report["verdict"]

    def agrees(r: dict) -> str | None:
        if closed is None:
            return "no verified check verdict to compare with"
        return verify.decompose_agrees(r, case, closed)

    decompose, _ = runner.op(["decompose", str(path)], agrees)
    return [check, decompose]


def job_closure(runner: Runner, case, path: Path) -> list[Op]:
    final: list = []

    def valid(r: dict) -> str | None:
        problem, elements = verify.closure_problem(r, case)
        if elements is not None:
            final.extend(elements)
        return problem

    op, _ = runner.op(["closure", str(path)], valid)
    if op.status == OK:
        text = verify.matroid_text(final, case.dim)
        if not runner.confirm_closed(path.with_suffix(".final"), text):
            op = Op(op.seconds, ERROR, "check does not call the closure closed")
    return [op]


@dataclass
class Workload:
    name: str
    cap: int
    make: Callable[[random.Random], list]
    job: Callable[[Runner, object, Path], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "glued_graphs",
            20_000_000,
            lambda rng: inputs.glued_corpus(rng, 40),
            job_glued,
        ),
        Workload(
            "dense_blocks",
            20_000_000,
            lambda rng: inputs.dense_corpus(rng, 1),
            job_dense,
        ),
        Workload(
            "classify_sweep",
            2_000_000,
            lambda rng: inputs.classify_corpus(rng, 300),
            job_classify,
        ),
        Workload(
            "closure_growth",
            50_000,
            lambda rng: inputs.closure_corpus(rng, 3),
            job_closure,
        ),
    )
}


# -- set-up -----------------------------------------------------------------


def set_up(workload: Workload, seed: int, directory: Path):
    """Import the program, generate and write the inputs.

    Returns (cli, cases, paths, seconds), the seconds at the reference speed.
    """
    before = [calibrate() for _ in range(CALIBRATION_WINDOW)]
    cli, imported = load_program()
    start = time.perf_counter()
    rng = random.Random(f"{workload.name}:{seed}")
    cases = workload.make(rng)
    rng.shuffle(cases)
    directory.mkdir(parents=True)
    paths = []
    for i, case in enumerate(cases):
        path = directory / f"case{i:04d}.txt"
        path.write_text(case.text(), encoding="utf-8")
        paths.append(path)
    seconds = imported + time.perf_counter() - start
    after = [calibrate() for _ in range(CALIBRATION_WINDOW)]
    return cli, cases, paths, seconds * speed_scale(before + after)


# -- measuring --------------------------------------------------------------


@dataclass
class Pass:
    ops: list[Op]

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def run_pass(workload: Workload, runner: Runner, cases, paths) -> Pass:
    ops: list[Op] = []
    for case, path in zip(cases, paths):
        for op in workload.job(runner, case, path):
            if op.status == ERROR:
                op.detail = f"{case.name} ({path.name}): {op.detail}"
            ops.append(op)
    return Pass(ops)


def timed_passes(workload: Workload, runner: Runner, cases, paths, seconds: float) -> list[Pass]:
    """Whole passes over the corpus for about `seconds`, at least MIN_PASSES.

    A pass is not started when it would end more than half a pass past
    the deadline.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, runner, cases, paths))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - began) / 2 > start + seconds:
            return passes


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    """Figures from the fastest of each op's repeats, one per corpus position.

    What the speed scaling misses is mostly the host taking the CPU away
    for a moment, which only ever adds time; the fastest repeat is the
    one it disturbed least.
    """
    repeats = list(zip(*(p.ops for p in passes)))
    latencies = sorted(min(op.seconds for op in ops) * 1000 for ops in repeats)
    answered = sum(all(op.status == OK for op in ops) for ops in repeats)
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (answered / (sum(latencies) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (deciles[-1], "ms"),
        "answered_frac": (answered / len(repeats), "frac"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


PER_LAYER_UNITS = {
    "self_s": "s",
    "hit_frac": "frac",
    "added_per_round": "count/round",
    "overhead_frac": "frac",
    "failed_frac": "frac",
}
DETERMINISTIC = (".calls", ".nodes", ".emitted", ".yielded", ".rounds", ".added",
                 ".vertices", ".in_class", "failed_frac")


def traced_pass(workload, runner, cases, paths) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        done = run_pass(workload, runner, cases, paths)
    finally:
        runner.tracer = None
        tracer.uninstall()
    return done, tracer


def per_layer(done: Pass, tracer: Tracer, untraced: Pass) -> dict:
    values = tracer.metrics()
    values["failed_frac"] = sum(op.status != OK for op in done.ops) / len(done.ops)
    values["trace.overhead_frac"] = done.seconds / untraced.seconds - 1
    return {
        name: (value, PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count"))
        for name, value in sorted(values.items())
    }


def mismatched_counts(first: dict, second: dict) -> list[str]:
    return [
        f"{name}: {first[name][0]} vs {second.get(name, (None,))[0]}"
        for name in first
        if name.endswith(DETERMINISTIC) and first[name][0] != second.get(name, (None,))[0]
    ]


# -- the run record ---------------------------------------------------------


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "theta3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def record(args, workload: Workload, cases, runner: Runner, passes: int) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "node_cap": workload.cap,
        "cases": len(cases),
        "passes": passes,
        "ops": runner.ops,
        "speed_factor": statistics.median(runner.scales),
        "max_size": max(c.size for c in cases),
        "max_rank": max(c.rank for c in cases),
    }


# -- main -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            cli, cases, paths, seconds = set_up(workload, args.seed, workdir)
            setups.append(seconds)
        runner = Runner(cli, workload.cap)
        errors: list[str] = []
        if not traced:
            passes = timed_passes(workload, runner, cases, paths, args.seconds)
            metrics = end_to_end(passes, statistics.median(setups))
            every = passes
        else:
            untraced = run_pass(workload, runner, cases, paths)
            first, tracer = traced_pass(workload, runner, cases, paths)
            second, again = traced_pass(workload, runner, cases, paths)
            metrics = per_layer(first, tracer, untraced)
            errors += [f"traced runs disagree on {m}" for m in
                       mismatched_counts(metrics, per_layer(second, again, untraced))]
            tracer.write_spans(WORK / f"spans-{tag}.jsonl")
            every = [untraced, first, second]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in every for op in p.ops]
    failed = [op for op in ops if op.status == ERROR]
    errors += sorted({op.detail for op in failed})
    info = record(args, workload, cases, runner, len(every))
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"record": info, "errors": errors, **result}, indent=2), encoding="utf-8"
    )
    for problem in errors:
        print(f"benchmark: {problem}", file=sys.stderr)
    print("run " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
