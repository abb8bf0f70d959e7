"""One-command benchmark for qslsim.

Run from the root of a qslsim checkout:

    python3 bench/run.py --workload structured --seed 1 --seconds 30 --trace 0

``--trace 0`` runs whole rounds of the workload until one more would end
past ``--seconds`` (at least one) and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds the same way and prints
the per-layer metrics.  Every answer is
checked by ``oracles.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw results and
traces go to ``bench/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread for the harness and, through the environment, for every child
# process: on a small shared machine a threaded eigh swings by 2x from run to run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOAD_NAMES = ("structured", "random_small", "mixed_wide", "cli")
#: Set-up is measured this many times per run; the median is reported.
SETUP_PROBES = 5


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time to measure (whole rounds, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _setup_probe() -> int:
    """Child process: time ``import qslsim`` plus the library warm-up."""
    start = time.perf_counter()
    import qslsim  # noqa: F401
    import workloads

    workloads.warm_up()
    print(time.perf_counter() - start)
    return 0


def _setup_seconds(workload: str) -> float:
    """One set-up in a fresh interpreter.

    Library workloads: ``import qslsim`` plus the warm-up, timed inside the
    child.  cli: one bare interpreter start that imports ``qslsim.cli``, timed
    from outside, since every qsl invocation pays it.
    """
    if workload == "cli":
        start = time.perf_counter()
        # output captured, so that the wait is a read to end of file, not a poll
        subprocess.run([sys.executable, "-c", "import qslsim.cli"], check=True,
                       capture_output=True, timeout=60)
        return time.perf_counter() - start
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class Run:
    """Rounds of one workload with their checks."""

    def __init__(self, wl, check):
        self.wl = wl
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}
        self.errors: dict[str, int] = {}

    def round(self, runner=None):
        start = time.perf_counter()
        outcomes = self.wl.run_round(runner) if runner else self.wl.run_round()
        wall = time.perf_counter() - start
        for case, out in zip(self.wl.cases, outcomes):
            self.attempted += 1
            if out.error is not None:
                self.failed += 1
                key = f"{out.case}: {out.error}"
                self.errors[key] = self.errors.get(key, 0) + 1
                continue
            try:
                problems = self.check(case, out.value)
            except Exception as exc:  # output the oracle cannot read is a wrong answer
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                for p in problems:
                    key = f"{out.case}: {p}"
                    self.problems[key] = self.problems.get(key, 0) + 1
        return wall, outcomes

    def report(self) -> None:
        for label, table in (("failed", self.errors), ("WRONG", self.problems)):
            for key, count in table.items():
                print(f"bench: {label} x{count} {key}", file=sys.stderr)


def _checker(wl):
    import oracles
    import workloads

    if isinstance(wl, workloads.Cli):
        return oracles.CliOracle(wl).check
    if isinstance(wl, workloads.Structured):
        return lambda case, value: oracles.check_structured(case.kind, case.params, value)
    return lambda case, value: oracles.check_mixed(case, *value)


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(run: Run, workload: str, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    walls, case_times = [], {}
    while True:
        wall, outcomes = run.round()
        walls.append(wall)
        for o in outcomes:
            case_times.setdefault(o.case, []).append(o.seconds)
        if sum(walls) + statistics.median(walls) > seconds:
            break
    # a case's time is its median over the rounds; the median is taken over cases
    per_case = [statistics.median(times) for times in case_times.values()]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (_peak_rss_mb(workload), "MB"),
        "case_ms.p50": (statistics.median(per_case) * 1e3, "ms"),
    }
    raw = {"round_wall_s": walls, "case_s": case_times, "setup_s": setup}
    return metrics, raw


def measure_traced(run: Run, workload: str, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; per-layer figures are medians over traced rounds."""
    import tracing
    import workloads

    cli = workload == "cli"
    origin = time.perf_counter()
    plain_walls, traced_walls, layers, rounds = [], [], [], []
    while True:
        wall, _ = run.round(workloads.run_cli_in_process if cli else None)
        plain_walls.append(wall)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner = None
            if cli:
                runner = lambda argv: tracer.wrap(f"cli.command.{argv[0]}",
                                                  workloads.run_cli_in_process)(argv)
            wall, outcomes = run.round(runner)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        starts = [o.start for o in outcomes]
        layers.append(tracer.layer_metrics())
        for span in tracer.spans:
            span[4] = outcomes[bisect.bisect_right(starts, span[1]) - 1].case
            span[1] -= origin
            span[2] -= origin
        rounds.append({"spans": tracer.spans, "counters": dict(tracer.counters)})
        spent = sum(plain_walls) + sum(traced_walls)
        if spent + statistics.median(plain_walls) + statistics.median(traced_walls) > seconds:
            break
    metrics = tracing.median_metrics(layers)
    metrics["cli.startup_ms"] = statistics.median(setup) * 1e3 if cli else 0.0
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    out = {name: (metrics[name], unit) for name, unit in tracing.PER_LAYER.items()}
    raw = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls, "rounds": rounds}
    return out, raw


def main(argv=None) -> int:
    args = _parse_args(argv)
    # SIGTERM unwinds like an exception: a running qsl child is killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qslsim" / "__init__.py").is_file():
        print(f"bench: {SRC / 'qslsim'} not found; run from the root of a qslsim checkout",
              file=sys.stderr)
        return 2
    # the checkout's sources, never an installed copy, here and in every child
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe()

    import workloads

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        need_setup = args.trace == 0 or args.workload == "cli"
        setup = [_setup_seconds(args.workload) for _ in range(SETUP_PROBES if need_setup else 0)]
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = Run(wl, _checker(wl))
        wl.warm_up()
        measure_fn = measure_traced if args.trace else measure
        metrics, raw = measure_fn(run, args.workload, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.report()
    kind = "trace" if args.trace else "run"
    raw.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    (RESULTS / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(json.dumps(raw))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
