"""Command-line experiment runner.

Subcommands: bound, tperp, fig1, ent-scan, mixture-demo, groups.  Each takes
``--json``; the shared flags are declared only where they are read: ``--out``
(fig1, ent-scan, mixture-demo), ``--svg`` (fig1), ``--horizon`` (tperp, fig1,
mixture-demo, groups) and ``--tol`` (tperp, mixture-demo, groups).

Every ``cmd_*`` computes a ``Report`` and does no I/O; ``main`` emits it.
``--out`` receives the CSV.  With ``--json`` stdout is the one-line JSON
envelope and nothing else; otherwise it is the text summary, followed by the
CSV when there is no ``--out``.

Exit codes: 0 success, 2 usage/config error, 3 data-invariant violation,
4 numerical failure.  CSV output is deterministic: identical configuration
produces a byte-identical file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import svgplot
from .bounds import analyze_ensemble_at_qsl, qsl_time, separable_pure_bound
from .constructions import (
    CollectiveSpec,
    EntangledChainSpec,
    collective_overlap_fn,
    collective_t_perp,
    grouped_t_perp,
    make_grouped,
    make_mixture_demo,
    make_psi_ent,
)
from .dynamics import (
    DEFAULT_ORTHO_TOL,
    SearchOptions,
    first_orthogonal_time,
    scan_first_zero,
    survival,
)
from .qcore import (
    DENSE_CAP,
    EnergyStats,
    InvariantViolation,
    NumericalFailure,
    SchemaError,
    _dimension_within,
    energy_stats,
    ground_shift,
    load_system,
    noninteracting_hamiltonian,
    state_overlap,
)

RATIO_FLOOR = 1.0 - 1e-9
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class Report:
    """A subcommand's result: the JSON payload, the text summary, the CSV and
    (fig1 with ``--svg``) the SVG document."""

    payload: dict
    text: str = ""
    csv: Optional[str] = None
    svg: Optional[str] = None


class _UsageError(Exception):
    """Bad command-line input; ``main`` prints "<command>: <reason>" and exits 2."""


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _csv(header: str, rows) -> str:
    """CSV text: integers as written, floats to 12 significant digits, None empty."""
    def cell(value) -> str:
        if value is None:
            return ""
        return str(value) if isinstance(value, int) else _fmt(value)

    lines = [header] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _ratio(t_perp: Optional[float], t_qsl: float, where: str) -> Optional[float]:
    """t_perp / t_qsl, or None without a measured time or a finite bound.

    A ratio below ``RATIO_FLOOR`` puts the measured time inside the region
    the bound forbids, which only a numerical failure can do.
    """
    if t_perp is None or math.isinf(t_qsl):
        return None
    ratio = t_perp / t_qsl
    if ratio < RATIO_FLOOR:
        raise NumericalFailure(
            f"{where}: measured t_perp {t_perp!r} undercuts the bound {t_qsl!r}"
        )
    return ratio


def _require_match(t_perp: Optional[float], expected: float, where: str) -> None:
    """Raise ``NumericalFailure`` unless t_perp matches ``expected`` to 1e-8 relative;
    an infinite ``expected`` means the input's energy is too small to measure."""
    if not math.isfinite(expected):
        raise InvariantViolation(f"{where}: the analytic t_perp {expected!r} is not finite")
    if t_perp is None or abs(t_perp - expected) > 1e-8 * expected:
        raise NumericalFailure(
            f"{where}: measured t_perp {t_perp!r} does not match the analytic value {expected!r}"
        )


def _int_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bound(args) -> Report:
    if args.energy < 0.0 or args.spread < 0.0:
        raise _UsageError("--energy and --spread must be nonnegative")
    result = qsl_time(EnergyStats(args.energy, args.spread))
    branch = result.branch.value
    if result.unbounded:
        text = f"unbounded branch={branch}\n"
    else:
        text = f"t_qsl={_fmt(result.time)} branch={branch}\n"
    time = None if result.unbounded else result.time
    return Report({"time": time, "unbounded": result.unbounded, "branch": branch}, text)


def cmd_tperp(args) -> Report:
    try:
        state, hamiltonian = load_system(args.state_file)
    except OSError as exc:
        raise _UsageError(f"cannot read {args.state_file}: {exc.strerror}") from None
    text = ""
    shift = 0.0
    if not hamiltonian.is_ground_shifted:
        shift = hamiltonian.ground_energy
        hamiltonian = ground_shift(hamiltonian)
        text = f"ground_shift={_fmt(-shift)} applied\n"
    opts = SearchOptions(horizon=args.horizon, ortho_tol=args.tol)
    result = first_orthogonal_time(state, hamiltonian, opts)
    bound = qsl_time(energy_stats(state, hamiltonian))
    ratio = _ratio(result.t_perp, bound.time, args.state_file)

    if result.found:
        bound_txt = "unbounded" if bound.unbounded else _fmt(bound.time)
        ratio_txt = "n/a" if ratio is None else f"{ratio:.6f}"
        text += f"Found t_perp={_fmt(result.t_perp)} bound={bound_txt} ratio={ratio_txt}\n"
    else:
        text += (f"NotFound min_overlap={_fmt(result.min_overlap)} "
                 f"t_at_min={_fmt(result.t_at_min)} horizon={_fmt(result.horizon)}\n")
    return Report({
        "status": result.status,
        "t_perp": result.t_perp,
        "t_qsl": None if bound.unbounded else bound.time,
        "ratio": ratio,
        "min_overlap": result.min_overlap,
        "t_at_min": result.t_at_min,
        "horizon": result.horizon,
        "ground_shift_applied": -shift,
    }, text)


def _fig1_grid(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise _UsageError("grid start, stop and step must be finite")
    if step <= 0.0:
        raise _UsageError(f"grid step must be positive, got {step}")
    if start > stop:
        raise _UsageError(f"grid start {start} exceeds stop {stop}")
    steps = (stop - start) / step + 1e-9  # inf where it overflows, which int() cannot take
    if not steps < MAX_GRID_POINTS:
        raise _UsageError(f"grid has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(steps) + 1)]


def cmd_fig1(args) -> Report:
    grid = _fig1_grid(args.start, args.stop, args.step)
    if args.qubits < 1 or args.omega0 <= 0.0:
        raise _UsageError("--qubits must be >= 1 and --omega0 positive")

    points = [(r, CollectiveSpec(args.qubits, args.omega0, r * args.omega0)) for r in grid]
    if args.limit:
        points.append((math.inf, CollectiveSpec(args.qubits, 0.0, 1.0)))
    rows = []
    for r, spec in points:
        result = collective_t_perp(spec, horizon=args.horizon)
        t_perp = result.t_perp if result.found else None
        ratio = _ratio(t_perp, spec.t_qsl, f"row omega_ratio={r!r}")
        rows.append((r, t_perp, spec.t_qsl, ratio))

    return Report(
        {
            "rows": [{"omega_ratio": r, "t_perp": tp, "t_qsl": tq, "ratio": ratio}
                     for r, tp, tq, ratio in rows],
            "out": args.out,
            "svg": args.svg,
        },
        csv=_csv("omega_ratio,t_perp,t_qsl,ratio", rows),
        svg=None if args.svg is None else svgplot.sweep_svg([row[:3] for row in rows]),
    )


def cmd_ent_scan(args) -> Report:
    if args.omega0 <= 0.0:
        raise _UsageError("--omega0 must be positive")
    w0 = args.omega0
    rows = []
    for n in args.levels:
        for m in args.subsystems:
            spec = EntangledChainSpec(n, m, w0)
            t_analytic = spec.t_perp
            local = spec.local_stats
            sep_bound = separable_pure_bound([local])  # M identical subsystems bound as one
            t_bound = qsl_time(EnergyStats(m * local.energy, m * local.spread)).time
            if not args.no_verify and _dimension_within((n for _ in range(m)), args.cap):
                state, hamiltonian, _ = make_psi_ent(spec)
                result = first_orthogonal_time(state, hamiltonian)
                _require_match(result.t_perp, t_analytic, f"N={n} M={m}")
            if m >= 2 and sep_bound / t_analytic < math.sqrt(m) * (1.0 - 1e-6):
                raise NumericalFailure(
                    f"N={n} M={m}: separable bound {sep_bound!r} does not exceed "
                    f"t_perp {t_analytic!r} by sqrt(M)"
                )
            rows.append((n, m, t_analytic, sep_bound, t_bound))

    return Report(
        {
            "rows": [{"N": n, "M": m, "t_perp_entangled": tp,
                      "separable_bound": sb, "qsl_time": tb}
                     for n, m, tp, sb, tb in rows],
            "out": args.out,
        },
        csv=_csv("N,M,t_perp_entangled,separable_bound,qsl_time", rows),
    )


def cmd_mixture_demo(args) -> Report:
    if args.omega <= 0.0:
        raise _UsageError("--omega must be positive")
    if not 0 <= args.samples <= MAX_GRID_POINTS:
        raise _UsageError(f"--samples must be between 0 and {MAX_GRID_POINTS}")
    omega = args.omega
    ensemble, locals_ = make_mixture_demo(omega)
    analysis = analyze_ensemble_at_qsl(ensemble, locals_, tol=args.tol)
    t_qsl = analysis.bound.time

    rho = ensemble.assemble()
    hamiltonian = noninteracting_hamiltonian(list(locals_))
    result = first_orthogonal_time(
        rho, hamiltonian, SearchOptions(horizon=args.horizon, ortho_tol=args.tol)
    )
    _require_match(result.t_perp, t_qsl, "mixture demo")

    # survival curve over one full revival period, normalized to 1 at t = 0
    ts = np.linspace(0.0, 2.0 * math.pi / omega, args.samples)
    values = survival(rho, hamiltonian, ts) / state_overlap(rho, rho)

    lines = [f"verdict={analysis.verdict}"]
    for i, term in enumerate(analysis.terms):
        stat = ",".join(str(k) for k in term.stationary) or "-"
        bt = "n/a" if term.bound_time is None else _fmt(term.bound_time)
        lines.append(f"term {i}: evolving={term.evolving} stationary={stat} bound={bt}")
    lines.append(f"t_perp={_fmt(result.t_perp)} t_qsl={_fmt(t_qsl)}")
    return Report(
        {
            "verdict": analysis.verdict,
            "terms": [
                {"evolving": r.evolving, "stationary": list(r.stationary),
                 "bound_time": r.bound_time}
                for r in analysis.terms
            ],
            "t_perp": result.t_perp,
            "t_qsl": t_qsl,
            "out": args.out,
        },
        "\n".join(lines) + "\n",
        csv=_csv("t,survival", zip(ts, values)),
    )


def _in_first_valley(groups: int, group: CollectiveSpec, times: Sequence[float],
                     tol: float) -> bool:
    """Whether every time lies in the first interval where the grouped survival <= tol.

    The survival is the closed-form group survival raised to the number of
    groups.  The scalar scan finds a point of the first such interval; the
    times must join it without the survival rising above ``tol`` in between,
    checked at a step far below the survival's shortest period.
    """
    def product(ts: np.ndarray) -> np.ndarray:
        return np.abs(collective_overlap_fn(group, ts)) ** (2 * groups)

    bandwidth = groups * group.bandwidth
    # the product state's variance is groups times the group's
    first = scan_first_zero(product, max(times), bandwidth, accept_tol=tol, scale=1.0,
                            curvature=2.0 * groups * (group.spread / bandwidth) ** 2)
    if not first.found:
        return False
    lo, hi = min(first.t_perp, *times), max(first.t_perp, *times)
    ts = np.append(np.arange(lo, hi, math.pi / (64.0 * bandwidth)), hi)
    return bool(np.all(product(ts) <= tol * (1.0 + 1e-6)))


def cmd_groups(args) -> Report:
    if args.groups < 1 or args.per_group < 1:
        raise _UsageError("--groups and --per-group must be >= 1")
    total = args.groups * args.per_group
    if not _dimension_within((2 for _ in range(total)), args.cap):
        # int-to-str converts at most 4300 digits
        exponent = total if total.bit_length() <= 64 else "(groups x per-group)"
        raise _UsageError(f"dimension 2^{exponent} exceeds the dense cap {args.cap}")
    state, hamiltonian = make_grouped(args.groups, args.per_group, args.omega0, args.omega)
    result = grouped_t_perp(
        args.groups, args.per_group, args.omega0, args.omega, horizon=args.horizon
    )
    if result.found and not args.no_verify:
        # cross-check against the assembled matrix at the scalar path's own
        # threshold (survival 1e-20 by default).  A flat product zero has a
        # wide valley below that threshold, anywhere in which the matrix
        # solver may stop, so both answers only have to lie in the first
        # such valley.
        opts = SearchOptions(horizon=args.horizon, ortho_tol=args.tol)
        full = first_orthogonal_time(state, hamiltonian, opts)
        group = CollectiveSpec(args.per_group, args.omega0, args.omega)
        if not full.found or not _in_first_valley(
            args.groups, group, (full.t_perp, result.t_perp), args.tol
        ):
            raise NumericalFailure(
                f"group-factorized t_perp {result.t_perp!r} and the full-matrix value "
                f"{full.t_perp if full.found else None!r} are not both in the first "
                f"interval where the survival is at or below {args.tol!r}"
            )
    bound = qsl_time(energy_stats(state, hamiltonian))
    expected = math.sqrt(total / args.per_group)
    ratio = _ratio(result.t_perp, bound.time,
                   f"{args.groups} groups of {args.per_group}")
    if result.found:
        vs_bound = ("t_qsl=unbounded ratio=n/a" if ratio is None
                    else f"t_qsl={_fmt(bound.time)} ratio={_fmt(ratio)}")
        text = f"t_perp={_fmt(result.t_perp)} {vs_bound} sqrt_m_over_q={_fmt(expected)}\n"
    else:
        text = (f"NotFound min_overlap={_fmt(result.min_overlap)} "
                f"horizon={_fmt(result.horizon)} sqrt_m_over_q={_fmt(expected)}\n")
    return Report({
        "status": result.status,
        "t_perp": result.t_perp,
        "t_qsl": None if bound.unbounded else bound.time,
        "ratio": ratio,
        "sqrt_m_over_q": expected,
    }, text)


# ---------------------------------------------------------------------------
# parser and emitter
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Quantum speed limit bounds and first-orthogonality times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, out=False, svg=False, horizon=False, tol=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, out=None, svg=None)
        if out:
            p.add_argument("--out", metavar="PATH",
                           help="write the CSV to this path instead of stdout")
        if svg:
            p.add_argument("--svg", metavar="PATH", help="also render an SVG plot")
        if horizon:
            p.add_argument("--horizon", type=float, default=None,
                           help="search horizon (default: 20x the speed limit time)")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol,
                           help="orthogonality tolerance on the survival value "
                                "(default: %(default)g)")
        p.add_argument("--json", action="store_true",
                       help="print only the one-line JSON result envelope")
        return p

    p = command("bound", cmd_bound, "evaluate the speed limit time for given stats")
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--spread", type=float, required=True)

    p = command("tperp", cmd_tperp, "first orthogonality time of a JSON system",
                horizon=True, tol=DEFAULT_ORTHO_TOL)
    p.add_argument("state_file", help="JSON file with dims, amplitudes|matrix, hamiltonian")

    p = command("fig1", cmd_fig1, "sweep the collective model over omega/omega0",
                out=True, svg=True, horizon=True)
    p.add_argument("--qubits", type=int, default=9)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--limit", action="store_true",
                   help="append the omega0=0 limit row (labeled inf)")

    p = command("ent-scan", cmd_ent_scan, "entangled-chain speedup table over (N, M)",
                out=True)
    p.add_argument("--levels", type=_int_list, default=[2, 3, 5])
    p.add_argument("--subsystems", type=_int_list, default=[2, 3, 4])
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--cap", type=int, default=1024,
                   help="verify numerically only when N^M is at most this")
    p.add_argument("--no-verify", action="store_true")

    p = command("mixture-demo", cmd_mixture_demo,
                "bound-saturating classical mixture walkthrough",
                out=True, horizon=True, tol=DEFAULT_ORTHO_TOL)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=201)

    p = command("groups", cmd_groups, "grouped collective model vs sqrt(M/Q)",
                horizon=True, tol=1e-20)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--per-group", type=int, required=True)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--cap", type=int, default=DENSE_CAP)
    p.add_argument("--no-verify", action="store_true")

    return parser


def _write_files(files: Sequence[tuple[Optional[str], Optional[str]]]) -> None:
    """Write each (path, text) whose path is given.

    If one cannot be written, the files this call wrote are removed again,
    so a failed command leaves none of its output behind.
    """
    written = []
    for path, text in files:
        if path is None:
            continue
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                fh.write(text)
        except OSError as exc:
            for done in written:
                os.remove(done)
            raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        report = args.func(args)
        _write_files([(args.out, report.csv), (args.svg, report.svg)])
    except _UsageError as exc:
        sys.stderr.write(f"{args.command}: {exc}\n")
        return 2
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 3
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4
    if args.json:
        sys.stdout.write(json.dumps({"command": args.command, **report.payload}) + "\n")
    elif args.out is None and report.csv is not None:
        sys.stdout.write(report.text + report.csv)
    else:
        sys.stdout.write(report.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
