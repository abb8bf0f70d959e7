"""Command-line experiment runner.

Subcommands: bound, tperp, fig1, ent-scan, mixture-demo, groups.
Exit codes: 0 success, 2 usage/config error, 3 data-invariant violation,
4 numerical failure.  CSV output is deterministic: identical configuration
produces a byte-identical file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import svgplot
from .bounds import analyze_ensemble_at_qsl, mixture_stats, qsl_time
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
    EnergyStats,
    InvariantViolation,
    NumericalFailure,
    SchemaError,
    energy_stats,
    ground_shift,
    load_system,
    noninteracting_hamiltonian,
    state_overlap,
)

RATIO_FLOOR = 1.0 - 1e-9
MAX_GRID_POINTS = 100_000


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _emit(text: str, out: Optional[str]) -> None:
    # Build-then-write: a failed computation never leaves a partial file.
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


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


def cmd_bound(args) -> int:
    if args.energy < 0.0 or args.spread < 0.0:
        sys.stderr.write("bound: --energy and --spread must be nonnegative\n")
        return 2
    result = qsl_time(EnergyStats(args.energy, args.spread))
    if args.json:
        _print_json({
            "command": "bound",
            "time": None if result.unbounded else result.time,
            "unbounded": result.unbounded,
            "branch": result.branch.value,
        })
    elif result.unbounded:
        sys.stdout.write(f"unbounded branch={result.branch.value}\n")
    else:
        sys.stdout.write(f"t_qsl={_fmt(result.time)} branch={result.branch.value}\n")
    return 0


def cmd_tperp(args) -> int:
    state, hamiltonian = load_system(args.state_file)
    shift = 0.0
    if not hamiltonian.is_ground_shifted:
        shift = hamiltonian.ground_energy
        hamiltonian = ground_shift(hamiltonian)
        if not args.json:
            sys.stdout.write(f"ground_shift={_fmt(-shift)} applied\n")
    opts = SearchOptions(
        horizon=args.horizon,
        ortho_tol=args.tol if args.tol is not None else DEFAULT_ORTHO_TOL,
    )
    result = first_orthogonal_time(state, hamiltonian, opts)
    bound = qsl_time(energy_stats(state, hamiltonian))

    ratio = None
    if result.found and not bound.unbounded:
        ratio = result.t_perp / bound.time
        if ratio < RATIO_FLOOR:
            raise NumericalFailure(
                f"measured t_perp {result.t_perp!r} undercuts the bound {bound.time!r}"
            )
    if args.json:
        _print_json({
            "command": "tperp",
            "status": result.status,
            "t_perp": result.t_perp,
            "t_qsl": None if bound.unbounded else bound.time,
            "ratio": ratio,
            "min_overlap": result.min_overlap,
            "t_at_min": result.t_at_min,
            "horizon": result.horizon,
            "ground_shift_applied": -shift,
        })
    elif result.found:
        bound_txt = "unbounded" if bound.unbounded else _fmt(bound.time)
        ratio_txt = "n/a" if ratio is None else f"{ratio:.6f}"
        sys.stdout.write(
            f"Found t_perp={_fmt(result.t_perp)} bound={bound_txt} ratio={ratio_txt}\n"
        )
    else:
        sys.stdout.write(
            f"NotFound min_overlap={_fmt(result.min_overlap)} "
            f"t_at_min={_fmt(result.t_at_min)} horizon={_fmt(result.horizon)}\n"
        )
    return 0


def _fig1_grid(start: float, stop: float, step: float) -> list[float]:
    if step <= 0.0:
        raise InvariantViolation(f"grid step must be positive, got {step}")
    if start > stop:
        raise InvariantViolation(f"grid start {start} exceeds stop {stop}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise InvariantViolation(f"grid has {count} points (max {MAX_GRID_POINTS})")
    return [start + i * step for i in range(count)]


def cmd_fig1(args) -> int:
    try:
        grid = _fig1_grid(args.start, args.stop, args.step)
    except InvariantViolation as exc:
        sys.stderr.write(f"fig1: {exc}\n")
        return 2
    if args.qubits < 1 or args.omega0 <= 0.0:
        sys.stderr.write("fig1: --qubits must be >= 1 and --omega0 positive\n")
        return 2

    rows = []
    for ratio in grid:
        spec = CollectiveSpec(args.qubits, args.omega0, ratio * args.omega0)
        result = collective_t_perp(spec, horizon=args.horizon)
        rows.append((ratio, result.t_perp if result.found else None, spec.t_qsl))
    if args.limit:
        spec = CollectiveSpec(args.qubits, 0.0, 1.0)
        result = collective_t_perp(spec, horizon=args.horizon)
        rows.append((math.inf, result.t_perp if result.found else None, spec.t_qsl))

    for ratio, t_perp, t_qsl in rows:
        if t_perp is not None and t_perp / t_qsl < RATIO_FLOOR:
            raise NumericalFailure(
                f"row omega_ratio={ratio!r}: measured t_perp {t_perp!r} is inside "
                f"the forbidden region below {t_qsl!r}"
            )

    lines = ["omega_ratio,t_perp,t_qsl,ratio"]
    for ratio, t_perp, t_qsl in rows:
        if t_perp is None:
            lines.append(f"{_fmt(ratio)},,{_fmt(t_qsl)},")
        else:
            lines.append(
                f"{_fmt(ratio)},{_fmt(t_perp)},{_fmt(t_qsl)},{_fmt(t_perp / t_qsl)}"
            )
    csv_text = "\n".join(lines) + "\n"
    _emit(csv_text, args.out)
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(svgplot.sweep_svg(rows))
    if args.json:
        _print_json({
            "command": "fig1",
            "rows": [
                {"omega_ratio": r, "t_perp": tp, "t_qsl": tq,
                 "ratio": None if tp is None else tp / tq}
                for r, tp, tq in rows
            ],
            "out": args.out,
            "svg": args.svg,
        })
    return 0


def cmd_ent_scan(args) -> int:
    if args.omega0 <= 0.0:
        sys.stderr.write("ent-scan: --omega0 must be positive\n")
        return 2
    w0 = args.omega0
    rows = []
    for n in args.levels:
        for m in args.subsystems:
            spec = EntangledChainSpec(n, m, w0)
            t_analytic = 2.0 * math.pi / (n * m * w0)
            local_energy = w0 * (n - 1) / 2.0
            local_spread = w0 * math.sqrt(n * n - 1.0) / (2.0 * math.sqrt(3.0))
            sep_bound = max(
                math.pi / (2.0 * local_energy), math.pi / (2.0 * local_spread)
            )
            aggregate = EnergyStats(m * local_energy, m * local_spread)
            t_bound = qsl_time(aggregate).time
            if spec.total_dim <= args.cap and not args.no_verify:
                state, hamiltonian, _ = make_psi_ent(spec, cap=args.cap)
                result = first_orthogonal_time(state, hamiltonian)
                if not result.found or abs(result.t_perp - t_analytic) > 1e-8 * t_analytic:
                    raise NumericalFailure(
                        f"N={n} M={m}: measured t_perp {result.t_perp!r} does not "
                        f"match the analytic value {t_analytic!r}"
                    )
            if m >= 2 and sep_bound / t_analytic < math.sqrt(m) * (1.0 - 1e-6):
                raise NumericalFailure(
                    f"N={n} M={m}: separable bound {sep_bound!r} does not exceed "
                    f"t_perp {t_analytic!r} by sqrt(M)"
                )
            rows.append((n, m, t_analytic, sep_bound, t_bound))

    lines = ["N,M,t_perp_entangled,separable_bound,qsl_time"]
    for n, m, t_perp, sep_bound, t_bound in rows:
        lines.append(f"{n},{m},{_fmt(t_perp)},{_fmt(sep_bound)},{_fmt(t_bound)}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.json:
        _print_json({
            "command": "ent-scan",
            "rows": [
                {"N": n, "M": m, "t_perp_entangled": tp,
                 "separable_bound": sb, "qsl_time": tb}
                for n, m, tp, sb, tb in rows
            ],
            "out": args.out,
        })
    return 0


def cmd_mixture_demo(args) -> int:
    if args.omega <= 0.0:
        sys.stderr.write("mixture-demo: --omega must be positive\n")
        return 2
    omega = args.omega
    ensemble, locals_ = make_mixture_demo(omega)
    tol = args.tol if args.tol is not None else DEFAULT_ORTHO_TOL
    analysis = analyze_ensemble_at_qsl(ensemble, locals_, tol=tol)
    bound = qsl_time(mixture_stats(ensemble, locals_))

    rho = ensemble.assemble()
    hamiltonian = noninteracting_hamiltonian(list(locals_))
    result = first_orthogonal_time(
        rho, hamiltonian, SearchOptions(horizon=args.horizon, ortho_tol=tol)
    )
    if not result.found or abs(result.t_perp - bound.time) > 1e-8 * bound.time:
        raise NumericalFailure(
            f"mixture demo t_perp {result.t_perp!r} does not match the bound {bound.time!r}"
        )

    # survival curve over one full revival period, normalized to 1 at t = 0
    samples = args.samples
    ts = np.linspace(0.0, 2.0 * math.pi / omega, samples)
    purity = state_overlap(rho, rho)
    values = survival(rho, hamiltonian, ts) / purity
    curve_lines = ["t,survival"]
    for t, v in zip(ts, values):
        curve_lines.append(f"{_fmt(t)},{_fmt(v)}")
    curve = "\n".join(curve_lines) + "\n"

    if args.json:
        _print_json({
            "command": "mixture-demo",
            "verdict": analysis.verdict,
            "terms": [
                {"evolving": r.evolving, "stationary": list(r.stationary),
                 "bound_time": r.bound_time}
                for r in analysis.terms
            ],
            "t_perp": result.t_perp,
            "t_qsl": bound.time,
            "out": args.out,
        })
    else:
        sys.stdout.write(f"verdict={analysis.verdict}\n")
        for i, report in enumerate(analysis.terms):
            stat = ",".join(str(k) for k in report.stationary) or "-"
            bt = "n/a" if report.bound_time is None else _fmt(report.bound_time)
            sys.stdout.write(
                f"term {i}: evolving={report.evolving} stationary={stat} bound={bt}\n"
            )
        sys.stdout.write(f"t_perp={_fmt(result.t_perp)} t_qsl={_fmt(bound.time)}\n")
    if args.out is not None:
        _emit(curve, args.out)
    elif not args.json:
        sys.stdout.write(curve)
    return 0


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

    bandwidth = 2.0 * groups * (group.omega + group.qubits * group.omega0)
    first = scan_first_zero(product, max(times), bandwidth, accept_tol=tol, scale=1.0)
    if not first.found:
        return False
    lo, hi = min(first.t_perp, *times), max(first.t_perp, *times)
    ts = np.append(np.arange(lo, hi, math.pi / (64.0 * bandwidth)), hi)
    return bool(np.all(product(ts) <= tol * (1.0 + 1e-6)))


def cmd_groups(args) -> int:
    if args.groups < 1 or args.per_group < 1:
        sys.stderr.write("groups: --groups and --per-group must be >= 1\n")
        return 2
    total = args.groups * args.per_group
    if 2 ** total > args.cap:
        sys.stderr.write(
            f"groups: dimension 2^{total} exceeds the dense cap {args.cap}\n"
        )
        return 2
    state, hamiltonian = make_grouped(
        args.groups, args.per_group, args.omega0, args.omega, cap=args.cap
    )
    result = grouped_t_perp(
        args.groups, args.per_group, args.omega0, args.omega, horizon=args.horizon
    )
    if result.found and not args.no_verify:
        # cross-check against the assembled matrix at the scalar path's own
        # threshold (survival 1e-20).  A flat product zero has a wide valley
        # below that threshold, anywhere in which the matrix solver may stop,
        # so both answers only have to lie in the first such valley.
        tol = args.tol if args.tol is not None else 1e-20
        opts = SearchOptions(horizon=args.horizon, ortho_tol=tol)
        full = first_orthogonal_time(state, hamiltonian, opts)
        group = CollectiveSpec(args.per_group, args.omega0, args.omega)
        if not full.found or not _in_first_valley(
            args.groups, group, (full.t_perp, result.t_perp), tol
        ):
            raise NumericalFailure(
                f"group-factorized t_perp {result.t_perp!r} and the full-matrix value "
                f"{full.t_perp if full.found else None!r} are not both in the first "
                f"interval where the survival is at or below {tol!r}"
            )
    bound = qsl_time(energy_stats(state, hamiltonian))
    expected = math.sqrt(total / args.per_group)
    ratio = None
    if result.found and not bound.unbounded:
        ratio = result.t_perp / bound.time
        if ratio < RATIO_FLOOR:
            raise NumericalFailure(
                f"measured ratio {ratio!r} is below the universal floor"
            )
    if args.json:
        _print_json({
            "command": "groups",
            "status": result.status,
            "t_perp": result.t_perp,
            "t_qsl": None if bound.unbounded else bound.time,
            "ratio": ratio,
            "sqrt_m_over_q": expected,
        })
    elif result.found:
        sys.stdout.write(
            f"t_perp={_fmt(result.t_perp)} t_qsl={_fmt(bound.time)} "
            f"ratio={_fmt(ratio)} sqrt_m_over_q={_fmt(expected)}\n"
        )
    else:
        sys.stdout.write(
            f"NotFound min_overlap={_fmt(result.min_overlap)} "
            f"horizon={_fmt(result.horizon)} sqrt_m_over_q={_fmt(expected)}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write CSV output to this path instead of stdout")
    common.add_argument("--svg", metavar="PATH", default=None,
                        help="also render an SVG plot (fig1 only)")
    common.add_argument("--horizon", type=float, default=None,
                        help="search horizon (default: 20x the speed limit time)")
    common.add_argument("--tol", type=float, default=None,
                        help="orthogonality tolerance on the survival value")
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON result envelope")

    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Quantum speed limit bounds and first-orthogonality times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common],
                       help="evaluate the speed limit time for given stats")
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--spread", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("tperp", parents=[common],
                       help="first orthogonality time of a JSON system")
    p.add_argument("state_file", help="JSON file with dims, amplitudes|matrix, hamiltonian")
    p.set_defaults(func=cmd_tperp)

    p = sub.add_parser("fig1", parents=[common],
                       help="sweep the collective model over omega/omega0")
    p.add_argument("--qubits", type=int, default=9)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--limit", action="store_true",
                   help="append the omega0=0 limit row (labeled inf)")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("ent-scan", parents=[common],
                       help="entangled-chain speedup table over (N, M)")
    p.add_argument("--levels", type=_int_list, default=[2, 3, 5])
    p.add_argument("--subsystems", type=_int_list, default=[2, 3, 4])
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--cap", type=int, default=1024,
                   help="verify numerically only when N^M is at most this")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_ent_scan)

    p = sub.add_parser("mixture-demo", parents=[common],
                       help="bound-saturating classical mixture walkthrough")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=201)
    p.set_defaults(func=cmd_mixture_demo)

    p = sub.add_parser("groups", parents=[common],
                       help="grouped collective model vs sqrt(M/Q)")
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--per-group", type=int, required=True)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--cap", type=int, default=4096)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_groups)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 3
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
