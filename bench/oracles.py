"""Checks of qslsim's answers that never call qslsim.

Each check returns a list of problems (empty when the answer is right).  The
references are closed forms (the collective overlap, the chain's geometric
sum, the product of group factors), properties the method must have (bound
ordering, Tr[rho(t) rho] >= lambda_min(rho)), and survival recomputed with
``scipy.linalg.expm``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

#: Survival at or below this counts as orthogonal (qslsim's default threshold).
ORTHO_TOL = 1e-9
#: Relative agreement demanded of t_perp at a simple zero.
SIMPLE_ZERO_REL = 1e-8
#: The same for density matrices.  Their survival is a sum whose round-off
#: (~1e-16) limits the location of a quadratic minimum to ~sqrt(1e-16) = 1e-8.
MIXED_ZERO_REL = 1e-7
#: Reported min_overlap against survival recomputed at t_at_min.
OVERLAP_ABS = 1e-10
#: Slack of the orderings aggregate <= mixed_state_bound <= t_perp.
ORDER_SLACK = 1e-9
#: Full-rank states are checked for NotFound when lambda_min(rho) exceeds this.
FULL_RANK_FLOOR = 1e-8
#: Tolerance on a value printed with 12 significant digits.
PRINTED_REL = 1e-10


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------------------
# survival recomputed with scipy
# ---------------------------------------------------------------------------


def survival_ref(state: np.ndarray, h: np.ndarray, t: float) -> float:
    """Tr[rho(t) rho] (or |<psi|psi(t)>|^2 for a vector) through expm(-iHt)."""
    u = scipy.linalg.expm(-1j * float(t) * h)
    if state.ndim == 1:
        return float(abs(np.vdot(state, u @ state)) ** 2)
    return float(np.real(np.trace(u @ state @ u.conj().T @ state)))


def _overlap_problems(state, h, min_overlap: float, t_at_min: float) -> list[str]:
    ref = survival_ref(state, h, t_at_min)
    if abs(min_overlap - ref) > OVERLAP_ABS:
        return [f"min_overlap {min_overlap!r} but recomputed survival {ref!r} at t={t_at_min!r}"]
    return []


# ---------------------------------------------------------------------------
# random_small, mixed_wide
# ---------------------------------------------------------------------------


def check_mixed(case, aggregate, lower, result) -> list[str]:
    """Bound ordering, 2*pi/k on commensurate blocks, NotFound on full rank."""
    problems = []
    if aggregate.time > lower.time + ORDER_SLACK * max(1.0, lower.time):
        problems.append(f"aggregate bound {aggregate.time!r} above mixed_state_bound {lower.time!r}")
    if result.found:
        if result.t_perp < lower.time - ORDER_SLACK * max(1.0, result.t_perp):
            problems.append(f"t_perp {result.t_perp!r} below mixed_state_bound {lower.time!r}")
        if result.min_overlap > ORTHO_TOL:
            problems.append(f"found with survival {result.min_overlap!r} above {ORTHO_TOL}")
    if case.k is not None:
        expected = 2.0 * math.pi / case.k
        if not result.found or not _close(result.t_perp, expected, MIXED_ZERO_REL):
            problems.append(f"t_perp {result.t_perp!r}, expected 2*pi/{case.k} = {expected!r}")
    lam_min = float(scipy.linalg.eigvalsh(case.rho)[0])
    if lam_min >= FULL_RANK_FLOOR:
        if result.found:
            problems.append(f"full-rank rho (lambda_min {lam_min:.3e}) reported orthogonal")
        if result.min_overlap < lam_min - 1e-12:
            problems.append(f"min_overlap {result.min_overlap!r} below lambda_min {lam_min!r}")
    problems += _overlap_problems(case.rho, case.h, result.min_overlap, result.t_at_min)
    return problems


# ---------------------------------------------------------------------------
# structured: closed forms of the paper's constructions
# ---------------------------------------------------------------------------


def collective_amplitude(m: int, w0: float, w: float, t):
    """cos(w t) cos^m(w0 t) + i^(m+1) sin(w t) sin^m(w0 t)."""
    phase = (1.0, 1j, -1.0, -1j)[(m + 1) % 4]
    return np.cos(w * t) * np.cos(w0 * t) ** m + phase * np.sin(w * t) * np.sin(w0 * t) ** m


def _first_root(fn: Callable[[np.ndarray], np.ndarray], horizon: float, step: float) -> Optional[float]:
    """First sign change of a real function on (0, horizon], refined by brentq."""
    ts = np.arange(step, horizon + step, step)
    vals = fn(ts)
    crossings = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    if crossings.size == 0:
        return None
    i = int(crossings[0])
    if vals[i] == 0.0:
        return float(ts[i])
    return brentq(lambda x: float(fn(np.array(x))), ts[i], ts[i + 1], xtol=1e-16, rtol=1e-15)


@dataclass
class ClosedForm:
    survival: Callable[[np.ndarray], np.ndarray]
    t0: Optional[float]  # first exact zero of the overlap, None if none on the horizon
    simple: bool  # survival vanishes quadratically at t0 (else: a flat zero)
    t_qsl: float
    bandwidth: float  # highest angular frequency of the survival


def _qsl(energy: float, spread: float) -> float:
    return max(math.pi / (2.0 * energy), math.pi / (2.0 * spread))


def _collective_zero(m: int, w0: float, w: float, horizon: float) -> Optional[float]:
    if w0 == 0.0 or w == 0.0:  # a single factor cos(w t) or cos^m(w0 t)
        return math.pi / (2.0 * (w or w0))
    if m % 2 == 0:
        # both terms must vanish: cos(w0 t) = 0 with sin(w t) = 0 (w/w0 even)
        if abs(w / w0 - 2.0 * round(w / w0 / 2.0)) > 1e-12:
            raise ValueError(f"no closed-form zero for m={m}, w/w0={w / w0}")
        return math.pi / (2.0 * w0)
    # m odd: the overlap is real, its zeros are sign changes
    step = math.pi / (32.0 * (w + m * w0))
    return _first_root(lambda t: np.real(collective_amplitude(m, w0, w, t)), horizon, step)


def structured_closed_form(kind: str, p: dict) -> ClosedForm:
    if kind == "collective":
        m, w0, w = p["qubits"], p["omega0"], p["omega"]
        t_qsl = _qsl(w + m * w0, math.sqrt(w * w + m * w0 * w0))
        return ClosedForm(
            lambda t: np.abs(collective_amplitude(m, w0, w, t)) ** 2,
            _collective_zero(m, w0, w, 20.0 * t_qsl),
            simple=w > 0.0, t_qsl=t_qsl, bandwidth=2.0 * (w + m * w0))
    if kind == "grouped":
        g, q, w0, w = p["groups"], p["per_group"], p["omega0"], p["omega"]
        t_qsl = _qsl(g * (w + q * w0), math.sqrt(g * (w * w + q * w0 * w0)))
        return ClosedForm(
            lambda t: np.abs(collective_amplitude(q, w0, w, t)) ** (2 * g),
            _collective_zero(q, w0, w, 20.0 * t_qsl),
            simple=g == 1, t_qsl=t_qsl, bandwidth=2.0 * g * (w + q * w0))
    n, m, w0 = p["levels"], p["subsystems"], p["omega0"]
    levels = np.arange(n)

    def chain_survival(t):
        phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), levels * (m * w0)))
        return np.abs(phases.sum(axis=-1) / n) ** 2

    return ClosedForm(
        chain_survival, 2.0 * math.pi / (n * m * w0), simple=True,
        t_qsl=_qsl(m * w0 * (n - 1) / 2.0, m * w0 * math.sqrt((n * n - 1) / 12.0)),
        bandwidth=(n - 1) * m * w0)


def check_structured(kind: str, params: dict, result) -> list[str]:
    """t_perp lies in the first sub-threshold valley of the closed-form survival.

    Where that valley holds a simple zero of the overlap, t_perp must match the
    zero to ``SIMPLE_ZERO_REL``.  Flat zeros, and dips below the threshold that
    do not reach zero, only pin the survival at t_perp and the valley.
    """
    cf = structured_closed_form(kind, params)
    if cf.t0 is None or cf.t0 > 20.0 * cf.t_qsl:
        return [f"generated a {kind} case without a zero on the horizon"]
    if not result.found:
        return [f"NotFound, but the closed form vanishes at {cf.t0!r}"]
    t = result.t_perp
    problems = []
    if t < cf.t_qsl * (1.0 - 1e-9):
        problems.append(f"t_perp {t!r} below the speed limit {cf.t_qsl!r}")
    limit = ORTHO_TOL * (1.0 + 1e-6)
    value = float(cf.survival(np.array(t)))
    if value > limit:
        problems.append(f"closed-form survival {value!r} at t_perp {t!r}")
    step = math.pi / (64.0 * cf.bandwidth)
    ts = np.arange(step, max(t, cf.t0) + 2.0 * step, step)
    below = np.concatenate([cf.survival(ts) <= limit, [False]])
    valley_start = valley_end = math.inf
    if below.any():
        first = int(np.argmax(below))
        valley_start = float(ts[first])
        valley_end = float(ts[first + int(np.argmin(below[first:])) - 1])
    if t > valley_end + step:
        problems.append(f"t_perp {t!r} is past the first orthogonal valley "
                        f"[{valley_start!r}, {valley_end!r}]")
    if cf.simple and valley_start >= cf.t0 - step and not _close(t, cf.t0, SIMPLE_ZERO_REL):
        problems.append(f"t_perp {t!r}, closed-form first zero {cf.t0!r}")
    value = float(cf.survival(np.array(result.t_at_min)))
    if abs(result.min_overlap - value) > OVERLAP_ABS:
        problems.append(f"min_overlap {result.min_overlap!r}, closed form {value!r}")
    return problems


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class CliOracle:
    """Expected outputs of each qsl command of the cli workload."""

    def __init__(self, workload):
        self.w = workload
        self._survival_cache: dict = {}
        self.mixed_lambda_min = float(scipy.linalg.eigvalsh(workload.mixed[0])[0])
        self._checks = {
            "bound": self._bound,
            "fig1": self._fig1,
            "ent-scan": self._ent_scan,
            "mixture-demo": self._mixture_demo,
            # G=3, Q=3, omega0=0, omega=1: each group factor is cos(t); E=3, dE=sqrt(3)
            "groups-collective": lambda res: self._groups(res, _qsl(3.0, math.sqrt(3.0))),
            # omega0=1, omega=0: each group factor is cos^3(t); E=9, dE=3
            "groups-default": lambda res: self._groups(res, _qsl(9.0, 3.0)),
            "tperp-pure": lambda res: self._tperp(res, "pure"),
            "tperp-mixed": lambda res: self._tperp(res, "mixed"),
        }

    def _survival(self, which: str, t: float) -> float:
        key = (which, t)
        if key not in self._survival_cache:
            state, h = getattr(self.w, which)
            self._survival_cache[key] = survival_ref(state, h, t)
        return self._survival_cache[key]

    def check(self, name: str, res) -> list[str]:
        return self._checks[name](res)

    def _bound(self, res) -> list[str]:
        f = _fields(res.stdout)
        t_ml, t_unc = math.pi / (2.0 * self.w.energy), math.pi / (2.0 * self.w.spread)
        branch = "MargolusLevitin" if t_ml > t_unc else "TimeEnergyUncertainty"
        if not _close(float(f.get("t_qsl", "nan")), max(t_ml, t_unc), PRINTED_REL) \
                or f.get("branch") != branch:
            return [f"bound printed {res.stdout.strip()!r}, expected {max(t_ml, t_unc)!r} {branch}"]
        return []

    def _fig1(self, res) -> list[str]:
        problems = []
        data = res.files[".csv"]
        if self.w.reference_fig1 is not None and data != self.w.reference_fig1:
            problems.append("fig1 CSV differs from the reference invocation")
        rows = _csv_rows(data.decode())
        ratios = [float(r["ratio"]) for r in rows if r["ratio"]]
        if len(rows) != 42 or rows[0]["omega_ratio"] != "0" or rows[-1]["omega_ratio"] != "inf":
            problems.append(f"fig1 has unexpected rows ({len(rows)})")
        elif abs(float(rows[0]["ratio"]) - 3.0) > 1e-9 or abs(float(rows[-1]["ratio"]) - 1.0) > 1e-9:
            problems.append(f"fig1 ratios {rows[0]['ratio']} / {rows[-1]['ratio']}, expected 3 / 1")
        if min(ratios, default=0.0) < 1.0 - 1e-9:
            problems.append("fig1 ratio below the speed limit")
        if not ET.fromstring(res.files[".svg"]).tag.endswith("svg"):
            problems.append("fig1 SVG has no svg root")
        return problems

    def _ent_scan(self, res) -> list[str]:
        rows = _csv_rows(res.stdout)
        bad = [
            r for r in rows
            if not _close(float(r["t_perp_entangled"]),
                          2.0 * math.pi / (int(r["N"]) * int(r["M"])), PRINTED_REL)
        ]
        if len(rows) != 9 or bad:
            return [f"ent-scan rows {len(rows)}, wrong t_perp in {bad!r}"]
        return []

    def _mixture_demo(self, res) -> list[str]:
        problems = []
        lines = res.stdout.splitlines()
        f = _fields(next((l for l in lines if l.startswith("t_perp=")), ""))
        if "verdict=SaturatingStructure" not in lines:
            problems.append("mixture-demo verdict is not SaturatingStructure")
        if not _close(float(f.get("t_perp", "nan")), math.pi, MIXED_ZERO_REL):
            problems.append(f"mixture-demo t_perp {f.get('t_perp')}, expected pi")
        curve = _csv_rows(res.files[".csv"].decode())
        if len(curve) != 201 or abs(float(curve[0]["survival"]) - 1.0) > 1e-12 \
                or float(curve[100]["survival"]) > ORTHO_TOL:
            problems.append("mixture-demo curve is not 1 at t=0 and 0 at t=pi")
        return problems

    def _groups(self, res, t_qsl: float) -> list[str]:
        f = _fields(res.stdout)
        t_perp = float(f.get("t_perp", "nan"))
        if not _close(t_perp, math.pi / 2.0, SIMPLE_ZERO_REL):
            return [f"groups t_perp {t_perp!r}, expected pi/2"]
        if not _close(float(f["ratio"]), t_perp / t_qsl, PRINTED_REL):
            return [f"groups ratio {f['ratio']}, expected {t_perp / t_qsl!r}"]
        return []

    def _tperp(self, res, which: str) -> list[str]:
        out = json.loads(res.stdout)
        problems = []
        if which == "pure":
            expected = 2.0 * math.pi / self.w.pure_k
            if out["status"] != "Found" or not _close(out["t_perp"], expected, SIMPLE_ZERO_REL):
                problems.append(f"tperp {out['status']} {out['t_perp']!r}, expected {expected!r}")
            elif out["ratio"] < 1.0 - 1e-9:
                problems.append(f"tperp ratio {out['ratio']!r} below 1")
        else:
            if out["status"] != "NotFound":
                problems.append(f"full-rank system reported {out['status']}")
            if out["min_overlap"] < self.mixed_lambda_min - 1e-12:
                problems.append(f"min_overlap {out['min_overlap']!r} below lambda_min")
        ref = self._survival(which, out["t_at_min"])
        if abs(out["min_overlap"] - ref) > OVERLAP_ABS:
            problems.append(f"min_overlap {out['min_overlap']!r}, recomputed {ref!r}")
        return problems
