"""Exact unitary time evolution and the first-orthogonality-time solver.

Evolution uses the Hamiltonian's cached eigendecomposition, so repeated
evolutions and survival evaluations cost one matrix-vector (or matrix-matrix)
transform each.  The solver locates the smallest positive time at which the
survival Tr[rho(t) rho] drops to (numerical) zero by scanning at a step set by
the spectral bandwidth of the signal and refining bracketed minima with
golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import qsl_time
from .qcore import (
    DensityMatrix,
    Hamiltonian,
    InvariantViolation,
    PureState,
    State,
    energy_stats,
    _require_same_layout,
)

#: Absolute time accuracy of the refined minima of a pure-state survival (the
#: refinement itself runs two decades tighter so that steep zeros still dip
#: below the acceptance threshold at the best evaluated point).  A mixed-state
#: survival is a sum carrying ~1e-16 round-off, which pins its quadratic
#: minima only to ~1e-8 relative.
TIME_RESOLUTION = 1e-10
_GOLDEN_XTOL = 1e-12
#: Survival at or below this counts as orthogonal.  Survival is quadratic in
#: amplitude near a zero, so 1e-9 corresponds to amplitude error ~3e-5.
DEFAULT_ORTHO_TOL = 1e-9
DEFAULT_SCAN_FRACTION = 0.25
#: Default search horizon, as a multiple of the speed limit time.
HORIZON_MULTIPLIER = 20.0

_BANDWIDTH_FLOOR = 1e-12
_SUPPORT_CUT = 1e-12  # weights below this do not define the scan bandwidth
_PAIR_CUT = 1e-18  # survival terms below this are dropped from the sum
_CHUNK = 65536
_MAX_SAMPLES = 20_000_000
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchOptions:
    """Options for the first-orthogonality search.

    ``horizon=None`` resolves to ``HORIZON_MULTIPLIER`` times the speed limit
    time of the input state.  ``scan_fraction`` is the fraction of the
    half-period pi/bandwidth used as the scan step; at the default 0.25 a zero
    of the survival cannot slip between samples unnoticed.
    """

    horizon: Optional[float] = None
    ortho_tol: float = DEFAULT_ORTHO_TOL
    scan_fraction: float = DEFAULT_SCAN_FRACTION

    def __post_init__(self) -> None:
        if self.horizon is not None and not (
            math.isfinite(self.horizon) and self.horizon > 0.0
        ):
            raise InvariantViolation(f"horizon must be positive and finite, got {self.horizon}")
        if not (self.ortho_tol > 0.0):
            raise InvariantViolation(f"ortho_tol must be positive, got {self.ortho_tol}")
        if not (0.0 < self.scan_fraction <= 1.0):
            raise InvariantViolation(
                f"scan_fraction must be in (0, 1], got {self.scan_fraction}"
            )


@dataclass(frozen=True)
class OrthogonalityResult:
    """Outcome of the first-orthogonality search.

    When found, ``survival(state, H, t_perp) <= ortho_tol``.  When not found,
    ``min_overlap`` is the smallest survival value seen anywhere on the
    scanned horizon and ``t_at_min`` where it occurred.
    """

    found: bool
    t_perp: Optional[float]
    min_overlap: float
    t_at_min: float
    horizon: float

    @property
    def status(self) -> str:
        return "Found" if self.found else "NotFound"


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def evolve(state: State, hamiltonian: Hamiltonian, t: float) -> State:
    """Evolve a state for time t (negative t evolves backward).

    Pure states transform by exp(-iHt) through the cached eigendecomposition;
    density matrices by conjugation with the same unitary.  Norm and trace are
    preserved up to round-off; a ground shift of H only changes a global phase.
    """
    _require_same_layout(state, hamiltonian)
    t = float(t)
    if not math.isfinite(t):
        raise InvariantViolation(f"time must be finite, got {t}")
    evals, evecs = hamiltonian.eigensystem()
    phases = np.exp(-1j * evals * t)
    if isinstance(state, PureState):
        amp = evecs @ (phases * (evecs.conj().T @ state.amplitudes))
        return PureState(state.layout, amp)
    rho_eig = evecs.conj().T @ state.matrix @ evecs
    rho_eig = rho_eig * np.outer(phases, phases.conj())
    mat = evecs @ rho_eig @ evecs.conj().T
    mat = 0.5 * (mat + mat.conj().T)  # remove round-off skew from the products
    return DensityMatrix(state.layout, mat)


class _SurvivalSignal:
    """Survival Tr[rho(t) rho] as an exponential sum with nonnegative weights.

    Pure state:  s(t) = |sum_j w_j exp(-i lam_j t)|^2 with w_j = |c_j|^2,
    summed over the distinct eigenvalues lam_j.
    Mixed state: s(t) = sum_{ab} |rho_ab|^2 exp(-i (lam_a - lam_b) t), written
    in the Hamiltonian eigenbasis; the gap symmetry makes the sum real.

    ``bandwidth`` is the spectral range actually populated by the state: the
    highest angular frequency in s(t), which sets the scan step.
    """

    def __init__(self, state: State, hamiltonian: Hamiltonian):
        evals, evecs = hamiltonian.eigensystem()
        if isinstance(state, PureState):
            # |V^T psi*| = |V^dagger psi|, without a conjugated copy of V
            coeff = evecs.T @ state.amplitudes.conj()
            # Exactly equal eigenvalues share one term, so a degenerate
            # spectrum costs its distinct levels rather than its dimension.
            freqs, level = np.unique(evals, return_inverse=True)
            weights = np.bincount(level, weights=np.abs(coeff) ** 2)
            self._pure = True
            self._freqs = freqs
            self._weights = weights
            support = freqs[weights > _SUPPORT_CUT]
        else:
            rho_eig = evecs.conj().T @ state.matrix @ evecs
            coeffs = np.abs(rho_eig) ** 2
            gaps = evals[:, None] - evals[None, :]
            keep = coeffs > _PAIR_CUT
            self._pure = False
            self._freqs = gaps[keep]
            self._weights = coeffs[keep]
            support = np.abs(gaps[coeffs > _SUPPORT_CUT])
        if support.size == 0:
            self.bandwidth = 0.0
        elif self._pure:
            self.bandwidth = float(support.max() - support.min())
        else:
            self.bandwidth = float(support.max())
        self.initial = float(self.evaluate(np.zeros(1))[0])

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        flat = ts.reshape(-1)
        out = np.empty(flat.shape, dtype=float)
        for start in range(0, flat.size, _CHUNK):
            block = flat[start:start + _CHUNK]
            phases = np.exp(-1j * np.outer(block, self._freqs))
            if self._pure:
                amp = phases @ self._weights
                out[start:start + _CHUNK] = amp.real ** 2 + amp.imag ** 2
            else:
                out[start:start + _CHUNK] = (phases @ self._weights).real
        np.maximum(out, 0.0, out=out)
        return out.reshape(ts.shape)


def survival(state: State, hamiltonian: Hamiltonian, t) -> float | np.ndarray:
    """Overlap of the evolved state with the initial one, Tr[rho(t) rho].

    Equals ``state_overlap(evolve(state, H, t), state)``; 1 at t = 0 for pure
    states, the purity for mixed ones.  ``t`` may be a scalar or an array
    (evaluated vectorized, sharing one eigendecomposition).
    """
    _require_same_layout(state, hamiltonian)
    signal = _SurvivalSignal(state, hamiltonian)
    ts = np.asarray(t, dtype=float)
    values = signal.evaluate(np.atleast_1d(ts))
    if ts.ndim == 0:
        return float(values[0])
    return values.reshape(ts.shape)


# ---------------------------------------------------------------------------
# scan-and-refine zero finder
# ---------------------------------------------------------------------------


def _golden_min(fn: Callable[[float], float], a: float, b: float,
                xtol: float = _GOLDEN_XTOL,
                max_iter: int = 200) -> tuple[float, float]:
    """Golden-section minimum of fn on [a, b]; returns the best point seen."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = fn(x1)
            if f1 < best_f:
                best_x, best_f = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = fn(x2)
            if f2 < best_f:
                best_x, best_f = x2, f2
    mid = 0.5 * (a + b)
    fmid = fn(mid)
    if fmid < best_f:
        best_x, best_f = mid, fmid
    return best_x, best_f


def _refine_bracket(vec_fn: Callable[[np.ndarray], np.ndarray],
                    a: float, b: float, accept_tol: float,
                    subdivisions: int = 64):
    """Resolve a candidate bracket: fine scan, then golden-refine its minima.

    Only interior minima of the fine grid qualify: a sub-threshold value at a
    bracket edge is not evidence of a zero there (very flat zeros have wide
    sub-threshold valleys), and edge zeros are always centered in one of the
    neighboring, overlapping candidate brackets.  Minima are processed left to
    right so the first acceptable zero wins.
    """
    xs = np.linspace(a, b, subdivisions + 1)
    ys = vec_fn(xs)
    scalar = lambda x: float(vec_fn(np.array([x]))[0])
    idx_best = int(np.argmin(ys))
    best_t, best_val = float(xs[idx_best]), float(ys[idx_best])
    for j in range(1, subdivisions):
        if ys[j] <= ys[j - 1] and ys[j] <= ys[j + 1]:
            t, value = _golden_min(scalar, float(xs[j - 1]), float(xs[j + 1]))
            if value < best_val:
                best_t, best_val = t, value
            if value <= accept_tol:
                return True, t, value, best_t, best_val
    return False, None, None, best_t, best_val


def scan_first_zero(vec_fn: Callable[[np.ndarray], np.ndarray],
                    horizon: float,
                    bandwidth: float,
                    accept_tol: float,
                    scan_fraction: float = DEFAULT_SCAN_FRACTION,
                    scale: Optional[float] = None) -> OrthogonalityResult:
    """First t in (0, horizon] where a nonnegative oscillatory signal <= tol.

    ``vec_fn`` maps an array of times to signal values; ``bandwidth`` is the
    largest angular frequency present.  The signal is sampled at step
    scan_fraction * pi / bandwidth.  Candidate brackets are the sampled local
    minima plus every sample low enough that a zero could hide next to it
    (the signal cannot fall from a zero faster than its bandwidth allows);
    each is refined by golden-section search and accepted iff the refined
    value is at or below ``accept_tol``.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvariantViolation(f"horizon must be positive and finite, got {horizon}")
    if not (bandwidth > 0.0):
        raise InvariantViolation(f"bandwidth must be positive, got {bandwidth}")
    if not (0.0 < scan_fraction <= 1.0):
        raise InvariantViolation(f"scan_fraction must be in (0, 1], got {scan_fraction}")
    if not (accept_tol > 0.0):
        raise InvariantViolation(f"accept_tol must be positive, got {accept_tol}")

    step_target = scan_fraction * math.pi / bandwidth
    count = max(2, int(math.ceil(horizon / step_target)))
    if count > _MAX_SAMPLES:
        raise InvariantViolation(
            f"scanning horizon {horizon} at bandwidth {bandwidth} needs {count} "
            f"samples (max {_MAX_SAMPLES}); shorten the horizon"
        )
    ts = np.linspace(0.0, horizon, count + 1)
    vals = vec_fn(ts)
    if scale is None:
        scale = max(float(vals[0]), float(vals.max()), 1e-300)
    screen = 1.5 * (scan_fraction * math.pi / 2.0) ** 2 * scale

    interior = int(np.argmin(vals[1:])) + 1
    best_t, best_val = float(ts[interior]), float(vals[interior])

    candidates = [
        i for i in range(1, count)
        if (vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]) or vals[i] <= screen
    ]
    if vals[count] <= vals[count - 1] or vals[count] <= screen:
        candidates.append(count)

    for i in candidates:
        lo = float(ts[max(i - 1, 0)])
        hi = float(ts[min(i + 1, count)])
        found, t, value, local_t, local_val = _refine_bracket(vec_fn, lo, hi, accept_tol)
        if local_val < best_val:
            best_t, best_val = local_t, local_val
        if found:
            return OrthogonalityResult(True, t, max(value, 0.0), t, horizon)
    # A signal still descending through the tolerance at the horizon edge has
    # its first acceptable time at the horizon itself.
    if vals[count] <= accept_tol:
        return OrthogonalityResult(True, horizon, float(vals[count]), horizon, horizon)
    return OrthogonalityResult(False, None, max(best_val, 0.0), best_t, horizon)


def first_orthogonal_time(state: State, hamiltonian: Hamiltonian,
                          opts: Optional[SearchOptions] = None) -> OrthogonalityResult:
    """Smallest t > 0 at which the state becomes orthogonal to itself.

    Requires a ground-shifted Hamiltonian (the default horizon is a multiple
    of the speed limit time, which is only meaningful from a zero ground
    state).  Stationary states (no populated spectral range) return NotFound
    immediately.  For a pure state the located time is accurate to
    ``TIME_RESOLUTION``; for a density matrix only to ~1e-8 relative, since
    round-off of ~1e-16 in the survival sum blurs a quadratic minimum over
    ~sqrt(1e-16).
    """
    opts = opts if opts is not None else SearchOptions()
    if not isinstance(opts, SearchOptions):
        raise InvariantViolation("opts must be a SearchOptions instance")
    _require_same_layout(state, hamiltonian)
    if not hamiltonian.is_ground_shifted:
        raise InvariantViolation(
            "first_orthogonal_time requires a ground-shifted hamiltonian; "
            "apply ground_shift first"
        )
    signal = _SurvivalSignal(state, hamiltonian)
    if signal.bandwidth <= _BANDWIDTH_FLOOR:
        return OrthogonalityResult(False, None, signal.initial, 0.0, 0.0)
    if opts.horizon is not None:
        horizon = opts.horizon
    else:
        bound = qsl_time(energy_stats(state, hamiltonian))
        if bound.unbounded:
            return OrthogonalityResult(False, None, signal.initial, 0.0, 0.0)
        horizon = HORIZON_MULTIPLIER * bound.time
    return scan_first_zero(
        signal.evaluate,
        horizon,
        signal.bandwidth,
        opts.ortho_tol,
        opts.scan_fraction,
        scale=signal.initial,
    )
