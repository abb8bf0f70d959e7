"""Exact unitary time evolution and the first-orthogonality-time solver.

Evolution uses the Hamiltonian's cached eigendecomposition, so repeated
evolutions and survival evaluations cost one matrix-vector (or matrix-matrix)
transform each.  The survival Tr[rho(t) rho] is a sum over the populated
levels (pure state) or a real cosine sum over merged level gaps (density
matrix), evaluated in blocks of bounded size.  The solver locates the smallest
positive time at which it drops to (numerical) zero by scanning at a step set
by the spectral bandwidth of the signal.  Bernstein's inequality bounds how far
the signal can dip between samples, which splits the bracketed minima into
those that may hold a zero (refined one by one, in time order, by
golden-section search) and those that can only lower the reported minimum
(refined together in one vectorized pass, or dropped when they provably cannot).
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
#: Times x terms evaluated per block of ``_SurvivalSignal.evaluate``, which
#: bounds its temporaries (512 KiB of cosines, 1 MiB of complex phases).
_EVAL_BUDGET = 1 << 16
_REFINE_SUBDIVISIONS = 64
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
    """Survival Tr[rho(t) rho] as a sum of oscillations with nonnegative weights.

    Pure state:  s(t) = |sum_j w_j exp(-i lam_j t)|^2 with w_j = |c_j|^2,
    summed over the distinct eigenvalues lam_j.
    Mixed state: s(t) = sum_a |rho_aa|^2 + sum_k w_k cos(g_k t), written in
    the Hamiltonian eigenbasis.  The gaps g_k = |lam_b - lam_a| (a < b) are
    merged when exactly equal, with w_k the sum of |rho_ab|^2 + |rho_ba|^2
    over the merged pairs; zero gaps (degenerate levels) fold into the
    constant.  This is the real part of sum_{ab} |rho_ab|^2 exp(-i (lam_a -
    lam_b) t) with half its terms and no complex arithmetic.
    ``evaluate`` works through the times in blocks of at most
    ``_EVAL_BUDGET`` times x terms, so its memory does not grow with the scan.

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
            # -i * freqs, so that each block needs one complex temporary
            self._phase_rates = -1j * freqs
            support = freqs[weights > _SUPPORT_CUT]
            self.bandwidth = float(support.max() - support.min()) if support.size else 0.0
        else:
            rho_eig = evecs.conj().T @ state.matrix @ evecs
            coeffs = np.abs(rho_eig) ** 2
            a, b = np.triu_indices(evals.size, 1)  # every pair a < b once
            pair = coeffs[a, b] + coeffs[b, a]
            gaps = np.abs(evals[b] - evals[a])
            kept = pair > 2.0 * _PAIR_CUT
            freqs, gap = np.unique(gaps[kept], return_inverse=True)
            weights = np.bincount(gap, weights=pair[kept], minlength=freqs.size)
            diagonal = np.diagonal(coeffs)
            self._constant = float(diagonal[diagonal > _PAIR_CUT].sum())
            if freqs.size and freqs[0] == 0.0:
                self._constant += float(weights[0])
                freqs, weights = freqs[1:], weights[1:]
            self._pure = False
            self._freqs = freqs
            populated = (coeffs[a, b] > _SUPPORT_CUT) | (coeffs[b, a] > _SUPPORT_CUT)
            self.bandwidth = float(gaps[populated].max()) if populated.any() else 0.0
        self._weights = weights
        self.initial = float(self.evaluate(np.zeros(1))[0])

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        flat = ts.reshape(-1)
        out = np.empty(flat.shape, dtype=float)
        # Blocks of times sized so that one block's times x terms stays
        # within _EVAL_BUDGET; every block reuses the same work array.
        rows = max(1, _EVAL_BUDGET // max(self._weights.size, 1))
        work = np.empty((min(rows, flat.size), self._weights.size),
                        dtype=complex if self._pure else float)
        for start in range(0, flat.size, rows):
            block = flat[start:start + rows]
            terms = work[:block.size]
            if self._pure:
                np.multiply.outer(block, self._phase_rates, out=terms)
                np.exp(terms, out=terms)
                amp = terms @ self._weights
                out[start:start + rows] = amp.real ** 2 + amp.imag ** 2
            else:
                np.multiply.outer(block, self._freqs, out=terms)
                np.cos(terms, out=terms)
                out[start:start + rows] = terms @ self._weights + self._constant
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
                    subdivisions: int = _REFINE_SUBDIVISIONS):
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


def _golden_min_batch(vec_fn: Callable[[np.ndarray], np.ndarray],
                      a: np.ndarray, b: np.ndarray,
                      xtol: float = _GOLDEN_XTOL,
                      max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """``_golden_min`` on many intervals in lock step, one ``vec_fn`` call per step.

    All intervals step until the widest is within ``xtol`` (they start
    equally wide or nearly so); returns the best point seen and its value for
    every interval.
    """
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = np.split(vec_fn(np.concatenate((x1, x2))), 2)
    left = f1 <= f2
    best_x, best_f = np.where(left, x1, x2), np.where(left, f1, f2)
    for _ in range(max_iter):
        if not np.any(b - a > xtol):
            break
        left = f1 <= f2
        # left: the minimum is in [a, x2] and x1 becomes the new x2;
        # right: it is in [x1, b] and x2 becomes the new x1
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        new_x = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        new_f = vec_fn(new_x)
        kept_x, kept_f = np.where(left, x1, x2), np.where(left, f1, f2)
        x1, x2 = np.where(left, new_x, kept_x), np.where(left, kept_x, new_x)
        f1, f2 = np.where(left, new_f, kept_f), np.where(left, kept_f, new_f)
        better = new_f < best_f
        best_x, best_f = np.where(better, new_x, best_x), np.where(better, new_f, best_f)
    mid = 0.5 * (a + b)
    fmid = vec_fn(mid)
    better = fmid < best_f
    return np.where(better, mid, best_x), np.where(better, fmid, best_f)


def _lower_minimum(vec_fn: Callable[[np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, curvature: float,
                   best_t: float, best_val: float) -> tuple[float, float]:
    """Lower (best_t, best_val) by the minima of brackets that hold no zero.

    One fine grid over all brackets at once (the grid ``_refine_bracket``
    uses), then a lock-step golden section on every interior minimum of it
    that could still go below ``best_val``: a signal with |s''| <= curvature
    lies at most curvature * dx**2 / 8 below the nearest sample dx apart.
    """
    xs = np.linspace(lo, hi, _REFINE_SUBDIVISIONS + 1, axis=-1)
    ys = vec_fn(xs.reshape(-1)).reshape(xs.shape)
    k = int(np.argmin(ys))
    if ys.flat[k] < best_val:
        best_t, best_val = float(xs.flat[k]), float(ys.flat[k])
    dx = float((hi - lo).max()) / _REFINE_SUBDIVISIONS
    mid = ys[:, 1:-1]
    dips = ((mid <= ys[:, :-2]) & (mid <= ys[:, 2:])
            & (mid - curvature * dx * dx / 8.0 < best_val))
    rows, cols = np.nonzero(dips)
    if rows.size:
        ts, values = _golden_min_batch(vec_fn, xs[rows, cols], xs[rows, cols + 2])
        k = int(np.argmin(values))
        if values[k] < best_val:
            best_t, best_val = float(ts[k]), float(values[k])
    return best_t, best_val


def scan_first_zero(vec_fn: Callable[[np.ndarray], np.ndarray],
                    horizon: float,
                    bandwidth: float,
                    accept_tol: float,
                    scan_fraction: float = DEFAULT_SCAN_FRACTION,
                    scale: Optional[float] = None) -> OrthogonalityResult:
    """First t in (0, horizon] where a nonnegative oscillatory signal <= tol.

    ``vec_fn`` maps an array of times to signal values; ``bandwidth`` is the
    largest angular frequency present and ``scale`` the signal's supremum
    (by default the largest sample).  The signal is sampled at step
    h <= scan_fraction * pi / bandwidth.  Candidate brackets, two steps wide,
    are centered on the sampled local minima and on every sample low enough
    that a zero could hide next to it.

    By Bernstein's inequality |s''| <= bandwidth**2 * scale, so near any
    minimum the signal lies at most margin = bandwidth**2 * scale * h**2 / 8
    below its nearest sample.  Brackets whose lowest sample is at or below
    ``accept_tol + margin`` may hold a zero: they are refined one at a time,
    in time order, by a fine scan plus golden-section search, and the first
    refined value at or below ``accept_tol`` is returned.  Every other bracket
    can only lower the reported minimum: it is dropped when its lowest sample
    minus the margin is not below the best value so far, and the rest are
    refined together in one vectorized pass.
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
    curvature = bandwidth * bandwidth * scale
    step = horizon / count
    margin = curvature * step * step / 8.0

    interior = int(np.argmin(vals[1:])) + 1
    best_t, best_val = float(ts[interior]), float(vals[interior])

    inner = vals[1:count]
    dips = ((inner <= vals[:count - 1]) & (inner <= vals[2:])) | (inner <= screen)
    candidates = np.flatnonzero(dips) + 1
    if vals[count] <= vals[count - 1] or vals[count] <= screen:
        candidates = np.append(candidates, count)
    right = np.minimum(candidates + 1, count)
    lowest = np.minimum(np.minimum(vals[candidates - 1], vals[candidates]), vals[right])
    zero_capable = lowest <= accept_tol + margin

    for i, j in zip(candidates[zero_capable], right[zero_capable]):
        found, t, value, local_t, local_val = _refine_bracket(
            vec_fn, float(ts[i - 1]), float(ts[j]), accept_tol
        )
        if local_val < best_val:
            best_t, best_val = local_t, local_val
        if found:
            return OrthogonalityResult(True, t, max(value, 0.0), t, horizon)

    # A signal still descending through the tolerance at the horizon edge has
    # its first acceptable time at the horizon itself.
    if vals[count] <= accept_tol:
        return OrthogonalityResult(True, horizon, float(vals[count]), horizon, horizon)
    # The remaining brackets cannot reach accept_tol; refine those that
    # could still hold a value below the best one so far.
    deeper = ~zero_capable & (lowest - margin < best_val)
    if deeper.any():
        best_t, best_val = _lower_minimum(
            vec_fn, ts[candidates[deeper] - 1], ts[right[deeper]], curvature, best_t, best_val
        )
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
