"""Exact unitary time evolution and the first-orthogonality-time solver.

Evolution uses the Hamiltonian's cached eigendecomposition, so repeated
evolutions and survival evaluations cost one matrix-vector (or matrix-matrix)
transform each.  The survival Tr[rho(t) rho] of a pure or a mixed state is a
sum of squares, ||z(t)^T F||^2 with z_a(t) = exp(-i lam_a t) over the distinct
levels and F a factor of |rho_ab|^2 in the eigenbasis, evaluated with one
matrix product per block of times of bounded size.  The solver locates the smallest
positive time at which it drops to (numerical) zero by scanning at a step set
by the spectral bandwidth of the signal.  Bernstein's inequality bounds how far
the signal can dip between samples.  Only the bracketed minima that may hold a
zero are searched for one, one by one and in time order, by a fine scan and
golden-section search on the fine minima that can still reach the tolerance.
When there is no zero, branch and bound over the candidate brackets locates
the reported minimum.
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
    _in_eigenbasis,
    _level_stats,
    _populations,
    _require_ground_shifted,
    _require_same_layout,
)

#: Absolute time accuracy of the refined minima of the survival, or 1e-7 of
#: the scan step where that is smaller (the refinement itself runs two decades
#: tighter so that steep zeros still dip below the acceptance threshold at the
#: best evaluated point).  Pure and mixed states alike: the survival is a sum
#: of squares whose round-off near a zero is itself squared, so a quadratic
#: zero stays sharp: on the benchmark's 237 commensurate mixtures (seeds 1-3,
#: D = 3..128, ranks 1, 2 and 5) t_perp lands within 1.2e-13 relative of 2*pi/k.
TIME_RESOLUTION = 1e-10
_GOLDEN_XTOL = 1e-12
#: Survival at or below this counts as orthogonal.  Survival is quadratic in
#: amplitude near a zero, so 1e-9 corresponds to amplitude error ~3e-5.
DEFAULT_ORTHO_TOL = 1e-9
#: Scan step as a fraction of the half-period pi/bandwidth: at 0.25 a zero of
#: the survival cannot slip between samples unnoticed.
SCAN_FRACTION = 0.25
#: Default search horizon, as a multiple of the speed limit time.
HORIZON_MULTIPLIER = 20.0

_SUPPORT_CUT = 1e-12  # weights below this do not define the scan bandwidth
_PAIR_CUT = 1e-18  # levels and factor columns whose terms stay below this are dropped
#: Sets the block size of ``_SurvivalSignal.evaluate``: the complex phases
#: (times x levels) and amplitudes (times x factor columns) of one block
#: together take at most 8 * _EVAL_BUDGET bytes (512 KiB).
_EVAL_BUDGET = 1 << 16
_REFINE_SUBDIVISIONS = 64
_GOLDEN_MAX_ITER = 200
#: NotFound minima are located to this fraction of the signal's supremum.
_MINIMUM_RTOL = 1e-13
_MAX_SAMPLES = 20_000_000
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchOptions:
    """Options for the first-orthogonality search.

    ``horizon=None`` resolves to ``HORIZON_MULTIPLIER`` times the speed limit
    time of the input state; survival at or below ``ortho_tol`` counts as
    orthogonal.
    """

    horizon: Optional[float] = None
    ortho_tol: float = DEFAULT_ORTHO_TOL

    def __post_init__(self) -> None:
        if self.horizon is not None and not (
            math.isfinite(self.horizon) and self.horizon > 0.0
        ):
            raise InvariantViolation(f"horizon must be positive and finite, got {self.horizon}")
        if not (self.ortho_tol > 0.0):
            raise InvariantViolation(f"ortho_tol must be positive, got {self.ortho_tol}")


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
        amp = evecs @ (phases * _in_eigenbasis(state, hamiltonian))
        return PureState(state.layout, amp)
    rho_eig = _in_eigenbasis(state, hamiltonian) * np.outer(phases, phases.conj())
    mat = evecs @ rho_eig @ evecs.conj().T
    mat = 0.5 * (mat + mat.conj().T)  # remove round-off skew from the products
    return DensityMatrix(state.layout, mat)


def _mixed_factor(coeffs: np.ndarray, levels: np.ndarray,
                  level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Populated levels and a factor F, M = F F^H, of M_AB = sum |rho_ab|^2.

    The sum runs over the members a of level A and b of level B.  Levels
    without a term above ``_PAIR_CUT`` are dropped, and so are the
    eigenvalues of M below eigh's backward error, which carry no information.
    M is real, but it goes through the complex Hermitian eigensolver, which
    every Hamiltonian already loads: the real one would map another ~0.7 MB
    of LAPACK code into the process to save at most ~2 ms at D = 128.
    """
    merged = np.bincount((level[:, None] * levels.size + level).ravel(), weights=coeffs.ravel(),
                         minlength=levels.size ** 2).reshape(levels.size, -1)
    kept = (merged > _PAIR_CUT).any(axis=1)
    merged = merged[kept][:, kept]
    strength, vecs = np.linalg.eigh((0.5 * (merged + merged.T)).astype(complex))
    strong = strength > max(_PAIR_CUT, kept.sum() * math.ulp(strength[-1]))
    return levels[kept], vecs[:, strong] * np.sqrt(strength[strong])


class _SurvivalSignal:
    """Survival Tr[rho(t) rho] as a sum of squares, ||z(t)^T F||^2.

    In the Hamiltonian eigenbasis Tr[rho(t) rho] = z(t)^T M conj(z(t)) with
    z_a = exp(-i lam_a t) and M_ab = |rho_ab|^2, summed over the distinct
    eigenvalues lam_a (exactly equal eigenvalues share one level, so a
    degenerate spectrum costs its distinct levels rather than its dimension).
    M is the Schur product of rho and its conjugate, so it is positive
    semidefinite, and a factor M = F F^H turns the survival into a sum
    of squares that is never negative and that vanishes to round-off squared
    at a zero.
    Pure state: M = w w^T with w the level populations |c_a|^2, and F = w.
    Mixed state: F from ``_mixed_factor``, with at most min(levels, rank^2)
    columns.  ``evaluate`` works through the times in blocks of bounded
    memory (``_EVAL_BUDGET``), so its memory does not grow with the scan.

    ``bandwidth`` is the spectral range actually populated by the state: the
    highest angular frequency in s(t), which sets the scan step.
    ``populations`` are the state's eigenvector weights, ``energy_stats``' input.
    """

    def __init__(self, state: State, hamiltonian: Hamiltonian):
        evals = hamiltonian._evals
        rotated = _in_eigenbasis(state, hamiltonian)
        self.populations = _populations(rotated)
        # eigensystem() sorts the eigenvalues, so a level is a run of equal ones
        new = np.concatenate(([True], evals[1:] != evals[:-1]))
        levels, level = evals[new], np.cumsum(new) - 1
        if isinstance(state, PureState):
            weights = np.bincount(level, weights=self.populations)
            support = levels[weights > _SUPPORT_CUT]
            self.bandwidth = float(support.max() - support.min()) if support.size else 0.0
            # A positive weight whose square underflows adds nothing to s(t), but its
            # phases may overflow: E >= w * lam bounds horizon * lam only by ~10 pi / w.
            # Exact zeros stay, so the other levels' sums keep their order.
            kept = (weights == 0.0) | (weights * weights > 0.0)
            levels, factor = levels[kept], weights[kept, None]
        else:
            # The widest gap between two levels that share a populated
            # coherence: populated is symmetric, so it is the largest signed
            # difference lam_a - lam_b over the populated pairs.
            coeffs = np.abs(rotated) ** 2
            populated = coeffs > _SUPPORT_CUT
            populated = populated | populated.T
            self.bandwidth = float(np.subtract.outer(evals, evals)[populated].max(initial=0.0))
            levels, factor = _mixed_factor(coeffs, levels, level)
        # -i * levels as a row: each block's phases are one rank-1 product,
        # which (unlike a broadcast outer product) needs no buffer of its size
        self._phase_rates = -1j * levels[None, :]
        self._weights = np.ascontiguousarray(factor, dtype=complex)
        self._ones = np.ones(2 * factor.shape[1])  # sums a row of squares as one product
        self.initial = float(self.evaluate(np.zeros(1))[0])

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        flat = ts.reshape(-1)
        out = np.empty(flat.shape, dtype=float)
        # 16 bytes per phase and per amplitude: a block of rows times stays
        # within 8 * _EVAL_BUDGET bytes, and every block reuses the same arrays.
        rows = max(1, _EVAL_BUDGET // (2 * sum(self._weights.shape)))
        size = min(rows, flat.size)
        phases = np.empty((size, self._weights.shape[0]), dtype=complex)
        amps = np.empty((size, self._weights.shape[1]), dtype=complex)
        for start in range(0, flat.size, rows):
            block = flat[start:start + rows]
            z, amp = phases[:block.size], amps[:block.size]
            np.matmul(block[:, None], self._phase_rates, out=z)
            np.exp(z, out=z)
            np.matmul(z, self._weights, out=amp)
            squares = amp.view(float)
            np.square(squares, out=squares)
            # The row sums as a real BLAS product also clear the upper vector
            # registers that OpenBLAS's complex gemm leaves dirty; left dirty,
            # they slowed libm's complex exp in the next block ~17-fold on an
            # AVX-512 Xeon.
            np.matmul(squares, self._ones, out=out[start:start + block.size])
        return out.reshape(ts.shape)


def survival(state: State, hamiltonian: Hamiltonian, t) -> float | np.ndarray:
    """Overlap of the evolved state with the initial one, Tr[rho(t) rho].

    Equals ``state_overlap(evolve(state, H, t), state)``; 1 at t = 0 for pure
    states, the purity for mixed ones.  ``t`` may be a scalar or an array
    (evaluated vectorized, sharing one eigendecomposition).
    """
    _require_same_layout(state, hamiltonian)
    signal = _SurvivalSignal(state, hamiltonian)
    values = signal.evaluate(t)
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# scan-and-refine zero finder
# ---------------------------------------------------------------------------


def _golden_min(fn: Callable[[float], float], a: float, b: float,
                xtol: float) -> tuple[float, float]:
    """Golden-section minimum of fn on [a, b]; returns the best point seen."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(_GOLDEN_MAX_ITER):
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
                    a: float, b: float, accept_tol: float, rate: float, xtol: float):
    """Look for a zero in a candidate bracket: fine scan, then golden section.

    Only interior minima of the fine grid qualify: a sub-threshold value at a
    bracket edge is not evidence of a zero there (very flat zeros have wide
    sub-threshold valleys), and edge zeros are always centered in one of the
    neighboring, overlapping candidate brackets.  A signal with
    |s''| <= rate**2 lies at most (rate * dx)**2 / 8 below the lower of two
    fine samples dx apart, so only minima within that of ``accept_tol`` are
    refined.  They are processed left to right so the first acceptable
    zero wins; returns (found, t, value).
    """
    xs = np.linspace(a, b, _REFINE_SUBDIVISIONS + 1)
    ys = vec_fn(xs)
    dx = (b - a) / _REFINE_SUBDIVISIONS
    mid = ys[1:-1]
    reachable = ((mid <= ys[:-2]) & (mid <= ys[2:])
                 & (mid <= accept_tol + (rate * dx) ** 2 / 8.0))
    scalar = lambda x: float(vec_fn(np.array([x]))[0])
    for j in np.flatnonzero(reachable) + 1:
        t, value = _golden_min(scalar, float(xs[j - 1]), float(xs[j + 1]), xtol)
        if value <= accept_tol:
            return True, t, value
    return False, None, None


def _lower_minimum(vec_fn: Callable[[np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray,
                   rate: float, tol: float, xtol: float,
                   best_t: float, best_val: float) -> tuple[float, float]:
    """Lower (best_t, best_val) to within ``tol`` of the minimum over the cells.

    Branch and bound (Piyavskii-Shubert with a curvature bound): on a cell
    [lo, hi] with end values f_lo, f_hi a signal with |s''| <= rate**2 lies
    at most (rate * (hi - lo))**2 / 8 below min(f_lo, f_hi), and a nonnegative
    one never below 0.  Cells bounded at or above ``best_val - tol``, or at most
    ``xtol`` wide, are dropped; the others are bisected, one call per level.
    """
    while best_val > tol:  # else no cell, bounded at or above 0, is below best_val - tol
        width = hi - lo
        live = ((np.minimum(f_lo, f_hi) - (rate * width) ** 2 / 8.0 < best_val - tol)
                & (width > xtol))
        if not live.any():
            break
        lo, hi, f_lo, f_hi = lo[live], hi[live], f_lo[live], f_hi[live]
        mid = 0.5 * (lo + hi)
        f_mid = vec_fn(mid)
        k = int(np.argmin(f_mid))
        if f_mid[k] < best_val:
            best_t, best_val = float(mid[k]), float(f_mid[k])
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        f_lo, f_hi = np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi))
    return best_t, best_val


def scan_first_zero(vec_fn: Callable[[np.ndarray], np.ndarray],
                    horizon: float,
                    bandwidth: float,
                    accept_tol: float,
                    scale: float) -> OrthogonalityResult:
    """First t in (0, horizon] where a nonnegative oscillatory signal <= tol.

    ``vec_fn`` maps an array of times to signal values; ``bandwidth`` is the
    largest angular frequency present and ``scale`` the signal's supremum.
    The signal is sampled at step h <= SCAN_FRACTION * pi / bandwidth.
    Candidate brackets, two steps wide, are centered on the sampled local
    minima and on every sample low enough that a zero could hide next to it.

    Bernstein's inequality applied to s - scale/2, which lies within
    +-scale/2, gives |s''| <= rate**2 with rate = bandwidth * sqrt(scale / 2),
    so the signal lies at most margin = (rate * h)**2 / 8 below its nearest
    sample.  Every such bound is evaluated as (rate * width)**2 / 8: rate * h
    is of order one at any frequency, so no finite bandwidth or scale
    overflows it.  Brackets whose lowest sample is at or below
    ``accept_tol + margin`` may hold a zero: they are searched one at a time,
    in time order, by a fine scan plus golden-section search on the fine
    minima that can still reach ``accept_tol``, and the first refined value
    at or below it is returned.  When no zero is found, branch and bound over
    the cells of all candidate brackets lowers the reported minimum to within
    ``_MINIMUM_RTOL * scale`` of the signal's minimum on them.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvariantViolation(f"horizon must be positive and finite, got {horizon}")
    if not (bandwidth > 0.0):
        raise InvariantViolation(f"bandwidth must be positive, got {bandwidth}")
    if not (accept_tol > 0.0):
        raise InvariantViolation(f"accept_tol must be positive, got {accept_tol}")

    step_target = SCAN_FRACTION * math.pi / bandwidth
    samples = horizon / step_target  # inf where it overflows, which ceil cannot take
    if samples > _MAX_SAMPLES:
        raise InvariantViolation(
            f"scanning horizon {horizon} at bandwidth {bandwidth} needs {samples:.3g} "
            f"samples (max {_MAX_SAMPLES}); shorten the horizon"
        )
    count = max(2, int(math.ceil(samples)))
    ts = np.linspace(0.0, horizon, count + 1)
    vals = vec_fn(ts)
    step = horizon / count
    # times scale as 1/frequency, so the searches stop at 1e-9 of the step if that is finer
    xtol = min(_GOLDEN_XTOL, 1e-9 * step)
    screen = 1.5 * (SCAN_FRACTION * math.pi / 2.0) ** 2 * scale
    rate = bandwidth * math.sqrt(scale / 2.0)
    margin = (rate * step) ** 2 / 8.0

    inner = vals[1:count]
    dips = ((inner <= vals[:count - 1]) & (inner <= vals[2:])) | (inner <= screen)
    candidates = np.flatnonzero(dips) + 1
    if vals[count] <= vals[count - 1] or vals[count] <= screen:
        candidates = np.append(candidates, count)
    right = np.minimum(candidates + 1, count)
    lowest = np.minimum(np.minimum(vals[candidates - 1], vals[candidates]), vals[right])
    zero_capable = lowest <= accept_tol + margin

    for i, j in zip(candidates[zero_capable], right[zero_capable]):
        found, t, value = _refine_bracket(
            vec_fn, float(ts[i - 1]), float(ts[j]), accept_tol, rate, xtol
        )
        if found:
            return OrthogonalityResult(True, t, max(value, 0.0), t, horizon)

    # A signal still descending through the tolerance at the horizon edge has
    # its first acceptable time at the horizon itself.
    if vals[count] <= accept_tol:
        return OrthogonalityResult(True, horizon, float(vals[count]), horizon, horizon)
    # Cells between samples, each once, by their left sample
    cell = np.zeros(count, dtype=bool)
    cell[candidates - 1] = True
    cell[right - 1] = True
    cells = np.flatnonzero(cell)
    interior = int(np.argmin(vals[1:])) + 1
    best_t, best_val = _lower_minimum(
        vec_fn, ts[cells], ts[cells + 1], vals[cells], vals[cells + 1],
        rate, _MINIMUM_RTOL * scale, xtol, float(ts[interior]), float(vals[interior]),
    )
    return OrthogonalityResult(False, None, max(best_val, 0.0), best_t, horizon)


def first_orthogonal_time(state: State, hamiltonian: Hamiltonian,
                          opts: Optional[SearchOptions] = None) -> OrthogonalityResult:
    """Smallest t > 0 at which the state becomes orthogonal to itself.

    Requires a ground-shifted Hamiltonian (the default horizon is a multiple
    of ``qsl_time(energy_stats(state, H))``, taken from the signal's
    populations, and only meaningful from a zero ground state).  Stationary
    states (no populated spectral range) return NotFound immediately.  The
    located time is accurate to ``TIME_RESOLUTION`` for pure states and
    density matrices alike: the survival is evaluated as a sum of squares,
    whose round-off near a zero is itself squared.
    """
    opts = opts if opts is not None else SearchOptions()
    if not isinstance(opts, SearchOptions):
        raise InvariantViolation("opts must be a SearchOptions instance")
    _require_same_layout(state, hamiltonian)
    _require_ground_shifted(hamiltonian, "hamiltonian")
    signal = _SurvivalSignal(state, hamiltonian)
    if signal.bandwidth == 0.0:
        return OrthogonalityResult(False, None, signal.initial, 0.0, 0.0)
    if opts.horizon is not None:
        horizon = opts.horizon
    else:
        bound = qsl_time(_level_stats(hamiltonian._evals, signal.populations))
        if bound.unbounded:
            return OrthogonalityResult(False, None, signal.initial, 0.0, 0.0)
        horizon = HORIZON_MULTIPLIER * bound.time
    return scan_first_zero(signal.evaluate, horizon, signal.bandwidth, opts.ortho_tol,
                           scale=signal.initial)
