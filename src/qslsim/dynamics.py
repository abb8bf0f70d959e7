"""Exact unitary time evolution and the first-orthogonality-time solver.

Evolution uses the Hamiltonian's cached eigendecomposition, so repeated
evolutions and survival evaluations cost one matrix-vector (or matrix-matrix)
transform each.  The survival Tr[rho(t) rho] of a pure or a mixed state is a
sum of squares, ||z(t)^T F||^2 with z_a(t) = exp(-i lam_a t) over the distinct
levels and F a factor of |rho_ab|^2 merged over the levels, evaluated with one
matrix product per block of times of bounded size.  The solver locates the smallest
positive time at which it drops to (numerical) zero by scanning at a step set
by the spectral bandwidth of the signal.  The survival's own curvature at
t = 0 (or Bernstein's inequality, where that is tighter) bounds how far the
signal can dip between samples.  Only the bracketed minima that may hold a
zero are searched for one, one by one and in time order, by a fine scan and
golden-section search on the fine minima that can still reach the tolerance;
a search gives up once the bound shows that it cannot.  When there is no
zero, branch and bound over the candidate brackets locates the reported
minimum: a cell that a bound on s''' certifies convex is closed by Newton
steps on s' (the survival gives s' and s'' from the same product as s), and
every other cell is bisected under Bernstein's bound.
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

_SUPPORT_CUT = 1e-12  # level weights and entries of M below this do not define the bandwidth
#: Levels whose largest term, w_A * max(w) or max_B M_AB, stays at or below this
#: are not summed (s moves by at most 2 L^2 _PAIR_CUT), nor are such factor columns.
_PAIR_CUT = 1e-18
#: Sets the block size of ``_SurvivalSignal``'s kernels, s and its derivatives
#: alike: the work arrays of one block of times (phases, amplitudes and their
#: products) together take at most 8 * _EVAL_BUDGET bytes (512 KiB).
_EVAL_BUDGET = 1 << 16
_REFINE_SUBDIVISIONS = 64
_GOLDEN_MAX_ITER = 200
#: A golden section gives up only where the signal provably stays above the
#: acceptance threshold plus this fraction of its supremum, a slack for its
#: round-off.
_GIVE_UP_RTOL = 1e-13
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


def _mixed_factor(merged: np.ndarray) -> np.ndarray:
    """A factor F, M = F F^H, of the level matrix M = ``merged``.

    M_AB sums |rho_ab|^2 over the members a of level A and b of level B, and
    ``_SurvivalSignal`` reads the bandwidth and the curvature from it too.
    Eigenvalues of M below eigh's backward error carry no information and are dropped.
    M is real, but it goes through the complex Hermitian eigensolver, which
    every Hamiltonian already loads: the real one would map another ~0.7 MB
    of LAPACK code into the process to save at most ~2 ms at D = 128.
    """
    strength, vecs = np.linalg.eigh((0.5 * (merged + merged.T)).astype(complex))
    strong = strength > max(_PAIR_CUT, merged.shape[0] * math.ulp(strength[-1]))
    return vecs[:, strong] * np.sqrt(strength[strong])


class _SurvivalSignal:
    """Survival Tr[rho(t) rho] as a sum of squares, ||z(t)^T F||^2.

    In the Hamiltonian eigenbasis Tr[rho(t) rho] = z(t)^T M conj(z(t)) with
    z_A = exp(-i lam_A t) over the distinct eigenvalues lam_A (exactly equal
    eigenvalues share one level, so a degenerate spectrum costs its distinct
    levels rather than its dimension) and the level matrix M (see
    ``_mixed_factor``), which sums blocks of the Schur product of rho and its
    conjugate.  So M is positive semidefinite, and a factor M = F F^H turns the
    survival into a sum of squares that is never negative and that vanishes to
    round-off squared at a zero.
    Pure state: M = w w^T with w the level populations, and F = w.
    Mixed state: F from ``_mixed_factor``, with at most min(levels, rank^2)
    columns.  Both sum only the levels with a term above ``_PAIR_CUT``.
    ``evaluate`` and ``derivatives`` pass their kernels to one loop over blocks
    of times whose memory is bounded (``_EVAL_BUDGET``), however long the scan.

    ``bandwidth`` is the spectral range actually populated by the state: the
    highest angular frequency in s(t), which sets the scan step.  It is the
    widest gap between two levels whose weights w_A, w_B (pure) or whose
    entry M_AB or M_BA (mixed) lie above ``_SUPPORT_CUT``.
    ``curvature`` bounds |s''(t)| at every t in units of bandwidth**2: with
    M_AB >= 0, s(t) = sum_AB M_AB cos((lam_A - lam_B) t), so |s''(t)| <= -s''(0)
    = sum_AB M_AB (lam_A - lam_B)**2, 2 S sum_A w_A (lam_A - mean)**2 with S =
    sum_A w_A for a pure state.  Each gap is divided by the bandwidth before it
    is squared, so no spectrum overflows it; a pair with no weight adds
    nothing however wide its gap, and where the terms of levels under the
    support cut overflow, it is infinite.
    ``third`` bounds |s'''(t)| in units of bandwidth**3:
    |s'''| <= sum_AB M_AB |gap_AB|**3 <= span * (-s''(0)), with span the
    range of the levels the signal sums, which terms under the support cut may
    widen past the bandwidth; it is infinite where that overflows.
    ``derivatives`` gives s, s' and a lower bound on s'' for the minimum search.
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
            table = np.bincount(level, weights=self.populations)
            largest = table * table.max()  # of each row of M = w w^T
        else:
            table = np.bincount((level[:, None] * levels.size + level).ravel(),
                                weights=(np.abs(rotated) ** 2).ravel(),
                                minlength=levels.size ** 2).reshape(levels.size, -1)
            largest = table.max(axis=1)
        kept = largest > _PAIR_CUT  # the levels both kinds sum, cut on every axis
        levels, table = levels[kept], table[np.ix_(*(kept,) * table.ndim)]
        if isinstance(state, PureState):
            w = table
            support = levels[w > _SUPPORT_CUT]
            self.bandwidth = float(support.max() - support.min()) if support.size else 0.0
            factor = w[:, None]
            with np.errstate(all="ignore"):  # overflow, or 0 * inf: no finite bound
                spread = (levels - np.dot(w, levels) / w.sum()) / self.bandwidth
                curvature = 2.0 * w.sum() * np.dot(w, spread * spread)
        else:
            # The widest gap between two levels with a populated entry of M:
            # the support is symmetric, so it is the largest signed difference
            # lam_A - lam_B on it.
            gaps = np.subtract.outer(levels, levels)
            support = np.maximum(table, table.T) > _SUPPORT_CUT
            self.bandwidth = float(gaps[support].max(initial=0.0))
            # sum_AB M_AB (gap_AB / bandwidth)^2, in place
            with np.errstate(all="ignore"):
                gaps /= self.bandwidth
                # an empty pair adds nothing, however far apart its levels
                gaps[table == 0.0] = 0.0
                curvature = np.vdot(table, np.square(gaps, out=gaps))
            del gaps, support  # not to be held through the factor's eigh
            factor = _mixed_factor(table)
        self.curvature = float(curvature) if math.isfinite(curvature) else math.inf
        self._levels = levels
        # -i * levels as a row: each block's phases are one rank-1 product,
        # which (unlike a broadcast outer product) needs no buffer of its size
        self._phase_rates = -1j * levels[None, :]
        self._weights = np.ascontiguousarray(factor, dtype=complex)
        # s's kernel: ones sum a row of squares as one product, and at 16 bytes per
        # phase and per amplitude a block of that many times takes 8 * _EVAL_BUDGET
        self._kernel = (self._weights, np.ones(2 * factor.shape[1]),
                        max(1, _EVAL_BUDGET // (2 * sum(self._weights.shape))))
        self.initial = float(self.evaluate(np.zeros(1))[0])
        # A mixed factor's F F^H differs from M, entry by entry, by at most the
        # eigenvalues it drops plus eigh's backward error: each below
        # levels * ulp(largest eigenvalue <= tr M <= s(0)), or _PAIR_CUT.
        drift = 0.0 if isinstance(state, PureState) else 2.0 * max(
            _PAIR_CUT, levels.size * math.ulp(self.initial))
        with np.errstate(all="ignore"):  # overflow: no finite bound
            span = (levels[-1] - levels[0]) / self.bandwidth
            third = span * (curvature + levels.size ** 2 * drift * span * span)
        self.third = float(third) if math.isfinite(third) else math.inf
        self._jet = None  # the kernel and slack of ``derivatives``, made on its first call

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self._sums(self._kernel, ts.reshape(-1)).reshape(ts.shape)

    def derivatives(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """s, s' / bandwidth and a lower bound on s'' / bandwidth**2 at the times ``ts``.

        With u = z^T F, one complex product of each block's phases with
        [F, -i lam~ F, -lam~^2 F] gives u, u' and u'', where lam~ are the levels
        centred on their range and divided by the bandwidth: centring multiplies
        all three by one common phase, which cancels in s = |u|^2,
        s' = 2 Re conj(u) u' and s'' = 2 |u'|^2 + 2 Re conj(u) u'', and the
        units keep every weight finite wherever ``third`` is.  s'' is lowered by
        a bound on its round-off: 8 eps (terms + |lam|_max |t|) times
        sum_k 2 (n1_k^2 + n0_k n2_k), with n_p the column sums of |lam~^p F|
        (the second term for the rounded phases lam t).  The kernel is made
        on the first call, so a search that finds its zero never pays for it.
        """
        if self._jet is None:
            f, levels = self._weights, self._levels
            lam = (levels - (0.5 * levels[0] + 0.5 * levels[-1])) / self.bandwidth
            weights = np.hstack((f, -1j * lam[:, None] * f, -(lam * lam)[:, None] * f))
            n0, n1, n2 = np.abs(weights).sum(axis=0).reshape(3, -1)
            slack = 16.0 * np.finfo(float).eps * float(n1 @ n1 + n0 @ n2)
            # sums the real products u u, u u', u u'' and u' u' of a row into s, s', s''
            sums = np.zeros((4, 2 * f.shape[1], 3))
            sums[0, :, 0], sums[1, :, 1], sums[2:, :, 2] = 1.0, 2.0, 2.0
            # 16 bytes per phase and per amplitude and 8 per product
            rows = max(1, _EVAL_BUDGET // (2 * f.shape[0] + 14 * f.shape[1]))
            self._jet = ((weights, sums.reshape(-1, 3), rows), slack * sum(f.shape),
                         slack * max(abs(levels[0]), abs(levels[-1])))
        kernel, slack, slack_per_t = self._jet
        ts = np.asarray(ts, dtype=float).reshape(-1)
        out = self._sums(kernel, ts)
        out[:, 2] -= slack + slack_per_t * np.abs(ts)
        return out[:, 0], out[:, 1], out[:, 2]

    def _sums(self, kernel: tuple, ts: np.ndarray) -> np.ndarray:
        """Row sums of the kernel (weights, sums, rows) at the 1-D times ``ts``."""
        weights, sums, rows = kernel
        out = np.empty(ts.shape + sums.shape[1:])
        for start in range(0, ts.size, rows):
            self._block(weights, sums, ts[start:start + rows], out[start:start + rows])
        return out

    def _block(self, weights: np.ndarray, sums: np.ndarray, block: np.ndarray,
               out: np.ndarray) -> None:
        """Writes ``sums`` of the products of u = z^T ``weights`` at the times ``block``
        to ``out``: u's squares for s (1-D sums), else u u, u u', u u'' and u' u'.
        The block's work arrays are freed on return, before the next block's are made."""
        z = np.matmul(block[:, None], self._phase_rates)
        np.exp(z, out=z)
        u = np.matmul(z, weights).view(float)
        if sums.ndim == 1:
            products = np.square(u, out=u)
        else:
            jet = u.reshape(block.size, 3, -1)
            products = np.empty((block.size, 4, jet.shape[2]))
            np.multiply(jet[:, :1], jet, out=products[:, :3])
            np.square(jet[:, 1], out=products[:, 3])
        # The row sums as a real BLAS product also clear the upper vector
        # registers that OpenBLAS's complex gemm leaves dirty; left dirty,
        # they slowed libm's complex exp in the next block ~17-fold on an
        # AVX-512 Xeon.
        np.matmul(products.reshape(block.size, -1), sums, out=out)


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


def _golden_min(fn: Callable[[float], float], a: float, b: float, fa: float, fb: float,
                xtol: float, rate: float, goal: float) -> tuple[float, float]:
    """Golden-section minimum of fn on [a, b], with fn(a) = fa and fn(b) = fb;
    returns the best point seen.

    A signal with |fn''| <= rate**2 lies at most (rate * w)**2 / 8 below the
    lower end of a cell w wide.  Before each step the search gives up, and
    returns its best point so far, once that is above ``goal`` and so is the
    bound on each cell between the points it holds: no later point can reach
    ``goal`` then.
    """
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(_GOLDEN_MAX_ITER):
        if (best_f > goal
                and min(fa, f1) - (rate * (x1 - a)) ** 2 / 8.0 > goal
                and min(f1, f2) - (rate * (x2 - x1)) ** 2 / 8.0 > goal
                and min(f2, fb) - (rate * (b - x2)) ** 2 / 8.0 > goal):
            return best_x, best_f
        if b - a <= xtol:
            break
        if f1 <= f2:
            b, fb, x2, f2 = x2, f2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = fn(x1)
            if f1 < best_f:
                best_x, best_f = x1, f1
        else:
            a, fa, x1, f1 = x1, f1, x2, f2
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
                    a: float, b: float, accept_tol: float, rate: float, xtol: float,
                    goal: float):
    """Look for a zero in a candidate bracket: fine scan, then golden section.

    Only interior minima of the fine grid qualify: a sub-threshold value at a
    bracket edge is not evidence of a zero there (very flat zeros have wide
    sub-threshold valleys), and edge zeros are always centered in one of the
    neighboring, overlapping candidate brackets.  A signal with
    |s''| <= rate**2 lies at most (rate * dx)**2 / 8 below the lower of two
    fine samples dx apart, so only minima within that of ``accept_tol`` are
    refined, each by a golden section that gives up once it cannot reach
    ``goal`` (>= ``accept_tol``).  They are processed left to right so the
    first acceptable zero wins; returns (found, t, value).
    """
    xs = np.linspace(a, b, _REFINE_SUBDIVISIONS + 1)
    ys = vec_fn(xs)
    dx = (b - a) / _REFINE_SUBDIVISIONS
    mid = ys[1:-1]
    reachable = ((mid <= ys[:-2]) & (mid <= ys[2:])
                 & (mid <= accept_tol + (rate * dx) ** 2 / 8.0))
    scalar = lambda x: float(vec_fn(np.array([x]))[0])
    for j in np.flatnonzero(reachable) + 1:
        t, value = _golden_min(scalar, float(xs[j - 1]), float(xs[j + 1]),
                               float(ys[j - 1]), float(ys[j + 1]), xtol, rate, goal)
        if value <= accept_tol:
            return True, t, value
    return False, None, None


def _convex_bound(lo: np.ndarray, hi: np.ndarray, x: np.ndarray, f: np.ndarray,
                  g: np.ndarray, c: np.ndarray, bandwidth: float) -> np.ndarray:
    """Lowest value on [lo, hi] of the parabola f + g d + c d**2 / 2, d = bandwidth * (t - x).

    A signal with s(x) = f and s'(x) = g (per unit of bandwidth * t) whose
    s'' is at least c > 0 on the cell lies above that parabola there, so this
    bounds the cell: f - g**2 / (2 c) where the vertex lies in the cell, the
    parabola's value at the nearer edge where not (f itself at an edge x whose
    slope points out of the cell).
    """
    vertex = np.minimum(np.maximum(x - g / (c * bandwidth), lo), hi)
    d = bandwidth * (vertex - x)
    return f + d * (g + 0.5 * c * d)


def _open_cells(lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray,
                rate: float) -> np.ndarray:
    """Uncertified cells as the columns of a ``_lower_minimum`` table: no
    midpoint value yet, curvature floor 0, the midpoint as their next point
    and Bernstein's bound."""
    cells = np.zeros((8, lo.size))
    cells[0], cells[1], cells[2], cells[3] = lo, hi, f_lo, f_hi
    cells[6] = 0.5 * (lo + hi)
    cells[7] = np.minimum(f_lo, f_hi) - (rate * (hi - lo)) ** 2 / 8.0
    return cells


def _lower_minimum(vec_fn: Callable[[np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray,
                   rate: float, tol: float, xtol: float,
                   best_t: float, best_val: float,
                   derivatives: Optional[Callable] = None, third: float = math.inf,
                   bandwidth: float = 1.0) -> tuple[float, float]:
    """Lower (best_t, best_val) to within ``tol`` of the minimum over the cells.

    Branch and bound.  On a cell [lo, hi] with end values f_lo, f_hi a signal
    with |s''| <= rate**2 lies at most (rate * (hi - lo))**2 / 8 below
    min(f_lo, f_hi) (Piyavskii-Shubert with a curvature bound), and a
    nonnegative one never below 0.  With ``derivatives`` (s, s' and a lower
    bound on s'' at given times, in units of ``bandwidth``, as
    ``_SurvivalSignal.derivatives``) and ``third`` >= |s'''| / bandwidth**3, a
    cell whose midpoint m has c = s''(m) - third * bandwidth * (hi - lo) / 2 > 0
    is certified convex (Breiman & Cutler, Math. Program. 58, 179 (1993)),
    and ``_convex_bound`` bounds it from any point of it.  A certified cell
    takes Newton steps x - s'(x) / s''(x), kept in the cell, for as long as
    each raises its bound; a cell that its certificate or its step does not
    raise is bisected.  Cells bounded at or above ``best_val - tol``, or at
    most ``xtol`` wide, are dropped.  Each level evaluates every live cell in
    one call; without derivatives no cell is certified, and this is bisection.
    """
    # one column per cell: edges, end values, midpoint value, curvature floor
    # c (0: not certified), the next point to evaluate, the bound
    cells = _open_cells(lo, hi, f_lo, f_hi, rate)
    with np.errstate(all="ignore"):  # a vertex past the float range is past the cell
        while best_val > tol:  # else no cell, bounded at or above 0, is below best_val - tol
            cells = cells[:, (cells[7] < best_val - tol) & (cells[1] - cells[0] > xtol)]
            if not cells.size:
                break
            lo, hi, f_lo, f_hi, f_mid, c, ts, bound = cells
            if derivatives is None:
                values = vec_fn(ts)
            else:
                values, slope, second = derivatives(ts)
            k = int(np.argmin(values))
            if values[k] < best_val:
                best_t, best_val = float(ts[k]), float(values[k])
            certified = c > 0.0
            cells[4] = np.where(certified, f_mid, values)  # the others were at their midpoints
            split = np.ones(ts.size, dtype=bool)
            if derivatives is not None:
                c = np.where(certified, c, second - third * (bandwidth * (hi - lo)) / 2.0)
                raised = _convex_bound(lo, hi, ts, values, slope, c, bandwidth)
                split = ~((c > 0.0) & (raised > bound))
                cells[5], cells[7] = c, raised
                cells[6] = np.minimum(np.maximum(ts - slope / (second * bandwidth), lo), hi)
                if not split.any():
                    continue
            lo, hi, f_lo, f_hi, f_mid = cells[:5, split]
            mid = 0.5 * (lo + hi)
            halves = _open_cells(np.concatenate((lo, mid)), np.concatenate((mid, hi)),
                                 np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi)),
                                 rate)
            cells = np.concatenate((cells[:, ~split], halves), axis=1)
    return best_t, best_val


def scan_first_zero(vec_fn: Callable[[np.ndarray], np.ndarray],
                    horizon: float,
                    bandwidth: float,
                    accept_tol: float,
                    scale: float,
                    curvature: float = math.inf,
                    derivatives: Optional[Callable] = None,
                    third: float = math.inf) -> OrthogonalityResult:
    """First t in (0, horizon] where a nonnegative oscillatory signal <= tol.

    ``vec_fn`` maps an array of times to signal values; ``bandwidth`` is the
    largest angular frequency present and ``scale`` the signal's supremum.
    ``curvature`` is a bound on |s''| in units of bandwidth**2, such as the
    survival's -s''(0) (``_SurvivalSignal.curvature``); by default only
    Bernstein's holds.  The signal is sampled at step
    h <= SCAN_FRACTION * pi / bandwidth.

    Bernstein's inequality applied to s - scale/2, which lies within
    +-scale/2, gives |s''| <= rate**2 with rate = bandwidth * sqrt(scale / 2).
    Candidate brackets, two steps wide, are centered on the sampled local
    minima (past the horizon counts as +inf) and on the samples within
    Bernstein's dip (rate * h)**2 / 8 of the tolerance, the only places a zero
    between samples can leave its nearest sample.  The triage takes the
    tighter of the two bounds, rate = bandwidth * sqrt(min(curvature, scale / 2)),
    so the signal lies at most margin = (rate * h)**2 / 8 below its nearest
    sample.  Every such bound is evaluated as (rate * width)**2 / 8: rate * h
    is of order one at any frequency, so no finite bandwidth or scale
    overflows it.  Brackets whose lowest sample is at or below
    ``accept_tol + margin`` may hold a zero: they are searched one at a time,
    in time order, by a fine scan plus golden-section search on the fine
    minima that can still reach ``accept_tol``, and the first refined value
    at or below it is returned.
    When no zero is found, branch and bound over the cells of all candidate
    brackets (``_lower_minimum``) lowers the reported minimum to within
    ``_MINIMUM_RTOL * scale`` of the signal's minimum on them.  Cells are
    bisected under Bernstein's bound (the tighter one would stop it sooner,
    on other near-tied minima).  Given ``derivatives`` (s, s' and a lower
    bound on s'' in units of the bandwidth, as ``_SurvivalSignal.derivatives``)
    and a finite ``third`` >= |s'''| / bandwidth**3, a cell that s'' at its
    midpoint certifies convex is closed by Newton steps on s' instead, which
    also fixes a flat minimum's ``t_at_min`` far more finely than its value
    alone does.  ``derivatives`` is first called there, after every bracket
    has failed, so no found zero depends on it.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvariantViolation(f"horizon must be positive and finite, got {horizon}")
    if not (bandwidth > 0.0):
        raise InvariantViolation(f"bandwidth must be positive, got {bandwidth}")
    if not (accept_tol > 0.0):
        raise InvariantViolation(f"accept_tol must be positive, got {accept_tol}")
    if not (curvature >= 0.0):
        raise InvariantViolation(f"curvature must be nonnegative, got {curvature}")

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
    rate = bandwidth * math.sqrt(scale / 2.0)
    triage_rate = bandwidth * math.sqrt(min(curvature, scale / 2.0))
    margin = (triage_rate * step) ** 2 / 8.0

    inner = vals[1:]  # the horizon sample's right neighbour is +inf
    dips = (((inner <= vals[:-1]) & (inner <= np.append(vals[2:], np.inf)))
            | (inner <= accept_tol + (rate * step) ** 2 / 8.0))
    candidates = np.flatnonzero(dips) + 1
    right = np.minimum(candidates + 1, count)
    lowest = np.minimum(np.minimum(vals[candidates - 1], vals[candidates]), vals[right])
    zero_capable = lowest <= accept_tol + margin

    goal = accept_tol + _GIVE_UP_RTOL * scale
    for i, j in zip(candidates[zero_capable], right[zero_capable]):
        found, t, value = _refine_bracket(
            vec_fn, float(ts[i - 1]), float(ts[j]), accept_tol, triage_rate, xtol, goal
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
        derivatives if third < math.inf else None, third, bandwidth,
    )
    return OrthogonalityResult(False, None, max(best_val, 0.0), best_t, horizon)


def first_orthogonal_time(state: State, hamiltonian: Hamiltonian,
                          opts: Optional[SearchOptions] = None) -> OrthogonalityResult:
    """Smallest t > 0 at which the state becomes orthogonal to itself.

    Requires a ground-shifted Hamiltonian (the default horizon is a multiple
    of ``qsl_time(energy_stats(state, H))``, taken from the signal's
    populations, and only meaningful from a zero ground state).  Stationary
    states (no populated spectral range), and states with no finite default
    horizon, return NotFound with horizon 0.  The located time is accurate to
    ``TIME_RESOLUTION`` for pure states and density matrices alike: the
    survival is evaluated as a sum of squares, whose round-off near a zero is
    itself squared.
    """
    opts = opts if opts is not None else SearchOptions()
    if not isinstance(opts, SearchOptions):
        raise InvariantViolation("opts must be a SearchOptions instance")
    _require_same_layout(state, hamiltonian)
    _require_ground_shifted(hamiltonian, "hamiltonian")
    signal = _SurvivalSignal(state, hamiltonian)
    horizon = opts.horizon
    if horizon is None and signal.bandwidth > 0.0:
        stats = _level_stats(hamiltonian._evals, signal.populations)
        horizon = HORIZON_MULTIPLIER * qsl_time(stats).time
    if signal.bandwidth == 0.0 or horizon == math.inf:  # stationary, or no finite bound
        return OrthogonalityResult(False, None, signal.initial, 0.0, 0.0)
    return scan_first_zero(signal.evaluate, horizon, signal.bandwidth, opts.ortho_tol,
                           scale=signal.initial, curvature=signal.curvature,
                           derivatives=signal.derivatives, third=signal.third)
