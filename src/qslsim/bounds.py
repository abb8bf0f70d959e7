"""Speed-limit bounds on the first orthogonalization time.

The quantum speed limit time is T(E, dE) = max(pi/(2E), pi/(2 dE)): the
Margolus-Levitin bound pi/(2E) limits evolution speed by the mean energy
above the ground state, the time-energy uncertainty bound pi/(2 dE) by the
energy spread.  This module evaluates that bound, its refinements for
product states and classical mixtures, and the structural analysis of
separable ensembles that reach it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    EnergyStats,
    Hamiltonian,
    InvariantViolation,
    NumericalFailure,
    SeparableEnsemble,
    _in_eigenbasis,
    _level_stats,
    _populations,
    _require_ground_shifted,
    _require_same_layout,
    _retained_eigensystem,
    energy_stats,
)

ZERO_TOL = 1e-12
DEGENERACY_TOL = 1e-10
CHI_NEGATIVITY_SLACK = 1e-10


class Branch(enum.Enum):
    """Which argument of the two-sided bound governed the result."""

    MARGOLUS_LEVITIN = "MargolusLevitin"
    TIME_ENERGY = "TimeEnergyUncertainty"
    EQUAL = "Equal"


@dataclass(frozen=True)
class BoundResult:
    """A lower bound on the orthogonalization time.

    ``time`` is ``math.inf`` when the governing energy or spread vanishes
    (a stationary state never reaches an orthogonal one).  ``degenerate``
    flags a degenerate density-matrix spectrum in ``mixed_state_bound``,
    where the value depends on the eigenbasis the solver happened to return.
    """

    time: float
    branch: Branch
    degenerate: bool = False

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.time)


def _max_bound(energy: float, spread: float, degenerate: bool = False) -> BoundResult:
    # a vanishing energy or spread gives an infinite time, and two infinite times are equal
    t_ml = math.pi / (2.0 * energy) if energy > ZERO_TOL else math.inf
    t_unc = math.pi / (2.0 * spread) if spread > ZERO_TOL else math.inf
    time = max(t_ml, t_unc)
    if t_ml == t_unc or (math.isfinite(time) and abs(t_ml - t_unc) <= 1e-12 * time):
        branch = Branch.EQUAL
    else:
        branch = Branch.MARGOLUS_LEVITIN if t_ml > t_unc else Branch.TIME_ENERGY
    return BoundResult(time, branch, degenerate)


def qsl_time(stats: EnergyStats) -> BoundResult:
    """Quantum speed limit time max(pi/(2E), pi/(2 dE)) for the given stats."""
    return _max_bound(stats.energy, stats.spread)


def separable_pure_bound(per_subsystem: Sequence[EnergyStats]) -> float:
    """Orthogonalization-time bound for a product pure state.

    A product state becomes orthogonal only when at least one factor does, so
    the bound is max(pi/(2 E_max), pi/(2 dE_max)) over the per-subsystem
    maxima.  Always at least the speed limit time of the aggregated stats,
    with equality only when one subsystem carries all the energy or all the
    spread.
    """
    if len(per_subsystem) == 0:
        raise InvariantViolation("separable_pure_bound needs at least one subsystem")
    e_max = max(s.energy for s in per_subsystem)
    s_max = max(s.spread for s in per_subsystem)
    return _max_bound(e_max, s_max).time


def homogeneous_gap_factor(subsystems: int, aggregate: EnergyStats) -> float:
    """Lower-bound multiplier on the speed limit time for homogeneous products.

    For a product pure state of M subsystems sharing the total energy and
    spread evenly (E_k = E/M, dE_k = dE/sqrt(M)), the per-subsystem-maxima
    bound exceeds the aggregate speed limit time by this factor:

    * dE >= E: exactly M;
    * E >= dE: sqrt(M) for M <= M*, and M/sqrt(M*) for M >= M*, where
      M* = (E/dE)^2.

    This is the ratio of ``separable_pure_bound`` for the homogeneous split to
    ``qsl_time`` of the aggregate, so it is a valid lower-bound multiplier
    (not a supremum), and it is never below sqrt(M).
    """
    if subsystems < 1:
        raise InvariantViolation(f"subsystem count must be >= 1, got {subsystems}")
    e, s = aggregate.energy, aggregate.spread
    if e <= ZERO_TOL or s <= ZERO_TOL:
        raise InvariantViolation("homogeneous gap factor needs E > 0 and dE > 0")
    m = float(subsystems)
    if s >= e:
        return m
    m_star = (e / s) ** 2
    if m <= m_star:
        return math.sqrt(m)
    return m / math.sqrt(m_star)


def _check_locals(ensemble: SeparableEnsemble,
                  local_hamiltonians: Sequence[Hamiltonian]) -> None:
    layout = ensemble.layout
    if len(local_hamiltonians) != layout.num_subsystems:
        raise InvariantViolation(
            f"expected {layout.num_subsystems} local hamiltonians "
            f"(one per subsystem, no interaction term), got {len(local_hamiltonians)}"
        )
    for k, local in enumerate(local_hamiltonians):
        if local.layout.total_dim != layout.dims[k]:
            raise InvariantViolation(
                f"local hamiltonian {k} has dimension {local.layout.total_dim}, "
                f"expected {layout.dims[k]}"
            )
        _require_ground_shifted(local, f"local hamiltonian {k}")


def mixture_stats(ensemble: SeparableEnsemble,
                  local_hamiltonians: Sequence[Hamiltonian]) -> EnergyStats:
    """Energy statistics of a separable ensemble under non-interacting locals.

    The locals' sum has the Kronecker-sum spectrum lam_i + mu_j + ..., with
    weights sum_n w_n p_i^(n) q_j^(n) ..., products of each term's local
    populations: the statistics of the assembled global state, unassembled.
    """
    _check_locals(ensemble, local_hamiltonians)
    populations = sum(
        weight * reduce(np.multiply.outer,
                        map(_populations, map(_in_eigenbasis, term, local_hamiltonians)))
        for weight, term in zip(ensemble.weights, ensemble.terms))
    spectrum = reduce(np.add.outer, (local.eigensystem()[0] for local in local_hamiltonians))
    return _level_stats(spectrum.ravel(), populations.ravel())


def mixed_state_bound(rho: DensityMatrix, hamiltonian: Hamiltonian) -> BoundResult:
    """Speed-limit bound for a mixed state via its spectral decomposition.

    Every retained eigenvector of rho must itself reach an orthogonal state at
    the orthogonalization time, so the bound is max(pi/(2 E_min), pi/(2 dE_min))
    over the per-eigenvector statistics.  Unbounded when any retained
    eigenvector is stationary (E or dE zero): the overlap then never vanishes.
    Always at least ``qsl_time`` of the state's own statistics.
    """
    _require_ground_shifted(hamiltonian, "hamiltonian")
    _require_same_layout(rho, hamiltonian)
    evals, vecs = _retained_eigensystem(rho)
    degenerate = bool((np.diff(evals) <= DEGENERACY_TOL).any())
    # each eigenvector's <H> and ||(H - E) v||^2 from H itself (populations would hide an
    # eigensystem that misstates H); Re(conj(a) b) = Re a Re b + Im a Im b, no complex temporary
    hv = hamiltonian.matrix @ vecs
    energies = (np.einsum("ij,ij->j", vecs.real, hv.real)
                + np.einsum("ij,ij->j", vecs.imag, hv.imag))
    hv -= vecs * energies
    variances = np.einsum("ij,ij->j", hv.real, hv.real) + np.einsum("ij,ij->j", hv.imag, hv.imag)
    if energies.min() < -1e-8:
        raise NumericalFailure(
            f"negative mean energy {float(energies.min())!r} under a shifted hamiltonian"
        )
    e_min = max(float(energies.min()), 0.0)
    s_min = math.sqrt(max(float(variances.min()), 0.0))
    return _max_bound(e_min, s_min, degenerate)


# ---------------------------------------------------------------------------
# structure of bound-reaching separable ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermReport:
    """Per-realization record: which factor orthogonalizes, which stand still."""

    evolving: Optional[int]
    stationary: tuple[int, ...]
    bound_time: Optional[float]


@dataclass(frozen=True)
class EnsembleAnalysis:
    """Outcome of checking the saturating-structure property of an ensemble.

    ``saturating`` is True only when the ensemble is orthogonal to its evolved
    self at the speed limit time and every realization has exactly one factor
    reaching orthogonality, at its own speed limit (equal to the global one),
    with every other factor an eigenstate of its local Hamiltonian.
    """

    bound: BoundResult
    survival_at_bound: float
    terms: tuple[TermReport, ...]
    saturating: bool
    reason: Optional[str]

    @property
    def verdict(self) -> str:
        if self.saturating:
            return "SaturatingStructure"
        return f"Violation({self.reason})"


def analyze_ensemble_at_qsl(ensemble: SeparableEnsemble,
                            local_hamiltonians: Sequence[Hamiltonian],
                            tol: float = 1e-9) -> EnsembleAnalysis:
    """Check whether a separable ensemble reaches the speed limit, and how.

    Evaluates every cross-term overlap chi_k^{(n,m)}(t) = Tr[rho_k^(n)(t)
    rho_k^(m)] at the bound time t = T(E, dE) of the mixture statistics.  The
    global survival is the weighted sum of the per-term overlap products; all
    chi are nonnegative reals, so the survival vanishes only if every summand
    does.  A single tolerance governs the orthogonality, stationarity
    (commutator with the local Hamiltonian), and bound-equality checks.
    """
    if tol <= 0.0:
        raise InvariantViolation(f"tolerance must be positive, got {tol}")

    bound = qsl_time(mixture_stats(ensemble, local_hamiltonians))
    if bound.unbounded:
        return EnsembleAnalysis(
            bound, 1.0, (), False, "quantum speed limit time is unbounded"
        )
    t = bound.time

    weights = ensemble.weights
    terms = ensemble.terms
    n_sites = len(terms[0])

    # chi[n, m, k] = Tr[rho_k^(n)(t) rho_k^(m)] = sum_ab A_ab B_ba e^{-i(lam_a - lam_b)t},
    # with A and B the two factors in the eigenbasis of local Hamiltonian k.
    # Taken raw, so that the nonnegativity of every term is actually observable.
    chi = np.empty((len(terms), len(terms), n_sites))
    for k, local in enumerate(local_hamiltonians):
        evals = local.eigensystem()[0]
        phases = np.exp(-1j * np.subtract.outer(evals, evals) * t)
        rotated = np.array([_in_eigenbasis(term[k], local) for term in terms])
        chi[:, :, k] = np.einsum("nab,ab,mba->nm", rotated, phases, rotated).real
    negative = np.argwhere(chi < -CHI_NEGATIVITY_SLACK)
    if len(negative):
        n, m, k = negative[0]
        raise NumericalFailure(
            f"overlap chi[{n},{m},{k}] = {float(chi[n, m, k])!r} is negative "
            "beyond numerical slack"
        )

    products = chi.prod(axis=2)
    survival = float(np.einsum("n,m,nm->", weights, weights, products))

    # a survival above tol outranks any term's reason; else the first failing term wins
    reason = "not saturating" if survival > tol else None
    reports = []
    for n, term in enumerate(terms):
        orthogonal = [k for k in range(n_sites) if chi[n, n, k] <= tol]
        stationary = tuple(
            k for k, (factor, local) in enumerate(zip(term, local_hamiltonians))
            if np.abs(factor.matrix @ local.matrix - local.matrix @ factor.matrix).max() <= tol
        )
        evolving = orthogonal[0] if len(orthogonal) == 1 else None
        bound_time = None
        if evolving is not None:
            own = qsl_time(energy_stats(term[evolving], local_hamiltonians[evolving]))
            bound_time = own.time
        reports.append(TermReport(evolving, stationary, bound_time))
        if reason is not None:
            continue
        moving = [k for k in range(n_sites) if k != evolving and k not in stationary]
        if not orthogonal:
            reason = f"term {n}: no subsystem reaches orthogonality at the bound"
        elif evolving is None:
            reason = f"term {n}: {len(orthogonal)} subsystems reach orthogonality"
        elif moving:
            reason = (
                f"term {n}: subsystem {moving[0]} neither reaches orthogonality "
                "nor is stationary"
            )
        elif abs(bound_time - t) > tol * max(1.0, t):
            reason = (
                f"term {n}: evolving subsystem bound {bound_time!r} "
                f"differs from the global bound {t!r}"
            )

    return EnsembleAnalysis(bound, survival, tuple(reports), reason is None, reason)
