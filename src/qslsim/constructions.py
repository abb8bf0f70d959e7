"""Factories for the concrete states and Hamiltonians used by the experiments.

Each construction is paired with its closed-form overlap or orthogonality
time, so the full-matrix dynamics always has an independent analytic oracle
to check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import HORIZON_MULTIPLIER, OrthogonalityResult, scan_first_zero
from .qcore import (
    DensityMatrix,
    EnergyStats,
    Hamiltonian,
    InvariantViolation,
    PureState,
    SeparableEnsemble,
    SubsystemLayout,
    _local_sum,
    noninteracting_hamiltonian,
)

#: i^n for n mod 4, evaluated exactly rather than through complex powers.
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

#: Columns |+> and |->, the eigenvectors of sigma_x for +1 and -1.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

#: The scalar paths accept a zero where the overlap amplitude is at most this.
#: Its square, 1.0000000000000001e-20, is one ulp above the 1e-20 default of
#: ``qsl groups --tol``, so the two stay separate constants.
_AMPLITUDE_TOL = 1e-10


# ---------------------------------------------------------------------------
# entangled chain of identical equally-spaced subsystems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntangledChainSpec:
    """Equal superposition (1/sqrt(N)) sum_n |n>^(x M) of ladder eigenstates.

    Each of the ``subsystems`` carries an equally spaced local spectrum
    0, omega0, ..., (levels-1)*omega0.
    """

    levels: int
    subsystems: int
    omega0: float = 1.0

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise InvariantViolation(f"levels must be >= 2, got {self.levels}")
        if self.subsystems < 1:
            raise InvariantViolation(f"subsystems must be >= 1, got {self.subsystems}")
        if not (0.0 < self.omega0 < math.inf):
            raise InvariantViolation(f"omega0 must be positive and finite, got {self.omega0}")
        try:  # N * M * omega0 and N^2 as doubles; M times a local stat is then finite
            t_perp, _ = self.t_perp, self.local_stats
        except (OverflowError, InvariantViolation):
            t_perp = 0.0
        if not 0.0 < t_perp < math.inf:
            raise InvariantViolation("the chain's t_perp or energies lie outside the float range")

    @property
    def t_perp(self) -> float:
        """Exact first orthogonality time 2*pi / (levels * subsystems * omega0)."""
        return 2.0 * math.pi / (self.levels * self.subsystems * self.omega0)

    @property
    def local_stats(self) -> EnergyStats:
        """Energy and spread of one subsystem, the uniform mixture of its levels."""
        n, w0 = self.levels, self.omega0
        return EnergyStats(w0 * (n - 1) / 2.0, w0 * math.sqrt(n * n - 1.0) / (2.0 * math.sqrt(3.0)))


def make_psi_ent(spec: EntangledChainSpec) -> tuple[PureState, Hamiltonian, float]:
    """Entangled chain state, its free Hamiltonian, and its exact t_perp.

    The state's overlap with its evolved self is a pure geometric sum whose
    first zero is at 2*pi / (levels * subsystems * omega0): entanglement makes
    the orthogonalization a factor ~sqrt(M) faster than any product state
    with the same (homogeneous) energy budget.
    """
    n, m, w0 = spec.levels, spec.subsystems, spec.omega0
    local_layout = SubsystemLayout((n,))
    local = Hamiltonian(local_layout, np.diag(w0 * np.arange(n)).astype(complex))
    hamiltonian = noninteracting_hamiltonian([local] * m)

    dim = hamiltonian.layout.total_dim
    amplitudes = np.zeros(dim, dtype=complex)
    stride = (dim - 1) // (n - 1)  # flat index of |n n ... n>
    amplitudes[np.arange(n) * stride] = 1.0 / math.sqrt(n)
    state = PureState(hamiltonian.layout, amplitudes)
    return state, hamiltonian, spec.t_perp


def psi_ent_survival_amplitude(spec: EntangledChainSpec, t):
    """Closed-form overlap (1/N) sum_n exp(-i n M omega0 t).

    The factor M in the exponent is the signature of the energy entanglement:
    the collective phase winds M times faster than any single subsystem's.
    Accepts a scalar or array ``t``.
    """
    ts = np.asarray(t, dtype=float)
    n = np.arange(spec.levels)
    phases = np.exp(
        -1j * np.multiply.outer(ts, n * (spec.subsystems * spec.omega0))
    )
    amp = phases.sum(axis=-1) / spec.levels
    if ts.ndim == 0:
        return complex(amp)
    return amp


# ---------------------------------------------------------------------------
# collectively coupled qubits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollectiveSpec:
    """M qubits rotated individually at omega0 and collectively at omega.

    H = omega0 * sum_k (1 - sx_k) + omega * (1 - prod_k sx_k), acting on the
    product basis state |bits>.  ``bits`` defaults to all zeros; the overlap
    formula below is independent of it.  The dense cap is only enforced when
    the matrix is actually assembled (the scalar formulas have no cap).
    """

    qubits: int
    omega0: float = 1.0
    omega: float = 0.0
    bits: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise InvariantViolation(f"qubits must be >= 1, got {self.qubits}")
        if not (0.0 <= self.omega0 < math.inf and 0.0 <= self.omega < math.inf):
            raise InvariantViolation("omega0 and omega must be nonnegative and finite")
        if self.omega0 <= 0.0 and self.omega <= 0.0:
            raise InvariantViolation("omega0 and omega cannot both be zero")
        try:
            variance = self.variance
        except OverflowError:
            variance = math.inf
        if not 0.0 < variance < math.inf:  # it underflowed to zero or overflowed
            raise InvariantViolation(f"energy variance {variance!r} is not positive and finite")
        if self.bits is not None:
            bits = tuple(int(b) for b in self.bits)
            if len(bits) != self.qubits or any(b not in (0, 1) for b in bits):
                raise InvariantViolation(
                    f"bits must be a 0/1 vector of length {self.qubits}, got {self.bits}"
                )
            object.__setattr__(self, "bits", bits)

    @property
    def bit_vector(self) -> tuple[int, ...]:
        return self.bits if self.bits is not None else (0,) * self.qubits

    @property
    def energy(self) -> float:
        """Mean energy omega + M*omega0 of the initial basis state."""
        return self.omega + self.qubits * self.omega0

    @property
    def variance(self) -> float:
        """Energy variance omega^2 + M*omega0^2, or (omega + omega0)^2 at M = 1."""
        if self.qubits == 1:  # sx_1 is prod_k sx_k, so the two couplings add
            return (self.omega + self.omega0) ** 2
        return self.omega ** 2 + self.qubits * self.omega0 ** 2

    @property
    def spread(self) -> float:
        """Energy spread, the square root of ``variance``."""
        return math.sqrt(self.variance)

    @property
    def t_qsl(self) -> float:
        """Speed limit time pi / (2 spread)."""
        return math.pi / (2.0 * self.spread)

    @property
    def bandwidth(self) -> float:
        """Bound 2(omega + M*omega0) on the frequencies in the survival signal."""
        return 2.0 * self.energy


def _collective_hamiltonian(spec: CollectiveSpec, layout: SubsystemLayout) -> Hamiltonian:
    """The collective model's Hamiltonian with its exact eigensystem.

    sx_k flips bit k of a product-basis index and prod_k sx_k flips them all,
    so the matrix is a scatter of O(M * D) entries.  Both terms are diagonal
    in the sx product (Hadamard) basis: the state |s> with sx_k = (-1)^(s_k)
    has energy 2 omega0 |s| + omega (1 - (-1)^|s|), where |s| counts its ones.
    """
    qubits, omega0, omega = spec.qubits, spec.omega0, spec.omega
    dim = layout.total_dim
    index = np.arange(dim)

    def build() -> np.ndarray:
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[index, index] = qubits * omega0 + omega
        for k in range(qubits):
            matrix[index ^ (1 << k), index] -= omega0
        matrix[index ^ (dim - 1), index] -= omega
        return matrix

    ones = sum((index >> k) & 1 for k in range(qubits))
    evals = 2.0 * omega0 * ones + 2.0 * omega * (ones & 1)
    order = np.argsort(evals, kind="stable")
    return Hamiltonian._from_eigensystem(layout, build, evals[order], [_HADAMARD] * qubits, order)


def make_collective(spec: CollectiveSpec) -> tuple[PureState, Hamiltonian]:
    """Assemble the collective model as a dense 2^M system.

    The Hamiltonian's ground energy is exactly zero (both terms are PSD and
    share the all-plus eigenstate).  The initial state's energy statistics
    are the spec's ``energy`` and ``spread``.
    """
    layout = SubsystemLayout((2,) * spec.qubits)
    bits = spec.bit_vector
    index = 0
    for b in bits:
        index = index * 2 + b
    amplitudes = np.zeros(layout.total_dim, dtype=complex)
    amplitudes[index] = 1.0
    return PureState(layout, amplitudes), _collective_hamiltonian(spec, layout)


def collective_overlap_fn(spec: CollectiveSpec, t):
    """Closed-form overlap of the collective model, global phase stripped.

    cos(omega t) cos^M(omega0 t) + i^(M+1) sin(omega t) sin^M(omega0 t);
    its squared magnitude equals the full-matrix survival for any initial bit
    pattern.  Accepts a scalar or array ``t``.
    """
    ts = np.asarray(t, dtype=float)
    m = spec.qubits
    phase = _I_POWERS[(m + 1) % 4]
    value = (
        np.cos(spec.omega * ts) * np.cos(spec.omega0 * ts) ** m
        + phase * np.sin(spec.omega * ts) * np.sin(spec.omega0 * ts) ** m
    )
    if ts.ndim == 0:
        return complex(value)
    return value.astype(complex)


def collective_t_perp(spec: CollectiveSpec,
                      horizon: Optional[float] = None) -> OrthogonalityResult:
    """First zero of the collective overlap, from the scalar formula.

    Uses the same scan-and-refine contract as the full-matrix solver, applied
    to |overlap|^2 (supremum 1) with acceptance threshold ``_AMPLITUDE_TOL``
    on the amplitude.  The scalar path is exact and free of eigensolver
    noise, so it scales to any qubit count.
    """
    if horizon is None:
        horizon = HORIZON_MULTIPLIER * spec.t_qsl

    def squared(ts: np.ndarray) -> np.ndarray:
        return np.abs(collective_overlap_fn(spec, ts)) ** 2

    # the survival of a pure state: its curvature is 2 variance at most
    return scan_first_zero(squared, horizon, spec.bandwidth,
                           accept_tol=_AMPLITUDE_TOL ** 2, scale=1.0,
                           curvature=2.0 * (spec.spread / spec.bandwidth) ** 2)


def grouped_t_perp(groups: int, per_group: int, omega0: float, omega: float,
                   horizon: Optional[float] = None) -> OrthogonalityResult:
    """First orthogonality time of the grouped model, solved per group.

    The group Hamiltonians commute and the initial state is a product, so the
    total survival factorizes exactly into the per-group survivals and the
    first zero of the product is the first zero of one (identical) group,
    which is the collective model on its own qubits, solved by
    ``collective_t_perp``.  Using the group's scalar overlap keeps flat
    product zeros sharp; locating them on the full 2^(G*Q) matrix is limited
    by the eigensolver noise floor.
    """
    if groups < 1 or per_group < 1:
        raise InvariantViolation("groups and per_group must both be >= 1")
    group = CollectiveSpec(per_group, omega0, omega)
    if horizon is None:  # from the energy spread of all groups together
        horizon = HORIZON_MULTIPLIER * math.pi / (2.0 * math.sqrt(groups * group.variance))
    return collective_t_perp(group, horizon=horizon)


def make_grouped(groups: int, per_group: int, omega0: float,
                 omega: float) -> tuple[PureState, Hamiltonian]:
    """Collective model split into non-interacting groups of qubits.

    The register of ``groups * per_group`` qubits carries one collective term
    per group; entanglement cannot build up across groups, so the total
    survival is the product of the per-group survivals and the
    orthogonalization time is at least sqrt(M/Q) times the speed limit time.
    The initial state is all zeros.
    """
    if groups < 1 or per_group < 1:
        raise InvariantViolation("groups and per_group must both be >= 1")
    group = CollectiveSpec(per_group, omega0, omega)
    layout = SubsystemLayout((2,) * (groups * per_group))
    block = _collective_hamiltonian(group, SubsystemLayout((2,) * per_group))
    hamiltonian = _local_sum(layout, [block] * groups)
    amplitudes = np.zeros(layout.total_dim, dtype=complex)
    amplitudes[0] = 1.0
    return PureState(layout, amplitudes), hamiltonian


# ---------------------------------------------------------------------------
# classically correlated mixture that saturates the bound
# ---------------------------------------------------------------------------


def make_mixture_demo(omega: float) -> tuple[SeparableEnsemble, tuple[Hamiltonian, Hamiltonian]]:
    """Two-subsystem classical mixture that reaches the speed limit.

    Two three-level subsystems with local spectrum (0, omega, 2*omega).  Half
    of the time the first subsystem carries the excited superposition
    (|1> + |2>)/sqrt(2) (stats (1.5*omega, 0.5*omega), saturating its own
    bound pi/omega) while the second sits in the ground state, and half the
    time the roles are swapped.  The excited state has no ground-level
    support, so the cross overlaps Tr[rho_a(t) rho_b] vanish identically and
    the assembled mixture orthogonalizes exactly at its speed limit time
    pi/omega, even though on average both subsystems share the energy.

    Three levels are the smallest local dimension for which a zero-energy
    partner and a bound-saturating excited state can coexist with disjoint
    energy support.
    """
    if not (0.0 < omega < math.inf):
        raise InvariantViolation(f"omega must be positive and finite, got {omega}")
    layout = SubsystemLayout((3,))
    local = Hamiltonian(layout, np.diag([0.0, omega, 2.0 * omega]).astype(complex))
    ground = np.zeros((3, 3), dtype=complex)
    ground[0, 0] = 1.0
    rho_b = DensityMatrix(layout, ground)
    vec = np.zeros(3, dtype=complex)
    vec[1] = vec[2] = 1.0 / math.sqrt(2.0)
    rho_a = DensityMatrix(layout, np.outer(vec, vec.conj()))
    ensemble = SeparableEnsemble(
        (0.5, 0.5),
        ((rho_a, rho_b), (rho_b, rho_a)),
    )
    return ensemble, (local, local)
