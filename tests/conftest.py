import math

import numpy as np
import pytest

from qslsim import (DensityMatrix, EnergyStats, Hamiltonian, NumericalFailure, PureState,
                    SubsystemLayout, ground_shift)


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    return PureState(SubsystemLayout((dim,)), vec)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthogonalizing_system(rng: np.random.Generator, mixed: bool):
    """Random system with a commensurate spectrum that reaches orthogonality.

    The Hamiltonian has integer eigenvalues (random basis); the state is built
    from uniform superpositions over blocks of k >= 3 consecutive levels,
    whose survival is a Dirichlet kernel with exact zeros at multiples of
    2*pi/k, strictly above the speed-limit bound (so the ordering check is
    not riding on the solver's noise floor).  The mixed variant mixes two
    such superpositions on disjoint blocks of equal size, so their zeros
    coincide and the mixture still orthogonalizes.
    """
    k = int(rng.integers(3, 6))  # levels per superposition block
    dim = 2 * k + int(rng.integers(0, 4))
    u = random_unitary(rng, dim)
    evals = np.arange(dim, dtype=float)
    h = Hamiltonian(SubsystemLayout((dim,)), (u * evals) @ u.conj().T)
    h = ground_shift(h)
    starts = rng.permutation(dim - 2 * k + 1)[:1]
    s1 = int(starts[0])
    block1 = u[:, s1:s1 + k] @ (np.ones(k) / np.sqrt(k))
    if not mixed:
        mat = np.outer(block1, block1.conj())
    else:
        s2 = s1 + k
        block2 = u[:, s2:s2 + k] @ (np.ones(k) / np.sqrt(k))
        mat = 0.6 * np.outer(block1, block1.conj()) + 0.4 * np.outer(block2, block2.conj())
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(SubsystemLayout((dim,)), mat), h


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    rank = rank if rank is not None else dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(SubsystemLayout((dim,)), mat)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_shifted_hamiltonian(rng: np.random.Generator, dim: int,
                               scale: float = 1.0) -> Hamiltonian:
    raw = Hamiltonian(SubsystemLayout((dim,)), random_hermitian(rng, dim, scale))
    return ground_shift(raw)


def matrix_energy_stats(state, hamiltonian) -> EnergyStats:
    """Frozen reference: ``energy_stats`` as two matrix branches, ||(H - E) psi||
    for a pure state and Tr[(H - E)((H - E) rho)] for a density matrix."""
    h = hamiltonian.matrix
    if isinstance(state, PureState):
        # ||(H - E) psi||^2: <H^2> - E^2 cancels a small spread at a large mean energy
        hv = h @ state.amplitudes
        mean = float(np.real(np.vdot(state.amplitudes, hv)))
        residual = hv - mean * state.amplitudes
        variance = float(np.real(np.vdot(residual, residual)))
    else:
        # Tr[(H - E)((H - E) rho)], centred like the pure branch, from one D x D product
        rho = state.matrix
        hr = h @ rho
        mean = float(np.real(np.trace(hr)))
        hr -= mean * rho
        shifted = h.copy()
        shifted.flat[:: rho.shape[0] + 1] -= mean
        variance = float(np.real(np.einsum("ij,ji->", shifted, hr)))
    if mean < -1e-8:
        raise NumericalFailure(f"negative mean energy {mean!r} under a shifted hamiltonian")
    return EnergyStats(max(mean, 0.0), math.sqrt(max(variance, 0.0)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
