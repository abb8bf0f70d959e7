"""Value types and dense linear-algebra primitives for composite quantum systems.

Conventions: hbar = 1, so energies and frequencies are dimensionless reals in
reciprocal time units.  All operators are dense complex matrices.  Subsystem 0
occupies the leftmost (slowest-varying) slot of the Kronecker ordering, so the
flat index of the product basis state |i_0 i_1 ... i_{M-1}> is
i_0 * d_1 * ... * d_{M-1} + ... + i_{M-1}.

All types are immutable after construction and all operations are pure
functions, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Sequence, Union

import numpy as np

#: Ceiling on the total Hilbert-space dimension.  Dense exact methods only;
#: nine qubits (512) fit comfortably, 4096 is the point where a laptop stops
#: being a reasonable tool.
DENSE_CAP = 4096

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
GROUND_TOL = 1e-10
WEIGHT_TOL = 1e-12
EIGENVALUE_DROP = 1e-12
_UNIT = np.ones((1, 1), dtype=complex)


class InvariantViolation(ValueError):
    """A state, operator, or option failed one of its construction invariants."""


class SchemaError(ValueError):
    """A JSON document does not match the state/Hamiltonian wire schema."""


class NumericalFailure(RuntimeError):
    """A dense linear-algebra routine failed or produced inconsistent output."""


# ---------------------------------------------------------------------------
# array helpers
# ---------------------------------------------------------------------------

def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


def _checked(raw, shape: tuple[int, ...], name: str, hermitian: bool = False) -> np.ndarray:
    """``raw`` as a complex array of ``shape`` with finite entries, and Hermitian
    when asked: within HERM_TOL relative to the largest entry, and absolute where
    no entry exceeds 1, so density matrices keep the absolute check."""
    arr = np.asarray(raw, dtype=complex)
    if arr.shape != shape:
        kind = (f"complex vector of length {shape[0]}" if len(shape) == 1
                else f"{shape[0]}x{shape[1]} complex matrix")
        raise InvariantViolation(f"{name}: expected a {kind}, got shape {arr.shape}")
    # The invariant checks compare `deviation > tol`, which is false for NaN.
    if not np.isfinite(arr).all():
        raise InvariantViolation(f"{name} has a non-finite entry (NaN or infinity)")
    if hermitian:
        with np.errstate(over="ignore"):  # an infinite deviation fails the check
            dev = float(np.abs(arr - arr.conj().T).max())
            scale = float(np.abs(arr).max())
        # a finite entry's modulus may overflow: a finite scale keeps inf failing
        if dev > HERM_TOL and dev > HERM_TOL * min(scale, sys.float_info.max):
            raise InvariantViolation(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return arr


def _dimension_within(dims: Iterable[int], limit: int) -> bool:
    """Whether the product of the positive ``dims`` is at most ``limit``; stops
    multiplying once the product passes it, so no larger size is ever formed."""
    total = 1
    for d in dims:
        total *= d
        if total > limit:
            return False
    return True


def _eigh(mat: np.ndarray, name: str):
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition of {name} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local Hilbert-space dimensions of a composite system.

    The product of the local dimensions is at most ``DENSE_CAP``, to keep
    exact dense methods feasible.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dims = tuple(int(d) for d in self.dims)
        except TypeError as exc:
            raise InvariantViolation(f"dims must be a sequence of integers: {exc}") from exc
        if not dims:
            raise InvariantViolation("a layout needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise InvariantViolation(f"local dimensions must be >= 1, got {dims}")
        if not _dimension_within(dims, DENSE_CAP):
            raise InvariantViolation(f"the total dimension of the {len(dims)} subsystems "
                                     f"exceeds the dense cap {DENSE_CAP}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over a composite product basis."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        vec = _checked(self.amplitudes, (self.layout.total_dim,), "amplitudes")
        with np.errstate(over="ignore"):  # an infinite norm fails the check
            norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation(f"state norm is {norm!r}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(vec))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix."""

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _checked(self.matrix, (self.layout.total_dim,) * 2, "density matrix", hermitian=True)
        with np.errstate(over="ignore"):  # an infinite trace fails the check
            tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"density matrix trace is {tr!r}, expected 1")
        try:
            lowest = float(np.linalg.eigvalsh(mat)[0])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigenvalue check failed: {exc}") from exc
        if lowest < -PSD_TOL:
            raise InvariantViolation(
                f"density matrix has eigenvalue {lowest:.3e} below the PSD slack -{PSD_TOL}"
            )
        object.__setattr__(self, "matrix", _freeze(mat))


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian operator with its eigensystem, eigenvectors V = (L (x) R)[:, order].

    ``Hamiltonian(layout, matrix)`` runs eigh once: L = V, R = 1, the identity order.
    The constructions whose spectrum is known in closed form hand over V's
    Kronecker factors through ``_from_eigensystem``; ``matrix`` and V are then
    formed on first read (racing readers form equal arrays).

    ``ground_energy`` caches the minimum eigenvalue; the eigensystem is reused
    by every evolution and bound computation.  Operations that assume a zero
    ground state check ``is_ground_shifted`` and reject other inputs rather
    than shifting silently.
    """

    layout: SubsystemLayout
    matrix: np.ndarray
    ground_energy: float = field(init=False)

    def __post_init__(self) -> None:
        mat = _checked(self.matrix, (self.layout.total_dim,) * 2, "hamiltonian", hermitian=True)
        evals, evecs = _eigh(mat, "hamiltonian")
        self._install(self.layout, evals, evecs, _UNIT, np.arange(evals.size), {})
        self.__dict__.update(matrix=_freeze(mat), _evecs=evecs)  # copied after eigh: a lower peak

    @classmethod
    def _from_eigensystem(cls, layout: SubsystemLayout, build: Callable[[], np.ndarray],
                          evals: np.ndarray, factors: Sequence[np.ndarray],
                          order: np.ndarray) -> "Hamiltonian":
        # Eigenvectors: columns ``order`` of the Kronecker product of the square
        # ``factors``, L and R that of their halves; ``build()`` forms the matrix.
        half = len(factors) // 2
        left = reduce(np.kron, factors[:half], _UNIT)
        right = reduce(np.kron, factors[half:], _UNIT)

        def evecs() -> np.ndarray:
            # column (i, j) of L (x) R is L[:, i] (x) R[:, j]
            i, j = np.divmod(order, right.shape[1])
            return (left[:, None, i] * right[None, :, j]).reshape(-1, order.size)

        return object.__new__(cls)._install(layout, evals, left, right, order,
                                            {"matrix": build, "_evecs": evecs})

    def _install(self, layout: SubsystemLayout, evals: np.ndarray, left: np.ndarray,
                 right: np.ndarray, order: np.ndarray, forms: dict) -> "Hamiltonian":
        # Python floats: the subtraction gives inf where numpy would warn.  A
        # finite range keeps every shifted diagonal, within [0, range], finite.
        if not math.isfinite(float(evals[-1]) - float(evals[0])):
            raise InvariantViolation(f"hamiltonian spectral range exceeds the float range "
                                     f"(eigenvalues {float(evals[0])!r} to {float(evals[-1])!r})")
        for arr in (evals, left, right, order):
            arr.flags.writeable = False
        self.__dict__.update(layout=layout, ground_energy=float(evals[0]), _evals=evals,
                             _left=left, _right=right, _order=order, _forms=forms)
        return self

    def __getattr__(self, name: str):
        # only for attributes not set yet: the arrays ``_forms`` forms on first read
        form = self.__dict__.get("_forms", {}).get(name)
        if form is None:
            raise AttributeError(name)
        value = self.__dict__[name] = form()
        value.flags.writeable = False
        return value

    def __getstate__(self) -> dict:  # a pickle carries the formed arrays, not their forms
        return {**self.__dict__, "matrix": self.matrix, "_evecs": self._evecs, "_forms": {}}

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and the matching orthonormal eigenvector columns,
        both read-only."""
        return self._evals, self._evecs  # type: ignore[attr-defined]

    @property
    def is_ground_shifted(self) -> bool:
        return abs(self.ground_energy) <= GROUND_TOL


@dataclass(frozen=True)
class EnergyStats:
    """Mean energy and energy spread of a state, measured from a zero ground state."""

    energy: float
    spread: float

    def __post_init__(self) -> None:
        for name, value in (("energy", self.energy), ("spread", self.spread)):
            if not math.isfinite(value):
                raise InvariantViolation(f"{name} must be finite, got {value!r}")
            if value < 0.0:
                raise InvariantViolation(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Probabilistic mixture of per-subsystem product density matrices.

    ``terms[n]`` is the ordered list of local factors of realization n, drawn
    with probability ``weights[n]``.  Every term must have one factor per
    subsystem, with matching local dimensions.
    """

    weights: tuple[float, ...]
    terms: tuple[tuple[DensityMatrix, ...], ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        terms = tuple(tuple(term) for term in self.terms)
        if not weights or len(weights) != len(terms):
            raise InvariantViolation("need one weight per ensemble term")
        if not all(0.0 < w < math.inf for w in weights):
            raise InvariantViolation(f"weights must be positive and finite, got {weights}")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvariantViolation(f"weights sum to {total!r}, expected 1")
        first = terms[0]
        if not first:
            raise InvariantViolation("ensemble terms must contain at least one factor")
        dims = tuple(f.layout.total_dim for f in first)
        for n, term in enumerate(terms):
            if len(term) != len(dims):
                raise InvariantViolation(
                    f"term {n} has {len(term)} factors, expected {len(dims)}"
                )
            for k, factor in enumerate(term):
                if not isinstance(factor, DensityMatrix):
                    raise InvariantViolation(f"term {n} factor {k} is not a DensityMatrix")
                if factor.layout.dims != (dims[k],):
                    raise InvariantViolation(
                        f"term {n} factor {k} has dims {factor.layout.dims}, "
                        f"expected ({dims[k]},)"
                    )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "terms", terms)

    @property
    def layout(self) -> SubsystemLayout:
        return SubsystemLayout(tuple(f.layout.total_dim for f in self.terms[0]))

    def assemble(self) -> DensityMatrix:
        """Global density matrix: the weighted sum of the Kronecker products."""
        layout = self.layout
        total = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
        for weight, term in zip(self.weights, self.terms):
            total += weight * reduce(np.kron, (f.matrix for f in term))
        return DensityMatrix(layout, total)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _require_same_layout(a, b) -> None:
    if a.layout.dims != b.layout.dims:
        raise InvariantViolation(
            f"layout mismatch: {a.layout.dims} vs {b.layout.dims}"
        )


def _require_ground_shifted(hamiltonian: Hamiltonian, what: str) -> None:
    if not hamiltonian.is_ground_shifted:
        raise InvariantViolation(
            f"{what} has ground energy {hamiltonian.ground_energy!r}; apply ground_shift first"
        )


def _in_eigenbasis(state: State, hamiltonian: Hamiltonian) -> np.ndarray:
    """V^dagger psi = conj(L^T Psi* R)[order], Psi* the conjugated amplitudes as a (rows
    of L) x (rows of R) matrix (Van Loan, JCAM 123, 85 (2000)), or V^dagger rho V."""
    if isinstance(state, PureState):
        left, right = hamiltonian._left, hamiltonian._right
        psi = state.amplitudes.conj().reshape(left.shape[0], right.shape[0])
        return (left.T @ psi @ right).conj().reshape(-1)[hamiltonian._order]
    evecs = hamiltonian.eigensystem()[1]
    return evecs.conj().T @ state.matrix @ evecs


def tensor_product(factors: Sequence[Sequence[complex]]) -> PureState:
    """Kronecker product of normalized local state vectors.

    The amplitude at multi-index (i_0, ..., i_{M-1}) is the product of the
    factor amplitudes; the factor lengths are the local dimensions.
    """
    if len(factors) == 0:
        raise InvariantViolation("tensor_product needs at least one factor")
    vecs = []
    for k, factor in enumerate(factors):
        vec = np.asarray(factor, dtype=complex)
        if vec.ndim != 1 or vec.size == 0:
            raise InvariantViolation(f"factor {k} is not a nonempty vector")
        with np.errstate(over="ignore"):  # an infinite norm fails the check
            norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation(f"factor {k} has norm {norm!r}, expected 1")
        vecs.append(vec)
    layout = SubsystemLayout(tuple(v.size for v in vecs))
    return PureState(layout, reduce(np.kron, vecs))


def _add_local(total: np.ndarray, op: np.ndarray, site: int, dims: Sequence[int]) -> None:
    """Add ``op`` on subsystem ``site`` (identity elsewhere) into ``total`` in place.

    Writes only the D * d entries the embedding touches: with rows and
    columns split as (left, site, right), entry (l a r, l b r) gets op[a, b].
    """
    left = math.prod(dims[:site])
    right = math.prod(dims[site + 1:])
    blocks = total.reshape(left, dims[site], right, left, dims[site], right)
    touched = np.einsum("iajibj->iajb", blocks)  # a writable view into total
    touched += op[None, :, None, :]


def embed_local(op, site: int, layout: SubsystemLayout) -> np.ndarray:
    """Embed a Hermitian single-subsystem operator as identity-elsewhere.

    Embeddings at different sites commute, and the embedding is linear in
    ``op``.  Returns a plain dense matrix on the full space.
    """
    if not 0 <= site < layout.num_subsystems:
        raise InvariantViolation(
            f"site {site} out of range for {layout.num_subsystems} subsystems"
        )
    local_dim = layout.dims[site]
    mat = _checked(op, (local_dim, local_dim), f"local operator at site {site}", hermitian=True)
    out = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    _add_local(out, mat, site, layout.dims)
    return out


def _local_sum(layout: SubsystemLayout, local_hamiltonians: Sequence[Hamiltonian]) -> Hamiltonian:
    """Sum of local terms, one per consecutive block of the Kronecker order.

    The blocks are the locals' own spaces, which may each span several slots
    of ``layout``.  The spectrum is the Kronecker sum's, lam_i + mu_j with
    eigenvector u_i (x) v_j, so the full matrix is never diagonalized.
    """
    dims = tuple(h.layout.total_dim for h in local_hamiltonians)

    def build() -> np.ndarray:
        matrix = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
        for site, local in enumerate(local_hamiltonians):
            _add_local(matrix, local.matrix, site, dims)
        return matrix

    spectra, factors = zip(*(h.eigensystem() for h in local_hamiltonians))
    evals = reduce(np.add.outer, spectra).reshape(-1)
    order = np.argsort(evals, kind="stable")
    return Hamiltonian._from_eigensystem(layout, build, evals[order], factors, order)


def noninteracting_hamiltonian(local_hamiltonians: Sequence[Hamiltonian]) -> Hamiltonian:
    """Sum of single-subsystem Hamiltonians embedded on the full space.

    A sum of ground-shifted commuting local terms is itself ground-shifted.
    """
    if len(local_hamiltonians) == 0:
        raise InvariantViolation("need at least one local hamiltonian")
    layout = SubsystemLayout(tuple(h.layout.total_dim for h in local_hamiltonians))
    return _local_sum(layout, local_hamiltonians)


def ground_shift(hamiltonian: Hamiltonian) -> Hamiltonian:
    """Subtract the minimum eigenvalue so the ground-state energy is zero.

    The dynamics are unchanged up to a global phase; only the energy
    bookkeeping moves.
    """
    h, lam0 = hamiltonian, hamiltonian.ground_energy

    def shifted() -> np.ndarray:
        matrix = h.matrix.copy()
        matrix.flat[:: h.layout.total_dim + 1] -= lam0
        return matrix

    return object.__new__(Hamiltonian)._install(  # the same V, formed once for both
        h.layout, h._evals - lam0, h._left, h._right, h._order,
        {"matrix": shifted, "_evecs": lambda: h.eigensystem()[1]})


def _populations(rotated: np.ndarray) -> np.ndarray:
    """The state's weight on each eigenvector, from ``_in_eigenbasis``'s output:
    |c_a|^2 for a pure state, Re (V^dagger rho V)_aa for a density matrix."""
    return np.abs(rotated) ** 2 if rotated.ndim == 1 else rotated.diagonal().real


def _level_stats(evals: np.ndarray, populations: np.ndarray) -> EnergyStats:
    """E = sum lam_a p_a and dE = span * sqrt(sum ((lam_a - E) / span)^2 p_a), span the
    spectral range (1 for one level): centred, and with no square above 1 to overflow."""
    mean = float(evals @ populations)
    if mean < -1e-8:
        raise NumericalFailure(f"negative mean energy {mean!r} under a shifted hamiltonian")
    span = float(evals.max() - evals.min()) or 1.0
    variance = float(((evals - mean) / span) ** 2 @ populations)
    return EnergyStats(max(mean, 0.0), span * math.sqrt(max(variance, 0.0)))


def energy_stats(state: State, hamiltonian: Hamiltonian) -> EnergyStats:
    """Mean energy and spread of a state under a ground-shifted Hamiltonian.

    Rejects Hamiltonians whose ground energy is not zero: shifting changes the
    mean energy, so it has to be an explicit step (see ``ground_shift``).
    """
    _require_same_layout(state, hamiltonian)
    _require_ground_shifted(hamiltonian, "hamiltonian")
    return _level_stats(hamiltonian._evals,
                        _populations(_in_eigenbasis(state, hamiltonian)))


def state_overlap(a: State, b: State) -> float:
    """Trace overlap Tr[rho_a rho_b]; |<a|b>|^2 when both inputs are pure.

    Symmetric, and (up to round-off, which is clipped) in [0, 1].  Zero means
    the two states are orthogonal.
    """
    _require_same_layout(a, b)
    if isinstance(a, PureState) and isinstance(b, PureState):
        value = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    elif isinstance(a, PureState):
        value = float(np.real(np.vdot(a.amplitudes, b.matrix @ a.amplitudes)))
    elif isinstance(b, PureState):
        value = float(np.real(np.vdot(b.amplitudes, a.matrix @ b.amplitudes)))
    else:
        value = float(np.real(np.einsum("ij,ji->", a.matrix, b.matrix)))
    return float(min(max(value, 0.0), 1.0))


def spectral_decompose(rho: DensityMatrix) -> list[tuple[float, np.ndarray]]:
    """Eigenvalue/eigenvector pairs of a density matrix, largest first.

    Eigenvalues below ``EIGENVALUE_DROP`` are dropped: zero-weight eigenvectors
    carry no population and their numerical noise would poison downstream
    minima.  For degenerate eigenvalues the eigensolver's basis is returned
    as-is; any orthonormal choice is equally valid downstream.
    """
    evals, evecs = _retained_eigensystem(rho)
    return [
        (float(evals[i]), np.array(evecs[:, i], copy=True))
        for i in range(evals.size - 1, -1, -1)
    ]


def _retained_eigensystem(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of rho at or above ``EIGENVALUE_DROP``, with their eigenvector columns."""
    evals, evecs = _eigh(rho.matrix, "density matrix")
    first = int(np.searchsorted(evals, EIGENVALUE_DROP))
    if first == evals.size:
        raise NumericalFailure("no eigenvalue of the density matrix survived the cutoff")
    return evals[first:], evecs[:, first:]


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# One object per system:
#   dims         array of positive ints
#   amplitudes   array of [re, im] pairs (pure state), length prod(dims), OR
#   matrix       row-major array of [re, im] pairs (density matrix)
#   hamiltonian  row-major array of [re, im] pairs
# Numbers are IEEE-754 doubles serialized as JSON numbers.


def _pairs_to_array(raw, count: int, name: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise SchemaError(f"{name}: expected an array of [re, im] pairs")
    if len(raw) != count:
        raise SchemaError(f"{name}: expected {count} pairs, got {len(raw)}")
    pairs = _number_pairs(raw)
    if pairs is not None:
        return pairs.view(complex)
    # One entry at a time: names the first malformed entry, and converts
    # subclasses of int and float, which the bulk check leaves to this loop.
    out = np.empty(count, dtype=complex)
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise SchemaError(f"{name}[{i}]: expected a [re, im] pair of numbers")
        try:
            out[i] = complex(entry[0], entry[1])
        except OverflowError:  # an integer literal beyond the double range
            raise SchemaError(f"{name}[{i}]: number too large for a double") from None
    return out


def _number_pairs(raw: list) -> np.ndarray | None:
    """``raw`` flattened to floats if every entry is a list or tuple of two
    ints or floats (not bools), else None; checks and conversion run in bulk."""
    if not (set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) <= {2}):
        return None
    if not set(map(type, itertools.chain.from_iterable(raw))) <= {int, float}:
        return None
    try:
        return np.fromiter(itertools.chain.from_iterable(raw), dtype=float, count=2 * len(raw))
    except OverflowError:
        return None


def _array_to_pairs(arr: np.ndarray) -> list[list[float]]:
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return np.stack((flat.real, flat.imag), axis=1).tolist()


def system_to_json(state: State, hamiltonian: Hamiltonian) -> dict:
    """Serialize a state/Hamiltonian pair into the wire-format dict."""
    obj: dict = {"dims": list(state.layout.dims)}
    if isinstance(state, PureState):
        obj["amplitudes"] = _array_to_pairs(state.amplitudes)
    else:
        obj["matrix"] = _array_to_pairs(state.matrix)
    obj["hamiltonian"] = _array_to_pairs(hamiltonian.matrix)
    return obj


def system_from_json(obj) -> tuple[State, Hamiltonian]:
    """Parse the wire-format dict; schema problems name the failing field."""
    if not isinstance(obj, dict):
        raise SchemaError("top level: expected a JSON object")
    raw_dims = obj.get("dims")
    if (
        not isinstance(raw_dims, list)
        or not raw_dims
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in raw_dims)
    ):
        raise SchemaError("dims: expected a nonempty array of positive integers")
    if not _dimension_within(raw_dims, DENSE_CAP):
        raise SchemaError(f"dims: the total dimension of the {len(raw_dims)} subsystems "
                          f"exceeds the dense cap {DENSE_CAP}")
    layout = SubsystemLayout(tuple(raw_dims))
    total = layout.total_dim

    has_amp = "amplitudes" in obj
    has_mat = "matrix" in obj
    if has_amp == has_mat:
        raise SchemaError("amplitudes/matrix: exactly one of the two is required")
    if "hamiltonian" not in obj:
        raise SchemaError("hamiltonian: missing")

    if has_amp:
        amp = _pairs_to_array(obj["amplitudes"], total, "amplitudes")
        state: State = PureState(layout, amp)
    else:
        mat = _pairs_to_array(obj["matrix"], total * total, "matrix").reshape(total, total)
        state = DensityMatrix(layout, mat)
    hmat = _pairs_to_array(obj["hamiltonian"], total * total, "hamiltonian")
    hamiltonian = Hamiltonian(layout, hmat.reshape(total, total))
    return state, hamiltonian


def load_system(path) -> tuple[State, Hamiltonian]:
    """Read and parse a wire-format JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        # ValueError: bad syntax, non-UTF-8 bytes, too many digits; RecursionError: nesting
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"top level: not valid JSON ({exc})") from exc
    return system_from_json(obj)


def dump_system(state: State, hamiltonian: Hamiltonian, path) -> None:
    """Write a state/Hamiltonian pair as wire-format JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_json(state, hamiltonian), fh)
        fh.write("\n")
