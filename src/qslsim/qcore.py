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
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence, Union

import numpy as np

#: Default ceiling on the total Hilbert-space dimension.  Dense exact methods
#: only; nine qubits (512) fit comfortably, 4096 is the point where a laptop
#: stops being a reasonable tool.
DENSE_CAP = 4096

NORM_TOL = 1e-12
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
GROUND_TOL = 1e-10
WEIGHT_TOL = 1e-12
EIGENVALUE_DROP = 1e-12


class InvariantViolation(ValueError):
    """A state, operator, or option failed one of its construction invariants."""


class SchemaError(ValueError):
    """A JSON document does not match the state/Hamiltonian wire schema."""


class NumericalFailure(RuntimeError):
    """A dense linear-algebra routine failed or produced inconsistent output."""


# ---------------------------------------------------------------------------
# array helpers
# ---------------------------------------------------------------------------

#: Size and alignment of a transparent huge page on x86-64 and arm64 Linux.
_HUGE_PAGE = 1 << 21


def _dense_empty(rows: int, cols: int) -> np.ndarray:
    """An uninitialized complex matrix; from 4 MiB up, on a huge-page boundary.

    A freshly built D x D matrix costs more in first-touch page faults than in
    arithmetic.  numpy asks the kernel for transparent huge pages on arrays of
    4 MiB or more, but only the 2 MiB-aligned stretches inside an array can
    get them.  Unaligned, a D = 512 matrix takes anywhere from 0 to about 1500
    faults, and up to 1.7x the build time, depending on where the allocator
    places it, which differs from one process to the next.  Starting the array
    on a boundary lets every stretch be a huge page.  Callers that need zeros
    write them with ``fill``: ``np.zeros`` may touch the pages before numpy's
    advice.
    """
    nbytes = rows * cols * 16
    if nbytes < 2 * _HUGE_PAGE:
        return np.empty((rows, cols), dtype=complex)
    raw = np.empty(nbytes + _HUGE_PAGE, dtype=np.uint8)
    start = -raw.ctypes.data % _HUGE_PAGE
    return raw[start:start + nbytes].view(complex).reshape(rows, cols)


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
        if dev > HERM_TOL and dev > HERM_TOL * float(np.abs(arr).max()):
            raise InvariantViolation(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return arr


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

    The product of the local dimensions is capped (default ``DENSE_CAP``) to
    keep exact dense methods feasible; pass ``cap`` to override.
    """

    dims: tuple[int, ...]
    cap: int = field(default=DENSE_CAP, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            dims = tuple(int(d) for d in self.dims)
        except TypeError as exc:
            raise InvariantViolation(f"dims must be a sequence of integers: {exc}") from exc
        if not dims:
            raise InvariantViolation("a layout needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise InvariantViolation(f"local dimensions must be >= 1, got {dims}")
        total = math.prod(dims)
        if total > self.cap:
            raise InvariantViolation(
                f"total dimension {total} exceeds the dense cap {self.cap}"
            )
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
    """Hermitian operator, diagonalized once at construction.

    The constructions whose spectrum is known in closed form hand it over
    instead, through ``_from_eigensystem``.

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
        self._install(_freeze(mat), evals, evecs)  # the copy after eigh keeps the peak low

    @classmethod
    def _from_eigensystem(
        cls,
        layout: SubsystemLayout,
        matrix: np.ndarray,
        evals: np.ndarray,
        evecs: np.ndarray,
    ) -> "Hamiltonian":
        # Internal fast path for matrices whose decomposition is already known
        # (e.g. a ground shift, which only slides the spectrum).  Callers hand
        # over fresh arrays, which are frozen in place rather than copied.
        obj = object.__new__(cls)
        object.__setattr__(obj, "layout", layout)
        obj._install(np.asarray(matrix, dtype=complex), evals, evecs)
        return obj

    def _install(self, matrix: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> None:
        # Python floats: the subtraction gives inf where numpy would warn.  A
        # finite range keeps every shifted diagonal, within [0, range], finite.
        if not math.isfinite(float(evals[-1]) - float(evals[0])):
            raise InvariantViolation(f"hamiltonian spectral range exceeds the float range "
                                     f"(eigenvalues {float(evals[0])!r} to {float(evals[-1])!r})")
        for arr in (matrix, evals, evecs):
            arr.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "ground_energy", float(evals[0]))
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

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
    """V^dagger psi or V^dagger rho V, with V the Hamiltonian's eigenvector columns."""
    evecs = hamiltonian.eigensystem()[1]
    if isinstance(state, PureState):
        # conj(V^T psi*) is V^dagger psi without a conjugated copy of V
        return (evecs.T @ state.amplitudes.conj()).conj()
    return evecs.conj().T @ state.matrix @ evecs


def tensor_product(factors: Sequence[Sequence[complex]],
                   layout: SubsystemLayout | None = None) -> PureState:
    """Kronecker product of normalized local state vectors.

    The amplitude at multi-index (i_0, ..., i_{M-1}) is the product of the
    factor amplitudes.  When ``layout`` is given the factor lengths must match
    its local dimensions.
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
    dims = tuple(v.size for v in vecs)
    if layout is not None and layout.dims != dims:
        raise InvariantViolation(
            f"factor dimensions {dims} do not match the declared layout {layout.dims}"
        )
    lay = layout if layout is not None else SubsystemLayout(dims)
    return PureState(lay, reduce(np.kron, vecs))


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


def _kron_columns(factors: Sequence[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Columns ``order`` of the Kronecker product of the square ``factors``.

    Column (i, j) of A (x) B is A[:, i] (x) B[:, j]; splitting the factors
    into two halves writes the selected columns in one pass, without building
    the full product first.
    """
    unit = np.ones((1, 1), dtype=complex)
    half = len(factors) // 2
    left = reduce(np.kron, factors[:half], unit)
    right = reduce(np.kron, factors[half:], unit)
    i, j = np.divmod(order, right.shape[1])
    out = _dense_empty(left.shape[0] * right.shape[0], order.size)
    np.multiply(left[:, None, i], right[None, :, j],
                out=out.reshape(left.shape[0], right.shape[0], order.size))
    return out


def _local_sum(layout: SubsystemLayout, local_hamiltonians: Sequence[Hamiltonian]) -> Hamiltonian:
    """Sum of local terms, one per consecutive block of the Kronecker order.

    The blocks are the locals' own spaces, which may each span several slots
    of ``layout``.  The spectrum is the Kronecker sum's, lam_i + mu_j with
    eigenvector u_i (x) v_j, so the full matrix is never diagonalized.
    """
    dims = tuple(h.layout.total_dim for h in local_hamiltonians)
    matrix = _dense_empty(layout.total_dim, layout.total_dim)
    matrix.fill(0.0)
    for site, local in enumerate(local_hamiltonians):
        _add_local(matrix, local.matrix, site, dims)
    systems = [h.eigensystem() for h in local_hamiltonians]
    evals = reduce(np.add.outer, (lam for lam, _ in systems)).reshape(-1)
    order = np.argsort(evals, kind="stable")
    evecs = _kron_columns([vecs for _, vecs in systems], order)
    return Hamiltonian._from_eigensystem(layout, matrix, evals[order], evecs)


def noninteracting_hamiltonian(local_hamiltonians: Sequence[Hamiltonian],
                               cap: int = DENSE_CAP) -> Hamiltonian:
    """Sum of single-subsystem Hamiltonians embedded on the full space.

    A sum of ground-shifted commuting local terms is itself ground-shifted.
    """
    if len(local_hamiltonians) == 0:
        raise InvariantViolation("need at least one local hamiltonian")
    layout = SubsystemLayout(tuple(h.layout.total_dim for h in local_hamiltonians), cap=cap)
    return _local_sum(layout, local_hamiltonians)


def ground_shift(hamiltonian: Hamiltonian) -> Hamiltonian:
    """Subtract the minimum eigenvalue so the ground-state energy is zero.

    The dynamics are unchanged up to a global phase; only the energy
    bookkeeping moves.
    """
    evals, evecs = hamiltonian.eigensystem()
    lam0 = hamiltonian.ground_energy
    shifted = hamiltonian.matrix.copy()
    shifted.flat[:: hamiltonian.layout.total_dim + 1] -= lam0
    return Hamiltonian._from_eigensystem(hamiltonian.layout, shifted, evals - lam0, evecs)


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
    return _level_stats(hamiltonian.eigensystem()[0],
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


def system_from_json(obj, cap: int = DENSE_CAP) -> tuple[State, Hamiltonian]:
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
    dims = tuple(raw_dims)
    total = math.prod(dims)
    if total > cap:
        raise SchemaError(f"dims: total dimension {total} exceeds the cap {cap}")
    layout = SubsystemLayout(dims, cap=cap)

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


def load_system(path, cap: int = DENSE_CAP) -> tuple[State, Hamiltonian]:
    """Read and parse a wire-format JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"top level: not valid JSON ({exc})") from exc
    return system_from_json(obj, cap=cap)


def dump_system(state: State, hamiltonian: Hamiltonian, path) -> None:
    """Write a state/Hamiltonian pair as wire-format JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_json(state, hamiltonian), fh)
        fh.write("\n")
