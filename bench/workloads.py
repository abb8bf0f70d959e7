"""The benchmark's four workloads: inputs made from the seed, and the calls into qslsim.

Each workload object builds its inputs when it is created (untimed), then
runs one round of cases per ``run_round`` call.  A round always runs the same
cases, so a run is a whole number of rounds.  The program only ever sees the
generated arrays, specs and files; the oracles that judge the answers live in
``oracles.py`` and never call qslsim.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import qslsim


@dataclass
class Outcome:
    """One operation of a round: its id, its wall time and what it returned."""

    case: str
    start: float  # time.perf_counter() when it began
    seconds: float
    value: Any = None
    error: Optional[str] = None  # the program reported failure


def _timed(case: str, fn: Callable[[], Any]) -> Outcome:
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a program error fails this operation, not the run
        return Outcome(case, start, time.perf_counter() - start,
                       error=f"{type(exc).__name__}: {exc}")
    return Outcome(case, start, time.perf_counter() - start, value)


#: Seed of the spectra and state structures the library batches are made of.
#: It is the same for every ``--seed``; the seed draws the basis each case is
#: handed over in (see ``rotated``), so every seed asks for the same work.
SHAPE_SEED = 206001


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _shapes(stream: int) -> np.random.Generator:
    return np.random.default_rng([SHAPE_SEED, stream])


def warm_up() -> None:
    """Run every library code path once on a tiny fixed system."""
    layout = qslsim.SubsystemLayout((3,))
    h = qslsim.ground_shift(qslsim.Hamiltonian(layout, np.diag([0.5, 1.5, 2.5]).astype(complex)))
    rho = qslsim.DensityMatrix(layout, np.diag([0.5, 0.5, 0.0]).astype(complex))
    qslsim.mixed_state_bound(rho, h)
    qslsim.qsl_time(qslsim.energy_stats(rho, h))
    qslsim.first_orthogonal_time(rho, h)
    state, ham = qslsim.make_collective(qslsim.CollectiveSpec(2, 1.0, 1.0))
    qslsim.first_orthogonal_time(state, ham)
    qslsim.make_grouped(1, 2, 1.0, 1.0)
    qslsim.make_psi_ent(qslsim.EntangledChainSpec(2, 2))


# ---------------------------------------------------------------------------
# random systems (shared by random_small, mixed_wide and the cli files)
# ---------------------------------------------------------------------------


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_density(rng: np.random.Generator, dim: int, rank: int,
                   floor: float = 0.0) -> np.ndarray:
    """Wishart density matrix of the given rank, mixed with ``floor`` * I/dim."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    mat = (1.0 - floor) * mat + floor * np.eye(dim) / dim
    return 0.5 * (mat + mat.conj().T)


def commensurate_system(rng: np.random.Generator, dim: int, k: int, blocks: int,
                        offset: float = 0.0) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Integer spectrum in a random basis; rho mixes uniform k-level superpositions.

    The ``blocks`` superpositions sit on adjacent runs of k consecutive levels,
    so each survival is a Dirichlet kernel with its first zero at 2*pi/k and
    the cross terms vanish: the mixture orthogonalizes at exactly 2*pi/k.
    Adjacent runs keep the energy spread small enough that 2*pi/k lies within
    qslsim's default horizon of 20 speed-limit times.
    Returns rho, the Hamiltonian and the superposition vectors.
    """
    u = random_unitary(rng, dim)
    h = (u * (offset + np.arange(dim, dtype=float))) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    first = int(rng.integers(0, dim - blocks * k + 1))
    starts = first + k * np.arange(blocks)
    weights = rng.uniform(0.5, 1.5, size=blocks)
    weights /= weights.sum()
    vecs = [u[:, s:s + k].sum(axis=1) / math.sqrt(k) for s in starts]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    return 0.5 * (rho + rho.conj().T), h, vecs


def rotated(rng: np.random.Generator, state: np.ndarray,
            h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``state`` (vector or density matrix) and ``h`` in a random basis drawn from ``rng``.

    A common change of basis leaves the survival, and with it every step of
    the solver's search, unchanged up to round-off; only the arrays the
    program gets differ.
    """
    u = random_unitary(rng, h.shape[0])
    h = u @ h @ u.conj().T
    if state.ndim == 1:
        state = u @ state
    else:
        state = u @ state @ u.conj().T
        state = 0.5 * (state + state.conj().T)
    return state, 0.5 * (h + h.conj().T)


@dataclass
class MixedCase:
    """A density matrix and Hamiltonian given to the program as raw arrays."""

    rho: np.ndarray
    h: np.ndarray
    k: Optional[int] = None  # commensurate block size: t_perp must be 2*pi/k


def solve_mixed(case: MixedCase):
    """One case from raw arrays to answer: both bounds and the first zero."""
    layout = qslsim.SubsystemLayout((case.rho.shape[0],))
    h = qslsim.ground_shift(qslsim.Hamiltonian(layout, case.h))
    rho = qslsim.DensityMatrix(layout, case.rho)
    lower = qslsim.mixed_state_bound(rho, h)
    aggregate = qslsim.qsl_time(qslsim.energy_stats(rho, h))
    return aggregate, lower, qslsim.first_orthogonal_time(rho, h)


class _MixedWorkload:
    cases: list[MixedCase]

    def warm_up(self) -> None:
        warm_up()

    def run_round(self) -> list[Outcome]:
        return [_timed(f"{i}", lambda c=c: solve_mixed(c)) for i, c in enumerate(self.cases)]


class RandomSmall(_MixedWorkload):
    """300 systems with D = 2..16, a quarter of them commensurate (criterion 4 mix).

    Case i always has the same D, rank, k and block count.
    """

    name = "random_small"
    CASES = 300

    def __init__(self, seed: int, workdir: Path):
        shapes, rng = _shapes(1), _rng(seed, 1)
        self.cases = []
        for i in range(self.CASES):
            if i % 4 == 0:
                j = i // 4
                k = 3 + j % 3
                blocks = 1 + (j // 3) % 2
                dim = blocks * k + (j // 6) % 4
                rho, h, _ = commensurate_system(shapes, dim, k, blocks)
                self.cases.append(MixedCase(*rotated(rng, rho, h), k))
            else:
                dim = 2 + i % 15
                rho = random_density(shapes, dim, 1 + (i // 15) % dim)
                self.cases.append(MixedCase(*rotated(rng, rho, random_hermitian(shapes, dim))))


class MixedWide(_MixedWorkload):
    """19 density matrices at D = 48..128: full-rank (never orthogonal) or commensurate."""

    name = "mixed_wide"
    #: (D, full-rank states, (k, blocks) of one commensurate mixture) per
    #: dimension.  The ten D = 64 scans hold the middle of the cost
    #: distribution, so the median case is one of many alike.
    DIMENSIONS = ((48, 2, (3, 2)), (64, 10, (6, 5)), (96, 2, (3, 2)), (128, 1, (6, 5)))

    def __init__(self, seed: int, workdir: Path):
        shapes, rng = _shapes(2), _rng(seed, 2)
        self.cases = []
        for dim, full_rank, (k, blocks) in self.DIMENSIONS:
            for _ in range(full_rank):
                rho = random_density(shapes, dim, dim, floor=0.05)
                self.cases.append(MixedCase(*rotated(rng, rho, random_hermitian(shapes, dim))))
            rho, h, _ = commensurate_system(shapes, dim, k, blocks)
            self.cases.append(MixedCase(*rotated(rng, rho, h), k))


# ---------------------------------------------------------------------------
# structured: the paper's constructions on the full matrix
# ---------------------------------------------------------------------------


@dataclass
class StructuredCase:
    kind: str  # "collective", "grouped" or "psi_ent"
    params: dict


class Structured:
    """The paper's constructions at D = 512..2048, solved on the full matrix."""

    name = "structured"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 0)

        def w0() -> float:
            return float(rng.uniform(0.5, 2.0))

        def bits(m: int) -> tuple[int, ...]:
            return tuple(int(b) for b in rng.integers(0, 2, size=m))

        # The ratios are fixed so that every seed asks for the same solver work;
        # the seed draws the frequency scale and the initial bit patterns.
        def collective(m: int, ratio: float) -> StructuredCase:
            omega0 = w0()
            return StructuredCase("collective", dict(
                qubits=m, omega0=omega0, omega=ratio * omega0, bits=bits(m)))

        def grouped(g: int, q: int, omega0: float, ratio: float) -> StructuredCase:
            return StructuredCase("grouped", dict(
                groups=g, per_group=q, omega0=omega0, omega=ratio * omega0))

        def chain(n: int, m: int) -> StructuredCase:
            return StructuredCase("psi_ent", dict(levels=n, subsystems=m, omega0=w0()))

        # Six of the eleven cases are D = 512 assemblies of similar cost, so the
        # median case sits inside that cluster rather than between two sizes.
        self.cases = [
            collective(9, 1.7),
            collective(9, 4.6),
            collective(9, 0.0),
            collective(10, 2.0),
            # ratios near 1 give group factors without a zero
            grouped(3, 3, w0(), 3.6),
            grouped(2, 5, w0(), 2.4),
            StructuredCase("grouped", dict(groups=3, per_group=3, omega0=0.0, omega=w0())),
            chain(2, 9),
            chain(2, 11),
            chain(4, 5),
            chain(8, 3),
        ]

    def warm_up(self) -> None:
        warm_up()

    @staticmethod
    def solve(case: StructuredCase):
        p = case.params
        if case.kind == "collective":
            spec = qslsim.CollectiveSpec(p["qubits"], p["omega0"], p["omega"], p["bits"])
            state, h = qslsim.make_collective(spec)
        elif case.kind == "grouped":
            state, h = qslsim.make_grouped(p["groups"], p["per_group"], p["omega0"], p["omega"])
        else:
            spec = qslsim.EntangledChainSpec(p["levels"], p["subsystems"], p["omega0"])
            state, h, _ = qslsim.make_psi_ent(spec)
        return qslsim.first_orthogonal_time(state, h)

    def run_round(self) -> list[Outcome]:
        return [
            _timed(f"{i}:{c.kind}", lambda c=c: self.solve(c)) for i, c in enumerate(self.cases)
        ]


# ---------------------------------------------------------------------------
# cli: every qsl subcommand as its own process
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    files: Optional[dict] = None  # output files read back after the command


class Cli:
    """Each qsl subcommand run as its own process, one after another."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        shapes, rng = _shapes(3), _rng(seed, 3)
        self.energy = float(rng.uniform(0.5, 3.0))
        self.spread = float(rng.uniform(0.5, 3.0))
        # pure system: D = 512, uniform superposition of k levels of an integer spectrum
        self.pure_k = 5
        _, h, vecs = commensurate_system(
            shapes, 512, self.pure_k, 1, offset=float(shapes.uniform(0.5, 2.0)))
        self.pure = rotated(rng, vecs[0], h)
        # mixed system: D = 64, full rank, random Hamiltonian
        self.mixed = rotated(rng, random_density(shapes, 64, 64, floor=0.05),
                             random_hermitian(shapes, 64))
        self.pure_file = workdir / "pure.json"
        self.mixed_file = workdir / "mixed.json"
        self.fig1_csv = workdir / "fig1.csv"
        self.fig1_svg = workdir / "fig1.svg"
        self.curve_csv = workdir / "curve.csv"
        _write_system(self.pure_file, "amplitudes", *self.pure)
        _write_system(self.mixed_file, "matrix", *self.mixed)
        self.commands = {
            "bound": ["bound", "--energy", repr(self.energy), "--spread", repr(self.spread)],
            "fig1": ["fig1", "--limit", "--out", str(self.fig1_csv), "--svg", str(self.fig1_svg)],
            "ent-scan": ["ent-scan"],
            "mixture-demo": ["mixture-demo", "--out", str(self.curve_csv)],
            "groups-collective": ["groups", "--groups", "3", "--per-group", "3",
                                  "--omega0", "0", "--omega", "1"],
            # exits 4 on every run: the full-matrix cross-check applies a 1e-20
            # survival threshold to a flat product zero; it counts as failed
            "groups-default": ["groups", "--groups", "3", "--per-group", "3"],
            "tperp-pure": ["tperp", str(self.pure_file), "--json"],
            "tperp-mixed": ["tperp", str(self.mixed_file), "--json"],
        }
        self.outputs = {"fig1": (self.fig1_csv, self.fig1_svg), "mixture-demo": (self.curve_csv,)}
        self.cases = list(self.commands)
        self.reference_fig1: Optional[bytes] = None

    def warm_up(self) -> None:
        """Run fig1 once: its CSV is the reference that every round must match."""
        result = run_cli_process(self.commands["fig1"])
        if result.code == 0:
            self.reference_fig1 = self.fig1_csv.read_bytes()

    def _invoke(self, name: str, runner: Callable[[list[str]], CliResult]) -> Outcome:
        files = self.outputs.get(name, ())
        for path in files:  # a file left by the previous round must not pass for this one
            path.unlink(missing_ok=True)
        out = _timed(name, lambda: runner(self.commands[name]))
        if out.error is None and out.value.code != 0:
            out.error = f"exit {out.value.code}: {out.value.stderr.strip()}"
        elif out.error is None:
            out.value.files = {p.suffix: p.read_bytes() if p.exists() else None for p in files}
        return out

    def run_round(self, runner: Optional[Callable[[list[str]], CliResult]] = None) -> list[Outcome]:
        runner = runner or run_cli_process
        return [self._invoke(name, runner) for name in self.commands]


def _write_system(path: Path, key: str, state: np.ndarray, h: np.ndarray) -> None:
    def pairs(arr: np.ndarray) -> list[list[float]]:
        flat = np.asarray(arr, dtype=complex).reshape(-1)
        return np.stack([flat.real, flat.imag], axis=1).tolist()

    obj = {"dims": [h.shape[0]], key: pairs(state), "hamiltonian": pairs(h)}
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def run_cli_process(argv: list[str]) -> CliResult:
    """``qsl <argv>`` in a fresh interpreter (environment set up by run.py)."""
    proc = subprocess.run(
        [sys.executable, "-m", "qslsim.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_cli_in_process(argv: list[str]) -> CliResult:
    """``qslsim.cli.main(argv)`` in this process, output captured."""
    from qslsim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


WORKLOADS = {w.name: w for w in (Structured, RandomSmall, MixedWide, Cli)}
