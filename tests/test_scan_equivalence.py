"""The triaged scan and its branch-and-bound minimum against a frozen sequential scan.

``reference_scan`` is the scan as it stood before bracket triage: every
candidate bracket refined one at a time, in time order, by a fine scan and
golden-section search.  It is kept here verbatim as the oracle and run on the
same signal as ``first_orthogonal_time`` or ``collective_t_perp``, so the
comparison isolates the scan (the survival signal is pinned against the
direct sum over level pairs in ``test_dynamics.py``).  The property tests
require the same ``found``, the same first zero (to ``TIME_RESOLUTION`` for
pure states, 1e-8 relative for density matrices, whose survival carries
~1e-16 round-off).  Without a zero, the reported minimum may lie below the
reference's, which can miss an interior minimum of a cell, but never above
it by more than 1e-12 of the purity.  Full-rank density matrices never
orthogonalize, so they exercise the minimum alone.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslsim import (
    CollectiveSpec,
    DensityMatrix,
    Hamiltonian,
    PureState,
    SearchOptions,
    SubsystemLayout,
    collective_overlap_fn,
    collective_t_perp,
    energy_stats,
    first_orthogonal_time,
    ground_shift,
    qsl_time,
    survival,
)
from qslsim import cli, constructions, dynamics
from qslsim.dynamics import (
    HORIZON_MULTIPLIER,
    SCAN_FRACTION,
    TIME_RESOLUTION,
    _SurvivalSignal,
)
from conftest import ScanWork, random_unitary

MIXED_RELATIVE = 1e-8

# ---------------------------------------------------------------------------
# frozen reference: the sequential scan-and-refine
# ---------------------------------------------------------------------------

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_golden_min(fn, a, b, xtol=1e-12, max_iter=200):
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


def _reference_refine_bracket(vec_fn, a, b, accept_tol, subdivisions=64):
    xs = np.linspace(a, b, subdivisions + 1)
    ys = vec_fn(xs)
    scalar = lambda x: float(vec_fn(np.array([x]))[0])
    idx_best = int(np.argmin(ys))
    best_t, best_val = float(xs[idx_best]), float(ys[idx_best])
    for j in range(1, subdivisions):
        if ys[j] <= ys[j - 1] and ys[j] <= ys[j + 1]:
            t, value = _reference_golden_min(scalar, float(xs[j - 1]), float(xs[j + 1]))
            if value < best_val:
                best_t, best_val = t, value
            if value <= accept_tol:
                return True, t, value, best_t, best_val
    return False, None, None, best_t, best_val


def reference_scan(vec_fn, horizon, bandwidth, accept_tol, scan_fraction, scale):
    """(found, t_perp, min_overlap, t_at_min) of the sequential scan."""
    step_target = scan_fraction * math.pi / bandwidth
    count = max(2, int(math.ceil(horizon / step_target)))
    ts = np.linspace(0.0, horizon, count + 1)
    vals = vec_fn(ts)
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
        found, t, value, local_t, local_val = _reference_refine_bracket(vec_fn, lo, hi, accept_tol)
        if local_val < best_val:
            best_t, best_val = local_t, local_val
        if found:
            return True, t, max(value, 0.0), t
    if vals[count] <= accept_tol:
        return True, horizon, float(vals[count]), horizon
    return False, None, max(best_val, 0.0), best_t


def reference_first_orthogonal_time(state, hamiltonian, opts, scan_fraction):
    signal = _SurvivalSignal(state, hamiltonian)
    if signal.bandwidth <= 1e-12:
        return False, None, signal.initial, 0.0
    horizon = HORIZON_MULTIPLIER * qsl_time(energy_stats(state, hamiltonian)).time
    return reference_scan(signal.evaluate, horizon, signal.bandwidth, opts.ortho_tol,
                          scan_fraction, signal.initial)


def solve_at(scan_fraction, solve, *args):
    """``solve(*args)`` with the solver's scan step set to ``scan_fraction``."""
    with mock.patch.object(dynamics, "SCAN_FRACTION", scan_fraction):
        return solve(*args)


# ---------------------------------------------------------------------------
# random systems
# ---------------------------------------------------------------------------


def random_system(seed: int, dim: int, mixed: bool, commensurate: bool, rank: int):
    """A ground-shifted system of dimension ``dim`` in a random basis.

    Commensurate systems have an integer spectrum and states built from
    uniform superpositions of k consecutive levels (two disjoint blocks of
    equal size for a mixed state), whose survival vanishes at 2*pi/k.  The
    others have a spectrum drawn uniformly from [0, 3) and a random state
    of the given rank (a pure state when not ``mixed``).
    """
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout((dim,))
    u = random_unitary(rng, dim)
    if commensurate:
        evals = np.arange(dim, dtype=float)
        k = int(rng.integers(2, dim // 2 + 1)) if mixed else int(rng.integers(2, dim + 1))
        start = int(rng.integers(0, dim - (2 if mixed else 1) * k + 1))
        block = u[:, start:start + k].sum(axis=1) / math.sqrt(k)
        vecs, probs = [block], [1.0]
        if mixed:
            p = float(rng.uniform(0.2, 0.8))
            vecs.append(u[:, start + k:start + 2 * k].sum(axis=1) / math.sqrt(k))
            probs = [p, 1.0 - p]
    else:
        evals = np.sort(rng.uniform(0.0, 3.0, dim))
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        vecs = list((g / np.linalg.norm(g, axis=0)).T)
        probs = list(rng.dirichlet(np.ones(rank))) if mixed else [1.0]
        vecs = vecs[:len(probs)]
    h = ground_shift(Hamiltonian(layout, (u * evals) @ u.conj().T))
    if not mixed:
        return PureState(layout, vecs[0] / np.linalg.norm(vecs[0])), h
    mat = sum(p * np.outer(v, v.conj()) for p, v in zip(probs, vecs))
    return DensityMatrix(layout, 0.5 * (mat + mat.conj().T)), h


def assert_same_answer(result, reference, purity, mixed_state):
    found, t_perp, min_overlap, _ = reference
    assert result.found == found
    if found:
        tol = MIXED_RELATIVE * t_perp if mixed_state else TIME_RESOLUTION
        assert abs(result.t_perp - t_perp) <= tol
        assert abs(result.min_overlap - min_overlap) <= 1e-12 * purity
    else:
        assert result.min_overlap <= min_overlap + 1e-12 * purity


#: Scan fractions from the finest the tests use to a step of one half-period,
#: with the solver's own among them.
scan_fractions = st.one_of(st.just(0.05), st.just(SCAN_FRACTION), st.floats(0.05, 1.0))


class TestAgainstSequentialScan:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 12),
        mixed=st.booleans(),
        commensurate=st.booleans(),
        rank_fraction=st.floats(0.0, 1.0),
        ortho_exponent=st.floats(-12.0, -6.0),
        scan_fraction=scan_fractions,
    )
    def test_same_answer(self, seed, dim, mixed, commensurate, rank_fraction,
                         ortho_exponent, scan_fraction):
        if commensurate and mixed and dim < 4:
            dim = 4
        rank = 1 + int(rank_fraction * (dim - 1))
        state, h = random_system(seed, dim, mixed, commensurate, rank)
        opts = SearchOptions(ortho_tol=10.0 ** ortho_exponent)
        result = solve_at(scan_fraction, first_orthogonal_time, state, h, opts)
        reference = reference_first_orthogonal_time(state, h, opts, scan_fraction)
        mixed_state = isinstance(state, DensityMatrix)
        purity = float(np.vdot(state.matrix, state.matrix).real) if mixed_state else 1.0
        assert_same_answer(result, reference, purity, mixed_state)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 12),
        scan_fraction=scan_fractions,
    )
    @example(seed=1272494, dim=8, scan_fraction=0.25)
    def test_same_minimum_on_full_rank_states(self, seed, dim, scan_fraction):
        state, h = random_system(seed, dim, True, False, dim)
        opts = SearchOptions()
        result = solve_at(scan_fraction, first_orthogonal_time, state, h, opts)
        reference = reference_first_orthogonal_time(state, h, opts, scan_fraction)
        purity = float(np.vdot(state.matrix, state.matrix).real)
        assert_same_answer(result, reference, purity, True)

    @settings(max_examples=40, deadline=None)
    @given(
        qubits=st.integers(1, 12),
        omega0=st.floats(0.1, 2.0),
        ratio=st.floats(0.0, 5.0),
        amplitude_exponent=st.floats(-10.0, -4.0),
        scan_fraction=scan_fractions,
    )
    def test_same_answer_on_collective_model(self, qubits, omega0, ratio,
                                             amplitude_exponent, scan_fraction):
        spec = CollectiveSpec(qubits, omega0, ratio * omega0)
        amplitude_tol = 10.0 ** amplitude_exponent
        with mock.patch.object(constructions, "_AMPLITUDE_TOL", amplitude_tol):
            result = solve_at(scan_fraction, collective_t_perp, spec)
        reference = reference_scan(
            lambda ts: np.abs(collective_overlap_fn(spec, ts)) ** 2,
            HORIZON_MULTIPLIER * spec.t_qsl,
            2.0 * (spec.omega + spec.qubits * spec.omega0),
            amplitude_tol ** 2,
            scan_fraction,
            1.0,
        )
        assert_same_answer(result, reference, 1.0, False)


def test_minimum_inside_the_last_cell():
    # The reference stops at the horizon, 44.2322606, with 0.0744996509953;
    # the signal dips lower inside the last cell.  A grid of 2,000,001 points
    # (spacing dx ~ 2.2e-5) locates that minimum: with |s''| <= curvature =
    # bandwidth^2 * purity / 2 the signal lies at most curvature * dx^2 / 8
    # below the lowest grid value.
    state, h = random_system(1272494, 8, True, False, 8)
    opts = SearchOptions()
    result = solve_at(0.25, first_orthogonal_time, state, h, opts)
    assert not result.found
    ts = np.linspace(0.0, result.horizon, 2_000_001)
    lowest = float(survival(state, h, ts).min())
    _, _, reference_min, reference_t = reference_first_orthogonal_time(state, h, opts, 0.25)
    assert reference_t == result.horizon and reference_min > lowest
    purity = float(np.vdot(state.matrix, state.matrix).real)
    curvature = _SurvivalSignal(state, h).bandwidth ** 2 * purity / 2.0
    dx = ts[1] - ts[0]
    assert lowest - curvature * dx * dx / 8.0 <= result.min_overlap <= lowest
    assert result.min_overlap == pytest.approx(0.0744995921205, abs=1e-12)
    assert survival(state, h, result.t_at_min) == pytest.approx(result.min_overlap, abs=1e-15)
    assert result.t_at_min < result.horizon - 1e-3


# ---------------------------------------------------------------------------
# curvature triage and golden sections that give up
# ---------------------------------------------------------------------------


def bernstein_only(monkeypatch):
    """Turn the solver back into its Bernstein-only form: every scan ignores
    the curvature it is given, and no golden section gives up."""
    scan, golden_min = dynamics.scan_first_zero, dynamics._golden_min

    def scan_without_curvature(*args, curvature=math.inf, **kwargs):
        return scan(*args, **kwargs)

    def never_give_up(fn, a, b, fa, fb, xtol, rate, goal):
        return golden_min(fn, a, b, fa, fb, xtol, rate, math.inf)

    for module in (dynamics, constructions, cli):
        monkeypatch.setattr(module, "scan_first_zero", scan_without_curvature)
    monkeypatch.setattr(dynamics, "_golden_min", never_give_up)


def test_triage_and_give_up_keep_every_answer(scan_work, monkeypatch):
    # The two only drop searches whose result would be thrown away, so every
    # answer keeps its bits; the batch must cost strictly fewer signal samples.
    systems = []
    for seed in range(48):
        dim, mixed, commensurate = 2 + seed % 9, seed % 2 == 1, seed % 3 == 0
        dim = max(dim, 4) if mixed and commensurate else dim
        systems.append(random_system(seed, dim, mixed, commensurate, 1 + seed % dim))
    specs = [CollectiveSpec(q, 0.7, ratio * 0.7) for q in (1, 3, 9) for ratio in (0.0, 1.7, 4.6)]

    def answers():
        return ([repr(first_orthogonal_time(state, h)) for state, h in systems]
                + [repr(collective_t_perp(spec)) for spec in specs])

    triaged = answers()
    work = dataclasses.replace(scan_work)
    bernstein_only(monkeypatch)
    reference = answers()
    assert triaged == reference
    reference_work = ScanWork(*(after - before for after, before in zip(
        dataclasses.astuple(scan_work), dataclasses.astuple(work))))
    assert work.points < reference_work.points
    assert work.scalar_calls <= reference_work.scalar_calls
    assert work.calls <= reference_work.calls
    # the triage drops over a quarter of the points (numpy 2.4 on x86-64:
    # 27212 against 37530); less than a fifth is a regression of the triage
    # or of the give-up rule
    assert work.points <= 0.8 * reference_work.points


# ---------------------------------------------------------------------------
# certified Newton steps for the minimum when there is no zero
# ---------------------------------------------------------------------------


def test_certified_newton_steps_cut_the_minimum_search(scan_work, monkeypatch):
    # Generic random systems never orthogonalize, so every solve ends in
    # branch and bound.  There bisection alone ran ~20 levels per solve;
    # convex cells closed by Newton steps must take under a third of its
    # calls, derivative calls included, and keep every minimum within the
    # 1e-13 * s(0) contract of bisection's.
    systems = [random_system(seed, 3 + seed % 10, seed % 2 == 1, False, 1 + seed % 4)
               for seed in range(24)]
    phase = ScanWork()
    lower_minimum = dynamics._lower_minimum

    def counted(*args, **kwargs):
        before = dataclasses.astuple(scan_work)
        try:
            return lower_minimum(*args, **kwargs)
        finally:
            for field, start, end in zip(dataclasses.fields(phase), before,
                                         dataclasses.astuple(scan_work)):
                setattr(phase, field.name, getattr(phase, field.name) + end - start)

    monkeypatch.setattr(dynamics, "_lower_minimum", counted)
    certified = [first_orthogonal_time(state, h) for state, h in systems]
    newton = dataclasses.replace(phase)
    scan = dynamics.scan_first_zero
    monkeypatch.setattr(dynamics, "scan_first_zero",
                        lambda *args, derivatives=None, **kwargs: scan(*args, **kwargs))
    phase.__init__()
    bisected = [first_orthogonal_time(state, h) for state, h in systems]

    assert not any(r.found for r in bisected)
    for (state, h), new, old in zip(systems, certified, bisected):
        scale = _SurvivalSignal(state, h).initial
        assert not new.found and abs(new.min_overlap - old.min_overlap) <= 1e-13 * scale
        assert survival(state, h, new.t_at_min) == pytest.approx(new.min_overlap, abs=1e-15)
    # numpy 2.4 on x86-64: 99 calls against 480 (20 levels per solve)
    assert phase.calls == 20 * len(systems) and phase.derivative_calls == 0
    assert newton.derivative_calls == newton.calls
    assert newton.calls < phase.calls / 3
