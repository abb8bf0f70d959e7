"""Tests for unitary evolution and the first-orthogonality-time solver."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qslsim import (
    DensityMatrix,
    EntangledChainSpec,
    Hamiltonian,
    InvariantViolation,
    PureState,
    SearchOptions,
    SubsystemLayout,
    energy_stats,
    evolve,
    first_orthogonal_time,
    ground_shift,
    make_grouped,
    make_psi_ent,
    qsl_time,
    scan_first_zero,
    state_overlap,
    survival,
)
from qslsim import dynamics
from qslsim.dynamics import _EVAL_BUDGET, HORIZON_MULTIPLIER, _SurvivalSignal
from conftest import random_density, random_pure, random_shifted_hamiltonian, random_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qubit_system():
    lay = SubsystemLayout((2,))
    state = PureState(lay, np.array([INV_SQRT2, INV_SQRT2]))
    h = Hamiltonian(lay, np.diag([0.0, 1.0]).astype(complex))
    return state, h


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


class TestEvolve:
    def test_zero_time_is_identity(self, rng):
        state = random_pure(rng, 4)
        h = random_shifted_hamiltonian(rng, 4)
        out = evolve(state, h, 0.0)
        assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_eigenstate_picks_up_global_phase(self):
        lay = SubsystemLayout((2,))
        h = Hamiltonian(lay, np.diag([0.0, 1.0]).astype(complex))
        excited = PureState(lay, np.array([0.0, 1.0], dtype=complex))
        out = evolve(excited, h, 0.7)
        assert_allclose(out.amplitudes, np.exp(-1j * 0.7) * excited.amplitudes, atol=1e-12)
        assert survival(excited, h, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_half_period_flips_plus_to_minus(self):
        state, h = qubit_system()
        out = evolve(state, h, math.pi)
        expected = np.array([INV_SQRT2, -INV_SQRT2], dtype=complex)
        assert_allclose(out.amplitudes, expected, atol=1e-12)
        assert state_overlap(out, state) == pytest.approx(0.0, abs=1e-12)

    def test_composition(self, rng):
        state = random_pure(rng, 5)
        h = random_shifted_hamiltonian(rng, 5)
        a = evolve(evolve(state, h, 0.4), h, 0.9)
        b = evolve(state, h, 1.3)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-9

    def test_backward_evolution_inverts(self, rng):
        state = random_pure(rng, 3)
        h = random_shifted_hamiltonian(rng, 3)
        back = evolve(evolve(state, h, 0.8), h, -0.8)
        assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_density_matrix_conjugation(self, rng):
        rho = random_density(rng, 3)
        h = random_shifted_hamiltonian(rng, 3)
        t = 0.6
        out = evolve(rho, h, t)
        assert isinstance(out, DensityMatrix)
        # oracle: conjugate with the exponential built from the eigensystem
        evals, evecs = h.eigensystem()
        u = evecs @ np.diag(np.exp(-1j * evals * t)) @ evecs.conj().T
        assert_allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-10)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_energy_conserved(self, rng):
        for _ in range(5):
            state = random_pure(rng, 6)
            h = random_shifted_hamiltonian(rng, 6)
            before = energy_stats(state, h)
            after = energy_stats(evolve(state, h, 2.3), h)
            assert after.energy == pytest.approx(before.energy, abs=1e-9)
            assert after.spread == pytest.approx(before.spread, abs=1e-9)

    def test_rejects_nonfinite_time(self, rng):
        state = random_pure(rng, 2)
        h = random_shifted_hamiltonian(rng, 2)
        with pytest.raises(InvariantViolation, match="finite"):
            evolve(state, h, math.inf)

    def test_layout_mismatch(self, rng):
        state = random_pure(rng, 2)
        h = random_shifted_hamiltonian(rng, 3)
        with pytest.raises(InvariantViolation, match="mismatch"):
            evolve(state, h, 0.1)


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


class TestSurvival:
    def test_starts_at_one_for_pure(self, rng):
        state = random_pure(rng, 4)
        h = random_shifted_hamiltonian(rng, 4)
        assert survival(state, h, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_closed_form(self):
        state, h = qubit_system()
        for t in (math.pi / 3, math.pi / 2, math.pi):
            assert survival(state, h, t) == pytest.approx(math.cos(t / 2) ** 2, abs=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        state = random_pure(rng, 5)
        h = random_shifted_hamiltonian(rng, 5)
        ts = np.linspace(0.0, 3.0, 17)
        vec = survival(state, h, ts)
        assert vec.shape == ts.shape
        for t, v in zip(ts, vec):
            assert survival(state, h, float(t)) == pytest.approx(v, abs=1e-13)

    def test_matches_evolve_plus_overlap(self, rng):
        for _ in range(3):
            rho = random_density(rng, 4)
            h = random_shifted_hamiltonian(rng, 4)
            for t in (0.3, 1.1, 2.9):
                direct = state_overlap(evolve(rho, h, t), rho)
                assert survival(rho, h, t) == pytest.approx(direct, abs=1e-11)

    def test_entangled_chain_zero(self):
        # N=2, M=2, w0=1: the overlap vanishes at 2*pi/(N*M*w0) = pi/2
        state, h, t_perp = make_psi_ent(EntangledChainSpec(2, 2, 1.0))
        assert t_perp == pytest.approx(math.pi / 2)
        assert survival(state, h, t_perp) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_starts_at_purity(self, rng):
        rho = random_density(rng, 3)
        h = random_shifted_hamiltonian(rng, 3)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert survival(rho, h, 0.0) == pytest.approx(purity, abs=1e-12)


class TestCosineSumSignal:
    """The survival signal against the direct sum over all D^2 level pairs."""

    @staticmethod
    def direct_sum(rho, h, ts):
        # sum_{ab} |rho_ab|^2 exp(-i (lam_a - lam_b) t) in the eigenbasis, all D^2 terms
        evals, evecs = h.eigensystem()
        coeffs = np.abs(evecs.conj().T @ rho.matrix @ evecs) ** 2
        gaps = (evals[:, None] - evals[None, :]).reshape(-1)
        return (np.exp(-1j * np.outer(ts, gaps)) @ coeffs.reshape(-1)).real

    @staticmethod
    def degenerate_system(rng, dim):
        # exactly repeated integer levels (a diagonal H keeps them exact):
        # zero gaps and many equal gaps
        evals = np.sort(rng.integers(0, 4, dim).astype(float))
        evals -= evals[0]
        h = Hamiltonian(SubsystemLayout((dim,)), np.diag(evals).astype(complex))
        return random_density(rng, dim, rank=3), h

    def test_matches_direct_sum_and_evolution(self, rng):
        systems = [(random_density(rng, 6), random_shifted_hamiltonian(rng, 6)),
                   (random_density(rng, 7, rank=1), random_shifted_hamiltonian(rng, 7)),
                   (random_density(rng, 8, rank=2), random_shifted_hamiltonian(rng, 8)),
                   self.degenerate_system(rng, 9)]
        ts = np.linspace(0.0, 9.0, 37)
        for rho, h in systems:
            values = _SurvivalSignal(rho, h).evaluate(ts)
            assert_allclose(values, self.direct_sum(rho, h, ts), rtol=0, atol=1e-13)
            for t, value in zip(ts[::6], values[::6]):
                direct = state_overlap(evolve(rho, h, float(t)), rho)
                assert value == pytest.approx(direct, abs=1e-13)

    def test_merges_equal_levels(self, rng):
        rho, h = self.degenerate_system(rng, 9)
        signal = _SurvivalSignal(rho, h)
        evals = h.eigensystem()[0]
        levels = np.unique(evals)
        assert levels.size <= 4
        # one row of the factor per distinct eigenvalue, at most min(L, rank^2) columns
        assert np.array_equal(signal._phase_rates.ravel(), -1j * levels)
        assert signal._weights.shape[0] == levels.size
        assert signal._weights.shape[1] <= min(levels.size, 9)
        assert signal.bandwidth == pytest.approx(evals.max(), abs=1e-12)

    @staticmethod
    def frozen_unique_setup(state, h):
        # the signal's level set-up as it was with np.unique: (phase rates, weights)
        evals = h.eigensystem()[0]
        rotated = dynamics._in_eigenbasis(state, h)
        levels, level = np.unique(evals, return_inverse=True)
        if isinstance(state, PureState):
            factor = np.bincount(level, weights=dynamics._populations(rotated))[:, None]
        else:
            levels, factor = dynamics._mixed_factor(np.abs(rotated) ** 2, levels, level)
        return -1j * levels[None, :], np.ascontiguousarray(factor, dtype=complex)

    def test_level_runs_match_the_frozen_unique_setup(self, rng):
        grouped, chain = make_grouped(2, 3, 1.0, 0.5), make_psi_ent(EntangledChainSpec(3, 3, 0.7))
        systems = [self.degenerate_system(rng, 9), grouped, chain[:2],
                   (random_density(rng, 64, rank=2), grouped[1]),
                   (random_density(rng, 27, rank=4), chain[1])]
        for dim in (5, 12, 40):
            # exact repeats injected into a random spectrum, in a random basis
            evals = np.sort(rng.uniform(0.0, 3.0, dim))
            evals[rng.integers(1, dim, dim // 2)] = evals[0]
            evals = np.sort(np.repeat(evals, rng.integers(1, 4, dim)))[:dim] - evals[0]
            u = random_unitary(rng, dim)
            matrix = (u * evals) @ u.conj().T
            h = Hamiltonian._from_eigensystem(SubsystemLayout((dim,)), lambda m=matrix: m,
                                              evals, [u], np.arange(dim))
            systems += [(random_pure(rng, dim), h), (random_density(rng, dim, rank=3), h)]
        for state, h in systems:
            signal = _SurvivalSignal(state, h)
            rates, weights = self.frozen_unique_setup(state, h)
            assert np.array_equal(signal._phase_rates, rates)
            assert np.array_equal(signal._weights, weights)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_factor_columns_bounded_by_rank_squared(self, rng, rank):
        rho, h = random_density(rng, 16, rank=rank), random_shifted_hamiltonian(rng, 16)
        signal = _SurvivalSignal(rho, h)
        assert signal._weights.shape == (16, min(16, rank * rank))
        ts = np.linspace(0.0, 9.0, 37)
        assert_allclose(signal.evaluate(ts), self.direct_sum(rho, h, ts), rtol=0, atol=1e-13)

    def test_pure_factor_is_the_level_populations(self, rng):
        state, h = random_pure(rng, 7), random_shifted_hamiltonian(rng, 7)
        signal = _SurvivalSignal(state, h)
        evecs = h.eigensystem()[1]
        populations = np.abs(evecs.conj().T @ state.amplitudes) ** 2
        assert signal._weights.shape == (7, 1)
        assert_allclose(signal._weights[:, 0], populations, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_commensurate_mixture_found_at_two_pi_over_k(self, rng, rank, k):
        # rank uniform k-level superpositions on disjoint runs of an integer
        # spectrum (random basis): each is a Dirichlet kernel with its first
        # zero at 2*pi/k, and the cross terms vanish, so the mixture is
        # orthogonal at exactly 2*pi/k.  A sum of squares keeps that zero sharp.
        for _ in range(4):
            dim = rank * k + int(rng.integers(0, 16 - rank * k + 1))
            u = random_unitary(rng, dim)
            h = ground_shift(Hamiltonian(SubsystemLayout((dim,)),
                                         (u * np.arange(dim, dtype=float)) @ u.conj().T))
            first = int(rng.integers(0, dim - rank * k + 1))
            weights = rng.uniform(0.5, 1.5, size=rank)
            weights /= weights.sum()
            mat = sum(w * np.outer(v, v.conj()) for w, v in zip(
                weights, (u[:, s:s + k].sum(axis=1) / math.sqrt(k)
                          for s in first + k * np.arange(rank))))
            rho = DensityMatrix(h.layout, 0.5 * (mat + mat.conj().T))
            res = first_orthogonal_time(rho, h)
            assert res.found
            assert res.t_perp == pytest.approx(2.0 * math.pi / k, rel=1e-12)

    def test_d128_blocks_stay_within_budget(self, rng):
        rho = random_density(rng, 128)
        h = random_shifted_hamiltonian(rng, 128)
        signal = _SurvivalSignal(rho, h)
        ts = np.linspace(0.0, 50.0, 4001)
        assert signal._weights.size * ts.size > 100 * _EVAL_BUDGET  # many blocks
        tracemalloc.start()
        try:
            values = signal.evaluate(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block of cosines (8 bytes per time x term) plus the output and
        # small per-block vectors; the whole scan at once would take ~260 MB
        assert peak <= 8 * _EVAL_BUDGET + 2 * values.nbytes + (1 << 16)
        picks = np.arange(0, ts.size, 997)  # across block boundaries
        assert_allclose(values[picks], self.direct_sum(rho, h, ts[picks]), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# scan_first_zero on analytic signals
# ---------------------------------------------------------------------------


class TestScanFirstZero:
    def test_cosine_squared(self):
        fn = lambda ts: np.cos(ts) ** 2
        res = scan_first_zero(fn, horizon=10.0, bandwidth=2.0, accept_tol=1e-18, scale=1.0)
        assert res.found
        assert res.t_perp == pytest.approx(math.pi / 2, abs=1e-10)

    def test_flat_high_order_zero(self):
        fn = lambda ts: np.cos(ts) ** 18
        res = scan_first_zero(fn, horizon=10.0, bandwidth=18.0, accept_tol=1e-20, scale=1.0)
        assert res.found
        assert res.t_perp == pytest.approx(math.pi / 2, abs=1e-10)

    def test_no_zero_reports_minimum(self):
        fn = lambda ts: 0.2 + np.sin(ts) ** 2
        res = scan_first_zero(fn, horizon=7.0, bandwidth=2.0, accept_tol=1e-9, scale=1.2)
        assert not res.found
        assert res.min_overlap == pytest.approx(0.2, abs=1e-6)
        assert res.horizon == 7.0

    def test_invalid_arguments(self):
        fn = lambda ts: np.cos(ts) ** 2
        with pytest.raises(InvariantViolation):
            scan_first_zero(fn, horizon=-1.0, bandwidth=1.0, accept_tol=1e-9, scale=1.0)
        with pytest.raises(InvariantViolation):
            scan_first_zero(fn, horizon=1.0, bandwidth=0.0, accept_tol=1e-9, scale=1.0)

    @pytest.mark.parametrize("horizon", [1e9, 1.5e308])
    def test_horizon_beyond_the_sample_cap_is_invalid(self, horizon):
        # at 1.5e308 the sample count itself overflows to inf
        fn = lambda ts: np.cos(ts) ** 2
        with pytest.raises(InvariantViolation, match="shorten the horizon"):
            scan_first_zero(fn, horizon=horizon, bandwidth=2.0, accept_tol=1e-9, scale=1.0)

    @pytest.mark.parametrize("omega", [1.0, 1e160, 1e300])
    def test_bound_stays_finite_at_any_bandwidth(self, omega):
        # squared, a bandwidth above ~1.3e154 overflows the Bernstein bound to
        # inf: every branch-and-bound cell then stays live down to xtol and the
        # cell arrays double at each level until memory runs out
        def fn(ts):
            assert np.size(ts) <= 100_000, "branch and bound kept every cell"
            return 0.6 + 0.4 * np.cos(omega * ts)

        res = scan_first_zero(fn, horizon=10.0 / omega, bandwidth=omega,
                              accept_tol=1e-9, scale=1.0)
        assert not res.found
        assert res.min_overlap == pytest.approx(0.2, abs=1e-12)
        assert res.t_at_min * omega == pytest.approx(math.pi, rel=1e-6)

    def test_returns_first_of_many_zeros(self):
        # zeros at pi/2 + k*pi; must return the first
        fn = lambda ts: np.cos(ts) ** 2
        res = scan_first_zero(fn, horizon=50.0, bandwidth=2.0, accept_tol=1e-18, scale=1.0)
        assert res.t_perp == pytest.approx(math.pi / 2, abs=1e-10)

    def test_deeper_minimum_behind_higher_sample(self):
        # 0.6 + 0.3 cos(t - t0) + 0.004 cos((t - t0) / 3) dips to 0.302 at
        # t0 + pi and to 0.296 at t0 + 3*pi.  The step h = 2*pi/8.5 puts a
        # sample on the shallow dip and the deep one halfway between samples.
        h = 2.0 * math.pi / 8.5
        t0 = 5.0 * h - math.pi
        fn = lambda ts: 0.6 + 0.3 * np.cos(ts - t0) + 0.004 * np.cos((ts - t0) / 3.0)
        horizon = 16.0 * h
        samples = fn(np.linspace(0.0, horizon, 17))
        assert samples[5] == pytest.approx(0.302, abs=1e-12)
        assert min(samples[13], samples[14]) > samples[5] + 0.01
        res = scan_first_zero(fn, horizon=horizon, bandwidth=1.0, accept_tol=1e-9, scale=1.0)
        assert not res.found
        assert res.min_overlap == pytest.approx(0.296, abs=1e-12)
        assert res.t_at_min == pytest.approx(t0 + 3.0 * math.pi, abs=1e-6)

    def test_zero_after_shallow_dips_is_returned(self, monkeypatch):
        # 0.5 + 0.4 cos t + 0.1 cos(t/7) dips to 0.19, 0.12 and 0.04 at pi,
        # 3 pi and 5 pi, and to an exact zero at 7 pi.  At scan fraction 0.1
        # the Bernstein margin is ~0.012, so only the last dip may hold a zero.
        fn = lambda ts: 0.5 + 0.4 * np.cos(ts) + 0.1 * np.cos(ts / 7.0)
        refined = []
        original = dynamics._refine_bracket

        def spy(vec_fn, a, b, accept_tol, *args):
            refined.append((a, b))
            return original(vec_fn, a, b, accept_tol, *args)

        monkeypatch.setattr(dynamics, "_refine_bracket", spy)
        with mock.patch.object(dynamics, "SCAN_FRACTION", 0.1):
            res = scan_first_zero(fn, horizon=30.0, bandwidth=1.0, accept_tol=1e-12, scale=1.0)
        assert res.found
        assert res.t_perp == pytest.approx(7.0 * math.pi, abs=1e-6)
        # only brackets of the last dip were refined one at a time
        assert refined and all(a > 6.0 * math.pi for a, _ in refined)

    def test_zero_capable_bracket_without_reachable_fine_minimum(self, monkeypatch):
        # 0.5 (1 + cos t) + 0.01 has a sample on its minimum 0.01 at pi, within
        # the coarse margin ~0.039 but far above the fine one ~4e-5: the
        # bracket is scanned finely, but no golden section runs.
        fn = lambda ts: 0.5 * (1.0 + np.cos(ts)) + 0.01
        refined, golden = [], []
        refine, golden_min = dynamics._refine_bracket, dynamics._golden_min

        def refine_spy(*args):
            refined.append(args[1:3])
            return refine(*args)

        def golden_spy(*args, **kwargs):
            golden.append(args[1:3])
            return golden_min(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_refine_bracket", refine_spy)
        monkeypatch.setattr(dynamics, "_golden_min", golden_spy)
        res = scan_first_zero(fn, horizon=2.0 * math.pi, bandwidth=1.0, accept_tol=1e-9,
                              scale=1.01)
        assert refined and not golden
        assert not res.found
        assert res.min_overlap == pytest.approx(0.01, abs=1e-13)
        assert res.t_at_min == pytest.approx(math.pi, abs=1e-6)

    @pytest.mark.parametrize("scan_fraction", [0.05, 0.25, 1.0])
    def test_min_only_pass_matches_mpmath(self, scan_fraction):
        # c + sum_k w_k cos(g_k t) with c = sum_k w_k + 0.05 never drops to
        # 0.05.  Its minimum over the horizon: an mpmath root of s' from every
        # minimum of a dense grid that lies near the grid's lowest value.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(2003)
        for _ in range(4):
            w = rng.uniform(0.1, 1.0, 6)
            g = rng.uniform(0.3, 2.0, 6)
            c = float(w.sum()) + 0.05
            scale = c + float(w.sum())
            fn = lambda ts: c + np.cos(np.multiply.outer(ts, g)) @ w
            with mock.patch.object(dynamics, "SCAN_FRACTION", scan_fraction):
                res = scan_first_zero(fn, horizon=40.0, bandwidth=float(g.max()),
                                      accept_tol=1e-9, scale=scale)
            assert not res.found

            wm, gm = [mpmath.mpf(float(x)) for x in w], [mpmath.mpf(float(x)) for x in g]
            s = lambda t: c + mpmath.fsum(a * mpmath.cos(b * t) for a, b in zip(wm, gm))
            ds = lambda t: -mpmath.fsum(a * b * mpmath.sin(b * t) for a, b in zip(wm, gm))
            grid = np.linspace(0.0, 40.0, 400_001)
            ys = fn(grid)
            dips = np.flatnonzero((ys[1:-1] <= ys[:-2]) & (ys[1:-1] <= ys[2:])) + 1
            exact = min(s(mpmath.findroot(ds, float(grid[j])))
                        for j in dips if ys[j] < ys.min() + 1e-6)
            assert abs(res.min_overlap - float(exact)) <= 1e-13 * scale

    def test_min_overlap_is_survival_at_t_at_min(self, rng):
        for state in (random_density(rng, 6), random_pure(rng, 6)):
            h = random_shifted_hamiltonian(rng, 6)
            with mock.patch.object(dynamics, "SCAN_FRACTION", 0.05):
                res = first_orthogonal_time(state, h, SearchOptions(horizon=20.0))
            assert not res.found
            assert abs(survival(state, h, res.t_at_min) - res.min_overlap) <= 1e-15

    def test_flat_zero_below_the_tolerance_ends_at_the_zero_floor(self, monkeypatch):
        # the product survival cos^16 t stays below 1e-13 across a valley ~0.3
        # wide; a cell bound below 0 would keep its cells live down to ~1e-7 width
        evaluate, points = _SurvivalSignal.evaluate, []

        def counted(signal, ts):
            points.append(np.size(ts))
            return evaluate(signal, ts)

        monkeypatch.setattr(_SurvivalSignal, "evaluate", counted)
        res = first_orthogonal_time(*make_grouped(4, 2, 1.0, 0.0), SearchOptions(ortho_tol=1e-300))
        assert not res.found and res.min_overlap <= 1e-13
        assert sum(points) < 100_000


# ---------------------------------------------------------------------------
# first_orthogonal_time
# ---------------------------------------------------------------------------


class TestFirstOrthogonalTime:
    def test_eigenstate_not_found(self):
        lay = SubsystemLayout((2,))
        h = Hamiltonian(lay, np.diag([0.0, 1.0]).astype(complex))
        excited = PureState(lay, np.array([0.0, 1.0], dtype=complex))
        res = first_orthogonal_time(excited, h)
        assert not res.found
        assert res.min_overlap == pytest.approx(1.0, abs=1e-12)

    def test_saturating_qubit(self):
        state, h = qubit_system()
        res = first_orthogonal_time(state, h, SearchOptions(horizon=10.0))
        assert res.found
        assert res.t_perp == pytest.approx(math.pi, abs=1e-9)
        assert res.horizon == 10.0

    def test_entangled_chain(self):
        state, h, analytic = make_psi_ent(EntangledChainSpec(3, 2, 1.0))
        res = first_orthogonal_time(state, h)
        assert res.found
        assert analytic == pytest.approx(2 * math.pi / 6)
        assert res.t_perp == pytest.approx(analytic, abs=1e-8)

    def test_default_horizon_is_twenty_bounds(self):
        state, h = qubit_system()
        res = first_orthogonal_time(state, h)
        assert res.horizon == pytest.approx(20.0 * math.pi)

    def test_default_horizon_is_the_energy_stats_bound_bit_for_bit(self, rng):
        h = random_shifted_hamiltonian(rng, 12, scale=3.0)
        systems = [(random_pure(rng, 12), h), (random_density(rng, 12, rank=3), h),
                   make_grouped(2, 3, 1.0, 0.5)]
        for state, ham in systems:
            expected = HORIZON_MULTIPLIER * qsl_time(energy_stats(state, ham)).time
            assert first_orthogonal_time(state, ham).horizon == expected

    def test_requires_ground_shifted(self):
        lay = SubsystemLayout((2,))
        state = PureState(lay, np.array([INV_SQRT2, INV_SQRT2]))
        h = Hamiltonian(lay, np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(InvariantViolation, match="ground"):
            first_orthogonal_time(state, h)

    def test_solution_satisfies_tolerance_and_is_first(self):
        state, h = qubit_system()
        opts = SearchOptions()
        res = first_orthogonal_time(state, h, opts)
        assert survival(state, h, res.t_perp) <= opts.ortho_tol
        # spot-check on a refined grid: no earlier sub-threshold time outside
        # the acceptance window of the zero itself (survival is quadratic in
        # t - t_perp there, so the window half-width is ~sqrt(ortho_tol))
        window = 4.0 * math.sqrt(opts.ortho_tol)
        ts = np.linspace(1e-6, res.t_perp - window, 20001)
        assert survival(state, h, ts).min() > opts.ortho_tol

    @pytest.mark.parametrize("scale", [1.0, 1e5, 1e10])
    def test_zero_at_any_frequency_scale(self, scale):
        # (|0> + |1> + |2>)/sqrt(3) under levels 0, s, 2s first vanishes at
        # 2 pi / (3 s); the scan step shrinks with 1/s, and so must the search
        lay = SubsystemLayout((3,))
        h = Hamiltonian(lay, np.diag([0.0, scale, 2.0 * scale]).astype(complex))
        res = first_orthogonal_time(PureState(lay, np.ones(3) / math.sqrt(3.0)), h)
        assert res.found
        assert res.t_perp * scale == pytest.approx(2.0 * math.pi / 3.0, rel=1e-9)

    def test_minimum_at_any_frequency_scale(self, rng):
        # a full-rank state never orthogonalizes; scaling H by s rescales time
        # by 1/s and leaves the minimum of the survival unchanged
        rho = random_density(rng, 8)
        u = random_unitary(rng, 8)
        evals = np.sort(rng.uniform(0.0, 3.0, 8))
        purity = float(np.vdot(rho.matrix, rho.matrix).real)
        minima = []
        for s in (1.0, 1e4, 1e8, 1e12):
            mat = (u * (s * evals)) @ u.conj().T
            res = first_orthogonal_time(
                rho, ground_shift(Hamiltonian(rho.layout, 0.5 * (mat + mat.conj().T))))
            assert not res.found
            minima.append(res.min_overlap)
        assert max(minima) - min(minima) <= 1e-13 * purity

    def test_negligible_level_far_above_keeps_the_phases_finite(self):
        # |0> puts weight ~1e-308 on a level at 1e308: it adds 1 to E, which
        # sets the horizon, and nothing to the survival, whose phases at that
        # rate would overflow; the two other levels hold 4/9 and 5/9
        lay = SubsystemLayout((3,))
        mat = np.array([[0.0, -1e154 - 0.5j, 0.5 - 1j],
                        [-1e154 + 0.5j, 1e308, -1e154 - 0.5j],
                        [0.5 + 1j, -1e154 + 0.5j, 1.0000000000001]])
        h = ground_shift(Hamiltonian(lay, mat))
        res = first_orthogonal_time(PureState(lay, np.array([1.0, 0.0, 0.0])), h)
        assert not res.found
        assert res.min_overlap == pytest.approx((5 / 9 - 4 / 9) ** 2, rel=1e-9)

    def test_not_found_when_horizon_too_short(self):
        state, h = qubit_system()
        res = first_orthogonal_time(state, h, SearchOptions(horizon=1.0))
        assert not res.found
        assert res.min_overlap > 1e-9
        assert 0.0 < res.t_at_min <= 1.0

    def test_bound_respected_on_random_pure_states(self, rng):
        violations = 0
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            state = random_pure(rng, dim)
            h = random_shifted_hamiltonian(rng, dim)
            res = first_orthogonal_time(state, h)
            if not res.found:
                continue
            bound = qsl_time(energy_stats(state, h))
            if res.t_perp < bound.time - 1e-9:
                violations += 1
        assert violations == 0

    def test_mixed_state_search(self, rng):
        # equal mixture of (|0>+|1>)/sqrt(2) and (|0>-|1>)/sqrt(2) is I/2:
        # stationary, never orthogonal
        lay = SubsystemLayout((2,))
        h = Hamiltonian(lay, np.diag([0.0, 1.0]).astype(complex))
        rho = DensityMatrix(lay, 0.5 * np.eye(2, dtype=complex))
        res = first_orthogonal_time(rho, h)
        assert not res.found
        assert res.min_overlap == pytest.approx(0.5, abs=1e-12)

    def test_tiny_bandwidth_has_an_unbounded_default_horizon(self):
        # a populated gap of 1e-13: the state moves, but its energy and spread
        # are below the bound's zero tolerance, so no default horizon exists
        lay = SubsystemLayout((2,))
        h = Hamiltonian(lay, np.diag([0.0, 1e-13]).astype(complex))
        state = PureState(lay, np.array([INV_SQRT2, INV_SQRT2]))
        bounds = []
        with mock.patch.object(dynamics, "qsl_time",
                               lambda stats: bounds.append(qsl_time(stats)) or bounds[-1]):
            res = first_orthogonal_time(state, h)
        assert len(bounds) == 1 and bounds[0].unbounded
        assert (res.found, res.t_at_min, res.horizon) == (False, 0.0, 0.0)
        assert res.min_overlap == pytest.approx(1.0, abs=1e-15)

    def test_tiny_bandwidth_searched_within_an_explicit_horizon(self):
        # survival cos^2(w t / 2), first zero at pi / w
        lay = SubsystemLayout((2,))
        h = Hamiltonian(lay, np.diag([0.0, 1e-13]).astype(complex))
        state = PureState(lay, np.array([INV_SQRT2, INV_SQRT2]))
        res = first_orthogonal_time(state, h, SearchOptions(horizon=1e14))
        assert res.found
        assert res.t_perp == pytest.approx(math.pi / 1e-13, rel=1e-10)

    def test_invalid_options(self):
        with pytest.raises(InvariantViolation):
            SearchOptions(horizon=-1.0)
        with pytest.raises(InvariantViolation):
            SearchOptions(ortho_tol=0.0)
