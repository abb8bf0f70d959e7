"""Tests for the concrete constructions and their analytic oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qslsim import (
    CollectiveSpec,
    DensityMatrix,
    EnergyStats,
    EntangledChainSpec,
    Hamiltonian,
    InvariantViolation,
    PureState,
    SearchOptions,
    SubsystemLayout,
    analyze_ensemble_at_qsl,
    collective_overlap_fn,
    collective_t_perp,
    energy_stats,
    evolve,
    first_orthogonal_time,
    grouped_t_perp,
    make_collective,
    make_grouped,
    make_mixture_demo,
    make_psi_ent,
    mixture_stats,
    noninteracting_hamiltonian,
    psi_ent_survival_amplitude,
    qsl_time,
    separable_pure_bound,
    state_overlap,
    survival,
)
from qslsim.dynamics import _SurvivalSignal
from conftest import random_hermitian

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# entangled chain
# ---------------------------------------------------------------------------


class TestEntangledChain:
    def test_single_qubit_case(self):
        state, h, t_perp = make_psi_ent(EntangledChainSpec(2, 1, 1.0))
        assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)
        assert t_perp == pytest.approx(math.pi)

    def test_two_by_two_analytic_time(self):
        _, _, t_perp = make_psi_ent(EntangledChainSpec(2, 2, 1.0))
        assert t_perp == pytest.approx(math.pi / 2)

    def test_amplitudes_sit_on_the_diagonal(self):
        state, _, _ = make_psi_ent(EntangledChainSpec(3, 2, 1.0))
        expected = np.zeros(9, dtype=complex)
        expected[[0, 4, 8]] = 1.0 / math.sqrt(3.0)  # |00>, |11>, |22>
        assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_per_subsystem_stats_match_ladder_formulas(self):
        # each subsystem of the chain is maximally mixed over its N levels
        n, w0 = 3, 1.0
        _, h, _ = make_psi_ent(EntangledChainSpec(n, 2, w0))
        local = DensityMatrix(SubsystemLayout((n,)), np.eye(n, dtype=complex) / n)
        local_h = Hamiltonian(SubsystemLayout((n,)),
                              np.diag(w0 * np.arange(n)).astype(complex))
        stats = energy_stats(local, local_h)
        assert stats.energy == pytest.approx(w0 * (n - 1) / 2, abs=1e-12)
        assert stats.spread == pytest.approx(
            w0 * math.sqrt(n * n - 1) / (2 * math.sqrt(3)), abs=1e-12
        )
        assert stats.spread == pytest.approx(math.sqrt(8) / (2 * math.sqrt(3)), abs=1e-12)

    def test_aggregate_stats_scale_with_subsystem_count(self):
        # the collective phase makes the spread M times the local one (not
        # sqrt(M) as it would be for a product state)
        for n, m in [(2, 2), (3, 2), (2, 4)]:
            state, h, _ = make_psi_ent(EntangledChainSpec(n, m, 1.0))
            stats = energy_stats(state, h)
            local_e = (n - 1) / 2
            local_s = math.sqrt(n * n - 1) / (2 * math.sqrt(3))
            assert stats.energy == pytest.approx(m * local_e, abs=1e-10)
            assert stats.spread == pytest.approx(m * local_s, abs=1e-10)

    def test_measured_matches_analytic(self):
        for n, m in [(2, 2), (3, 2), (2, 4), (5, 2)]:
            state, h, analytic = make_psi_ent(EntangledChainSpec(n, m, 1.0))
            res = first_orthogonal_time(state, h)
            assert res.found
            assert res.t_perp == pytest.approx(analytic, rel=1e-8)

    def test_speedup_over_separable_bound(self):
        for n, m in [(2, 2), (3, 3), (2, 4)]:
            _, _, t_perp = make_psi_ent(EntangledChainSpec(n, m, 1.0))
            local_e = (n - 1) / 2
            local_s = math.sqrt(n * n - 1) / (2 * math.sqrt(3))
            bound = separable_pure_bound([EnergyStats(local_e, local_s)] * m)
            assert bound > t_perp
            assert bound / t_perp >= math.sqrt(m) * (1 - 1e-6)

    def test_cap_enforced(self):
        with pytest.raises(InvariantViolation, match="cap"):
            make_psi_ent(EntangledChainSpec(5, 6, 1.0))  # 15625 > 4096

    def test_spec_validation(self):
        with pytest.raises(InvariantViolation):
            EntangledChainSpec(1, 2, 1.0)
        with pytest.raises(InvariantViolation):
            EntangledChainSpec(2, 0, 1.0)
        with pytest.raises(InvariantViolation):
            EntangledChainSpec(2, 2, 0.0)
        with pytest.raises(InvariantViolation, match="finite"):
            EntangledChainSpec(2, 2, math.inf)


class TestChainSurvivalAmplitude:
    def test_unity_at_zero(self):
        assert psi_ent_survival_amplitude(EntangledChainSpec(4, 3, 2.0), 0.0) == pytest.approx(1.0)

    def test_known_zeros(self):
        # N=2, M=2, w0=1 vanishes at pi/2
        amp = psi_ent_survival_amplitude(EntangledChainSpec(2, 2, 1.0), math.pi / 2)
        assert abs(amp) == pytest.approx(0.0, abs=1e-15)
        # N=3, M=1, w0=1 at 2*pi/3: the three cube roots of unity sum to zero
        amp = psi_ent_survival_amplitude(EntangledChainSpec(3, 1, 1.0), 2 * math.pi / 3)
        assert abs(amp) == pytest.approx(0.0, abs=1e-15)

    def test_vectorized(self):
        spec = EntangledChainSpec(3, 2, 1.0)
        ts = np.linspace(0.0, 2.0, 7)
        amps = psi_ent_survival_amplitude(spec, ts)
        assert amps.shape == ts.shape
        for t, a in zip(ts, amps):
            assert psi_ent_survival_amplitude(spec, float(t)) == pytest.approx(complex(a))

    def test_matches_full_matrix_survival(self):
        # oracle equivalence on dense grids, within the dense cap
        for n, m in [(2, 2), (3, 2), (2, 6), (3, 3)]:
            spec = EntangledChainSpec(n, m, 1.0)
            state, h, analytic = make_psi_ent(spec)
            ts = np.linspace(0.0, 2.5 * analytic, 200)
            full = survival(state, h, ts)
            scalar = np.abs(psi_ent_survival_amplitude(spec, ts)) ** 2
            assert np.abs(full - scalar).max() < 1e-10


# ---------------------------------------------------------------------------
# collective model
# ---------------------------------------------------------------------------


class TestCollective:
    def test_single_qubit_free_stats(self):
        state, h = make_collective(CollectiveSpec(1, 1.0, 0.0))
        stats = energy_stats(state, h)
        assert stats.energy == pytest.approx(1.0, abs=1e-12)
        assert stats.spread == pytest.approx(1.0, abs=1e-12)

    def test_nine_qubit_stats(self):
        spec = CollectiveSpec(9, 1.0, 0.0)
        state, h = make_collective(spec)
        stats = energy_stats(state, h)
        assert stats.energy == pytest.approx(9.0, abs=1e-9)
        assert stats.spread == pytest.approx(3.0, abs=1e-9)
        assert qsl_time(stats).time == pytest.approx(math.pi / 6, abs=1e-9)
        assert spec.t_qsl == pytest.approx(math.pi / 6)

    def test_interaction_only_couples_to_flipped_state(self):
        spec = CollectiveSpec(2, 0.0, 1.0)
        state, h = make_collective(spec)
        stats = energy_stats(state, h)
        assert stats.energy == pytest.approx(1.0, abs=1e-12)
        assert stats.spread == pytest.approx(1.0, abs=1e-12)
        # evolution only populates |00> and |11>
        out = evolve(state, h, 0.37)
        assert abs(out.amplitudes[1]) < 1e-12
        assert abs(out.amplitudes[2]) < 1e-12

    def test_closed_form_stats_for_two_plus_qubits(self, rng):
        for _ in range(5):
            m = int(rng.integers(2, 7))
            w0 = float(rng.uniform(0.1, 2.0))
            w = float(rng.uniform(0.0, 3.0))
            spec = CollectiveSpec(m, w0, w)
            state, h = make_collective(spec)
            stats = energy_stats(state, h)
            assert stats.energy == pytest.approx(w + m * w0, abs=1e-9)
            assert stats.spread == pytest.approx(math.sqrt(w * w + m * w0 * w0), abs=1e-9)

    def test_spec_stats_match_matrix_at_one_qubit(self, rng):
        # sx_1 and prod_k sx_k are the same operator at M = 1, so the
        # couplings add: dE = omega + omega0
        for _ in range(5):
            w0 = float(rng.uniform(0.0, 2.0))
            w = float(rng.uniform(0.1, 3.0))
            spec = CollectiveSpec(1, w0, w)
            stats = energy_stats(*make_collective(spec))
            assert spec.spread == pytest.approx(w + w0, abs=1e-12)
            assert stats.energy == pytest.approx(spec.energy, abs=1e-12)
            assert stats.spread == pytest.approx(spec.spread, abs=1e-12)

    def test_ground_energy_is_zero(self):
        for m in (1, 2, 4, 6):
            _, h = make_collective(CollectiveSpec(m, 0.8, 1.7))
            assert abs(h.ground_energy) < 1e-10

    def test_initial_bits_select_basis_state(self):
        spec = CollectiveSpec(3, 1.0, 0.5, bits=(1, 0, 1))
        state, _ = make_collective(spec)
        expected = np.zeros(8)
        expected[0b101] = 1.0
        assert_allclose(np.abs(state.amplitudes), expected, atol=1e-15)

    def test_spec_validation(self):
        with pytest.raises(InvariantViolation):
            CollectiveSpec(0, 1.0, 0.0)
        with pytest.raises(InvariantViolation):
            CollectiveSpec(2, 0.0, 0.0)
        with pytest.raises(InvariantViolation):
            CollectiveSpec(2, -1.0, 1.0)
        with pytest.raises(InvariantViolation):
            CollectiveSpec(2, 1.0, 0.0, bits=(0, 1, 0))
        # the constructions hand their spectrum over unchecked, so the spec
        # is the last place a non-finite coupling can be stopped
        for omega0, omega in [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, math.inf)]:
            with pytest.raises(InvariantViolation, match="finite"):
                CollectiveSpec(2, omega0, omega)
        with pytest.raises(InvariantViolation, match="cap"):
            make_collective(CollectiveSpec(13, 1.0, 0.0))

    @pytest.mark.parametrize("qubits, omega0, omega", [
        (9, 1e300, 0.0),     # omega0 ** 2 overflows
        (9, 1e154, 0.0),     # M * omega0 ** 2 overflows
        (1, 1.0, 1e300),     # (omega + omega0) ** 2 overflows
        (9, 1e-300, 0.0),    # the variance underflows to zero
        (2, 1e-170, 1e-170),  # both squares underflow
    ])
    def test_extreme_couplings_rejected(self, qubits, omega0, omega):
        with pytest.raises(InvariantViolation, match="variance"):
            CollectiveSpec(qubits, omega0, omega)
        with pytest.raises(InvariantViolation, match="variance"):
            grouped_t_perp(2, qubits, omega0, omega)


class TestCollectiveOverlap:
    def test_unity_at_zero(self):
        assert collective_overlap_fn(CollectiveSpec(5, 1.0, 2.0), 0.0) == pytest.approx(1.0)

    def test_free_case_powers_of_cosine(self):
        spec = CollectiveSpec(4, 1.0, 0.0)
        for t in (0.3, 0.9, 1.4):
            assert collective_overlap_fn(spec, t) == pytest.approx(math.cos(t) ** 4)

    def test_interaction_only_case(self):
        spec = CollectiveSpec(3, 0.0, 2.0)
        for t in (0.2, 0.7):
            assert collective_overlap_fn(spec, t) == pytest.approx(math.cos(2.0 * t))

    def test_imaginary_unit_power_table(self):
        # i^(M+1) for M = 1..4 is -1, -i, 1, i
        t = 0.31
        for m, phase in [(1, -1), (2, -1j), (3, 1), (4, 1j)]:
            spec = CollectiveSpec(m, 1.0, 0.7)
            expected = (
                math.cos(0.7 * t) * math.cos(t) ** m
                + phase * math.sin(0.7 * t) * math.sin(t) ** m
            )
            assert collective_overlap_fn(spec, t) == pytest.approx(expected, abs=1e-15)

    def test_matches_full_matrix_survival(self):
        for m, w in [(2, 0.5), (3, 1.0), (4, 2.2), (5, 0.0), (6, 1.3)]:
            spec = CollectiveSpec(m, 1.0, w)
            state, h = make_collective(spec)
            ts = np.linspace(0.0, 2.0 * 20.0 * spec.t_qsl, 200)
            full = survival(state, h, ts)
            scalar = np.abs(collective_overlap_fn(spec, ts)) ** 2
            assert np.abs(full - scalar).max() < 1e-9

    def test_independent_of_initial_bits(self, rng):
        # the overlap depends only on the couplings, not the basis state
        for m in (2, 3, 4):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=m))
            base = CollectiveSpec(m, 1.0, 0.8)
            flipped = CollectiveSpec(m, 1.0, 0.8, bits=bits)
            s0, h0 = make_collective(base)
            s1, h1 = make_collective(flipped)
            ts = np.linspace(0.0, 6.0, 97)
            assert np.abs(survival(s0, h0, ts) - survival(s1, h1, ts)).max() < 1e-10


class TestCollectiveTPerp:
    def test_free_case_sqrt_m_above_bound(self):
        spec = CollectiveSpec(9, 1.0, 0.0)
        res = collective_t_perp(spec)
        assert res.found
        assert res.t_perp == pytest.approx(math.pi / 2, abs=1e-10)
        assert res.t_perp / spec.t_qsl == pytest.approx(3.0, abs=1e-9)

    def test_interaction_only_reaches_the_bound(self):
        spec = CollectiveSpec(9, 0.0, 1.0)
        res = collective_t_perp(spec)
        assert res.found
        assert res.t_perp == pytest.approx(math.pi / 2, abs=1e-9)
        assert res.t_perp / spec.t_qsl == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_full_matrix_solver(self):
        # matched tolerances: the scalar path accepts |overlap| <= 1e-10,
        # i.e. survival <= 1e-20, so the matrix solver must use the same
        # threshold (at its default 1e-9 it also accepts shallow near-zeros)
        matched = SearchOptions(ortho_tol=1e-20)
        for m, w in [(2, 0.6), (3, 1.0), (4, 1.7), (6, 2.4), (5, 1.2)]:
            spec = CollectiveSpec(m, 1.0, w)
            scalar = collective_t_perp(spec)
            state, h = make_collective(spec)
            full = first_orthogonal_time(state, h, matched)
            assert scalar.found == full.found
            if scalar.found:
                assert scalar.t_perp == pytest.approx(full.t_perp, abs=1e-8)

    def test_even_qubit_counts_usually_never_orthogonalize(self):
        # even M needs both overlap quadratures to vanish at once, which a
        # generic coupling ratio never achieves
        res = collective_t_perp(CollectiveSpec(2, 1.0, 0.37))
        assert not res.found
        assert res.min_overlap > 1e-9


# ---------------------------------------------------------------------------
# grouped model
# ---------------------------------------------------------------------------


class TestGrouped:
    def test_single_group_is_the_collective_model(self):
        state_g, h_g = make_grouped(1, 3, 1.0, 0.7)
        state_c, h_c = make_collective(CollectiveSpec(3, 1.0, 0.7))
        assert_allclose(h_g.matrix, h_c.matrix, atol=1e-14)
        assert_allclose(state_g.amplitudes, state_c.amplitudes, atol=1e-15)

    def test_three_by_three_ratio_sqrt3(self):
        state, h = make_grouped(3, 3, 0.0, 1.0)
        stats = energy_stats(state, h)
        assert stats.energy == pytest.approx(3.0, abs=1e-9)
        assert stats.spread == pytest.approx(math.sqrt(3.0), abs=1e-9)
        res = grouped_t_perp(3, 3, 0.0, 1.0)
        assert res.found
        ratio = res.t_perp / qsl_time(stats).time
        assert ratio == pytest.approx(math.sqrt(3.0), abs=1e-8)

    def test_two_independent_qubits_ratio_sqrt2(self):
        state, h = make_grouped(2, 1, 1.0, 0.0)
        res = grouped_t_perp(2, 1, 1.0, 0.0)
        ratio = res.t_perp / qsl_time(energy_stats(state, h)).time
        assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_total_survival_is_product_of_group_survivals(self):
        # oracle: per-group scalar overlaps multiplied together
        for g, q, w0, w in [(2, 2, 0.0, 1.0), (3, 2, 1.0, 0.5), (2, 3, 0.7, 1.1)]:
            state, h = make_grouped(g, q, w0, w)
            spec = CollectiveSpec(q, w0, w)
            ts = np.linspace(0.0, 3.0, 120)
            full = survival(state, h, ts)
            per_group = np.abs(collective_overlap_fn(spec, ts)) ** 2
            assert np.abs(full - per_group ** g).max() < 1e-9

    def test_group_factorized_time_matches_full_matrix(self):
        # simple per-group zero: matrix and factorized routes agree sharply
        res = grouped_t_perp(2, 2, 0.0, 1.0)
        state, h = make_grouped(2, 2, 0.0, 1.0)
        full = first_orthogonal_time(state, h)
        assert full.found and res.found
        assert res.t_perp == pytest.approx(math.pi / 2, abs=1e-10)
        # flat product zero on the full matrix: noise-floor localization only
        assert full.t_perp == pytest.approx(res.t_perp, abs=1e-4)

    def test_grouped_lower_bound(self):
        for g, q, w0, w in [(3, 3, 0.0, 1.0), (2, 2, 0.0, 1.0), (2, 1, 1.0, 0.0),
                            (3, 1, 1.0, 0.0)]:
            state, h = make_grouped(g, q, w0, w)
            res = grouped_t_perp(g, q, w0, w)
            if not res.found:
                continue
            bound = qsl_time(energy_stats(state, h)).time
            assert res.t_perp >= math.sqrt(g) * bound - 1e-9  # sqrt(M/Q) = sqrt(G)

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            make_grouped(0, 2, 1.0, 0.0)
        with pytest.raises(InvariantViolation, match="cap"):
            make_grouped(4, 4, 1.0, 0.5)  # 2^16 > 4096


# ---------------------------------------------------------------------------
# structured eigensystems against a dense eigendecomposition
# ---------------------------------------------------------------------------


def _noninteracting_system(dims, seed):
    rng = np.random.default_rng(seed)
    locals_ = [Hamiltonian(SubsystemLayout((d,)), random_hermitian(rng, d)) for d in dims]
    h = noninteracting_hamiltonian(locals_)
    vec = rng.standard_normal(h.layout.total_dim) + 1j * rng.standard_normal(h.layout.total_dim)
    return PureState(h.layout, vec / np.linalg.norm(vec)), h


STRUCTURED = {
    "collective-M1": lambda: make_collective(CollectiveSpec(1, 1.0, 0.4)),
    "collective-M4-bits": lambda: make_collective(CollectiveSpec(4, 0.6, 1.3, (1, 0, 1, 1))),
    "collective-M9-omega0": lambda: make_collective(CollectiveSpec(9, 0.0, 1.3)),
    "collective-M9-omega": lambda: make_collective(CollectiveSpec(9, 1.0, 0.0)),
    "collective-M9": lambda: make_collective(CollectiveSpec(9, 0.8, 1.7)),
    "grouped-3x3": lambda: make_grouped(3, 3, 1.0, 3.6),
    "grouped-2x4-omega0": lambda: make_grouped(2, 4, 0.0, 1.0),
    "grouped-5x1": lambda: make_grouped(5, 1, 0.7, 0.3),
    "psi-ent-2x9": lambda: make_psi_ent(EntangledChainSpec(2, 9, 0.7))[:2],
    "psi-ent-3x4": lambda: make_psi_ent(EntangledChainSpec(3, 4, 1.3))[:2],
    "psi-ent-8x3": lambda: make_psi_ent(EntangledChainSpec(8, 3, 1.0))[:2],
    "local-sum-2x3x4": lambda: _noninteracting_system((2, 3, 4), 1),
    "local-sum-5": lambda: _noninteracting_system((5,), 2),
    "local-sum-16x32": lambda: _noninteracting_system((16, 32), 3),
    "local-sum-9-qubits": lambda: _noninteracting_system((2,) * 9, 4),
}


class TestStructuredEigensystems:
    @pytest.mark.parametrize("name", sorted(STRUCTURED))
    def test_matches_dense_eigh(self, name):
        state, h = STRUCTURED[name]()
        evals, evecs = h.eigensystem()
        dim = h.layout.total_dim
        assert np.all(np.diff(evals) >= 0.0)
        assert h.ground_energy == evals[0]
        assert_allclose(evals, np.linalg.eigvalsh(h.matrix), rtol=0, atol=1e-12)
        assert_allclose((evecs * evals) @ evecs.conj().T, h.matrix, rtol=0, atol=1e-12)
        assert_allclose(evecs.conj().T @ evecs, np.eye(dim), rtol=0, atol=1e-12)

        dense = Hamiltonian(h.layout, h.matrix)
        ts = np.linspace(0.0, 4.0, 33)
        assert_allclose(survival(state, h, ts), survival(state, dense, ts), rtol=0, atol=1e-12)
        if dim <= 64:
            vecs = np.array([state.amplitudes, evecs[:, -1]])
            rho = DensityMatrix(h.layout, 0.7 * np.outer(vecs[0], vecs[0].conj())
                                + 0.3 * np.outer(vecs[1], vecs[1].conj()))
            assert_allclose(survival(rho, h, ts), survival(rho, dense, ts), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("omega0,omega", [(1.0, 0.0), (0.0, 1.0), (0.8, 1.7)])
    def test_collective_signal_merges_degenerate_levels(self, omega0, omega):
        state, h = make_collective(CollectiveSpec(9, omega0, omega))
        signal = _SurvivalSignal(state, h)
        levels = -signal._phase_rates.imag.ravel()
        assert levels.size <= 2 * (9 + 1)
        assert np.all(np.diff(levels) > 0.0)
        assert signal._weights.shape == (levels.size, 1)
        assert signal._weights.real.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# mixture demo
# ---------------------------------------------------------------------------


class TestMixtureDemo:
    def test_component_stats(self):
        ens, locals_ = make_mixture_demo(1.0)
        rho_a = ens.terms[0][0]
        rho_b = ens.terms[0][1]
        a_stats = energy_stats(rho_a, locals_[0])
        assert a_stats.energy == pytest.approx(1.5, abs=1e-12)
        assert a_stats.spread == pytest.approx(0.5, abs=1e-12)
        b_stats = energy_stats(rho_b, locals_[1])
        assert b_stats.energy == pytest.approx(0.0, abs=1e-12)
        assert qsl_time(a_stats).time == pytest.approx(math.pi, abs=1e-12)

    def test_excited_component_saturates_its_own_bound(self):
        ens, locals_ = make_mixture_demo(1.0)
        rho_a = ens.terms[0][0]
        res = first_orthogonal_time(rho_a, locals_[0])
        assert res.found
        assert res.t_perp == pytest.approx(math.pi, abs=1e-8)

    def test_cross_overlaps_vanish_at_all_times(self):
        ens, locals_ = make_mixture_demo(1.0)
        rho_a, rho_b = ens.terms[0][0], ens.terms[0][1]
        for t in np.linspace(0.0, 7.0, 29):
            assert state_overlap(evolve(rho_a, locals_[0], float(t)), rho_b) < 1e-14
            assert state_overlap(evolve(rho_b, locals_[0], float(t)), rho_a) < 1e-14

    def test_assembled_state_survival_closed_form(self):
        # survival(t) = (1/2) * cos^2(w t / 2)
        omega = 1.3
        ens, locals_ = make_mixture_demo(omega)
        rho = ens.assemble()
        h = noninteracting_hamiltonian(list(locals_))
        ts = np.linspace(0.0, 2 * math.pi / omega, 101)
        expected = 0.5 * np.cos(omega * ts / 2.0) ** 2
        assert np.abs(survival(rho, h, ts) - expected).max() < 1e-12

    def test_assembled_state_reaches_the_bound(self):
        for omega in (1.0, 2.5):
            ens, locals_ = make_mixture_demo(omega)
            stats = mixture_stats(ens, list(locals_))
            assert stats.energy == pytest.approx(1.5 * omega, abs=1e-12)
            assert stats.spread == pytest.approx(0.5 * omega, abs=1e-12)
            bound = qsl_time(stats)
            assert bound.time == pytest.approx(math.pi / omega, abs=1e-12)
            rho = ens.assemble()
            h = noninteracting_hamiltonian(list(locals_))
            res = first_orthogonal_time(rho, h)
            assert res.found
            assert res.t_perp == pytest.approx(bound.time, rel=1e-8)

    def test_analysis_verdict(self):
        ens, locals_ = make_mixture_demo(1.0)
        analysis = analyze_ensemble_at_qsl(ens, list(locals_))
        assert analysis.verdict == "SaturatingStructure"

    def test_omega_must_be_positive(self):
        with pytest.raises(InvariantViolation):
            make_mixture_demo(0.0)
        with pytest.raises(InvariantViolation, match="finite"):
            make_mixture_demo(math.inf)
