"""Tests for the speed-limit bound family and the ensemble structure analysis."""

import ast
import graphlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qslsim
from qslsim import (
    Branch,
    DensityMatrix,
    EnergyStats,
    EnsembleAnalysis,
    Hamiltonian,
    InvariantViolation,
    NumericalFailure,
    PureState,
    SeparableEnsemble,
    SubsystemLayout,
    TermReport,
    analyze_ensemble_at_qsl,
    energy_stats,
    first_orthogonal_time,
    homogeneous_gap_factor,
    make_mixture_demo,
    mixed_state_bound,
    mixture_stats,
    noninteracting_hamiltonian,
    qsl_time,
    separable_pure_bound,
    spectral_decompose,
    survival,
    tensor_product,
)
from qslsim.bounds import CHI_NEGATIVITY_SLACK, DEGENERACY_TOL, _max_bound
from conftest import matrix_energy_stats, random_density, random_shifted_hamiltonian

INV_SQRT2 = 1.0 / math.sqrt(2.0)

positive_floats = st.floats(min_value=1e-6, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


def qubit_levels(*diag):
    lay = SubsystemLayout((len(diag),))
    return Hamiltonian(lay, np.diag(np.asarray(diag, dtype=float)).astype(complex))


def projector(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(SubsystemLayout((v.size,)), np.outer(v, v.conj()))


# ---------------------------------------------------------------------------
# qsl_time
# ---------------------------------------------------------------------------


class TestQslTime:
    def test_equal_arguments(self):
        res = qsl_time(EnergyStats(1.0, 1.0))
        assert res.time == pytest.approx(math.pi / 2)
        assert res.branch is Branch.EQUAL

    def test_spread_governed(self):
        res = qsl_time(EnergyStats(2.0, 0.5))
        assert res.time == pytest.approx(math.pi)
        assert res.branch is Branch.TIME_ENERGY

    def test_energy_governed(self):
        res = qsl_time(EnergyStats(0.5, 2.0))
        assert res.time == pytest.approx(math.pi)
        assert res.branch is Branch.MARGOLUS_LEVITIN

    def test_zero_spread_unbounded(self):
        res = qsl_time(EnergyStats(0.5, 0.0))
        assert res.unbounded
        assert res.branch is Branch.TIME_ENERGY

    def test_zero_energy_unbounded(self):
        res = qsl_time(EnergyStats(0.0, 1.0))
        assert res.unbounded
        assert res.branch is Branch.MARGOLUS_LEVITIN

    @settings(max_examples=100, deadline=None)
    @given(e=positive_floats, s=positive_floats)
    def test_max_formula(self, e, s):
        res = qsl_time(EnergyStats(e, s))
        assert res.time == pytest.approx(max(math.pi / (2 * e), math.pi / (2 * s)))
        if res.branch is Branch.MARGOLUS_LEVITIN:
            assert e <= s
        elif res.branch is Branch.TIME_ENERGY:
            assert s <= e


# ---------------------------------------------------------------------------
# separable_pure_bound
# ---------------------------------------------------------------------------


class TestSeparablePureBound:
    def test_single_subsystem_collapses(self):
        assert separable_pure_bound([EnergyStats(1.0, 1.0)]) == pytest.approx(math.pi / 2)

    def test_two_homogeneous_qubits(self):
        per = [EnergyStats(0.5, 0.5)] * 2
        bound = separable_pure_bound(per)
        assert bound == pytest.approx(math.pi)
        aggregate = qsl_time(EnergyStats(1.0, math.sqrt(0.5))).time
        assert aggregate == pytest.approx(math.pi / math.sqrt(2))
        assert bound / aggregate == pytest.approx(math.sqrt(2))

    def test_maxima_taken_independently(self):
        per = [EnergyStats(2.0, 0.1), EnergyStats(0.1, 2.0)]
        assert separable_pure_bound(per) == pytest.approx(math.pi / 4)

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation):
            separable_pure_bound([])

    def test_never_below_aggregate(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 6))
            per = [
                EnergyStats(float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.01, 3.0)))
                for _ in range(m)
            ]
            total_e = sum(s.energy for s in per)
            total_s = math.sqrt(sum(s.spread ** 2 for s in per))
            aggregate = qsl_time(EnergyStats(total_e, total_s)).time
            assert separable_pure_bound(per) >= aggregate - 1e-12

    def test_equality_when_one_subsystem_carries_everything(self):
        per = [EnergyStats(1.0, 1.0), EnergyStats(0.0, 0.0)]
        aggregate = qsl_time(EnergyStats(1.0, 1.0)).time
        assert separable_pure_bound(per) == pytest.approx(aggregate)


# ---------------------------------------------------------------------------
# homogeneous_gap_factor
# ---------------------------------------------------------------------------


class TestHomogeneousGapFactor:
    def test_equal_energy_and_spread(self):
        assert homogeneous_gap_factor(4, EnergyStats(1.0, 1.0)) == pytest.approx(4.0)

    def test_single_subsystem_has_no_gap(self):
        assert homogeneous_gap_factor(1, EnergyStats(0.3, 2.7)) == pytest.approx(1.0)

    def test_spread_dominated_returns_m(self):
        # dE >= E: the energy term governs both the bound and the speed limit
        assert homogeneous_gap_factor(4, EnergyStats(1.0, 2.0)) == pytest.approx(4.0)

    def test_energy_dominated_crossover(self):
        # E >= dE: sqrt(M) up to M* = (E/dE)^2, then M/sqrt(M*)
        stats = EnergyStats(2.0, 1.0)  # M* = 4
        assert homogeneous_gap_factor(2, stats) == pytest.approx(math.sqrt(2))
        assert homogeneous_gap_factor(4, stats) == pytest.approx(2.0)
        assert homogeneous_gap_factor(9, stats) == pytest.approx(4.5)

    def test_matches_direct_homogeneous_bound_ratio(self, rng):
        # oracle: split the aggregate evenly and evaluate the per-subsystem
        # bound ratio directly
        for _ in range(100):
            m = int(rng.integers(1, 12))
            e = float(rng.uniform(0.05, 4.0))
            s = float(rng.uniform(0.05, 4.0))
            direct = separable_pure_bound(
                [EnergyStats(e / m, s / math.sqrt(m))] * m
            ) / qsl_time(EnergyStats(e, s)).time
            assert homogeneous_gap_factor(m, EnergyStats(e, s)) == pytest.approx(direct)

    def test_never_below_sqrt_m(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 12))
            stats = EnergyStats(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.05, 4.0)))
            assert homogeneous_gap_factor(m, stats) >= math.sqrt(m) - 1e-12

    def test_true_lower_bound_on_saturating_qubit_products(self):
        # M identical saturating qubits: all factors orthogonalize at once, so
        # the zero is flat (order 2M in the survival) and its location is only
        # resolvable to the cancellation-noise floor ~(1e-15)^(1/M); the exact
        # value is sqrt(M) * t_qsl
        for m in (2, 3, 4):
            state = tensor_product([np.array([INV_SQRT2, INV_SQRT2])] * m)
            h = noninteracting_hamiltonian([qubit_levels(0.0, 1.0)] * m)
            res = first_orthogonal_time(state, h)
            assert res.found
            stats = energy_stats(state, h)
            factor = homogeneous_gap_factor(m, stats)
            bound = qsl_time(stats).time
            blur = 2e-3
            assert res.t_perp >= factor * bound - blur
            assert res.t_perp == pytest.approx(math.sqrt(m) * bound, abs=blur)

    def test_sharp_equality_with_distinct_factors(self):
        # two factors with identical stats (1/2, 1/2) but different internal
        # structure: only the qubit factor reaches orthogonality at t = pi, so
        # the composite zero is simple and the measured time is sharp; the
        # homogeneous factor sqrt(2) makes the bound an exact equality
        qubit = np.array([INV_SQRT2, INV_SQRT2])
        partner = np.sqrt(np.array([0.25, 2.0 / 3.0, 1.0 / 12.0]))
        h_q = qubit_levels(0.0, 1.0)
        h_p = qubit_levels(0.0, 0.5, 2.0)
        state = tensor_product([qubit, partner])
        h = noninteracting_hamiltonian([h_q, h_p])

        stats = energy_stats(state, h)
        assert stats.energy == pytest.approx(1.0, abs=1e-12)
        assert stats.spread == pytest.approx(math.sqrt(0.5), abs=1e-12)
        factor = homogeneous_gap_factor(2, stats)
        assert factor == pytest.approx(math.sqrt(2.0), abs=1e-12)

        res = first_orthogonal_time(state, h)
        assert res.found
        bound = qsl_time(stats).time
        assert res.t_perp == pytest.approx(math.pi, abs=1e-9)
        assert res.t_perp >= factor * bound - 1e-9
        assert factor * bound == pytest.approx(math.pi, abs=1e-12)

    def test_zero_stats_rejected(self):
        with pytest.raises(InvariantViolation):
            homogeneous_gap_factor(2, EnergyStats(0.0, 1.0))
        with pytest.raises(InvariantViolation):
            homogeneous_gap_factor(0, EnergyStats(1.0, 1.0))


# ---------------------------------------------------------------------------
# mixture_stats
# ---------------------------------------------------------------------------


class TestMixtureStats:
    def test_single_product_term(self):
        h = qubit_levels(0.0, 1.0)
        term = (projector([1, 1]), projector([1, 1]))
        ens = SeparableEnsemble((1.0,), (term,))
        stats = mixture_stats(ens, [h, h])
        assert stats.energy == pytest.approx(1.0, abs=1e-12)
        assert stats.spread == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_mixture_demo_values(self):
        ens, locals_ = make_mixture_demo(1.0)
        stats = mixture_stats(ens, list(locals_))
        assert stats.energy == pytest.approx(1.5, abs=1e-12)
        assert stats.spread == pytest.approx(0.5, abs=1e-12)

    def test_mixture_demo_bound_within_two_ulp_of_pi(self):
        # the centred density-matrix variance keeps the aggregate t_qsl at pi;
        # Tr[H^2 rho] - E^2 left it 13 ulp below
        ens, locals_ = make_mixture_demo(1.0)
        t_qsl = qsl_time(mixture_stats(ens, list(locals_))).time
        assert abs(t_qsl - math.pi) <= 2 * math.ulp(math.pi)

    def test_classical_variance_only(self):
        # two equal-weight terms with total energies 0 and 2, zero spreads
        h = qubit_levels(0.0, 2.0)
        ens = SeparableEnsemble(
            (0.5, 0.5),
            ((projector([1, 0]),), (projector([0, 1]),)),
        )
        stats = mixture_stats(ens, [h])
        assert stats.energy == pytest.approx(1.0, abs=1e-12)
        assert stats.spread == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_assembled_global_state(self, rng):
        for _ in range(10):
            n_terms = int(rng.integers(1, 4))
            dims = [int(d) for d in rng.integers(2, 4, size=int(rng.integers(1, 4)))]
            locals_ = [random_shifted_hamiltonian(rng, d) for d in dims]
            weights = rng.uniform(0.1, 1.0, size=n_terms)
            weights /= weights.sum()
            terms = tuple(
                tuple(random_density(rng, d) for d in dims)
                for _ in range(n_terms)
            )
            ens = SeparableEnsemble(tuple(weights), terms)
            stats = mixture_stats(ens, locals_)
            direct = energy_stats(ens.assemble(), noninteracting_hamiltonian(locals_))
            assert stats.energy == pytest.approx(direct.energy, abs=1e-9)
            assert stats.spread == pytest.approx(direct.spread, abs=1e-9)

    @staticmethod
    def per_term_stats(ensemble, local_hamiltonians):
        # frozen reference: the law of total variance over per-term local statistics
        per_term_energy = []
        per_term_var = []
        for term in ensemble.terms:
            stats = [matrix_energy_stats(factor, local)
                     for factor, local in zip(term, local_hamiltonians)]
            per_term_energy.append(math.fsum(s.energy for s in stats))
            per_term_var.append(math.fsum(s.spread ** 2 for s in stats))
        mean = math.fsum(p * e for p, e in zip(ensemble.weights, per_term_energy))
        variance = math.fsum(
            p * (v + (e - mean) ** 2)
            for p, v, e in zip(ensemble.weights, per_term_var, per_term_energy)
        )
        return EnergyStats(mean, math.sqrt(max(variance, 0.0)))

    def test_matches_the_frozen_per_term_loop(self, rng):
        for _ in range(40):
            dims = [int(d) for d in rng.integers(2, 6, size=int(rng.integers(1, 4)))]
            locals_ = [random_shifted_hamiltonian(rng, d, scale=float(rng.uniform(0.1, 100.0)))
                       for d in dims]
            n_terms = int(rng.integers(1, 5))
            weights = rng.uniform(0.1, 1.0, size=n_terms)
            terms = tuple(
                tuple(random_density(rng, d, rank=int(rng.integers(1, d + 1))) for d in dims)
                for _ in range(n_terms)
            )
            ens = SeparableEnsemble(tuple(weights / weights.sum()), terms)
            got, ref = mixture_stats(ens, locals_), self.per_term_stats(ens, locals_)
            span = sum(float(np.ptp(h.eigensystem()[0])) for h in locals_)
            assert got.energy == pytest.approx(ref.energy, rel=1e-13, abs=0.0)
            assert abs(got.spread - ref.spread) <= 1e-12 * span

    @pytest.mark.parametrize("omega", [1e-150, 1e-12, 1e12, 1e150, 1e200])
    def test_mixture_demo_scale_covariance(self, omega):
        ens, locals_ = make_mixture_demo(omega)
        stats = mixture_stats(ens, list(locals_))
        assert stats.energy == pytest.approx(1.5 * omega, rel=1e-13, abs=0.0)
        assert stats.spread == pytest.approx(0.5 * omega, rel=1e-13, abs=0.0)

    def test_wrong_local_count_rejected(self):
        ens, locals_ = make_mixture_demo(1.0)
        with pytest.raises(InvariantViolation, match="local"):
            mixture_stats(ens, [locals_[0]])

    def test_unshifted_local_rejected(self):
        ens, _ = make_mixture_demo(1.0)
        bad = qubit_levels(1.0, 2.0, 3.0)
        with pytest.raises(InvariantViolation, match="ground"):
            mixture_stats(ens, [bad, bad])

    def test_dimension_mismatch_rejected(self):
        ens, _ = make_mixture_demo(1.0)
        wrong = qubit_levels(0.0, 1.0)
        with pytest.raises(InvariantViolation, match="dimension"):
            mixture_stats(ens, [wrong, wrong])


# ---------------------------------------------------------------------------
# mixed_state_bound
# ---------------------------------------------------------------------------


class TestMixedStateBound:
    def test_pure_projector_reduces_to_qsl(self, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 6))
            h = random_shifted_hamiltonian(rng, dim)
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi = PureState(SubsystemLayout((dim,)), vec / np.linalg.norm(vec))
            rho = DensityMatrix(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))
            direct = qsl_time(energy_stats(psi, h))
            viaspec = mixed_state_bound(rho, h)
            assert viaspec.time == pytest.approx(direct.time, rel=1e-9)
            assert viaspec.branch is direct.branch

    def test_stationary_component_makes_it_unbounded(self):
        # 0.75 on the saturating superposition, 0.25 on the |2> eigenstate
        h = qubit_levels(0.0, 1.0, 2.0)
        rho_mat = 0.75 * projector([1, 1, 0]).matrix + 0.25 * projector([0, 0, 1]).matrix
        rho = DensityMatrix(SubsystemLayout((3,)), rho_mat)
        res = mixed_state_bound(rho, h)
        assert res.unbounded
        # and indeed the survival never gets below 0.25^2 = 0.0625
        ts = np.linspace(0.0, 60.0, 12001)
        assert survival(rho, h, ts).min() >= 0.0625 - 1e-9

    def test_equal_mixture_of_plus_minus_is_basis_dependent(self):
        # the equal mixture of (|0>+|1>)/sqrt(2) and (|0>-|1>)/sqrt(2) IS the
        # maximally mixed state: the computed eigenbasis is the energy basis,
        # whose members are stationary, so the reported bound is unbounded
        # (and flagged degenerate).  The state indeed never orthogonalizes.
        h = qubit_levels(0.0, 1.0)
        rho = DensityMatrix(SubsystemLayout((2,)), 0.5 * np.eye(2, dtype=complex))
        res = mixed_state_bound(rho, h)
        assert res.degenerate
        assert res.unbounded
        ts = np.linspace(0.0, 50.0, 5001)
        assert survival(rho, h, ts).min() >= 0.5 - 1e-12

    def test_unique_spectrum_not_flagged_degenerate(self):
        h = qubit_levels(0.0, 1.0)
        rho = DensityMatrix(SubsystemLayout((2,)), np.diag([0.75, 0.25]).astype(complex))
        assert not mixed_state_bound(rho, h).degenerate

    def test_requires_shifted_hamiltonian(self, rng):
        rho = random_density(rng, 2)
        h = qubit_levels(1.0, 2.0)
        with pytest.raises(InvariantViolation, match="ground"):
            mixed_state_bound(rho, h)

    @staticmethod
    def per_vector_bound(rho, h):
        # frozen reference: one PureState and one energy_stats call per eigenvector
        pairs = spectral_decompose(rho)
        degenerate = any(
            abs(pairs[i][0] - pairs[i + 1][0]) <= DEGENERACY_TOL for i in range(len(pairs) - 1)
        )
        stats = [energy_stats(PureState(rho.layout, vec), h) for _, vec in pairs]
        return _max_bound(min(s.energy for s in stats), min(s.spread for s in stats), degenerate)

    def test_matches_the_per_vector_loop(self, rng):
        cases = [(projector([1, 1, 0]), qubit_levels(0.0, 1.0, 2.0)),
                 (DensityMatrix(SubsystemLayout((2,)), 0.5 * np.eye(2, dtype=complex)),
                  qubit_levels(0.0, 1.0))]
        for _ in range(40):
            dim = int(rng.integers(2, 17))
            cases.append((random_density(rng, dim, rank=int(rng.integers(1, dim + 1))),
                          random_shifted_hamiltonian(rng, dim, scale=float(rng.uniform(0.1, 100.0)))))
        for rho, h in cases:
            got, ref = mixed_state_bound(rho, h), self.per_vector_bound(rho, h)
            assert (got.branch, got.degenerate) == (ref.branch, ref.degenerate)
            if ref.unbounded:
                assert got.unbounded
            else:
                assert got.time == pytest.approx(ref.time, rel=1e-14, abs=0.0)

    def test_negative_mean_energy_is_a_numerical_failure(self):
        # an eigensystem that claims a zero ground energy for a matrix with a
        # negative one: the eigenvector statistics expose it
        lay = SubsystemLayout((3,))
        h = Hamiltonian._from_eigensystem(
            lay, lambda: np.diag([-1.0, 0.0, 1.0]).astype(complex),
            np.array([0.0, 1.0, 2.0]), [np.eye(3, dtype=complex)], np.arange(3))
        rho = DensityMatrix(lay, np.diag([0.6, 0.4, 0.0]).astype(complex))
        with pytest.raises(NumericalFailure, match="negative mean energy -1.0 "):
            mixed_state_bound(rho, h)

    def test_ordering_chain_on_random_states(self, rng):
        from conftest import random_orthogonalizing_system

        found = 0
        for i in range(150):
            if i % 3 == 0:
                # structured draw with commensurate spectrum: orthogonalizes
                rho, h = random_orthogonalizing_system(rng, mixed=bool(i % 2))
            else:
                dim = int(rng.integers(2, 17))
                rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
                h = random_shifted_hamiltonian(rng, dim)
            lower = mixed_state_bound(rho, h)
            aggregate = qsl_time(energy_stats(rho, h))
            if not lower.unbounded:
                assert lower.time >= aggregate.time - 1e-9
            res = first_orthogonal_time(rho, h)
            if res.found:
                found += 1
                assert not lower.unbounded
                assert res.t_perp >= lower.time - 1e-9
        assert found >= 40  # every structured draw orthogonalizes


# ---------------------------------------------------------------------------
# analyze_ensemble_at_qsl
# ---------------------------------------------------------------------------


class TestAnalyzeEnsemble:
    def test_mixture_demo_saturates(self):
        ens, locals_ = make_mixture_demo(1.0)
        analysis = analyze_ensemble_at_qsl(ens, list(locals_))
        assert analysis.saturating
        assert analysis.verdict == "SaturatingStructure"
        assert analysis.survival_at_bound <= 1e-9
        assert [t.evolving for t in analysis.terms] == [0, 1]
        assert analysis.terms[0].stationary == (1,)
        assert analysis.terms[1].stationary == (0,)
        for term in analysis.terms:
            assert term.bound_time == pytest.approx(math.pi, abs=1e-9)

    def test_homogeneous_product_violates(self):
        # two evolving qubits in one term: survival at the bound time is
        # cos(t/2)^4 > 0
        h = qubit_levels(0.0, 1.0)
        term = (projector([1, 1]), projector([1, 1]))
        ens = SeparableEnsemble((1.0,), (term,))
        analysis = analyze_ensemble_at_qsl(ens, [h, h])
        assert not analysis.saturating
        assert analysis.reason == "not saturating"
        t = analysis.bound.time
        assert t == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
        assert analysis.survival_at_bound == pytest.approx(math.cos(t / 2) ** 4, abs=1e-12)

    def test_single_term_one_saturating_one_ground(self):
        h = qubit_levels(0.0, 1.0)
        term = (projector([1, 1]), projector([1, 0]))
        ens = SeparableEnsemble((1.0,), (term,))
        analysis = analyze_ensemble_at_qsl(ens, [h, h])
        assert analysis.saturating
        assert analysis.terms[0].evolving == 0
        assert analysis.terms[0].stationary == (1,)
        assert analysis.terms[0].bound_time == pytest.approx(math.pi, abs=1e-12)

    def test_perturbed_demo_flips_to_violation(self):
        # replace the stationary ground factor of the first term with an
        # evolving superposition
        ens, locals_ = make_mixture_demo(1.0)
        evolving = projector([1, 1, 0])
        perturbed = SeparableEnsemble(
            ens.weights,
            ((ens.terms[0][0], evolving), ens.terms[1]),
        )
        analysis = analyze_ensemble_at_qsl(perturbed, list(locals_))
        assert not analysis.saturating
        assert analysis.verdict.startswith("Violation(")

    def test_stationary_mixture_is_unbounded_violation(self):
        h = qubit_levels(0.0, 1.0)
        ens = SeparableEnsemble((1.0,), ((projector([1, 0]),),))
        analysis = analyze_ensemble_at_qsl(ens, [h])
        assert not analysis.saturating
        assert "unbounded" in analysis.reason

    def test_chi_values_nonnegative_for_random_ensembles(self, rng):
        # independent oracle: recompute all chi at the bound time by explicit
        # conjugation and confirm they are (numerically) nonnegative reals
        for _ in range(5):
            dims = [2, 3]
            locals_ = [random_shifted_hamiltonian(rng, d) for d in dims]
            weights = rng.uniform(0.2, 1.0, size=2)
            weights /= weights.sum()
            terms = tuple(
                tuple(random_density(rng, d) for d in dims) for _ in range(2)
            )
            ens = SeparableEnsemble(tuple(weights), terms)
            analysis = analyze_ensemble_at_qsl(ens, locals_)
            t = analysis.bound.time
            if not math.isfinite(t):
                continue
            total = 0.0
            for n in range(2):
                for m in range(2):
                    prod = weights[n] * weights[m]
                    for k, d in enumerate(dims):
                        evals, evecs = locals_[k].eigensystem()
                        u = evecs @ np.diag(np.exp(-1j * evals * t)) @ evecs.conj().T
                        evolved = u @ terms[n][k].matrix @ u.conj().T
                        chi = np.trace(evolved @ terms[m][k].matrix)
                        assert abs(chi.imag) < 1e-10
                        assert chi.real >= -1e-10
                        prod *= chi.real
                    total += prod
            assert analysis.survival_at_bound == pytest.approx(total, abs=1e-9)

    def test_tolerance_validated(self):
        ens, locals_ = make_mixture_demo(1.0)
        with pytest.raises(InvariantViolation, match="tolerance"):
            analyze_ensemble_at_qsl(ens, list(locals_), tol=0.0)


# ---------------------------------------------------------------------------
# frozen reference: the two-pass ensemble analysis
# ---------------------------------------------------------------------------


def reference_analyze(ensemble, local_hamiltonians, tol=1e-9):
    """``analyze_ensemble_at_qsl`` as it stood with a separate verdict pass.

    Every term's report is built in one loop, then the verdict is decided in a
    second loop over the same facts.  Kept as the oracle for the single-pass
    version; the only line left out is its explicit locals check, which
    ``mixture_stats`` runs first thing anyway.
    """
    if tol <= 0.0:
        raise InvariantViolation(f"tolerance must be positive, got {tol}")

    stats = mixture_stats(ensemble, local_hamiltonians)
    bound = qsl_time(stats)
    if bound.unbounded:
        return EnsembleAnalysis(
            bound, 1.0, (), False, "quantum speed limit time is unbounded"
        )
    t = bound.time

    weights = ensemble.weights
    terms = ensemble.terms
    n_sites = len(terms[0])

    chi = np.empty((len(terms), len(terms), n_sites))
    for k, local in enumerate(local_hamiltonians):
        evals, evecs = local.eigensystem()
        phases = np.exp(-1j * np.subtract.outer(evals, evals) * t)
        rotated = np.array([evecs.conj().T @ term[k].matrix @ evecs for term in terms])
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

    reports = []
    for n, term in enumerate(terms):
        orthogonal = [k for k in range(n_sites) if chi[n, n, k] <= tol]
        stationary = tuple(
            k for k in range(n_sites)
            if float(np.abs(
                term[k].matrix @ local_hamiltonians[k].matrix
                - local_hamiltonians[k].matrix @ term[k].matrix
            ).max()) <= tol
        )
        evolving = orthogonal[0] if len(orthogonal) == 1 else None
        bound_time = None
        if evolving is not None:
            own = qsl_time(energy_stats(term[evolving], local_hamiltonians[evolving]))
            bound_time = own.time
        reports.append((TermReport(evolving, stationary, bound_time), orthogonal))

    reason = None
    if survival > tol:
        reason = "not saturating"
    else:
        for n, (report, orthogonal) in enumerate(reports):
            if len(orthogonal) == 0:
                reason = f"term {n}: no subsystem reaches orthogonality at the bound"
                break
            if len(orthogonal) > 1:
                reason = f"term {n}: {len(orthogonal)} subsystems reach orthogonality"
                break
            others = [k for k in range(n_sites) if k != report.evolving]
            bad = [k for k in others if k not in report.stationary]
            if bad:
                reason = (
                    f"term {n}: subsystem {bad[0]} neither reaches orthogonality "
                    "nor is stationary"
                )
                break
            assert report.bound_time is not None
            if abs(report.bound_time - t) > tol * max(1.0, t):
                reason = (
                    f"term {n}: evolving subsystem bound {report.bound_time!r} "
                    f"differs from the global bound {t!r}"
                )
                break

    return EnsembleAnalysis(
        bound,
        survival,
        tuple(report for report, _ in reports),
        reason is None,
        reason,
    )


FACTOR_KINDS = ("eigenstate", "pair", "full-rank")


def random_factor(rng, local: Hamiltonian, kind: str) -> DensityMatrix:
    """An eigenstate, an equal two-level superposition or a random full-rank state."""
    dim = local.layout.total_dim
    _, evecs = local.eigensystem()
    if kind == "eigenstate":
        return projector(evecs[:, rng.integers(dim)])
    if kind == "pair":
        a, b = rng.choice(dim, size=2, replace=False)
        return projector(evecs[:, a] + evecs[:, b])
    return random_density(rng, dim)


@st.composite
def separable_ensembles(draw):
    """(ensemble, locals, tol): 1-3 terms, 1-3 sites of dimension 2-3."""
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    kinds = draw(st.lists(
        st.lists(st.sampled_from(FACTOR_KINDS), min_size=len(dims), max_size=len(dims)),
        min_size=1, max_size=3,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tol = 10.0 ** draw(st.floats(-9.0, 0.0))
    locals_ = [random_shifted_hamiltonian(rng, d) for d in dims]
    weights = rng.uniform(0.2, 1.0, size=len(kinds))
    terms = tuple(
        tuple(random_factor(rng, local, kind) for local, kind in zip(locals_, row))
        for row in kinds
    )
    return SeparableEnsemble(tuple(weights / weights.sum()), terms), locals_, tol


class TestAnalyzeEnsembleAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(separable_ensembles())
    def test_single_pass_matches_two_pass(self, case):
        ensemble, locals_, tol = case
        try:
            expected = reference_analyze(ensemble, locals_, tol)
        except NumericalFailure as exc:
            with pytest.raises(NumericalFailure, match=re.escape(str(exc))):
                analyze_ensemble_at_qsl(ensemble, locals_, tol)
            return
        analysis = analyze_ensemble_at_qsl(ensemble, locals_, tol)
        assert analysis.verdict == expected.verdict
        assert analysis.reason == expected.reason
        assert analysis.terms == expected.terms
        assert analysis.survival_at_bound == expected.survival_at_bound
        assert analysis.bound == expected.bound


# ---------------------------------------------------------------------------
# package structure
# ---------------------------------------------------------------------------


def package_import_graph() -> dict[str, set[str]]:
    """Module -> sibling modules it imports, at module or function level."""
    package = Path(qslsim.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}

    def target(dotted: str) -> str:
        return dotted if dotted in modules else "__init__"

    graph = {}
    for path in package.glob("*.py"):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                if node.level == 0 and not (node.module or "").startswith("qslsim"):
                    continue
                if node.level == 0 and node.module == "qslsim" or node.module is None:
                    edges |= {target(alias.name) for alias in node.names}
                else:
                    edges.add(target(node.module.removeprefix("qslsim.")))
            elif isinstance(node, ast.Import):
                edges |= {target(alias.name.removeprefix("qslsim."))
                          for alias in node.names if alias.name.startswith("qslsim.")}
        graph[path.stem] = edges - {path.stem}
    return graph


def test_package_import_graph_is_acyclic():
    graph = package_import_graph()
    assert "dynamics" in graph["constructions"]  # the walk sees relative imports
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
    assert graph["bounds"] == {"qcore"}
