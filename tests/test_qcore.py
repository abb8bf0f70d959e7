"""Tests for the value types and linear-algebra primitives."""

import functools
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qslsim import (
    CollectiveSpec,
    DensityMatrix,
    EnergyStats,
    EntangledChainSpec,
    Hamiltonian,
    InvariantViolation,
    PureState,
    SchemaError,
    SeparableEnsemble,
    SubsystemLayout,
    dump_system,
    embed_local,
    energy_stats,
    ground_shift,
    load_system,
    make_collective,
    make_grouped,
    make_mixture_demo,
    make_psi_ent,
    noninteracting_hamiltonian,
    qsl_time,
    spectral_decompose,
    state_overlap,
    system_from_json,
    system_to_json,
    tensor_product,
)
from qslsim import qcore
from qslsim.qcore import _dimension_within, _number_pairs, _pairs_to_array
from conftest import (matrix_energy_stats, random_density, random_hermitian, random_pure,
                      random_unitary)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def qubit_diag_hamiltonian() -> Hamiltonian:
    return Hamiltonian(SubsystemLayout((2,)), np.diag([0.0, 1.0]).astype(complex))


def plus_state() -> PureState:
    return PureState(SubsystemLayout((2,)), np.array([INV_SQRT2, INV_SQRT2]))


# ---------------------------------------------------------------------------
# layouts and type invariants
# ---------------------------------------------------------------------------


class TestLayout:
    def test_basic(self):
        lay = SubsystemLayout((2, 3, 2))
        assert lay.total_dim == 12
        assert lay.num_subsystems == 3

    def test_cap_enforced(self):
        with pytest.raises(InvariantViolation, match="cap"):
            SubsystemLayout((2,) * 13)  # 8192 > 4096

    def test_cap_checked_without_forming_the_product(self):
        # 2^15000 has 4516 digits, more than int-to-str converts: the message
        # names the cap and the subsystem count instead
        with pytest.raises(InvariantViolation, match=r"^the total dimension of the 15000 "
                                                     r"subsystems exceeds the dense cap 4096$"):
            SubsystemLayout((2,) * 15000)

    def test_dimension_within_stops_past_the_limit(self):
        assert _dimension_within([2] * 12, 4096)
        assert not _dimension_within([2] * 13, 4096)
        assert _dimension_within([1] * 5, 1)
        assert not _dimension_within([3], -1)
        # an endless sequence: only a check that stops can answer
        assert not _dimension_within(itertools.repeat(2), 4096)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(InvariantViolation):
            SubsystemLayout(())
        with pytest.raises(InvariantViolation):
            SubsystemLayout((2, 0))

    def test_dim_one_accepted(self):
        assert SubsystemLayout((1, 2)).total_dim == 2


class TestTypeInvariants:
    def test_pure_state_norm_checked(self):
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation, match="norm"):
            PureState(lay, np.array([1.0, 1.0]))

    def test_pure_state_immutable(self):
        state = plus_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_density_matrix_hermitian_checked(self):
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation, match="Hermitian"):
            DensityMatrix(lay, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_trace_checked(self):
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation, match="trace"):
            DensityMatrix(lay, np.diag([0.6, 0.6]).astype(complex))

    def test_density_matrix_psd_checked(self):
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            DensityMatrix(lay, np.diag([1.5, -0.5]).astype(complex))

    def test_hamiltonian_hermitian_checked(self):
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation, match="Hermitian"):
            Hamiltonian(lay, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_check_is_relative_to_the_largest_entry(self, rng):
        # U diag(1e4 * (0..7)) U^H carries round-off asymmetry of ~1e-16 of its
        # largest entry, above 1e-12 in absolute terms; a real asymmetry of
        # 1e-6 (~1e-11 relative) is still rejected
        lay = SubsystemLayout((8,))
        deviations = []
        for _ in range(50):
            u = random_unitary(rng, 8)
            mat = (u * (1e4 * np.arange(8.0))) @ u.conj().T
            deviations.append(np.abs(mat - mat.conj().T).max())
            Hamiltonian(lay, mat)
            mat[0, 1] += 1e-6
            with pytest.raises(InvariantViolation, match="Hermitian"):
                Hamiltonian(lay, mat)
        assert max(deviations) > 1e-12

    def test_density_matrix_keeps_the_absolute_hermitian_check(self):
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation, match="Hermitian"):
            DensityMatrix(lay, np.array([[0.5, 2e-12], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entries_rejected(self, bad):
        # a NaN passes every `deviation > tol` test, so it is caught up front
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation, match="non-finite"):
            PureState(lay, np.array([bad, 0.0]))
        with pytest.raises(InvariantViolation, match="non-finite"):
            DensityMatrix(lay, np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(InvariantViolation, match="non-finite"):
            Hamiltonian(lay, np.array([[0.0, bad], [bad, 1.0]]))
        with pytest.raises(InvariantViolation, match="non-finite"):
            embed_local(np.array([[bad, 0.0], [0.0, 0.0]]), 0, lay)

    def test_shape_named_in_the_error(self):
        lay = SubsystemLayout((2,))
        with pytest.raises(InvariantViolation,
                           match=r"^amplitudes: expected a complex vector of length 2, got shape \(3,\)$"):
            PureState(lay, np.ones(3))
        with pytest.raises(InvariantViolation,
                           match=r"^hamiltonian: expected a 2x2 complex matrix, got shape \(2,\)$"):
            Hamiltonian(lay, np.ones(2))
        with pytest.raises(InvariantViolation,
                           match=r"^local operator at site 1: expected a 3x3 complex matrix"):
            embed_local(np.eye(2), 1, SubsystemLayout((2, 3)))

    @pytest.mark.parametrize("build, match", [
        (lambda lay: PureState(lay, np.array([1e200, 0.0])), "norm is inf"),
        (lambda lay: tensor_product([[1e200, 0.0]]), "norm inf"),
        (lambda lay: DensityMatrix(lay, np.diag([1e308, 1e308])), "trace is"),
        (lambda lay: Hamiltonian(lay, np.array([[0.0, 1e308], [-1e308, 1.0]])),
         r"not Hermitian \(max deviation inf\)"),
        (lambda lay: embed_local(np.array([[0.0, 1e308], [-1e308, 1.0]]), 0, lay),
         r"not Hermitian \(max deviation inf\)"),
        (lambda lay: Hamiltonian(SubsystemLayout((3,)), np.array(
            [[1e308, 1e308, 1e308], [1e308, 1e308, -1e308], [1e308, -1e308, 1e308]])),
         "spectral range exceeds the float range"),
        (lambda lay: Hamiltonian(lay, np.diag([-1e308, 1e308])),
         "spectral range exceeds the float range"),
        # finite parts, infinite modulus: the relative test still rejects it
        (lambda lay: Hamiltonian(lay, np.array([[0.0, 1.5e308 + 1.5e308j],
                                                [1.5e308 + 1.5e308j, 0.0]])),
         r"not Hermitian \(max deviation inf\)"),
    ], ids=["norm", "factor-norm", "trace", "hermitian", "local-hermitian", "range-3x3", "range",
            "infinite-modulus"])
    def test_checks_that_overflow_reject_without_a_warning(self, build, match):
        # tier-1 turns numpy warnings into errors: an infinite norm, trace,
        # deviation or spectral range fails its own check instead
        with pytest.raises(InvariantViolation, match=match):
            build(SubsystemLayout((2,)))

    def test_finite_spectral_range_shifts_without_overflow(self):
        h = Hamiltonian(SubsystemLayout((2,)), np.diag([-1e308, 0.5e308]).astype(complex))
        shifted = ground_shift(h)
        assert shifted.matrix[1, 1] == shifted.eigensystem()[0][1] == 1.5e308

    @pytest.mark.parametrize("build", [
        lambda: Hamiltonian(SubsystemLayout((2,)), np.diag([0.0, 1.0]).astype(complex)),
        lambda: make_grouped(2, 2, 1.0, 0.5)[1],
        lambda: ground_shift(Hamiltonian(SubsystemLayout((2,)), np.diag([-1.0, 1.0]))),
    ], ids=["dense", "grouped", "ground_shift"])
    def test_eigensystem_is_read_only(self, build):
        # energy_stats and the solver read the cached spectrum: it cannot be rewritten
        h = build()
        evals, evecs = h.eigensystem()
        before = evals.copy(), evecs.copy()
        with pytest.raises(ValueError):
            evals[1] = 7.0
        with pytest.raises(ValueError):
            evecs[0, 0] = 7.0
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 7.0
        assert np.array_equal(h.eigensystem()[0], before[0])
        assert np.array_equal(h.eigensystem()[1], before[1])

    def test_pickle_carries_the_formed_arrays(self):
        # the arrays of a construction or a ground shift are formed by closures,
        # which do not pickle: the pickle holds the arrays themselves
        for h in (make_grouped(2, 2, 1.0, 0.5)[1],
                  ground_shift(Hamiltonian(SubsystemLayout((2,)), np.diag([-1.0, 1.0])))):
            back = pickle.loads(pickle.dumps(h))
            assert back.ground_energy == h.ground_energy
            assert np.array_equal(back.matrix, h.matrix)
            for got, want in zip(back.eigensystem(), h.eigensystem()):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("build", [
        lambda: Hamiltonian(SubsystemLayout((2,)), np.diag([0.0, 1.0]).astype(complex)),
        lambda: make_grouped(2, 2, 1.0, 0.5)[1],
        lambda: make_grouped(2, 2, 1.0, 0.5)[0],
        lambda: DensityMatrix(SubsystemLayout((2,)), np.eye(2) / 2.0),
    ], ids=["dense", "grouped", "pure", "density"])
    def test_unpickled_arrays_stay_read_only(self, build):
        # numpy does not pickle the write flag: unpickling freezes the arrays again
        back = pickle.loads(pickle.dumps(build()))
        arrays = [value for value in vars(back).values() if isinstance(value, np.ndarray)]
        assert arrays and not any(arr.flags.writeable for arr in arrays)

    def test_kron_halves_equal_np_kron_bit_for_bit(self, monkeypatch):
        # the Kronecker halves of every construction, as one broadcast product
        recorded, install = [], Hamiltonian._from_eigensystem.__func__

        def spy(cls, layout, build, evals, factors, order):
            recorded.append(list(factors))
            return install(cls, layout, build, evals, factors, order)

        monkeypatch.setattr(Hamiltonian, "_from_eigensystem", classmethod(spy))
        make_collective(CollectiveSpec(5, 0.7, 1.3))
        make_grouped(2, 3, 1.0, 0.5)
        make_psi_ent(EntangledChainSpec(3, 3, 0.7))
        local = Hamiltonian(SubsystemLayout((3,)), random_hermitian(np.random.default_rng(5), 3))
        noninteracting_hamiltonian([ground_shift(local)] * 3)
        assert len(recorded) == 5  # make_grouped installs its group block, then the sum
        for factors in recorded:
            half = len(factors) // 2
            for part in (factors[:half], factors[half:], factors):
                want = functools.reduce(np.kron, part, qcore._UNIT)
                got = functools.reduce(qcore._kron, part, qcore._UNIT)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_hamiltonian_ground_energy_cached(self):
        h = Hamiltonian(SubsystemLayout((2,)), np.diag([-1.0, 1.0]).astype(complex))
        assert h.ground_energy == pytest.approx(-1.0)
        assert not h.is_ground_shifted

    def test_energy_stats_nonnegative(self):
        with pytest.raises(InvariantViolation):
            EnergyStats(-0.1, 0.5)
        with pytest.raises(InvariantViolation):
            EnergyStats(0.1, -0.5)

    def test_ensemble_weights_checked(self):
        _, _ = make_mixture_demo(1.0)  # valid construction exercises the type
        lay = SubsystemLayout((2,))
        rho = DensityMatrix(lay, np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(InvariantViolation, match="sum"):
            SeparableEnsemble((0.5, 0.4), ((rho,), (rho,)))
        with pytest.raises(InvariantViolation, match="positive"):
            SeparableEnsemble((1.5, -0.5), ((rho,), (rho,)))
        with pytest.raises(InvariantViolation, match="finite"):
            SeparableEnsemble((math.nan, 0.5), ((rho,), (rho,)))

    def test_ensemble_factor_dims_checked(self):
        lay2 = SubsystemLayout((2,))
        lay3 = SubsystemLayout((3,))
        rho2 = DensityMatrix(lay2, np.diag([1.0, 0.0]).astype(complex))
        rho3 = DensityMatrix(lay3, np.diag([1.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(InvariantViolation, match="dims"):
            SeparableEnsemble((0.5, 0.5), ((rho2, rho2), (rho2, rho3)))

    def test_ensemble_assemble_matches_manual(self, rng):
        ens, _ = make_mixture_demo(1.0)
        manual = np.zeros((9, 9), dtype=complex)
        for p, (a, b) in zip(ens.weights, ens.terms):
            manual += p * np.kron(a.matrix, b.matrix)
        assert_allclose(ens.assemble().matrix, manual, atol=1e-14)


# ---------------------------------------------------------------------------
# tensor_product
# ---------------------------------------------------------------------------


class TestTensorProduct:
    def test_basis_states(self):
        state = tensor_product([(1, 0), (1, 0)])
        assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_linearity_in_one_factor(self):
        state = tensor_product([(INV_SQRT2, INV_SQRT2), (1, 0)])
        assert_allclose(state.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)

    def test_three_qubit_uniform(self):
        # oracle: expand the triple Kronecker product by explicit loops
        factor = np.array([INV_SQRT2, INV_SQRT2])
        expected = np.empty(8, dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[4 * i + 2 * j + k] = factor[i] * factor[j] * factor[k]
        state = tensor_product([factor] * 3)
        assert_allclose(state.amplitudes, expected, atol=1e-15)
        assert_allclose(np.abs(state.amplitudes), 1 / (2 * math.sqrt(2)), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation):
            tensor_product([])

    def test_unnormalized_factor_rejected(self):
        with pytest.raises(InvariantViolation, match="factor 1"):
            tensor_product([(1, 0), (1, 1)])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.integers(2, 4), min_size=1, max_size=4))
    def test_norm_preserved(self, seed, dims):
        gen = np.random.default_rng(seed)
        factors = []
        for d in dims:
            vec = gen.standard_normal(d) + 1j * gen.standard_normal(d)
            factors.append(vec / np.linalg.norm(vec))
        state = tensor_product(factors)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# embed_local
# ---------------------------------------------------------------------------


class TestEmbedLocal:
    def test_identity_embeds_to_identity(self):
        lay = SubsystemLayout((2, 3))
        out = embed_local(np.eye(3), 1, lay)
        assert_allclose(out, np.eye(6), atol=1e-15)

    def test_sigma_x_on_first_qubit(self):
        lay = SubsystemLayout((2, 2))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        out = embed_local(sx, 0, lay)
        expected = np.zeros((4, 4))
        for j in range(2):  # exchanges |0 j> and |1 j>
            expected[j, 2 + j] = expected[2 + j, j] = 1.0
        assert_allclose(out, expected, atol=1e-15)

    def test_number_operator_sum(self):
        lay = SubsystemLayout((2, 2))
        n_op = np.diag([0.0, 1.0])
        total = embed_local(n_op, 0, lay) + embed_local(n_op, 1, lay)
        assert_allclose(total, np.diag([0.0, 1.0, 1.0, 2.0]), atol=1e-15)

    def test_site_out_of_range(self):
        with pytest.raises(InvariantViolation, match="site"):
            embed_local(np.eye(2), 2, SubsystemLayout((2, 2)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvariantViolation, match="Hermitian"):
            embed_local(np.array([[0, 1], [0, 0]]), 0, SubsystemLayout((2, 2)))

    def test_different_sites_commute(self, rng):
        lay = SubsystemLayout((2, 3, 2))
        for _ in range(10):
            a = embed_local(random_hermitian(rng, 2), 0, lay)
            b = embed_local(random_hermitian(rng, 3), 1, lay)
            comm = a @ b - b @ a
            assert np.abs(comm).max() < 1e-10

    def test_linear_in_operator(self, rng):
        lay = SubsystemLayout((2, 2))
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        lhs = embed_local(a + 2.0 * b, 1, lay)
        rhs = embed_local(a, 1, lay) + 2.0 * embed_local(b, 1, lay)
        assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# ground_shift and energy_stats
# ---------------------------------------------------------------------------


class TestGroundShift:
    def test_already_shifted_unchanged(self):
        h = qubit_diag_hamiltonian()
        shifted = ground_shift(h)
        assert_allclose(shifted.matrix, h.matrix, atol=1e-15)
        assert shifted.is_ground_shifted

    def test_subtracts_minimum(self):
        h = Hamiltonian(SubsystemLayout((2,)), np.diag([-1.0, 1.0]).astype(complex))
        shifted = ground_shift(h)
        assert_allclose(shifted.matrix, np.diag([0.0, 2.0]), atol=1e-12)
        assert shifted.ground_energy == pytest.approx(0.0, abs=1e-12)

    def test_random_hermitian_shifts_to_zero(self, rng):
        for dim in (2, 5, 9):
            h = Hamiltonian(SubsystemLayout((dim,)), random_hermitian(rng, dim))
            shifted = ground_shift(h)
            evals = np.linalg.eigvalsh(shifted.matrix)
            assert abs(evals[0]) < 1e-10

    def test_matches_identity_subtraction(self, rng):
        # the diagonal update gives the matrix and spectrum of H - lam0 * I
        for dim in (2, 7, 64):
            h = Hamiltonian(SubsystemLayout((dim,)), random_hermitian(rng, dim, scale=3.0))
            before = h.matrix.copy()
            shifted = ground_shift(h)
            expected = h.matrix - h.ground_energy * np.eye(dim)
            assert_allclose(shifted.matrix, expected, rtol=0, atol=1e-15)
            assert_allclose(shifted.eigensystem()[0], h.eigensystem()[0] - h.ground_energy,
                            rtol=0, atol=1e-15)
            assert not shifted.matrix.flags.writeable
            assert np.array_equal(h.matrix, before)  # the input is not touched
            assert shifted.eigensystem()[1] is h.eigensystem()[1]


class TestEnergyStats:
    def test_eigenstate_has_zero_spread(self):
        h = qubit_diag_hamiltonian()
        excited = PureState(SubsystemLayout((2,)), np.array([0.0, 1.0], dtype=complex))
        stats = energy_stats(excited, h)
        assert stats.energy == pytest.approx(1.0, abs=1e-12)
        assert stats.spread == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_by_hand(self):
        # <H> = 1/2, <H^2> = 1/2, spread = sqrt(1/2 - 1/4) = 1/2
        stats = energy_stats(plus_state(), qubit_diag_hamiltonian())
        assert stats.energy == pytest.approx(0.5, abs=1e-12)
        assert stats.spread == pytest.approx(0.5, abs=1e-12)

    def test_two_level_chain_matches_ladder_formulas(self):
        # single subsystem, two levels: mean w0(N-1)/2 and spread
        # w0*sqrt(N^2-1)/(2*sqrt(3)) both evaluate to 1/2
        stats = energy_stats(plus_state(), qubit_diag_hamiltonian())
        n = 2
        assert stats.energy == pytest.approx((n - 1) / 2, abs=1e-12)
        assert stats.spread == pytest.approx(math.sqrt(n * n - 1) / (2 * math.sqrt(3)), abs=1e-12)

    def test_unshifted_hamiltonian_rejected(self):
        h = Hamiltonian(SubsystemLayout((2,)), np.diag([0.5, 1.0]).astype(complex))
        with pytest.raises(InvariantViolation, match="ground"):
            energy_stats(plus_state(), h)

    def test_layout_mismatch_rejected(self):
        h = Hamiltonian(SubsystemLayout((3,)), np.diag([0.0, 1.0, 2.0]).astype(complex))
        with pytest.raises(InvariantViolation, match="mismatch"):
            energy_stats(plus_state(), h)

    def test_random_eigenstates_are_stationary(self, rng):
        # <H^2> - E^2 leaves round-off ~eps * E^2 in the variance, a spread far
        # above ZERO_TOL; ||(H - E) psi||^2 leaves only ~(eps * ||H||)^2
        h = ground_shift(Hamiltonian(SubsystemLayout((16,)), random_hermitian(rng, 16)))
        _, evecs = h.eigensystem()
        for k in range(1, 16):
            stats = energy_stats(PureState(h.layout, evecs[:, k]), h)
            assert qsl_time(stats).unbounded

    def test_small_spread_at_high_energy(self, rng):
        # uniform superposition of levels 286..290 of an integer spectrum in a
        # random basis: E = 288, dE = sqrt(2), so t_qsl = pi / (2 sqrt(2))
        dim = 300
        u = random_unitary(rng, dim)
        h = Hamiltonian(SubsystemLayout((dim,)), (u * np.arange(dim, dtype=float)) @ u.conj().T)
        h = ground_shift(h)
        state = PureState(h.layout, u[:, 286:291].sum(axis=1) / math.sqrt(5.0))
        stats = energy_stats(state, h)
        assert stats.energy == pytest.approx(288.0, rel=1e-13)
        assert qsl_time(stats).time == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), abs=1e-13)

    def test_mixed_state_stats_match_eigen_average(self, rng):
        for _ in range(5):
            rho = random_density(rng, 4)
            h = Hamiltonian(SubsystemLayout((4,)), random_hermitian(rng, 4))
            h = ground_shift(h)
            stats = energy_stats(rho, h)
            mean = np.trace(rho.matrix @ h.matrix).real
            second = np.trace(rho.matrix @ h.matrix @ h.matrix).real
            assert stats.energy == pytest.approx(mean, abs=1e-10)
            assert stats.spread == pytest.approx(math.sqrt(second - mean**2), abs=1e-10)
            assert stats.energy >= 0.0 and stats.spread >= 0.0


class TestEnergyStatsFromPopulations:
    """One formula for every state: the statistics of the eigenbasis populations."""

    @staticmethod
    def random_cases(rng):
        for _ in range(60):
            dim = int(rng.integers(2, 33))
            h = ground_shift(Hamiltonian(SubsystemLayout((dim,)), random_hermitian(
                rng, dim, scale=float(rng.uniform(0.1, 100.0)))))
            yield random_pure(rng, dim), h
            yield random_density(rng, dim, rank=int(rng.integers(1, dim + 1))), h
            evecs = h.eigensystem()[1]
            yield PureState(h.layout, evecs[:, int(rng.integers(1, dim))]), h

    def test_matches_the_frozen_matrix_branches(self, rng):
        for state, h in self.random_cases(rng):
            got, ref = energy_stats(state, h), matrix_energy_stats(state, h)
            span = float(np.ptp(h.eigensystem()[0]))
            assert got.energy == pytest.approx(ref.energy, rel=1e-13, abs=0.0)
            assert abs(got.spread - ref.spread) <= 1e-12 * span

    @pytest.mark.parametrize("scale", [1e-150, 1e-12, 1e12, 1e150, 1e200])
    def test_scale_covariance(self, rng, scale):
        # random_hermitian is exactly Hermitian, and so is any multiple of it
        dim = 6
        raw = random_hermitian(rng, dim)
        unit = ground_shift(Hamiltonian(SubsystemLayout((dim,)), raw))
        scaled = ground_shift(Hamiltonian(SubsystemLayout((dim,)), scale * raw))
        for state in (random_pure(rng, dim), random_density(rng, dim)):
            got, ref = energy_stats(state, scaled), energy_stats(state, unit)
            assert got.energy == pytest.approx(scale * ref.energy, rel=1e-13, abs=0.0)
            assert got.spread == pytest.approx(scale * ref.spread, rel=1e-13, abs=0.0)

    def test_unpopulated_level_far_out_does_not_hide_the_spread(self):
        # the span runs over the populated levels 0 and 1 only: over the empty
        # one at 1e308 too, every squared deviation would underflow to zero
        h = Hamiltonian(SubsystemLayout((3,)), np.diag([0.0, 1.0, 1e308]).astype(complex))
        state = PureState(h.layout, np.array([INV_SQRT2, INV_SQRT2, 0.0]))
        stats = energy_stats(state, h)
        assert stats.energy == pytest.approx(0.5, rel=1e-15)
        assert stats.spread == pytest.approx(0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# state_overlap
# ---------------------------------------------------------------------------


class TestStateOverlap:
    def test_identical_pure(self):
        assert state_overlap(plus_state(), plus_state()) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        lay = SubsystemLayout((2,))
        a = PureState(lay, np.array([1.0, 0.0], dtype=complex))
        b = PureState(lay, np.array([0.0, 1.0], dtype=complex))
        assert state_overlap(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed_vs_pure(self, rng):
        lay = SubsystemLayout((2,))
        mixed = DensityMatrix(lay, 0.5 * np.eye(2, dtype=complex))
        for _ in range(5):
            assert state_overlap(mixed, random_pure(rng, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_in_unit_interval(self, rng):
        for _ in range(10):
            a = random_density(rng, 3)
            b = random_density(rng, 3)
            v1 = state_overlap(a, b)
            v2 = state_overlap(b, a)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert 0.0 <= v1 <= 1.0

    def test_argument_order_is_bit_for_bit(self, rng):
        for _ in range(5):
            psi, phi, rho = random_pure(rng, 3), random_pure(rng, 3), random_density(rng, 3)
            assert state_overlap(psi, rho) == state_overlap(rho, psi)
            assert state_overlap(psi, phi) == state_overlap(phi, psi)

    def test_pure_mixed_agrees_with_projector(self, rng):
        for _ in range(5):
            psi = random_pure(rng, 3)
            rho = random_density(rng, 3)
            proj = DensityMatrix(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))
            assert state_overlap(psi, rho) == pytest.approx(state_overlap(proj, rho), abs=1e-12)

    def test_unity_iff_same_pure_state(self, rng):
        for _ in range(10):
            a = random_pure(rng, 4)
            b = random_pure(rng, 4)
            assert state_overlap(a, a) == pytest.approx(1.0, abs=1e-10)
            assert state_overlap(a, b) < 1.0 - 1e-10  # random pairs never coincide

    def test_layout_mismatch(self, rng):
        with pytest.raises(InvariantViolation, match="mismatch"):
            state_overlap(random_pure(rng, 2), random_pure(rng, 3))


# ---------------------------------------------------------------------------
# spectral_decompose
# ---------------------------------------------------------------------------


class TestSpectralDecompose:
    def test_pure_projector(self, rng):
        psi = random_pure(rng, 3)
        rho = DensityMatrix(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        pairs = spectral_decompose(rho)
        assert len(pairs) == 1
        lam, vec = pairs[0]
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(vec, psi.amplitudes)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        rho = DensityMatrix(SubsystemLayout((2,)), np.diag([0.75, 0.25]).astype(complex))
        pairs = spectral_decompose(rho)
        assert [lam for lam, _ in pairs] == pytest.approx([0.75, 0.25])
        assert abs(pairs[0][1][0]) == pytest.approx(1.0)
        assert abs(pairs[1][1][1]) == pytest.approx(1.0)

    def test_mixture_demo_eigenvalues(self):
        # oracle: diagonalize the explicit 9x9 matrix built by hand
        ens, _ = make_mixture_demo(1.0)
        a = np.zeros(3, dtype=complex)
        a[1] = a[2] = INV_SQRT2
        g = np.zeros(3, dtype=complex)
        g[0] = 1.0
        manual = 0.5 * np.kron(np.outer(a, a.conj()), np.outer(g, g.conj()))
        manual += 0.5 * np.kron(np.outer(g, g.conj()), np.outer(a, a.conj()))
        assert_allclose(np.sort(np.linalg.eigvalsh(manual))[-2:], [0.5, 0.5], atol=1e-12)

        pairs = spectral_decompose(ens.assemble())
        assert len(pairs) == 2
        assert [lam for lam, _ in pairs] == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(5):
            rho = random_density(rng, 5)
            pairs = spectral_decompose(rho)
            assert sum(lam for lam, _ in pairs) == pytest.approx(1.0, abs=1e-10)
            rebuilt = sum(lam * np.outer(v, v.conj()) for lam, v in pairs)
            assert np.abs(rebuilt - rho.matrix).max() < 1e-9
            for i, (_, vi) in enumerate(pairs):
                for j, (_, vj) in enumerate(pairs):
                    expected = 1.0 if i == j else 0.0
                    assert abs(np.vdot(vi, vj)) == pytest.approx(expected, abs=1e-10)

    def test_rank_deficient_drops_null_space(self, rng):
        rho = random_density(rng, 6, rank=2)
        pairs = spectral_decompose(rho)
        assert len(pairs) == 2


# ---------------------------------------------------------------------------
# noninteracting_hamiltonian
# ---------------------------------------------------------------------------


class TestNoninteracting:
    def test_matches_manual_embedding(self):
        h2 = qubit_diag_hamiltonian()
        h3 = Hamiltonian(SubsystemLayout((3,)), np.diag([0.0, 1.0, 2.0]).astype(complex))
        total = noninteracting_hamiltonian([h2, h3])
        lay = SubsystemLayout((2, 3))
        manual = embed_local(h2.matrix, 0, lay) + embed_local(h3.matrix, 1, lay)
        assert_allclose(total.matrix, manual, atol=1e-15)
        assert total.is_ground_shifted

    def test_large_matrix_formed_on_first_read(self):
        # D = 512: the matrix and the eigenvectors, formed from the factors on
        # first read, are read-only, formed once, and the matrix holds exactly
        # the embedded local terms
        local = Hamiltonian(SubsystemLayout((8,)), np.diag(1.3 * np.arange(8.0)).astype(complex))
        total = noninteracting_hamiltonian([local] * 3)
        lay = total.layout
        manual = sum(embed_local(local.matrix, site, lay) for site in range(3))
        assert np.array_equal(total.matrix, manual)
        evecs = total.eigensystem()[1]
        assert total.eigensystem()[1] is evecs and total.matrix is total.matrix
        for arr in (total.matrix, evecs):
            assert not arr.flags.writeable
        assert_allclose(evecs @ np.diag(total.eigensystem()[0]) @ evecs.conj().T,
                        manual, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


class TestJson:
    def test_pure_round_trip(self, rng, tmp_path):
        state = random_pure(rng, 3)
        h = Hamiltonian(state.layout, random_hermitian(rng, 3))
        path = tmp_path / "system.json"
        dump_system(state, h, path)
        loaded_state, loaded_h = load_system(path)
        assert isinstance(loaded_state, PureState)
        assert_allclose(loaded_state.amplitudes, state.amplitudes, atol=1e-15)
        assert_allclose(loaded_h.matrix, h.matrix, atol=1e-15)

    def test_mixed_round_trip(self, rng):
        rho = random_density(rng, 2)
        h = Hamiltonian(rho.layout, random_hermitian(rng, 2))
        state, loaded_h = system_from_json(system_to_json(rho, h))
        assert isinstance(state, DensityMatrix)
        assert_allclose(state.matrix, rho.matrix, atol=1e-15)
        assert_allclose(loaded_h.matrix, h.matrix, atol=1e-15)

    def test_schema_errors_name_the_field(self):
        with pytest.raises(SchemaError, match="dims"):
            system_from_json({"amplitudes": [], "hamiltonian": []})
        with pytest.raises(SchemaError, match="dims"):
            system_from_json({"dims": [2, -1], "amplitudes": [], "hamiltonian": []})
        with pytest.raises(SchemaError, match="amplitudes/matrix"):
            system_from_json({"dims": [2], "hamiltonian": []})
        with pytest.raises(SchemaError, match="amplitudes/matrix"):
            system_from_json({
                "dims": [2], "amplitudes": [[1, 0], [0, 0]],
                "matrix": [[1, 0]] * 4, "hamiltonian": [[0, 0]] * 4,
            })
        with pytest.raises(SchemaError, match="hamiltonian"):
            system_from_json({"dims": [2], "amplitudes": [[1, 0], [0, 0]]})
        with pytest.raises(SchemaError, match=r"amplitudes\[1\]"):
            system_from_json({
                "dims": [2], "amplitudes": [[1, 0], ["x", 0]],
                "hamiltonian": [[0, 0]] * 4,
            })
        with pytest.raises(SchemaError, match="expected 4 pairs"):
            system_from_json({
                "dims": [2], "amplitudes": [[1, 0], [0, 0]],
                "hamiltonian": [[0, 0]] * 3,
            })

    def test_dump_matches_the_frozen_per_element_loop(self, tmp_path, monkeypatch):
        # -0.0, subnormals and 1e300 written by the loop that used to convert
        # each entry and by today's bulk conversion: the files are byte-identical
        lay = SubsystemLayout((2,))
        rho = DensityMatrix(lay, np.array([[1.0, complex(5e-324, -0.0)],
                                           [complex(5e-324, 0.0), complex(-0.0, 0.0)]]))
        h = Hamiltonian(lay, np.array([[0.0, complex(-0.0, 2.5e-310)],
                                       [complex(-0.0, -2.5e-310), 1e300]]))
        new = tmp_path / "new.json"
        dump_system(rho, h, new)
        text = new.read_text()
        assert "-0.0" in text and "5e-324" in text and "2.5e-310" in text and "1e+300" in text
        frozen = tmp_path / "frozen.json"
        monkeypatch.setattr(qcore, "_array_to_pairs", lambda arr: [
            [float(z.real), float(z.imag)] for z in np.asarray(arr, dtype=complex).reshape(-1)])
        dump_system(rho, h, frozen)
        assert frozen.read_bytes() == new.read_bytes()

    def test_bulk_conversion_matches_pairwise(self, rng):
        raw = [[float(re), float(im)] for re, im in rng.standard_normal((64, 2))]
        raw[3] = [2, -1]  # JSON integers
        raw[5] = (0.5, -0.0)
        out = _pairs_to_array(raw, 64, "matrix")
        expected = np.array([complex(re, im) for re, im in raw])
        assert out.dtype == complex and out.shape == (64,)
        assert np.array_equal(out.view(float), expected.view(float))  # bit for bit

    def test_float_subclass_pairs_convert_in_bulk(self, rng):
        # np.float64 subclasses float: its pairs take the bulk path and give
        # the plain floats' array bit for bit
        raw = [[float(re), float(im)] for re, im in rng.standard_normal((16, 2))]
        raw[7] = [1e300, -0.0]
        wrapped = [[np.float64(re), np.float64(im)] for re, im in raw]
        assert _number_pairs(wrapped) is not None
        out = _pairs_to_array(wrapped, 16, "matrix")
        assert np.array_equal(out.view(np.int64), _pairs_to_array(raw, 16, "matrix").view(np.int64))

    @pytest.mark.parametrize("bad", [
        [True, 0.0], [0.0, False], ["1.5", 0.0], [None, 0.0], [1.0], [1.0, 0.0, 0.0],
        [[1.0], [0.0]], "ab", {"re": 1.0, "im": 0.0}, 1.0, None,
    ])
    def test_bad_pair_named_by_index(self, bad):
        pairs = [[0.0, 0.0]] * 4
        pairs[2] = bad
        with pytest.raises(SchemaError, match=r"^hamiltonian\[2\]: expected a \[re, im\] pair"):
            system_from_json({"dims": [2], "amplitudes": [[1, 0], [0, 0]], "hamiltonian": pairs})

    def test_oversized_integer_named_by_index(self):
        pairs = [[0, 0], [0, 0], [0, 0], [10 ** 400, 0]]
        with pytest.raises(SchemaError, match=r"^hamiltonian\[3\]: number too large"):
            system_from_json({"dims": [2], "amplitudes": [[1, 0], [0, 0]], "hamiltonian": pairs})

    def test_invariant_violation_is_not_schema_error(self):
        obj = {
            "dims": [2],
            "amplitudes": [[1.0, 0.0], [1.0, 0.0]],  # norm sqrt(2)
            "hamiltonian": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        }
        with pytest.raises(InvariantViolation, match="norm"):
            system_from_json(obj)

    def test_not_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_system(path)
