import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import integrate

from matrixwell import (
    FockBasis,
    FockState,
    StateVector,
    Statistics,
    WellConfig,
    check_algebra,
    completeness_defect,
    condensate_state,
    density_expectation,
    mode_frequency,
)
from matrixwell import fock
from matrixwell.fock import _ladders

from oracles import dense_annihilator, dense_field, wedge_annihilation

# bases small enough to enumerate with itertools and to build as dense matrices
SMALL_BASES = [FockBasis(m, Statistics.BOSON, c) for m in range(1, 5) for c in range(1, 4)] + [
    FockBasis(m, Statistics.FERMION) for m in range(1, 6)
]


@pytest.fixture
def cfg():
    return WellConfig(N=40)


@pytest.fixture
def bosons():
    return FockBasis(3, Statistics.BOSON, cutoff=4)


@pytest.fixture
def fermions():
    return FockBasis(3, Statistics.FERMION)


def basis_vector(basis, occupation):
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index_of(occupation)] = 1.0
    return v


class TestFockBasis:
    def test_dimensions(self):
        assert FockBasis(3, Statistics.BOSON, cutoff=4).dimension == 125
        assert FockBasis(5, Statistics.FERMION).dimension == 32

    def test_enumeration_mode_one_slowest(self):
        basis = FockBasis(2, Statistics.FERMION)
        occ = basis.occupations()
        np.testing.assert_array_equal(occ, [[0, 0], [0, 1], [1, 0], [1, 1]])
        # the basis order pinned by itertools, independently of how the basis computes it
        for basis in SMALL_BASES:
            expected = list(itertools.product(range(basis.cutoff + 1), repeat=basis.modes))
            occ = basis.occupations()
            assert occ.shape == (basis.dimension, basis.modes) and occ.dtype.kind == "i"
            np.testing.assert_array_equal(occ, expected)
            assert [basis.index_of(o) for o in expected] == list(range(basis.dimension))

    def test_index_roundtrip(self, bosons):
        occ = bosons.occupations()
        for i in (0, 17, 124):
            assert bosons.index_of(occ[i]) == i

    def test_fermion_cutoff_forced(self):
        with pytest.raises(ValueError):
            FockBasis(2, Statistics.FERMION, cutoff=3)

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            FockBasis(16, Statistics.FERMION)

    def test_statistics_value_is_taken_as_the_enum(self):
        # the ladders test the enum by identity: a string kept as is would pair a boson
        # cutoff with fermion sign strings (same_mode_defect 1.0, pair_defect 2.0)
        basis = FockBasis(2, "boson", 3)
        assert basis.statistics is Statistics.BOSON
        assert basis == FockBasis(2, Statistics.BOSON, 3)
        assert check_algebra(basis) == check_algebra(FockBasis(2, Statistics.BOSON, 3))
        assert FockBasis(3, "fermion").statistics is Statistics.FERMION

    def test_unknown_statistics_refused(self):
        with pytest.raises(ValueError):
            FockBasis(2, "bosun", 3)


class TestAnnihilator:
    def test_boson_single_quantum(self):
        basis = FockBasis(1, Statistics.BOSON, cutoff=3)
        a = dense_annihilator(basis, 1)
        one, zero = basis_vector(basis, [1]), basis_vector(basis, [0])
        np.testing.assert_array_equal(a @ one, zero)
        assert np.all(a @ zero == 0.0)

    def test_boson_ladder_amplitudes(self):
        basis = FockBasis(1, Statistics.BOSON, cutoff=5)
        a = dense_annihilator(basis, 1)
        for k in range(1, 6):
            got = a @ basis_vector(basis, [k])
            np.testing.assert_allclose(got, math.sqrt(k) * basis_vector(basis, [k - 1]))

    def test_fermion_sign_string(self):
        basis = FockBasis(2, Statistics.FERMION)
        a2 = dense_annihilator(basis, 2)
        got = a2 @ basis_vector(basis, [1, 1])
        np.testing.assert_array_equal(got, -basis_vector(basis, [1, 0]))

    def test_fermion_signs_match_wedge_oracle(self):
        # annihilating any mode of any 2-particle state reproduces the
        # first-quantized antisymmetrized contraction, signs included
        modes = 3
        basis = FockBasis(modes, Statistics.FERMION)
        singles = {n: basis_vector(basis, np.eye(modes, dtype=int)[n - 1]) for n in range(1, modes + 1)}
        for n1 in range(1, modes + 1):
            for n2 in range(n1 + 1, modes + 1):
                occ = np.zeros(modes, dtype=int)
                occ[[n1 - 1, n2 - 1]] = 1
                pair_vec = basis_vector(basis, occ)
                for mode in range(1, modes + 1):
                    got = dense_annihilator(basis, mode) @ pair_vec
                    oracle = wedge_annihilation(modes, (n1, n2), mode)
                    expect = sum(oracle[j] * singles[j + 1] for j in range(modes))
                    np.testing.assert_allclose(got, expect, atol=1e-14)

    def test_shift_forms_match_dense(self):
        # each shift form, placed as one entry per column, is the oracle's a_n exactly
        for basis in SMALL_BASES:
            cols = np.arange(basis.dimension)
            for n, (target, amps) in enumerate(_ladders(basis), start=1):
                a = np.zeros((basis.dimension, basis.dimension))
                a[target, cols] = amps
                np.testing.assert_array_equal(a, dense_annihilator(basis, n), err_msg=f"{basis} a_{n}")


class TestAlgebra:
    @pytest.mark.parametrize("modes", [2, 4, 6])
    def test_fermion_relations_exact(self, modes):
        rep = check_algebra(FockBasis(modes, Statistics.FERMION))
        assert rep.same_mode_defect == 0.0
        assert rep.cross_mode_defect == 0.0
        assert rep.pair_defect == 0.0
        assert rep.boundary_error == 0.0

    def test_boson_relations(self, bosons):
        rep = check_algebra(bosons)
        # below the cutoff the ladder reproduces the identity up to sqrt roundoff
        assert rep.same_mode_defect < 1e-13
        # saturated states carry the truncated-ladder defect -(cutoff+1)
        assert rep.boundary_error < 1e-13
        assert rep.saturated_states == 3 * 25
        # operators of different modes commute exactly
        assert rep.cross_mode_defect == 0.0
        assert rep.pair_defect == 0.0

    @pytest.mark.parametrize("basis", [FockBasis(m, Statistics.BOSON, 2) for m in (1, 2, 4)] + [
        FockBasis(m, Statistics.FERMION) for m in (3, 6)
    ])
    def test_each_mode_pair_checked_once(self, basis):
        # two relations per unordered pair (i <= j): M(M+1) calls, not 2 M^2 over ordered pairs
        with mock.patch.object(fock, "_relation", wraps=fock._relation) as relation:
            rep = check_algebra(basis)
        assert relation.call_count == basis.modes * (basis.modes + 1)
        assert rep.pair_defect == 0.0 and rep.cross_mode_defect == 0.0

    def test_boson_boundary_value_directly(self):
        basis = FockBasis(1, Statistics.BOSON, cutoff=3)
        a = dense_annihilator(basis, 1)
        defect = a @ a.conj().T - a.conj().T @ a - np.eye(basis.dimension)
        diag = np.real(np.diagonal(defect))
        np.testing.assert_allclose(diag[:-1], 0.0, atol=1e-13)
        assert diag[-1] == pytest.approx(-(basis.cutoff + 1), abs=1e-13)


class TestDenseCap:
    def test_algebra_and_density_allocate_no_dense_matrix(self, cfg):
        basis = FockBasis(12, Statistics.FERMION)
        dense_bytes = 16 * basis.dimension**2  # 256 MiB
        state = FockState(basis, basis_vector(basis, [1, 1, 1] + [0] * 9))
        xs = np.linspace(0.0, cfg.L, 50)
        tracemalloc.start()
        try:
            rep = check_algebra(basis)
            density = density_expectation(state, cfg, basis, xs, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.same_mode_defect, rep.cross_mode_defect, rep.pair_defect) == (0.0, 0.0, 0.0)
        expect = (2.0 / cfg.L) * sum(np.sin(n * np.pi * xs / cfg.L) ** 2 for n in (1, 2, 3))
        np.testing.assert_allclose(density, expect, atol=1e-12)
        assert peak < dense_bytes / 50


class TestFieldOperator:
    def test_vanishes_at_walls(self, cfg, bosons):
        assert np.all(dense_field(cfg, bosons, 0.0, 0.0) == 0.0)
        assert np.abs(dense_field(cfg, bosons, cfg.L, 0.0)).max() < 1e-12
        state = condensate_state(bosons, 3)
        assert density_expectation(state, cfg, bosons, 0.0) == 0.0
        assert density_expectation(state, cfg, bosons, cfg.L) < 1e-30

    def test_single_mode_value(self, cfg):
        basis = FockBasis(1, Statistics.BOSON, cutoff=2)
        f = dense_field(cfg, basis, cfg.L / 2.0, 0.0)
        expect = math.sqrt(2.0 / cfg.L) * dense_annihilator(basis, 1)
        np.testing.assert_allclose(f, expect, atol=1e-14)

    def test_position_validated(self, cfg, bosons):
        with pytest.raises(ValueError):
            density_expectation(FockState.vacuum(bosons), cfg, bosons, -0.1)

    def test_mode_count_must_fit_truncation(self, bosons):
        with pytest.raises(ValueError):
            density_expectation(FockState.vacuum(bosons), WellConfig(N=2), bosons, 0.3)

    def test_completeness_improves_with_modes(self, cfg):
        f = lambda x: x * x * (cfg.L - x) ** 2
        defects = [completeness_defect(cfg, f, m) for m in (4, 8, 16)]
        assert defects[0] > defects[1] > defects[2]


def ladder_hamiltonian(cfg, basis):
    """H = sum_n hbar omega_n a_n^dagger a_n from the oracle's ladder matrices."""
    return sum(
        cfg.hbar * mode_frequency(cfg, n) * (dense_annihilator(basis, n).T @ dense_annihilator(basis, n))
        for n in range(1, basis.modes + 1)
    )


class TestManyBodyHamiltonian:
    def test_vacuum_energy_zero(self, cfg, bosons):
        h = ladder_hamiltonian(cfg, bosons)
        assert h[0, 0] == 0.0

    def test_two_bosons_in_ground_mode(self, cfg, bosons):
        h = ladder_hamiltonian(cfg, bosons)
        idx = bosons.index_of([2, 0, 0])
        assert h[idx, idx] == pytest.approx(2 * cfg.hbar * mode_frequency(cfg, 1), rel=1e-14)

    def test_fermion_pair_energy(self, cfg):
        basis = FockBasis(2, Statistics.FERMION)
        h = ladder_hamiltonian(cfg, basis)
        idx = basis.index_of([1, 1])
        expect = cfg.hbar * (mode_frequency(cfg, 1) + mode_frequency(cfg, 2))
        assert h[idx, idx] == pytest.approx(expect, rel=1e-14)

    def test_additivity_over_all_states(self, cfg, bosons):
        h = np.diagonal(ladder_hamiltonian(cfg, bosons))
        omegas = np.array([mode_frequency(cfg, n) for n in (1, 2, 3)])
        expect = bosons.occupations() @ (cfg.hbar * omegas)
        np.testing.assert_allclose(h, expect, rtol=1e-14)

    def test_matches_ladder_construction(self, cfg, bosons):
        # a_n^dagger a_n is diagonal, so H is diag(occupation energies) exactly off the diagonal
        h = ladder_hamiltonian(cfg, bosons)
        assert np.all(h[~np.eye(bosons.dimension, dtype=bool)] == 0.0)


class TestOccupied:
    def test_one_hot_at_index_of(self, bosons, fermions):
        for basis, occ in [(bosons, [2, 0, 4]), (bosons, [0, 0, 0]), (fermions, [1, 0, 1])]:
            np.testing.assert_array_equal(FockState.occupied(basis, occ).coeffs, basis_vector(basis, occ))

    def test_vacuum_and_condensate_are_occupied_states(self, bosons, fermions):
        for basis in (bosons, fermions):
            vacuum = FockState.occupied(basis, [0] * basis.modes).coeffs
            np.testing.assert_array_equal(FockState.vacuum(basis).coeffs, vacuum)
        for n in range(bosons.cutoff + 1):
            condensate = condensate_state(bosons, n).coeffs
            np.testing.assert_array_equal(condensate, FockState.occupied(bosons, [n, 0, 0]).coeffs)

    def test_bad_occupation_refused(self, bosons, fermions):
        for basis, occ in [(bosons, [5, 0, 0]), (bosons, [-1, 0, 0]), (bosons, [0, 0]), (fermions, [0, 2, 0])]:
            with pytest.raises(ValueError):
                FockState.occupied(basis, occ)

    def test_coefficients_bit_equal_to_state_vector(self, bosons):
        rng = np.random.default_rng(5)
        raw = 1e-3 * (rng.normal(size=bosons.dimension) + 1j * rng.normal(size=bosons.dimension))
        got, want = FockState(bosons, raw).coeffs, StateVector(raw).coeffs
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not got.flags.writeable


class TestCondensate:
    def test_vacuum(self, bosons):
        s = condensate_state(bosons, 0)
        assert s.coeffs[0] == 1.0

    def test_three_particles(self, bosons):
        s = condensate_state(bosons, 3)
        idx = bosons.index_of([3, 0, 0])
        assert s.coeffs[idx] == 1.0
        assert np.abs(np.delete(s.coeffs, idx)).max() == 0.0

    def test_matches_repeated_creation(self, bosons):
        n = 3
        vac = FockState.vacuum(bosons).coeffs
        cr = dense_annihilator(bosons, 1).T
        v = vac.copy()
        for _ in range(n):
            v = cr @ v
        v = v / math.sqrt(math.factorial(n))
        np.testing.assert_allclose(condensate_state(bosons, n).coeffs, v, atol=1e-14)

    def test_energy_expectation(self, cfg, bosons):
        n = 4
        s = condensate_state(bosons, n)
        h = ladder_hamiltonian(cfg, bosons)
        got = float(np.real(np.vdot(s.coeffs, h @ s.coeffs)))
        assert got == pytest.approx(n * cfg.hbar * mode_frequency(cfg, 1), rel=1e-13)

    def test_rejected_configurations(self, bosons, fermions):
        with pytest.raises(ValueError):
            condensate_state(fermions, 2)
        with pytest.raises(ValueError):
            condensate_state(bosons, bosons.cutoff + 1)


class TestHeisenbergField:
    def test_t_zero_matches_static_field(self, cfg, bosons):
        x = 0.37
        static = sum(
            math.sqrt(2.0 / cfg.L) * math.sin(n * math.pi * x / cfg.L) * dense_annihilator(bosons, n)
            for n in (1, 2, 3)
        )
        np.testing.assert_array_equal(dense_field(cfg, bosons, x, 0.0), static)

    def test_matches_mode_phase_closed_form(self, cfg, bosons):
        # e^{iHt/hbar} Psi(x) e^{-iHt/hbar} with H diagonal in the occupation
        # basis equals the mode phases sum_n psi_n(x) e^{-i omega_n t} a_n
        x, t = 0.29, 0.83
        energies = bosons.occupations() @ np.array([cfg.hbar * mode_frequency(cfg, n) for n in (1, 2, 3)])
        conj = np.exp(1j * energies * t / cfg.hbar)
        expect = conj[:, None] * dense_field(cfg, bosons, x, 0.0) * conj.conj()[None, :]
        assert np.abs(dense_field(cfg, bosons, x, t) - expect).max() < 1e-12

    def test_single_mode_phase(self, cfg):
        basis = FockBasis(1, Statistics.BOSON, cutoff=2)
        t = 1.7
        got = dense_field(cfg, basis, cfg.L / 2.0, t)
        expect = (
            math.sqrt(2.0 / cfg.L)
            * np.exp(-1j * mode_frequency(cfg, 1) * t)
            * dense_annihilator(basis, 1)
        )
        np.testing.assert_allclose(got, expect, atol=1e-13)

    def test_number_operator_invariant(self, cfg, bosons):
        # integral Psi^dagger(x,t) Psi(x,t) dx = sum_n a_n^dagger a_n for every t:
        # mode orthonormality kills the cross terms and the phases cancel
        def integrated_number(t, nodes=80):
            xs, ws = np.polynomial.legendre.leggauss(nodes)
            xs = 0.5 * cfg.L * (xs + 1.0)
            ws = 0.5 * cfg.L * ws
            acc = np.zeros((bosons.dimension, bosons.dimension), dtype=complex)
            for x, w in zip(xs, ws):
                e = dense_field(cfg, bosons, float(x), t)
                acc += w * (e.conj().T @ e)
            return acc

        total = np.diag(bosons.occupations().sum(axis=1).astype(float))
        at_zero = integrated_number(0.0)
        at_later = integrated_number(0.61)
        np.testing.assert_allclose(at_zero, total, atol=1e-10)
        np.testing.assert_allclose(at_later, at_zero, atol=1e-10)


class TestDensity:
    def test_condensate_density_closed_form(self, cfg, bosons):
        n = 4
        s = condensate_state(bosons, n)
        for x in np.linspace(0.0, cfg.L, 17):
            got0 = density_expectation(s, cfg, bosons, float(x), 0.0)
            got1 = density_expectation(s, cfg, bosons, float(x), 0.9)
            expect = n * (2.0 / cfg.L) * math.sin(math.pi * x / cfg.L) ** 2
            assert got0 == pytest.approx(expect, abs=1e-10)
            assert got1 == pytest.approx(got0, abs=1e-10)

    def test_vacuum_density_zero(self, cfg, bosons):
        s = FockState.vacuum(bosons)
        for x, t in [(0.2, 0.0), (0.7, 1.3)]:
            assert density_expectation(s, cfg, bosons, x, t) == 0.0

    def test_fermion_pair_density(self, cfg):
        basis = FockBasis(2, Statistics.FERMION)
        s = FockState(basis, basis_vector(basis, [1, 1]))
        for x in (0.1, 0.35, 0.8):
            expect = (2.0 / cfg.L) * (
                math.sin(math.pi * x / cfg.L) ** 2 + math.sin(2 * math.pi * x / cfg.L) ** 2
            )
            assert density_expectation(s, cfg, basis, x, 0.0) == pytest.approx(expect, abs=1e-12)
            assert density_expectation(s, cfg, basis, x, 0.4) == pytest.approx(expect, abs=1e-12)

    def test_density_integrates_to_particle_number(self, cfg):
        cases = [
            (FockBasis(3, Statistics.BOSON, cutoff=4), [2, 1, 0], 3),
            (FockBasis(2, Statistics.FERMION), [1, 1], 2),
        ]
        for basis, occ, total in cases:
            s = FockState(basis, basis_vector(basis, occ))
            val, _ = integrate.quad(
                lambda x: density_expectation(s, cfg, basis, x, 0.0), 0.0, cfg.L, limit=200
            )
            assert val == pytest.approx(total, abs=1e-8)
