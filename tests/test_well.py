import math
import tracemalloc

import numpy as np
import pytest

from matrixwell import well

from oracles import (
    cosine_form_momentum,
    cosine_form_position,
    momentum_element_quad,
    norm_quad,
    position_element_quad,
)


@pytest.fixture
def cfg():
    return well.WellConfig(N=30)


class TestWellConfig:
    @pytest.mark.parametrize(
        "bad",
        [dict(L=0), dict(m=-1), dict(hbar=0), dict(N=1), dict(N=2.5),
         dict(L=math.inf), dict(m=math.inf), dict(hbar=math.inf), dict(L=math.nan)],
    )
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            well.WellConfig(**bad)

    def test_base_frequency_is_ground_frequency(self, cfg):
        assert cfg.base_frequency == pytest.approx(well.mode_frequency(cfg, 1), rel=1e-15)


class TestSpectrum:
    def test_wavenumber_values(self):
        assert well.wavenumber(well.WellConfig(L=1.0), 1) == pytest.approx(math.pi)
        assert well.wavenumber(well.WellConfig(L=2.0, N=10), 4) == pytest.approx(2 * math.pi)
        assert well.wavenumber(well.WellConfig(L=0.5, N=10), 3) == pytest.approx(6 * math.pi)

    def test_eigen_energy_values(self):
        assert well.eigen_energy(well.WellConfig(), 1) == pytest.approx(math.pi**2 / 2)
        assert well.eigen_energy(well.WellConfig(), 3) == pytest.approx(9 * math.pi**2 / 2)
        assert well.eigen_energy(well.WellConfig(L=2, m=2), 1) == pytest.approx(math.pi**2 / 16)

    def test_mode_frequency_values(self, cfg):
        assert well.mode_frequency(cfg, 1) == pytest.approx(math.pi**2 / 2)
        assert well.mode_frequency(cfg, 2) == pytest.approx(2 * math.pi**2)

    def test_quadratic_spectrum_identity(self):
        cfg = well.WellConfig(L=1.7, m=0.6, hbar=2.0, N=25)
        w1 = well.mode_frequency(cfg, 1)
        for n, m_ in [(3, 1), (7, 2), (25, 24)]:
            gap = well.mode_frequency(cfg, n) - well.mode_frequency(cfg, m_)
            assert gap == pytest.approx((n * n - m_ * m_) * w1, rel=1e-13)

    def test_energies_strictly_increasing(self, cfg):
        e = [well.eigen_energy(cfg, n) for n in range(1, cfg.N + 1)]
        assert all(a < b for a, b in zip(e, e[1:]))

    def test_mode_index_validated(self, cfg):
        with pytest.raises(ValueError):
            well.wavenumber(cfg, 0)
        with pytest.raises(ValueError):
            well.eigen_energy(cfg, cfg.N + 1)


class TestEigenfunction:
    def test_boundary_zeros(self, cfg):
        assert well.eigenfunction(cfg, 1, 0.0) == 0.0
        assert well.eigenfunction(cfg, 1, cfg.L) == pytest.approx(0.0, abs=1e-12)

    def test_known_values(self, cfg):
        assert well.eigenfunction(cfg, 1, 0.5) == pytest.approx(math.sqrt(2))
        assert well.eigenfunction(cfg, 2, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_outside_well(self, cfg):
        with pytest.raises(ValueError):
            well.eigenfunction(cfg, 1, -0.1)
        with pytest.raises(ValueError):
            well.eigenfunction(cfg, 1, cfg.L + 0.1)

    def test_normalized_by_quadrature(self):
        for L in (1.0, 2.5):
            for n in range(1, 26):
                assert norm_quad(L, n) == pytest.approx(1.0, abs=1e-10)


class TestQuadratureRule:
    @pytest.mark.parametrize("L, n", [(1.0, 2), (0.7, 63), (1.3, 65), (2.9, 300), (0.8, 1000)])
    def test_nodes_and_weights_bit_for_bit(self, L, n):
        # the whole-array formula the fock-density reports were made with
        nodes, weights = np.polynomial.legendre.leggauss(24)
        panels = max(64, n)
        h = L / panels
        x = (np.arange(panels)[:, None] * h + (nodes + 1.0) * (h / 2.0)).ravel()
        w = np.tile(weights * (h / 2.0), panels)
        got_x, got_w = well.quadrature_rule(well.WellConfig(L=L, N=n))
        assert np.array_equal(got_x, x)
        assert np.array_equal(got_w, w)


class TestSineCoefficients:
    def test_eigenfunction_gives_unit_vector_in_one_call(self):
        cfg = well.WellConfig(L=1.7, N=40)
        calls = []

        def f(x):
            calls.append(x.shape)
            return well.eigenfunction(cfg, 7, x)

        coeffs, norm2 = well.sine_coefficients(cfg, f)
        assert len(calls) == 1
        expect = np.zeros(cfg.N)
        expect[6] = 1.0
        np.testing.assert_allclose(coeffs, expect, rtol=0, atol=1e-13)
        assert norm2 == pytest.approx(1.0, abs=1e-13)

    def test_peak_memory_at_n_2048(self):
        """tracemalloc peak 3.8 MiB; the one-sine-per-node-and-mode loop peaked at 8.3 MiB.

        Both include the packet's own temporaries on the 49 152 nodes; the
        panel sums come from an FFT and the mode blocks hold 2**15 entries,
        so no N x P table is formed.
        """
        cfg = well.WellConfig(N=2048)

        def packet(x):
            return np.exp(-((x - 0.5) ** 2) / (4 * 0.05**2) + 40j * x)

        tracemalloc.start()
        try:
            well.sine_coefficients(cfg, packet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestPositionElement:
    def test_diagonal_is_half_width(self):
        for L in (1.0, 3.0):
            cfg = well.WellConfig(L=L, N=8)
            for n in (1, 4, 8):
                assert well.position_element(cfg, n, n) == L / 2.0

    def test_parity_zeros_exact(self, cfg):
        assert well.position_element(cfg, 1, 3) == 0.0
        assert well.position_element(cfg, 2, 6) == 0.0

    def test_ground_pair_value(self, cfg):
        expect = -16.0 / (9.0 * math.pi**2)
        assert well.position_element(cfg, 1, 2) == pytest.approx(expect, abs=1e-15)
        assert position_element_quad(1.0, 1, 2) == pytest.approx(expect, abs=1e-12)

    def test_symmetric(self, cfg):
        for k, l in [(1, 2), (3, 8), (5, 12)]:
            assert well.position_element(cfg, k, l) == well.position_element(cfg, l, k)

    def test_matches_unsimplified_cosine_form(self, cfg):
        for k in range(1, 13):
            for l in range(1, 13):
                assert well.position_element(cfg, k, l) == pytest.approx(
                    cosine_form_position(cfg.L, k, l), abs=1e-14
                )


class TestMomentumElement:
    def test_diagonal_vanishes(self, cfg):
        for n in (1, 5, 17):
            assert well.momentum_element(cfg, n, n) == 0.0

    def test_parity_zeros_exact(self, cfg):
        assert well.momentum_element(cfg, 1, 3) == 0.0
        assert well.momentum_element(cfg, 4, 2) == 0.0

    def test_ground_pair_matches_quadrature(self, cfg):
        got = well.momentum_element(cfg, 1, 2)
        oracle = momentum_element_quad(1.0, 1.0, 1, 2)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got.imag == pytest.approx(8.0 / 3.0, abs=1e-14)
        assert got.real == 0.0

    def test_hermitian(self, cfg):
        for k, l in [(1, 2), (2, 5), (7, 12)]:
            assert well.momentum_element(cfg, l, k) == np.conj(well.momentum_element(cfg, k, l))

    def test_matches_unsimplified_cosine_form(self, cfg):
        for k in range(1, 13):
            for l in range(1, 13):
                assert well.momentum_element(cfg, k, l) == pytest.approx(
                    cosine_form_momentum(cfg.L, cfg.hbar, k, l), abs=1e-14
                )

    def test_momentum_is_mass_times_position_rate(self):
        # p_kl = i m (omega_k - omega_l) x_kl, the Hamilton-pair identity at t=0
        cfg = well.WellConfig(L=2.0, m=1.5, hbar=0.7, N=20)
        for k in range(1, 21):
            for l in range(1, 21):
                gap = well.mode_frequency(cfg, k) - well.mode_frequency(cfg, l)
                lhs = well.momentum_element(cfg, k, l)
                rhs = 1j * cfg.m * gap * well.position_element(cfg, k, l)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestQuadratureOracle:
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_closed_forms_match_defining_integrals(self, L):
        cfg = well.WellConfig(L=L, N=12)
        tol = 1e-10 * max(L, 1.0 / L)
        for k in range(1, 13):
            for l in range(1, 13):
                assert well.position_element(cfg, k, l) == pytest.approx(
                    position_element_quad(L, k, l), abs=tol
                )
                assert well.momentum_element(cfg, k, l) == pytest.approx(
                    momentum_element_quad(L, 1.0, k, l), abs=tol
                )
