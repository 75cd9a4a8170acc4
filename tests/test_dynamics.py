import math
import tracemalloc
import warnings

import numpy as np
import pytest

from matrixwell import (
    InvariantViolation,
    OperatorMatrix,
    ProjectionError,
    RunReport,
    StateVector,
    TimeGrid,
    WellConfig,
    build_momentum,
    build_position,
    completeness_defect,
    dispersion,
    ehrenfest_report,
    evolve,
    expectation,
    force_matrix,
    gaussian_packet,
    identity,
    mode_frequency,
    project_wavefunction,
    projection_capture,
    revival_time,
    short_time_expansion_check,
    sine_coefficients,
    spread_report,
    xt_x0_commutator,
)
from matrixwell.dynamics import _position_spread
from matrixwell.operators import _parity_blocks
from matrixwell.well import eigenfunction

from oracles import gaussian_whole_line_coefficients, two_mode_dx_truncated, x2_eigen_quad


@pytest.fixture
def cfg():
    return WellConfig(N=60)


def two_mode_state(n_dim):
    return StateVector.uniform_superposition([1, 2], n_dim)


class TestStateVector:
    def test_normalizes_on_construction(self):
        s = StateVector(np.array([3.0, 4.0]))
        assert np.linalg.norm(s.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_norm(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(4))

    def test_eigenstate_helper(self):
        s = StateVector.eigenstate(3, 5)
        assert s.coeffs[2] == 1.0
        assert np.abs(np.delete(s.coeffs, 2)).max() == 0.0

    def test_coefficients_immutable(self):
        s = StateVector.eigenstate(1, 4)
        with pytest.raises(ValueError):
            s.coeffs[0] = 0.0


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)

    def test_times_and_spacing(self):
        g = TimeGrid(0.0, 1.0, 5)
        assert g.spacing == 0.25
        np.testing.assert_allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


class TestGaussianPacket:
    def test_centered_packet_has_no_even_modes(self, cfg):
        s = gaussian_packet(cfg, cfg.L / 2.0, 0.05)
        assert np.abs(s.coeffs[1::2]).max() < 1e-12

    def test_eigenstate_projection_is_kronecker(self, cfg):
        target = 4
        s = project_wavefunction(cfg, lambda x: eigenfunction(cfg, target, x))
        assert s.coeffs[target - 1] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(np.delete(s.coeffs, target - 1)).max() < 1e-10

    def test_norm_capture_at_desk_scale(self):
        cfg = WellConfig(N=200)

        def packet(x):
            return np.exp(-((x - 0.5) ** 2) / (4 * 0.05**2))

        assert projection_capture(cfg, packet) >= 0.999

    def test_insufficient_truncation_raises(self):
        with pytest.raises(ProjectionError):
            gaussian_packet(WellConfig(N=3), 0.5, 0.01)

    def test_parameter_validation(self, cfg):
        with pytest.raises(ValueError):
            gaussian_packet(cfg, -0.5, 0.05)
        with pytest.raises(ValueError):
            gaussian_packet(cfg, 0.5, cfg.L)

    @pytest.mark.parametrize(
        "width, momentum, name",
        [(0.05, math.inf, "momentum"), (0.05, math.nan, "momentum"), (0.05, 1e308, "momentum"),
         (1e-300, 0.0, "width"), (1e-160, 0.0, "width")],
    )
    def test_unsampleable_packet_refused_before_sampling(self, width, momentum, name):
        # 1e308 / hbar overflows; 4 width^2 underflows to 0 or to a subnormal
        cfg = WellConfig(hbar=0.5, N=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"packet {name}"):
                gaussian_packet(cfg, 0.5, width, mean_momentum=momentum)

    @pytest.mark.parametrize(
        "L, center, width, k0L",
        [(0.701546, 0.350453, 0.031215, 0.0), (1.0, 0.5, 0.035, 35.0)],
    )
    def test_matches_whole_line_transform(self, L, center, width, k0L):
        # per-mode adaptive quad(weight="sin") misses mode 98 of the first packet by 1.2e-7
        cfg = WellConfig(L=L, N=200)
        s = gaussian_packet(cfg, center, width, mean_momentum=cfg.hbar * k0L / L)
        expect = gaussian_whole_line_coefficients(L, cfg.N, center, width, k0L / L)
        assert np.abs(s.coeffs - expect).max() < 1e-12

    def test_fast_narrow_packet_at_n_1000(self):
        # sum_n n |c_n - exact_n| was 2.6e-10 when each sine rounded its phase k_n x
        L = 0.8
        cfg = WellConfig(L=L, N=1000)
        s = gaussian_packet(cfg, 0.3 * L, 0.01 * L, mean_momentum=cfg.hbar * 100.0 / L)
        expect = gaussian_whole_line_coefficients(L, cfg.N, 0.3 * L, 0.01 * L, 100.0 / L)
        assert np.arange(1, cfg.N + 1) @ np.abs(s.coeffs - expect) < 5e-11

    def test_mean_momentum_shifts_p_expectation(self, cfg):
        p = build_momentum(cfg)
        s = gaussian_packet(cfg, 0.5, 0.07, mean_momentum=6.0)
        assert expectation(s, p).real == pytest.approx(6.0, rel=0.05)


@pytest.mark.parametrize(
    "caller",
    [sine_coefficients, projection_capture, project_wavefunction, lambda cfg, f: completeness_defect(cfg, f, 4)],
    ids=["sine_coefficients", "projection_capture", "project_wavefunction", "completeness_defect"],
)
@pytest.mark.parametrize("sample", [math.nan, 1e200], ids=["nan", "square-overflows"])
def test_non_finite_wavefunction_refused_by_every_projection(caller, sample):
    """The sampled integral of |f|^2 is checked once, in sine_coefficients, for all its callers."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\|f\|\^2 .* not finite"):
            caller(WellConfig(N=30), lambda x: np.full(x.shape, sample, dtype=complex))


class TestExpectation:
    def test_eigenstate_position_is_center(self, cfg):
        x = build_position(cfg)
        for n in (1, 5, 11):
            val = expectation(StateVector.eigenstate(n, cfg.N), x)
            assert val.real == pytest.approx(cfg.L / 2.0, abs=1e-13)

    def test_eigenstate_momentum_vanishes(self, cfg):
        p = build_momentum(cfg)
        assert abs(expectation(StateVector.eigenstate(2, cfg.N), p)) < 1e-13

    def test_two_mode_position(self, cfg):
        val = expectation(two_mode_state(cfg.N), build_position(cfg))
        assert val.real == pytest.approx(0.5 - 16.0 / (9 * math.pi**2), abs=1e-12)
        assert val.real == pytest.approx(0.31987, abs=1e-5)

    def test_hermitian_gives_real(self, cfg):
        rng = np.random.default_rng(3)
        s = StateVector(rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N))
        assert abs(expectation(s, build_position(cfg)).imag) < 1e-12

    def test_dimension_mismatch(self, cfg):
        with pytest.raises(ValueError):
            expectation(StateVector.eigenstate(1, cfg.N + 1), build_position(cfg))


class TestDispersion:
    def test_identity_operator(self, cfg):
        # variance roundoff ~1e-16 puts a sqrt(eps) floor under a zero spread
        s = two_mode_state(cfg.N)
        assert dispersion(s, identity(cfg.N)) < 1e-7

    def test_eigenstate_position_spread(self):
        cfg = WellConfig(N=100)
        x = build_position(cfg)
        for n in range(1, 6):
            expect = cfg.L * math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * n**2 * math.pi**2))
            got = dispersion(StateVector.eigenstate(n, cfg.N), x)
            assert got == pytest.approx(expect, abs=1e-9)
        assert dispersion(StateVector.eigenstate(1, cfg.N), x) == pytest.approx(0.18076, abs=1e-5)

    def test_eigenstate_spread_matches_quadrature(self):
        cfg = WellConfig(L=2.5, N=100)
        x = build_position(cfg)
        for n in (1, 3):
            var = x2_eigen_quad(cfg.L, n) - (cfg.L / 2.0) ** 2
            assert dispersion(StateVector.eigenstate(n, cfg.N), x) == pytest.approx(
                math.sqrt(var), abs=1e-9
            )

    def test_ground_state_momentum_spread(self):
        cfg = WellConfig(N=400)
        got = dispersion(StateVector.eigenstate(1, cfg.N), build_momentum(cfg))
        assert got == pytest.approx(math.pi, rel=0.01)

    def test_non_hermitian_rejected(self, cfg):
        bad = OperatorMatrix(np.triu(np.ones((cfg.N, cfg.N))))
        with pytest.raises(ValueError):
            dispersion(two_mode_state(cfg.N), bad)


class TestForceMatrix:
    def test_diagonal_and_parity_zeros(self, cfg):
        for t in (0.0, 0.4):
            f = force_matrix(cfg, t).entries
            assert np.all(np.diagonal(f) == 0.0)
            k = np.arange(1, cfg.N + 1)
            even_off = ((k[:, None] + k[None, :]) % 2 == 0) & ~np.eye(cfg.N, dtype=bool)
            assert np.all(f[even_off] == 0.0)

    def test_hermitian(self, cfg):
        for t in (0.0, 0.9):
            assert force_matrix(cfg, t).hermiticity_defect() < 1e-12

    def test_matches_finite_difference_of_momentum(self, cfg):
        # force = -dp/dt, checked against central differences at two steps;
        # interior block keeps the frequency gaps (and so the h^2 term) moderate
        p = build_momentum(cfg)
        t, b = 0.3, 15
        f = force_matrix(cfg, t).entries
        errs = []
        for h in (1e-6, 5e-7):
            dpdt = (evolve(p, cfg, t + h).entries - evolve(p, cfg, t - h).entries) / (2 * h)
            errs.append(np.abs((f + dpdt)[:b, :b]).max())
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


class TestEhrenfestReport:
    def test_stationary_state(self, cfg):
        rep = ehrenfest_report(StateVector.eigenstate(3, cfg.N), cfg, TimeGrid(0.0, 1.0, 33))
        assert rep.column("residual_x").max() < 1e-10
        assert rep.column("residual_p").max() < 1e-10
        assert np.ptp(rep.column("x_mean")) < 1e-12
        assert np.ptp(rep.column("dx")) < 1e-12

    def test_two_mode_momentum_oscillation(self, cfg):
        # <p>(t) = (8/3) sin((omega_2 - omega_1) t) for the equal 1,2 superposition
        gap = mode_frequency(cfg, 2) - mode_frequency(cfg, 1)
        grid = TimeGrid(0.0, 2.0 * math.pi / gap, 49)
        rep = ehrenfest_report(two_mode_state(cfg.N), cfg, grid)
        expect = (8.0 / 3.0) * np.sin(gap * rep.column("t"))
        np.testing.assert_allclose(rep.column("p_mean"), expect, atol=1e-10)

    def test_residuals_converge_at_second_order(self):
        cfg = WellConfig(N=16)
        rng = np.random.default_rng(11)
        coeffs = np.zeros(cfg.N, dtype=complex)
        coeffs[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
        state = StateVector(coeffs)
        maxima = []
        for steps in (257, 513):
            rep = ehrenfest_report(state, cfg, TimeGrid(0.0, 0.256, steps))
            maxima.append(
                (rep.column("residual_x")[2:-2].max(), rep.column("residual_p")[2:-2].max())
            )
        for coarse, fine in zip(maxima[0], maxima[1]):
            assert 3.5 <= coarse / fine <= 4.5


class TestXtX0Commutator:
    def test_zero_at_t0(self, cfg):
        assert np.all(xt_x0_commutator(cfg, 0.0).entries == 0.0)

    def test_short_time_limit(self):
        cfg = WellConfig(N=200)
        dt = 1e-7
        c = xt_x0_commutator(cfg, dt).entries
        b = cfg.N // 4
        expect = -1j * cfg.hbar * dt / cfg.m
        block = c[:b, :b]
        diag = np.diagonal(block)
        assert np.abs(diag - expect).max() <= 0.1 * abs(expect)
        off = block - np.diag(diag)
        assert np.abs(off).max() <= 0.1 * abs(expect)

    def test_zero_again_at_revival(self, cfg):
        c = xt_x0_commutator(cfg, revival_time(cfg)).entries
        assert np.abs(c).max() < 1e-12


class TestSpreadReport:
    def test_revival_restores_spread(self):
        cfg = WellConfig(N=200)
        packet = gaussian_packet(cfg, 0.5, 0.05)
        t_r = revival_time(cfg)
        rep = spread_report(packet, cfg, TimeGrid(0.0, t_r, 41))
        assert abs(rep.column("dx")[-1] - rep.column("dx0")[-1]) < 1e-9

    def test_two_samples_refused(self, cfg):
        with pytest.raises(ValueError, match="steps"):
            spread_report(StateVector.eigenstate(1, cfg.N), cfg, TimeGrid(0.0, 1.0, 2))

    def test_robertson_bound_holds_on_every_row(self):
        cfg = WellConfig(N=120)
        packet = gaussian_packet(cfg, 0.4, 0.06, mean_momentum=8.0)
        rep = spread_report(packet, cfg, TimeGrid(0.0, revival_time(cfg), 61))
        lhs = rep.column("dx") * rep.column("dx0")
        assert np.all(lhs >= rep.column("robertson_bound") - 1e-9)

    def test_two_mode_hand_formula_in_truncated_system(self):
        # In the N=2 system the 2x2 algebra collapses to dx(t) = |x12 sin(gap t)|
        cfg = WellConfig(N=2)
        state = two_mode_state(2)
        x = build_position(cfg)
        gap = mode_frequency(cfg, 2) - mode_frequency(cfg, 1)
        x12 = -16.0 / (9.0 * math.pi**2)
        for t in (0.0, 0.11, revival_time(cfg) / 2.0, 0.9):
            got = dispersion(state, evolve(x, cfg, t))
            assert got == pytest.approx(two_mode_dx_truncated(cfg.L, x12, t, gap), abs=1e-7)

    def test_two_mode_spread_at_half_revival_full_basis(self):
        # closed form from untruncated second moments; (x^2)_12 has no tail
        cfg = WellConfig(N=200)
        state = two_mode_state(cfg.N)
        t = revival_time(cfg) / 2.0
        gap = mode_frequency(cfg, 2) - mode_frequency(cfg, 1)
        x12 = -16.0 / (9.0 * math.pi**2)
        x2_11 = 1.0 / 3.0 - 1.0 / (2.0 * math.pi**2)
        x2_22 = 1.0 / 3.0 - 1.0 / (8.0 * math.pi**2)
        x2_12 = -16.0 / (9.0 * math.pi**2)
        mean = 0.5 + x12 * math.cos(gap * t)
        second = 0.5 * (x2_11 + x2_22) + x2_12 * math.cos(gap * t)
        expect = math.sqrt(second - mean * mean)
        got = dispersion(state, evolve(build_position(cfg), cfg, t))
        assert got == pytest.approx(expect, abs=1e-9)


class TestSeriesFootprint:
    """The series engine holds the parity blocks B and Q of x and p/i, an eighth of a dense complex matrix each."""

    DENSE = 16 * 1024**2  # one dense complex 1024 x 1024 matrix

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / self.DENSE
        finally:
            tracemalloc.stop()

    def test_spread_report_at_n_1024(self):
        """0.44 dense complex matrices; the real x and p/i peaked at 1.19, the complex x and p at 2.20."""
        cfg = WellConfig(N=1024)
        grid = TimeGrid(0.0, 0.1 * revival_time(cfg), 65)
        assert self._peak(lambda: spread_report(two_mode_state(cfg.N), cfg, grid)) <= 0.6

    def test_position_spread_at_n_1024(self):
        """0.29 dense complex matrices; the real x peaked at 0.64, the complex x at 1.11."""
        cfg = WellConfig(N=1024)
        times = np.array([0.0, revival_time(cfg)])
        state = two_mode_state(cfg.N)
        assert self._peak(lambda: _position_spread(state, cfg, times, *_parity_blocks(cfg, "x"))) <= 0.4


class TestShortTimeExpansion:
    def test_orders_by_halving(self):
        cfg = WellConfig(N=200)
        r = short_time_expansion_check(cfg, 4e-6)
        r_half = short_time_expansion_check(cfg, 2e-6)
        assert r.r1 / r_half.r1 == pytest.approx(4.0, rel=0.15)
        assert r.r2 / r_half.r2 == pytest.approx(8.0, rel=0.15)

    def test_zero_dt_is_exact(self, cfg):
        r = short_time_expansion_check(cfg, 0.0)
        assert r.r1 == 0.0
        assert r.r2 == 0.0

    def test_block_is_a_quarter_of_n(self):
        assert short_time_expansion_check(WellConfig(N=23), 1e-6).max_index == 5
        with pytest.raises(ValueError, match="N >= 4"):  # the block N // 4 would be empty
            short_time_expansion_check(WellConfig(N=3), 1e-6)

    def test_second_order_coefficient(self):
        # FD second derivative of x(t) at t=0 equals -force/m on the interior block
        cfg = WellConfig(N=100)
        x = build_position(cfg)
        f0 = force_matrix(cfg, 0.0).entries
        h = 1e-5
        acc = (
            evolve(x, cfg, h).entries - 2.0 * x.entries + evolve(x, cfg, -h).entries
        ) / (h * h)
        b = cfg.N // 4
        expect = -f0[:b, :b] / cfg.m
        scale = np.abs(expect).max()
        assert np.abs(acc[:b, :b] - expect).max() < 1e-4 * scale


class TestRevivalTime:
    def test_natural_units_value(self):
        assert revival_time(WellConfig()) == pytest.approx(4.0 / math.pi, rel=1e-15)
        assert revival_time(WellConfig()) == pytest.approx(1.27324, abs=1e-5)

    def test_quadratic_in_width(self):
        base = revival_time(WellConfig())
        assert revival_time(WellConfig(L=2.0)) == pytest.approx(4.0 * base, rel=1e-14)

    def test_phases_are_multiples_of_two_pi(self, cfg):
        t_r = revival_time(cfg)
        w1 = mode_frequency(cfg, 1)
        for k, l in [(1, 2), (3, 10), (7, 60)]:
            phase = (k * k - l * l) * (w1 * t_r)
            assert phase / (2 * math.pi) == pytest.approx(round(phase / (2 * math.pi)), abs=1e-9)


class TestTwoPictureAgreement:
    def test_heisenberg_matches_schrodinger(self, cfg):
        rng = np.random.default_rng(23)
        x, p = build_position(cfg), build_momentum(cfg)
        omegas = np.array([mode_frequency(cfg, n) for n in range(1, cfg.N + 1)])
        for _ in range(5):
            a = StateVector(rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N))
            for t in rng.uniform(0.0, revival_time(cfg), size=4):
                b = StateVector(a.coeffs * np.exp(-1j * omegas * t))
                for op in (x, p):
                    heis = expectation(a, evolve(op, cfg, t))
                    schrod = expectation(b, op)
                    assert heis == pytest.approx(schrod, abs=1e-10)


class TestReportInvariants:
    def test_series_are_revival_periodic(self, cfg):
        t_r = revival_time(cfg)
        half = 40
        grid = TimeGrid(0.0, 2.0 * t_r, 2 * half + 1)
        rep = spread_report(two_mode_state(cfg.N), cfg, grid)
        periodic = [
            c for c in RunReport.COLUMNS if c not in ("t", "free_particle_bound")
        ]  # the free-particle bound grows linearly by construction
        for name in periodic:
            col = rep.column(name)
            # compare central-difference rows only; shifted pairs sit one period apart
            np.testing.assert_allclose(col[2 : half - 1], col[half + 2 : 2 * half - 1], atol=1e-9)

    def test_norm_is_conserved(self, cfg):
        s = two_mode_state(cfg.N)
        spread_report(s, cfg, TimeGrid(0.0, 0.5, 9))
        assert np.linalg.norm(s.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_heisenberg_product_violation_raises(self):
        row = np.zeros((1, len(RunReport.COLUMNS)))
        row[0, 3] = 0.1  # dx
        row[0, 4] = 0.1  # dp: product 0.01 < hbar/2
        with pytest.raises(InvariantViolation):
            RunReport(row, hbar=1.0)

    @pytest.mark.parametrize("column, value", [(0, math.inf), (3, math.nan), (4, math.inf), (9, math.nan)])
    def test_non_finite_entry_raises(self, column, value):
        row = np.ones((1, len(RunReport.COLUMNS)))  # dx dp = 1 >= hbar/2 and dx dx0 = 1 >= the bound
        row[0, column] = value
        with pytest.raises(InvariantViolation, match="non-finite"):
            RunReport(row, hbar=1.0)

    def test_negative_dispersion_raises(self):
        row = np.zeros((1, len(RunReport.COLUMNS)))
        row[0, 3] = -0.1
        with pytest.raises(InvariantViolation):
            RunReport(row, hbar=1.0)
