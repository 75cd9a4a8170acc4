import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from matrixwell import (
    InteriorBlockSpec,
    NonConvergentDerivative,
    OperatorMatrix,
    WellConfig,
    build_hamiltonian,
    build_momentum,
    build_position,
    canonical_commutator_report,
    commutator,
    commutator_trace,
    evolve,
    force_matrix,
    hamilton_derivative,
    identity,
    mode_frequency,
    momentum_element,
    position_element,
    revival_time,
)
from matrixwell import operators
from matrixwell.cli import _run_elements, _run_evolve, _run_revival, parse_config
from matrixwell.operators import _parity_blocks, _position_evolution_checks
from matrixwell.well import _MAX_DENSE_BYTES
from oracles import closed_form_matrices


@pytest.fixture
def cfg():
    return WellConfig(N=32)


class TestBuilders:
    def test_position_two_by_two(self):
        cfg = WellConfig(N=2)
        a = -16.0 / (9.0 * math.pi**2)
        expect = np.array([[0.5, a], [a, 0.5]])
        np.testing.assert_allclose(build_position(cfg).entries, expect, atol=1e-15)

    def test_position_diagonal_and_symmetry(self, cfg):
        x = build_position(cfg).entries
        np.testing.assert_array_equal(np.diagonal(x).real, np.full(cfg.N, cfg.L / 2.0))
        assert np.array_equal(x, x.T)  # exactly, not approximately

    def test_momentum_two_by_two(self):
        cfg = WellConfig(N=2)
        expect = np.array([[0.0, 8j / 3.0], [-8j / 3.0, 0.0]])
        np.testing.assert_allclose(build_momentum(cfg).entries, expect, atol=1e-15)

    def test_momentum_trace_and_parity(self, cfg):
        p = build_momentum(cfg).entries
        assert np.trace(p) == 0.0
        k = np.arange(1, cfg.N + 1)
        even = (k[:, None] + k[None, :]) % 2 == 0
        assert np.all(p[even] == 0.0)

    def test_momentum_hermitian_exactly(self, cfg):
        p = build_momentum(cfg)
        assert p.hermiticity_defect() == 0.0

    def test_hamiltonian_diagonal(self):
        cfg = WellConfig(N=3)
        h = build_hamiltonian(cfg).entries
        np.testing.assert_allclose(
            np.diagonal(h).real, [math.pi**2 / 2, 2 * math.pi**2, 9 * math.pi**2 / 2], rtol=1e-14
        )
        off = h - np.diag(np.diagonal(h))
        assert np.all(off == 0.0)

    def test_hamiltonian_factorizes(self, cfg):
        h = build_hamiltonian(cfg).entries
        n = np.arange(1, cfg.N + 1)
        scale = cfg.hbar**2 * math.pi**2 / (2 * cfg.m * cfg.L**2)
        np.testing.assert_allclose(np.diagonal(h).real, scale * n**2, rtol=1e-14)


class TestSizeCap:
    @pytest.mark.parametrize(
        "build",
        [
            build_position,
            build_momentum,
            build_hamiltonian,
            force_matrix,
            lambda cfg: evolve(identity(2), cfg, 0.1),
        ],
    )
    def test_refused_before_allocating(self, build):
        # one complex 4097 x 4097 matrix: 256.1 MiB; 10**157 once overflowed the message's float division
        for n in (4097, 10**157):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="MiB cap"):
                    build(WellConfig(N=n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    @pytest.mark.parametrize("name", ["build_position", "build_momentum", "build_hamiltonian", "evolve"])
    def test_peak_below_one_and_a_half_matrices(self, name):
        cfg = WellConfig(N=1024)  # 16 row blocks
        x = build_position(cfg)
        build = {
            "build_position": lambda: build_position(cfg),
            "build_momentum": lambda: build_momentum(cfg),
            "build_hamiltonian": lambda: build_hamiltonian(cfg),
            "evolve": lambda: evolve(x, cfg, 0.3),
        }[name]
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * cfg.N**2

    def test_commutator_report_peak_below_one_matrix(self):
        cfg = WellConfig(N=1024)  # 16 row blocks; the interior block spans four of them
        tracemalloc.start()
        try:
            canonical_commutator_report(cfg, InteriorBlockSpec(cfg.N // 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * cfg.N**2

    @pytest.mark.parametrize("n", [2, 3, 64, 257, 700])
    def test_bit_equal_to_every_entry_formed(self, n):
        # the builders form only the k + l odd entries; 257 and 700 take several row blocks
        cfg = WellConfig(L=1.3, hbar=0.7, N=n)
        x, p_over_i = closed_form_matrices(cfg)
        p = np.zeros((n, n), dtype=complex)
        p.imag[...] = p_over_i  # the real parts are +0.0, where 1j * p_over_i would give -0.0 beside a negative entry
        bits = [build_position(cfg).entries, build_momentum(cfg).entries, x.astype(complex), p]
        got_x, got_p, want_x, want_p = (a.view(np.uint64) for a in bits)
        np.testing.assert_array_equal(got_x, want_x)
        np.testing.assert_array_equal(got_p, want_p)

    @pytest.mark.parametrize("n", [2, 7, 250])
    def test_each_entry_formed_once(self, n):
        """The k + l odd entries are formed once, as the ceil(N/2) floor(N/2) of each parity block a
        run needs: elements forms B and Q, build_position and evolve B alone, revival B once for
        both its largest change and its spread, and build_momentum Q alone."""
        formed = {}

        def counting(form, helper):
            def count(cfg, kl, d):
                formed[form] = formed.get(form, 0) + kl.size
                return helper(cfg, kl, d)

            return count

        block = -(-n // 2) * (n // 2)
        runs = [
            (lambda: _run_elements(parse_config(["elements", "--N", str(n)])), {"x": block, "p/i": block}),
            (lambda: build_position(WellConfig(N=n)), {"x": block}),
            (lambda: build_momentum(WellConfig(N=n)), {"p/i": block}),
            (lambda: _run_evolve(parse_config(["evolve", "--N", str(n)])), {"x": block}),
            (lambda: _run_revival(parse_config(["revival", "--N", str(n), "--state", "eigen:1"])), {"x": block}),
        ]
        with (
            mock.patch.object(operators, "_position_offdiagonal", counting("x", operators._position_offdiagonal)),
            mock.patch.object(operators, "_momentum_offdiagonal", counting("p/i", operators._momentum_offdiagonal)),
        ):
            for fill, want in runs:
                formed.clear()
                fill()
                assert formed == want

    def test_row_blocks_match_closed_forms(self):
        cfg = WellConfig(L=1.3, hbar=0.7, N=700)  # 8 row blocks, the last one short
        x, p = build_position(cfg).entries, build_momentum(cfg).entries
        rng = np.random.default_rng(7)
        picks = [(k, l) for k, l in rng.integers(1, cfg.N + 1, size=(400, 2))]
        picks += [(n, n) for n in (1, 94, 699, 700)] + [(700, 1), (1, 700), (700, 699), (94, 93)]
        for k, l in picks:
            assert x[k - 1, l - 1] == position_element(cfg, k, l), (k, l)
            assert p[k - 1, l - 1] == momentum_element(cfg, k, l), (k, l)
        # the whole-matrix product evolve used to form; the phase is a named array, since
        # numpy may multiply into an unnamed temporary with a kernel that rounds differently
        n2 = np.arange(1, cfg.N + 1) ** 2
        op = OperatorMatrix(x + 1j * rng.normal(size=x.shape))
        phase = np.exp(1j * (np.subtract.outer(n2, n2) * (cfg.base_frequency * 0.37)))
        np.testing.assert_array_equal(evolve(op, cfg, 0.37).entries, op.entries * phase)

    def test_caller_array_is_copied_builder_array_is_not(self):
        a = np.zeros((2, 2), dtype=complex)
        op = OperatorMatrix(a)
        a[0, 0] = 1.0
        assert op.entries[0, 0] == 0.0 and a.flags.writeable
        x = build_position(WellConfig(N=8)).entries
        assert x.flags.owndata and not x.flags.writeable


class TestEvolve:
    def test_t_zero_is_identity_map(self, cfg):
        x = build_position(cfg)
        np.testing.assert_array_equal(evolve(x, cfg, 0.0).entries, x.entries)

    def test_diagonal_static(self, cfg):
        x = build_position(cfg)
        for t in (0.3, 1.7, 12.9):
            np.testing.assert_allclose(
                np.diagonal(evolve(x, cfg, t).entries), np.diagonal(x.entries), rtol=1e-15
            )

    def test_revival_phases(self, cfg):
        x = build_position(cfg)
        xt = evolve(x, cfg, revival_time(cfg))
        assert np.abs(xt.entries - x.entries).max() < 1e-10

    def test_group_property(self, cfg):
        x = build_position(cfg)
        t1, t2 = 0.2, 0.3
        once = evolve(x, cfg, t1 + t2)
        twice = evolve(evolve(x, cfg, t1), cfg, t2)
        nz = x.entries != 0
        rel = np.abs(twice.entries[nz] - once.entries[nz]) / np.abs(once.entries[nz])
        assert rel.max() < 1e-12

    def test_inverse(self, cfg):
        p = build_momentum(cfg)
        back = evolve(evolve(p, cfg, 0.8), cfg, -0.8)
        assert np.abs(back.entries - p.entries).max() < 1e-12

    def test_frobenius_invariant(self, cfg):
        x = build_position(cfg)
        f0 = x.frobenius()
        for t in (0.1, 2.3, 17.0):
            assert evolve(x, cfg, t).frobenius() == pytest.approx(f0, rel=1e-12)

    def test_hermiticity_preserved(self, cfg):
        for op in (build_position(cfg), build_momentum(cfg)):
            for t in (0.05, 1.1, 3.3):
                assert evolve(op, cfg, t).hermiticity_defect() < 1e-12

    def test_dimension_mismatch(self, cfg):
        with pytest.raises(ValueError):
            evolve(identity(cfg.N + 1), cfg, 0.1)

    def test_numpy_pairs_each_phase_with_its_conjugate(self):
        """exp(-iy) is the exact conjugate of exp(iy), as the `evolve` and `revival` scenarios assume.

        They form e^{i|d| w t} once per entry of the parity block B and take the (k, l) phase as its
        conjugate, which is what evolve gives only while numpy pairs the two bit for bit.
        A numpy that breaks the pairing fails here, not in a report.  At y = 0 the two
        differ in the sign of a zero imaginary part only.  That zero never reaches a
        column: the columns use a phase only through |x e - x|, which drops the sign,
        and y = |k^2 - l^2| w t is 0 only where w t is, since k + l is odd.
        """
        rng = np.random.default_rng(11)
        n = math.isqrt(_MAX_DENSE_BYTES // 16)  # the largest N under the dense cap
        d = rng.integers(1, n * n, size=200_000, endpoint=True)
        top = math.log10(np.finfo(float).max / (n * n))  # parse_config keeps N^2 w t finite
        w = 10.0 ** rng.uniform(-320.0, top, d.size) * rng.choice([-1.0, 1.0], d.size)
        pair = np.exp(1j * ((-d) * w)), np.exp(1j * (d * w)).conj()
        np.testing.assert_array_equal(pair[0].view(np.uint64), pair[1].view(np.uint64))

        y = 10.0 ** rng.uniform(-320.0, 308.0, 200_000)
        y = np.concatenate([[1e-320, 5e-324, 1e308, np.finfo(float).max], y])
        y = np.concatenate([y, -y])
        pair = np.exp(1j * -y), np.exp(1j * y).conj()
        np.testing.assert_array_equal(pair[0].view(np.uint64), pair[1].view(np.uint64))
        zero = np.exp(1j * np.array([-0.0])), np.exp(1j * np.array([0.0])).conj()
        assert zero[0] == zero[1]  # 1 + 0j and 1 - 0j at numpy 2.4.6

    def test_evolve_report_exponentiates_few_groups(self):
        """Inside one revival period at N = 200, T = 101, the `evolve` report's samples stop after
        at most 5 % of the 100 x 100 entries of B, counted as the elements handed to np.exp, so a
        return to evaluating every entry at every sample fails here without a timing."""
        cfg = WellConfig(N=200)
        interior = np.linspace(0.0, revival_time(cfg), 101)[1:-1]
        (b,) = _parity_blocks(cfg, "x")
        real_exp, sizes = np.exp, []

        def counting_exp(z, *args, **kwargs):
            sizes.append(np.size(z))
            return real_exp(z, *args, **kwargs)

        with mock.patch.object(np, "exp", counting_exp):
            _position_evolution_checks(cfg, interior, b)
        assert 0 < sum(sizes) <= 0.05 * 100 * 100 * len(interior)

    def test_evolve_report_near_zero_exponentiates_few_groups(self):
        """On [0, 1e-6 t_r] at N = 200, T = 101 every change is at most p theta, far below 2 p, so
        the bound min(2 p, |w t| S) closes each sample after at most 5 % of the 100 x 100 entries of B;
        at t = 0 no entry reaches np.exp."""
        cfg = WellConfig(N=200)
        times = np.linspace(0.0, 1e-6 * revival_time(cfg), 101)
        (b,) = _parity_blocks(cfg, "x")
        real_exp, sizes = np.exp, []

        def counting_exp(z, *args, **kwargs):
            sizes.append(np.shape(z))
            return real_exp(z, *args, **kwargs)

        with mock.patch.object(np, "exp", counting_exp):
            _position_evolution_checks(cfg, times[:1], b)
            assert sizes == []
            _position_evolution_checks(cfg, times, b)
        assert 0 < sum(map(np.prod, sizes)) <= 0.05 * 100 * 100 * len(times)

    def _peak(self, fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def test_evolve_report_peak_at_n_1024(self):
        """At t_r, where every entry of B is exponentiated, the fill of B and the report peak at 0.70
        dense complex matrices, within 0.91."""
        cfg = WellConfig(N=1024)
        t_r = np.array([revival_time(cfg)])
        peak, _ = self._peak(lambda: _position_evolution_checks(cfg, t_r, *_parity_blocks(cfg, "x")))
        assert peak <= 0.91 * 16 * 1024**2

    def test_evolve_report_footprint_at_a_million_samples(self):
        """The samples are taken in blocks and a chunk in batches, so no work array grows with T:
        at N = 8 and 10^6 samples the peak stays within 4 MiB of the T-long row itself."""
        cfg = WellConfig(N=8)
        times = np.linspace(0.0, 3.0 * revival_time(cfg), 10**6)
        peak, out = self._peak(lambda: _position_evolution_checks(cfg, times, *_parity_blocks(cfg, "x")))
        assert peak <= out.nbytes + 4 * 2**20


class TestCommutator:
    def test_self_commutators_vanish(self, cfg):
        for op in (build_hamiltonian(cfg), build_position(cfg)):
            assert np.all(commutator(op, op).entries == 0.0)

    def test_antisymmetric_exactly(self, cfg):
        x, p = build_position(cfg), build_momentum(cfg)
        ab = commutator(x, p).entries
        ba = commutator(p, x).entries
        assert np.array_equal(ab, -ba)

    def test_bilinear(self, cfg):
        x, p, h = build_position(cfg), build_momentum(cfg), build_hamiltonian(cfg)
        lhs = commutator(OperatorMatrix(2.0 * x.entries + h.entries), p)
        rhs = 2.0 * commutator(x, p).entries + commutator(h, p).entries
        np.testing.assert_allclose(lhs.entries, rhs, atol=1e-10)

    def test_dimension_mismatch(self, cfg):
        with pytest.raises(ValueError):
            commutator(build_position(cfg), identity(cfg.N + 2))

    def test_interior_block_approximates_identity(self):
        cfg = WellConfig(N=200)
        x, p = build_position(cfg), build_momentum(cfg)
        c = commutator(x, p).entries / (1j * cfg.hbar)
        assert np.abs(c[:10, :10] - np.eye(10)).max() < 0.05


class TestCanonicalCommutatorReport:
    def test_interior_deviation_small_and_trace_exact(self):
        cfg = WellConfig(N=120)
        rep = canonical_commutator_report(cfg, InteriorBlockSpec(10))
        assert rep.interior_max_deviation < 0.05
        assert rep.trace == 0.0  # exact: the closed forms fix it
        assert abs(rep.trace_naive) < 1e-10  # naive summation only reaches roundoff
        assert rep.edge_diagonal_min < -1.0  # the truncation artifact is visible

    def test_trace_shows_an_entry_that_overflows(self):
        cfg = WellConfig(hbar=1e306, N=64)  # 4 hbar k l overflows; the CLI refuses this scale
        with np.errstate(over="ignore", invalid="ignore"):
            rep = canonical_commutator_report(cfg, InteriorBlockSpec(4))
        assert rep.trace.real == 0.0 and math.isnan(rep.trace.imag)

    def test_convergence_factor(self):
        devs = []
        for n in (60, 120, 240):
            rep = canonical_commutator_report(WellConfig(N=n), InteriorBlockSpec(10))
            devs.append(rep.interior_max_deviation)
        assert devs[1] <= 0.7 * devs[0]
        assert devs[2] <= 0.7 * devs[1]

    def test_block_too_large_rejected(self, cfg):
        with pytest.raises(ValueError):
            canonical_commutator_report(cfg, InteriorBlockSpec(cfg.N // 4 + 1))
        with pytest.raises(ValueError):
            InteriorBlockSpec(0)

    def test_commutator_trace_exact_for_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = OperatorMatrix(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
            b = OperatorMatrix(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
            assert commutator_trace(a, b) == 0.0


class TestMomentumSquared:
    def test_diagonality_improves_with_truncation(self):
        ratios_diag, ratios_off = [], []
        for n in (60, 120, 240):
            cfg = WellConfig(N=n)
            p2 = (build_momentum(cfg) @ build_momentum(cfg)).entries.real
            scale = cfg.hbar**2 * math.pi**2 / cfg.L**2
            ratios_diag.append(abs(p2[0, 0] - scale) / scale)
            ratios_off.append(abs(p2[0, 2]) / p2[0, 0])
        assert ratios_diag[0] > ratios_diag[1] > ratios_diag[2]
        assert ratios_off[0] > ratios_off[1] > ratios_off[2]
        assert ratios_diag[2] < 0.01

    def test_twice_mass_times_p2_matches_spectrum(self):
        cfg = WellConfig(N=240)
        p2 = (build_momentum(cfg) @ build_momentum(cfg)).entries.real
        for n in range(1, 6):
            e_n = cfg.hbar**2 * math.pi**2 * n**2 / (2 * cfg.m * cfg.L**2)
            assert abs(p2[n - 1, n - 1] / (2 * cfg.m) - e_n) / e_n < 0.05


class TestHamiltonDerivative:
    def test_kinetic_hamiltonian_gives_velocity(self, cfg):
        p = build_momentum(cfg)

        def kinetic(op):
            return OperatorMatrix(op.entries @ op.entries / (2.0 * cfg.m))

        d = hamilton_derivative(kinetic, p)
        assert np.abs(d.entries - p.entries / cfg.m).max() < 1e-10

    def test_constant_hamiltonian_gives_zero(self, cfg):
        h = build_hamiltonian(cfg)
        d = hamilton_derivative(lambda _op: h, build_position(cfg))
        assert np.all(d.entries == 0.0)

    def test_pair_identity_with_position_rate(self, cfg):
        # the t=0 slope of x(t) equals dH/dp = p/m entrywise
        x = build_position(cfg).entries
        p = build_momentum(cfg).entries
        n2 = np.arange(1, cfg.N + 1) ** 2
        gaps = (n2[:, None] - n2[None, :]) * mode_frequency(cfg, 1)
        slope = 1j * gaps * x
        assert np.abs(slope - p / cfg.m).max() < 1e-12

    def test_divergent_sequence_raises(self, cfg):
        p = build_momentum(cfg)

        def pathological(op):
            gap = np.abs(op.entries - p.entries).max()
            if gap == 0.0:
                return OperatorMatrix(np.zeros_like(p.entries))
            return OperatorMatrix(np.eye(cfg.N, dtype=complex) / math.sqrt(gap))

        with pytest.raises(NonConvergentDerivative):
            hamilton_derivative(pathological, p)
