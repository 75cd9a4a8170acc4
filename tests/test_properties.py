"""Property tests on random states: the series engine (N <= 64), the
shift-form Fock layer (bases of at most 125 states, and occupation
densities bit for bit at every t), the O(N^2) commutator report (N <= 200
against the full products, N <= 300 bit for bit against the report on
parity blocks sliced whole, and its trace against the paired sum at
scales over 1e+-300), the largest change over the parity block B of the
`evolve` and `revival` scenarios (N <= 128 against the dense x(t), N <= 300
bit for bit against both phases of every phase group, whatever the first
chunk of the stop rule and on grids near t = 0), the parity blocks (N <= 300
bit for bit against the whole closed forms), the panel-factorised sine
projection (N <= 512), and exact identities of the well: the rank-2 wall
force, the fractional revivals at t_r/4 and at random coprime p/q t_r with
q <= 12 (phases and position space), parity selection, and the parabola
x (L - x): its exact sine coefficients and the truncation gaps of <H>, <H^2>
and ||P a||^2 / 2m.

The example sequence is fixed (`derandomize`), so every run of the suite
tests the same states.
"""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrixwell import (
    FockBasis,
    FockState,
    InteriorBlockSpec,
    StateVector,
    Statistics,
    TimeGrid,
    WellConfig,
    build_momentum,
    build_position,
    canonical_commutator_report,
    check_algebra,
    density_expectation,
    ehrenfest_report,
    eigen_energy,
    force_matrix,
    quadrature_rule,
    revival_time,
    sine_coefficients,
)

from matrixwell import operators
from matrixwell.cli import _run_evolve, _run_revival, parse_config
from matrixwell.dynamics import _position_spread, _schrodinger_columns
from matrixwell.operators import _parity_blocks, _parity_order, _position_evolution_checks
from oracles import (
    closed_form_matrices,
    dense_check_algebra,
    dense_evolve_report,
    dense_field,
    dense_force_matrix,
    dense_revival_report,
    direct_sine_coefficients,
    heisenberg_series,
    parity_commutator_report,
    product_commutator_report,
    two_phase_evolution_checks,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# <x>, <p>, dx, dp, dx0 and the Robertson term depend on the state alone, so
# they repeat at t_r; the residuals use one-sided differences at the two ends
STATE_COLUMNS = slice(1, 7)


@st.composite
def well_and_state(draw):
    """A well with random scales and a random state on its lowest N/4 modes.

    The support stays clear of the truncation edge, where the truncated
    x and p no longer obey dx dp >= hbar/2 and the report refuses.
    """
    scale = st.floats(0.5, 2.0)
    cfg = WellConfig(L=draw(scale), m=draw(scale), hbar=draw(scale), N=draw(st.integers(8, 64)))
    support = draw(st.integers(1, cfg.N // 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = np.zeros(cfg.N, dtype=complex)
    coeffs[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return cfg, StateVector(coeffs)


def _scales(report, cfg, state):
    """Size of the terms each column is formed from, for relative tolerances.

    The residuals difference <x> and <p> over one grid step h, so their
    rounding is that of L/h and p_rms/h; <dV/dx> is bounded by
    sum |a_k| |F_kl| |a_l|.
    """
    d = report.data
    h = d[1, 0] - d[0, 0]
    p_rms = float(np.sqrt((d[:, 2] ** 2 + d[:, 4] ** 2).max()))
    a = np.abs(state.coeffs)
    force = float(a @ np.abs(force_matrix(cfg, 0.0).entries) @ a)
    L = cfg.L
    return np.array(
        [d[-1, 0], L, p_rms, L, p_rms, L, L * L, d[-1, 7], L / h + p_rms / cfg.m, p_rms / h + force]
    )


@PROPERTY
@given(well_and_state(), st.floats(0.05, 1.0), st.integers(3, 41))
def test_batched_engine_matches_heisenberg_loop(drawn, span, steps):
    cfg, state = drawn
    grid = TimeGrid(0.0, span * revival_time(cfg), steps)
    report = ehrenfest_report(state, cfg, grid)
    expect = heisenberg_series(state, cfg, grid)
    err = np.abs(report.data - expect) / _scales(report, cfg, state)
    assert err.max() <= 1e-12, dict(zip(report.COLUMNS, err.max(axis=0)))


@PROPERTY
@given(well_and_state(), st.integers(1, 20))
def test_mirror_image_at_half_revival(drawn, half):
    cfg, state = drawn
    report = ehrenfest_report(state, cfg, TimeGrid(0.0, revival_time(cfg), 2 * half + 1))
    start, mid = report.data[0], report.data[half]
    scale = _scales(report, cfg, state)
    assert abs(mid[1] - (cfg.L - start[1])) <= 1e-10 * scale[1]  # <x> -> L - <x>
    assert abs(mid[2] + start[2]) <= 1e-10 * scale[2]  # <p> -> -<p>
    assert abs(mid[3] - start[3]) <= 1e-10 * scale[3]  # dx unchanged


@PROPERTY
@given(well_and_state(), st.integers(3, 41))
def test_state_columns_return_at_revival(drawn, steps):
    cfg, state = drawn
    report = ehrenfest_report(state, cfg, TimeGrid(0.0, revival_time(cfg), steps))
    gap = np.abs(report.data[-1] - report.data[0]) / _scales(report, cfg, state)
    assert gap[STATE_COLUMNS].max() <= 1e-10, dict(zip(report.COLUMNS[1:7], gap[STATE_COLUMNS]))


@st.composite
def fock_bases(draw):
    if draw(st.booleans()):
        return FockBasis(draw(st.integers(1, 6)), Statistics.FERMION)
    modes = draw(st.integers(1, 3))
    return FockBasis(modes, Statistics.BOSON, cutoff=draw(st.integers(1, 4)))


@st.composite
def fock_state(draw):
    """A random well, a random basis and a random state spread over all of it.

    Off-diagonal one-body densities <a_n^dagger a_m> (n != m) are nonzero,
    unlike for the occupation eigenstates the CLI builds.
    """
    basis = draw(fock_bases())
    scale = st.floats(0.5, 2.0)
    cfg = WellConfig(L=draw(scale), m=draw(scale), hbar=draw(scale), N=draw(st.integers(8, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = FockState(basis, rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension))
    return cfg, basis, state


@PROPERTY
@given(fock_bases())
def test_shift_form_algebra_equals_dense_products(basis):
    assert check_algebra(basis) == dense_check_algebra(basis)


@PROPERTY
@given(fock_state(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5), st.floats(-1.0, 2.0))
def test_density_matches_dense_field(drawn, fractions, periods):
    cfg, basis, state = drawn
    xs = cfg.L * np.array(fractions)
    t = periods * revival_time(cfg)
    expect = []
    for x in xs:
        v = dense_field(cfg, basis, float(x), t) @ state.coeffs
        expect.append(np.vdot(v, v).real)
    got = density_expectation(state, cfg, basis, xs, t)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 / cfg.L)
    single = density_expectation(state, cfg, basis, float(xs[0]), t)
    assert isinstance(single, float)
    assert single == pytest.approx(expect[0], rel=1e-12, abs=1e-12 / cfg.L)


@PROPERTY
@given(fock_state(), st.floats(-1.0, 2.0))
def test_density_integrates_to_mean_particle_number(drawn, periods):
    cfg, basis, state = drawn
    nodes, weights = quadrature_rule(cfg)
    total = weights @ density_expectation(state, cfg, basis, nodes, periods * revival_time(cfg))
    particles = np.abs(state.coeffs) ** 2 @ basis.occupations().sum(axis=1)
    assert abs(total - particles) <= 1e-12 * max(particles, 1.0)


@PROPERTY
@given(fock_bases(), st.data(), st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
       st.floats(-50.0, 50.0))
def test_occupation_density_is_bit_equal_at_every_t(basis, data, scales, periods):
    """An occupation eigenstate's rho_nm is diagonal, and a diagonal entry's phase exp(i 0 omega_1 t)
    is exactly 1, so its density at any t is the t = 0 density bit for bit."""
    occupation = data.draw(st.lists(st.integers(0, basis.cutoff), min_size=basis.modes, max_size=basis.modes))
    L, m, hbar = scales
    cfg = WellConfig(L=L, m=m, hbar=hbar, N=max(2, basis.modes))
    state = FockState.occupied(basis, occupation)
    xs = np.linspace(0.0, L, 33)
    got = density_expectation(state, cfg, basis, xs, periods * revival_time(cfg))
    want = density_expectation(state, cfg, basis, xs, 0.0)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@PROPERTY
@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.integers(8, 200), st.data())
def test_commutator_report_matches_dense_products(L, hbar, n, data):
    """Each figure within N eps sum |terms| of the dense X P - P X report; trace exactly 0."""
    cfg = WellConfig(L=L, hbar=hbar, N=n)
    block = InteriorBlockSpec(data.draw(st.integers(1, n // 4)))
    got = canonical_commutator_report(cfg, block)
    want = product_commutator_report(cfg, block)
    x, p = np.abs(build_position(cfg).entries), np.abs(build_momentum(cfg).entries)
    bound = (n * np.finfo(float).eps / hbar) * (x @ p + p @ x)
    b = block.max_index
    diag_bound = float(np.max(np.diagonal(bound)))
    assert (got.dim, got.block) == (want.dim, want.block)
    assert got.trace == 0.0 and want.trace == 0.0
    assert abs(got.interior_max_deviation - want.interior_max_deviation) <= np.max(bound[:b, :b])
    assert abs(got.worst_diagonal_deviation - want.worst_diagonal_deviation) <= diag_bound
    assert abs(got.edge_diagonal_min - want.edge_diagonal_min) <= diag_bound
    assert abs(got.trace_naive) <= hbar * float(np.trace(bound))


def _bits(report):
    """Every field of a CommutatorReport, floats as their uint64 bit patterns."""
    out = []
    for value in astuple(report):
        parts = (value.real, value.imag) if isinstance(value, complex) else (value,)
        out += [np.float64(v).view(np.uint64) if isinstance(v, float) else v for v in parts]
    return out


@PROPERTY
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(4, 300), st.data())
def test_commutator_report_is_bit_equal_to_the_dense_report(log_l, log_hbar, n, data):
    """Every field, uint64 for uint64, whatever the rows a block holds and the block b spans."""
    cfg = WellConfig(L=10.0**log_l, hbar=10.0**log_hbar, N=n)
    block = InteriorBlockSpec(data.draw(st.integers(1, n // 4), label="block"))
    rows = data.draw(st.integers(1, n), label="rows per block")
    with mock.patch.object(operators, "_ROW_BLOCK_ELEMENTS", rows * n):
        got = canonical_commutator_report(cfg, block)
    assert _bits(got) == _bits(parity_commutator_report(cfg, block))
    assert got.trace == 0.0


@PROPERTY
@example(log_l=0.0, log_hbar=306.0, n=64)  # 4 hbar k l overflows
@example(log_l=-300.0, log_hbar=10.0, n=16)  # p/i overflows through a tiny L
@example(log_l=300.0, log_hbar=-300.0, n=16)  # p/i underflows to zero
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 308.0), st.integers(4, 64))
def test_commutator_trace_is_the_paired_sum_at_any_scale(log_l, log_hbar, n):
    """The report's exact trace is 0 where E - E^T pairs every entry to 0, and NaN where it does not."""
    cfg = WellConfig(L=10.0**log_l, hbar=10.0**log_hbar, N=n)
    with np.errstate(all="ignore"):
        got = canonical_commutator_report(cfg, InteriorBlockSpec(1)).trace
        want = parity_commutator_report(cfg, InteriorBlockSpec(1)).trace
    assert np.float64(got.real).view(np.uint64) == 0 and np.float64(want.real).view(np.uint64) == 0
    if math.isnan(want.imag):
        assert math.isnan(got.imag)
    else:
        assert np.float64(got.imag).view(np.uint64) == np.float64(want.imag).view(np.uint64) == 0


@st.composite
def well_flags(draw, min_n=2):
    """Random L, m, hbar and N <= 128 as command-line flags."""
    scale = st.floats(0.5, 2.0).map(lambda v: round(v, 6))
    n = draw(st.integers(min_n, 128))
    return ["--L", repr(draw(scale)), "--m", repr(draw(scale)), "--hbar", repr(draw(scale)), "--N", str(n)]


def _evolve_columns(argv):
    rc = parse_config(["evolve", *argv])
    names, columns, _ = _run_evolve(rc)
    assert names == ["t", "max_change_from_start", "frobenius_drift", "hermiticity_defect"]
    return rc, columns, dense_evolve_report(rc.well, columns[0])


def _drift_bound(cfg):
    return cfg.N * np.finfo(float).eps * build_position(cfg).frobenius()


@PROPERTY
@given(well_flags(), st.floats(-1.0, 1.0), st.floats(0.01, 3.0), st.integers(2, 40))
def test_evolve_report_matches_dense_evolution(flags, start, span, steps):
    """max change and Hermiticity defect exactly as the dense x(t); drift within N eps ||x(0)||_F."""
    t_r = revival_time(parse_config(["evolve", *flags]).well)
    grid = ["--t-start", repr(start * t_r), "--t-end", repr((start + span) * t_r), "--steps", str(steps)]
    rc, columns, want = _evolve_columns([*flags, *grid])
    np.testing.assert_array_equal(columns[1], want[0])
    np.testing.assert_array_equal(columns[3], want[2])
    bound = _drift_bound(rc.well)
    assert np.all(columns[2] <= bound)
    assert np.all(np.abs(columns[2] - want[1]) <= bound)


@PROPERTY
@given(
    st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
    st.integers(2, 256),
    st.floats(-3.0, 1.0),
    st.floats(0.01, 4.0),
    st.integers(2, 40),
)
def test_evolve_checks_match_two_phase_loop_bitwise(scales, n, start, span, steps):
    """One exponential per entry of B, largest |x_kl| first, gives the largest change of both
    exponentials of every phase group bit for bit, on grids that may start before t = 0; the
    groups' Hermiticity defect is exactly +0.0, as the evolve report writes it, and their
    Frobenius drift, written as +0.0 too, rounds within N eps ||x(0)||_F."""
    L, m, hbar = scales
    cfg = WellConfig(L=L, m=m, hbar=hbar, N=n)
    t_r = revival_time(cfg)
    times = np.linspace(start * t_r, (start + span) * t_r, steps)
    got = _position_evolution_checks(cfg, times, *_parity_blocks(cfg, "x"))
    want = two_phase_evolution_checks(cfg, times)
    np.testing.assert_array_equal(got.view(np.uint64), want[0].view(np.uint64))
    np.testing.assert_array_equal(want[2].view(np.uint64), np.zeros(steps, dtype=np.uint64))
    assert np.all(want[1] <= _drift_bound(cfg))


@PROPERTY
@given(
    st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
    st.integers(2, 300),
    st.integers(-8, 0),
    st.integers(4, 8),
    st.integers(1, 4),
)
def test_evolve_stop_rule_at_chunk_edges(scales, n, first, last, per_quarter):
    """With a first chunk of one entry, and of more than all ceil(N/2) floor(N/2) entries of B, the
    largest change is the all-groups loop's bit for bit, on grids from first/4 t_r to last/4 t_r
    that pass through 0, t_r/4, t_r/2 and t_r, where the changes tie or are all rounding."""
    L, m, hbar = scales
    cfg = WellConfig(L=L, m=m, hbar=hbar, N=n)
    times = revival_time(cfg) * (np.arange(first * per_quarter, last * per_quarter + 1) / (4 * per_quarter))
    want = two_phase_evolution_checks(cfg, times)[0]
    for chunk in (1, -(-n // 2) * (n // 2) + 1):
        with mock.patch.object(operators, "_FIRST_CHUNK", chunk):
            got = _position_evolution_checks(cfg, times, *_parity_blocks(cfg, "x"))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@PROPERTY
@given(
    st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=3, max_size=3),
    st.integers(2, 300),
    st.floats(-14.0, -1.0),
    st.integers(2, 40),
    st.booleans(),
)
def test_evolve_checks_near_zero_match_two_phase_loop_bitwise(scales, n, decade, steps, mirrored):
    """Near t = 0, where a change is about p |d| omega_1 t, the bound min(2 p, |w t| S + 2 eps p)
    closes samples after few entries; the largest change is still the all-groups loop's bit for bit,
    with a first chunk of one entry (a check after every entry) and of the default size, on grids
    from 0 (or from -t_end) to t_end = 10^decade t_r."""
    L, m, hbar = scales
    cfg = WellConfig(L=L, m=m, hbar=hbar, N=n)
    t_end = 10.0**decade * revival_time(cfg)
    times = np.linspace(-t_end if mirrored else 0.0, t_end, steps)
    want = two_phase_evolution_checks(cfg, times)[0]
    for chunk in (1, operators._FIRST_CHUNK):
        with mock.patch.object(operators, "_FIRST_CHUNK", chunk):
            got = _position_evolution_checks(cfg, times, *_parity_blocks(cfg, "x"))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@PROPERTY
@given(st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=3, max_size=3), st.integers(2, 300))
def test_parity_blocks_hold_every_nonzero_off_diagonal_entry(scales, n):
    """B = x[odd, even] and Q = (p/i)[odd, even] are the entries of the whole closed forms bit for
    bit, alone or together; the [even, odd] blocks are exactly B^T and -Q^T, and every other entry
    off the diagonal is an exact +0.0."""
    L, m, hbar = scales
    cfg = WellConfig(L=L, m=m, hbar=hbar, N=n)
    full = closed_form_matrices(cfg)
    blocks = _parity_blocks(cfg, "x", "p/i")
    odd, even = np.arange(0, n, 2), np.arange(1, n, 2)
    same_parity = np.equal.outer(np.arange(n) % 2, np.arange(n) % 2) & ~np.eye(n, dtype=bool)
    for matrix, block, sign in zip(full, blocks, (1.0, -1.0)):
        np.testing.assert_array_equal(matrix[np.ix_(odd, even)].view(np.uint64), block.view(np.uint64))
        np.testing.assert_array_equal(matrix[np.ix_(even, odd)].view(np.uint64), (sign * block.T).view(np.uint64))
        assert np.all(matrix[same_parity].view(np.uint64) == 0)
    for form, block in zip(("x", "p/i"), blocks):
        np.testing.assert_array_equal(_parity_blocks(cfg, form)[0].view(np.uint64), block.view(np.uint64))


@PROPERTY
@given(well_flags(), st.integers(1, 10))
def test_evolve_report_at_quarter_half_and_full_revival(flags, q):
    """d = (k - l)(k + l) is odd for k + l odd, so at t_r/4 every phase is +-i and the
    largest change is sqrt(2) max|x_kl|; at t_r/2 it is 2 max|x_kl|; at t_r it is 0."""
    rc, columns, want = _evolve_columns([*flags, "--steps", str(4 * q + 1)])
    x = build_position(rc.well).entries
    largest = float(np.abs(x - np.diag(np.diagonal(x))).max())
    change = columns[1]
    np.testing.assert_array_equal(change, want[0])
    assert abs(change[q] - np.sqrt(2.0) * largest) <= 1e-9 * largest
    assert abs(change[2 * q] - 2.0 * largest) <= 1e-9 * largest
    assert change[0] == 0.0 and change[4 * q] <= 1e-9 * largest
    assert np.all(columns[3] == 0.0)


@PROPERTY
@given(well_flags(min_n=8), st.data())
def test_revival_report_matches_dense_evolution(flags, data):
    """t_r and max_position_change exactly as the dense x(t_r); dx_* to 1e-12 relative."""
    n = int(flags[-1])
    modes = data.draw(st.lists(st.integers(1, 3 * n // 4), min_size=1, max_size=6, unique=True))
    rc = parse_config(["revival", *flags, "--state", "modes:" + ",".join(map(str, modes))])
    from matrixwell.cli import _build_state

    names, columns, _ = _run_revival(rc)
    got = dict(zip(names, (c[0] for c in columns)))
    t_r, change, dx0, dxr, _ = dense_revival_report(rc.well, _build_state(rc))
    assert (got["t_r"], got["max_position_change"]) == (t_r, change)
    assert got["dx_initial"] == pytest.approx(dx0, rel=1e-12)
    assert got["dx_revival"] == pytest.approx(dxr, rel=1e-12)
    assert got["dx_gap"] <= 1e-12 * dx0


@PROPERTY
@given(well_and_state(), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_position_spread_matches_dispersion_of_evolved_x(drawn, periods):
    """Delta x(t) from the Schrodinger columns equals dispersion(state, evolve(x, t))."""
    from matrixwell import dispersion, evolve

    cfg, state = drawn
    times = np.array(periods) * revival_time(cfg)
    x = build_position(cfg)
    want = [dispersion(state, evolve(x, cfg, float(t))) for t in times]
    np.testing.assert_allclose(_position_spread(state, cfg, times, *_parity_blocks(cfg, "x")), want, rtol=1e-12)


@PROPERTY
@given(well_flags(), st.floats(-2.0, 2.0))
def test_force_matrix_matches_dense_oracle(flags, periods):
    """The rank-2 F equals -i (omega_k - omega_l) p_kl evolved to t, to 4 eps of max |F|."""
    cfg = parse_config(["evolve", *flags]).well
    t = periods * revival_time(cfg)
    got, want = force_matrix(cfg, t).entries, dense_force_matrix(cfg, t).entries
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def _wall_impulse(cfg, coeffs, times):
    """(hbar^2/2m) (|psi'(L,t)|^2 - |psi'(0,t)|^2) per time, and the scale of its terms.

    psi'(x, t) = sum_n a_n e^{-i omega_n t} sqrt(2/L) k_n cos(k_n x); the
    scale takes sum_n |a_n| sqrt(2/L) k_n for each |psi'|.
    """
    n = np.arange(1, cfg.N + 1)
    k = n * np.pi / cfg.L
    c = coeffs[:, None] * np.exp(-1j * np.multiply.outer(n * n * cfg.base_frequency, times))
    slope = np.sqrt(2.0 / cfg.L) * k
    at_0 = np.abs(slope @ c) ** 2
    at_L = np.abs((slope * np.cos(k * cfg.L)) @ c) ** 2
    scale = 2.0 * float(slope @ np.abs(coeffs)) ** 2
    return cfg.hbar**2 / (2.0 * cfg.m) * (at_L - at_0), cfg.hbar**2 / (2.0 * cfg.m) * scale


@PROPERTY
@given(well_and_state(), st.floats(0.05, 1.0), st.integers(3, 41))
def test_engine_force_is_the_wall_impulse(drawn, span, steps):
    """residual_p = |d<p>/dt + <F>| with <F> the impulse of the walls, to 1e-12 of its terms."""
    cfg, state = drawn
    report = ehrenfest_report(state, cfg, TimeGrid(0.0, span * revival_time(cfg), steps))
    times = report.column("t")
    dpdt = np.gradient(report.column("p_mean"), times[1] - times[0], edge_order=2)
    force, scale = _wall_impulse(cfg, state.coeffs, times)
    gap = np.abs(report.column("residual_p") - np.abs(dpdt + force))
    assert np.all(gap <= 1e-12 * scale + 4 * np.finfo(float).eps * np.abs(dpdt))


@PROPERTY
@given(well_and_state(), st.integers(3, 21))
def test_fractional_revival_at_quarter_period(drawn, steps):
    """At t_r/4 every phase is -i (odd n) or 1 (even n): a(t_r/4) = ((1-i)/2) a - ((1+i)/2) M a,
    (M a)_n = (-1)^(n+1) a_n, the mirror psi(x) -> psi(L - x)."""
    cfg, state = drawn
    report = ehrenfest_report(state, cfg, TimeGrid(0.0, revival_time(cfg) / 4.0, steps))
    mirror = np.where(cfg.mode_numbers() % 2 == 1, 1.0, -1.0) * state.coeffs
    quarter = StateVector((1 - 1j) / 2 * state.coeffs - (1 + 1j) / 2 * mirror)
    again = ehrenfest_report(quarter, cfg, TimeGrid(0.0, 1.0, 3))
    scale = _scales(report, cfg, state)
    columns = slice(1, 5)  # <x>, <p>, dx, dp
    gap = np.abs(report.data[-1, columns] - again.data[0, columns]) / scale[columns]
    assert gap.max() <= 1e-10, gap


@st.composite
def coprime_fraction(draw):
    """p/q in (0, 1) in lowest terms, q <= 12."""
    q = draw(st.integers(2, 12))
    return draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1)), q


@PROPERTY
@given(st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3), st.integers(2, 256), coprime_fraction())
def test_fractional_revival_phases_reduce_mod_q(scales, n, fraction):
    """At t = (p/q) t_r, omega_1 t = 2 pi p/q, so the engine's phase exp(-i n^2 omega_1 t) is
    exp(-2 pi i (p n^2 mod q) / q).  The one float omega_1 t carries a few roundings, each
    scaled by n^2 <= N^2: the two agree within 4 N^2 eps theta radians, theta = 2 pi p/q."""
    (L, m, hbar), (p, q) = scales, fraction
    cfg = WellConfig(L=L, m=m, hbar=hbar, N=n)
    k = cfg.mode_numbers()[_parity_order(cfg)]  # the engine's row order
    phase, _ = _schrodinger_columns(StateVector.eigenstate(1, n), cfg, np.array([p / q * revival_time(cfg)]))
    exact = np.exp(-2j * np.pi * ((p * k * k) % q) / q)
    theta = 2 * np.pi * p / q
    assert np.abs(np.angle(phase[:, 0] * exact.conj())).max() <= 4 * n * n * np.finfo(float).eps * theta


@PROPERTY
@given(well_and_state(), coprime_fraction(), st.data())
def test_fractional_revival_is_a_sum_of_shifted_copies(drawn, fraction, data):
    """psi(x, (p/q) t_r) = sum_j c_j psi~(x + 2 L j / q), psi~ the odd 2L-periodic extension of
    psi(x, 0), with the Gauss sums c_j = (1/q) sum_s exp(-2 pi i (p s^2 + j s) / q).

    The left side sums the engine's Schrodinger columns over psi_n(x); the right side is
    evaluated from the coefficients a alone, so the two share no phase code.  Each side
    is within a few eps of sqrt(2/L) sum |a_n| per radian of its largest phase: n^2 theta
    on the left, the sine argument n pi y / L, |y| < 3L, on the right.
    """
    (cfg, state), (p, q) = drawn, fraction
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, cfg.L, 16)
    order = _parity_order(cfg)  # the engine's row order
    n, a = cfg.mode_numbers()[order], state.coeffs[order]

    def sine_series(y, coeffs):
        return np.sqrt(2.0 / cfg.L) * np.sin(np.multiply.outer(y, n) * (np.pi / cfg.L)) @ coeffs

    _, c = _schrodinger_columns(state, cfg, np.array([p / q * revival_time(cfg)]))
    s = np.arange(q)
    gauss = [np.exp(-2j * np.pi * ((p * s * s + j * s) % q) / q).sum() / q for j in range(q)]
    shifted = sum(gauss[j] * sine_series(x + 2.0 * cfg.L * j / q, a) for j in range(q))
    scale = np.sqrt(2.0 / cfg.L) * np.abs(a).sum()
    bound = 4 * scale * np.finfo(float).eps * cfg.N * (cfg.N * 2 * np.pi * p / q + 3 * np.pi)
    assert np.abs(sine_series(x, c[:, 0]) - shifted).max() <= bound


@PROPERTY
@given(well_and_state(), st.integers(0, 1), st.floats(0.05, 1.0), st.integers(3, 41))
def test_parity_selection(drawn, parity, span, steps):
    """A state of one mode parity keeps <p> = 0 exactly and <x> = L/2 at every time;
    F_kl is exactly 0 for k + l even."""
    cfg, state = drawn
    coeffs = np.where(cfg.mode_numbers() % 2 == parity, state.coeffs, 0.0)
    if not np.any(coeffs):
        coeffs[1 - parity] = 1.0  # mode 1 or 2
    grid = TimeGrid(0.0, span * revival_time(cfg), steps)
    report = ehrenfest_report(StateVector(coeffs), cfg, grid)
    assert np.all(report.column("p_mean") == 0.0)
    assert np.all(np.abs(report.column("x_mean") - cfg.L / 2.0) <= 4 * np.finfo(float).eps * cfg.L)
    k = cfg.mode_numbers()
    even = np.equal.outer(k % 2, k % 2)
    assert np.all(force_matrix(cfg, grid.t_end).entries[even] == 0.0)


@PROPERTY
@given(st.floats(0.1, 10.0), st.integers(8, 512), st.sampled_from(["packet", "samples"]), st.data())
def test_sine_coefficients_match_direct_sines(L, n, kind, data):
    """The FFT panel sums against one sine per node and mode.

    `f` is a packet with a random centre, width and momentum up to k_N, or
    random complex values at the nodes.  The direct loop rounds its phase
    k_n x to about eps N pi at the far wall, so the two agree within
    2 eps (1 + N pi) of sqrt(2/L) sum |w f|; the norm is the same sum.
    """
    cfg = WellConfig(L=L, N=n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x, w = quadrature_rule(cfg)
    if kind == "packet":
        c, s = rng.uniform(0.3, 0.7) * L, rng.uniform(0.02, 0.2) * L
        q = rng.uniform(-n, n) * np.pi / L
        fx = np.exp(-((x - c) ** 2) / (4 * s * s) + 1j * q * x)
    else:
        fx = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    got, got_norm = sine_coefficients(cfg, lambda _: fx)
    want, want_norm = direct_sine_coefficients(cfg, lambda _: fx)
    assert got_norm == want_norm
    scale = np.sqrt(2.0 / L) * np.sum(np.abs(w * fx))
    assert np.abs(got - want).max() <= 2 * np.finfo(float).eps * (1 + n * np.pi) * scale


@PROPERTY
@given(st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=3, max_size=3))
def test_parabola_identities(scales):
    """psi = sqrt(30/L^5) x (L - x), whose psi'''' = 0 though <H^2> = 30 in units of hbar^2/(m L^2)
    squared (Bonneau, Faraut & Valent 2001), at random scales and N = 50, 200 and 800.

    Its exact coefficients are a_n = 8 sqrt(15)/(n pi)^3 for odd n and 0 for even n.  With
    E_n = n^2 pi^2 / 2 in units of hbar^2/(m L^2), |a_n|^2 E_n = 480/(pi n)^4 and
    |a_n|^2 E_n^2 = 240/(pi n)^2, so the sums over n <= N miss tails with
    N^3 (5 - sum |a_n|^2 E_n) -> 80/pi^4 and N (30 - sum |a_n|^2 E_n^2) -> 120/pi^2, each with
    a 1/N^2 correction.  ||P a||^2 / 2m with the truncated P falls short of <H> = 5 by about
    60/(pi^2 N), with a 1/N^2 correction: the wall-slope law (4 hbar^2/(L^2 N)) (|u^T a|^2 +
    |v^T a|^2) for <p^2>, with |u^T a|^2 + |v^T a|^2 = 30/pi^2.  The <H> gap is a difference of
    two sums near 5, so it is read within the rounding of such a sum, 40 eps, times N^3.
    """
    L, m, hbar = scales
    eps = np.finfo(float).eps
    for n in (50, 200, 800):
        cfg = WellConfig(L=L, m=m, hbar=hbar, N=n)
        a, _ = sine_coefficients(cfg, lambda x: math.sqrt(30.0 / L**5) * x * (L - x))
        k = cfg.mode_numbers()
        exact = np.where(k % 2 == 1, 8.0 * math.sqrt(15.0) / (k * math.pi) ** 3, 0.0)
        assert np.abs(a - exact).max() <= 1e-15
        unit = hbar**2 / (m * L**2)
        energy = np.array([eigen_energy(cfg, int(j)) for j in k]) / unit
        weight = np.abs(a) ** 2
        assert abs(n**3 * (5.0 - weight @ energy) - 80.0 / math.pi**4) <= 2.0 / n**2 + 40 * eps * n**3
        assert abs(n * (30.0 - weight @ energy**2) - 120.0 / math.pi**2) <= 5.0 / n**2
        kinetic = np.linalg.norm(build_momentum(cfg).entries @ a) ** 2 / (2.0 * m) / unit
        assert abs(n * (5.0 - kinetic) - 60.0 / math.pi**2) <= 10.0 / n
