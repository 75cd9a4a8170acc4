"""Independent oracles used by the test suite.

Everything here avoids the library's closed forms: matrix elements come
from adaptive quadrature of the defining integrals, parity cosines are
evaluated as exact integer signs, and the fermion sign convention is
checked against a first-quantized antisymmetrized two-particle state.
Gaussian packet coefficients come from the whole-line Fourier transform.
`dense_annihilator` builds a ladder operator one occupation vector at a
time, and `dense_field` sums them into the field operator.
Several oracles keep an earlier dense form of a library computation as
the reference for its faster one: `heisenberg_series` runs the per-sample
Heisenberg-picture loop (the library's `evolve`, `expectation` and
`dispersion` at every sample, with the force of `dense_force_matrix`)
against the batched series engine, `dense_force_matrix` forms the force
as -i (omega_k - omega_l) p_kl against the rank-2 `force_matrix`,
`dense_check_algebra` forms the ladder relations from dense d x d
products against the shift-form `check_algebra`, `product_commutator_report`
forms [x, p] from two N x N products against the O(N^2) report,
`closed_form_matrices` forms every entry of x and p/i, parity zeros
included, against the builders and the parity blocks, which form only the
k + l odd ones, and `parity_commutator_report` runs the O(N^2) report on
parity blocks sliced from them against the report on blocks filled a
block of rows at a time,
`row_render_csv`/`row_render_json` format a report one cell at a time
against the column renderer of `reports`, and `dense_evolve_report`/
`dense_revival_report` evolve the whole N x N position matrix at each
sample against the largest change over the parity block B of the `evolve`
and `revival` scenarios, `two_phase_evolution_checks` groups the entries by
phase exponent and evaluates both phases of every group at every time
against the one exponential per entry of B, taken largest |x_kl| first, of
those scenarios, and
`direct_sine_coefficients` evaluates sin(k_n x) at every node for every
mode against the FFT panel sums of `well.sine_coefficients`.
"""

import json
import math

import numpy as np
from scipy import integrate


def _quad(f, a, b, **kw):
    out = integrate.quad(f, a, b, limit=500, epsabs=1e-13, epsrel=1e-13, full_output=1, **kw)
    return out[0]


def _cos_moment(f, L, j):
    """integral_0^L f(x) cos(j pi x / L) dx, adaptive oscillatory quadrature."""
    if j == 0:
        return _quad(f, 0.0, L)
    return _quad(f, 0.0, L, weight="cos", wvar=abs(j) * math.pi / L)


def _sin_moment(f, L, j):
    """integral_0^L f(x) sin(j pi x / L) dx; odd in j."""
    if j == 0:
        return 0.0
    val = _quad(f, 0.0, L, weight="sin", wvar=abs(j) * math.pi / L)
    return val if j > 0 else -val


def position_element_quad(L, k, l):
    """integral x psi_k psi_l dx via x psi_k psi_l = (x/L)(cos((k-l)u) - cos((k+l)u))."""
    return (_cos_moment(lambda x: x, L, k - l) - _cos_moment(lambda x: x, L, k + l)) / L


def momentum_element_quad(L, hbar, k, l):
    """-i hbar integral psi_k (d psi_l / dx) dx via a product-to-sum split."""
    s = _sin_moment(lambda x: 1.0, L, k + l) + _sin_moment(lambda x: 1.0, L, k - l)
    return -1j * hbar * (l * math.pi / L**2) * s


def norm_quad(L, n):
    """integral psi_n^2 dx, which must be 1."""
    return 1.0 - _cos_moment(lambda x: 1.0, L, 2 * n) / L


def x2_eigen_quad(L, n):
    """integral x^2 psi_n^2 dx = L^2/3 - L^2/(2 n^2 pi^2)."""
    return L**2 / 3.0 - _cos_moment(lambda x: x * x, L, 2 * n) / L


def _cos_pi(j):
    """cos(j pi) as an exact integer sign."""
    return 1.0 if j % 2 == 0 else -1.0


def cosine_form_position(L, k, l):
    """The unsimplified cosine form of the position element."""
    if k == l:
        return L / 2.0
    num = (k - l) ** 2 * _cos_pi(k + l) - (k + l) ** 2 * _cos_pi(k - l) + 4 * k * l
    return -(L / math.pi**2) * num / (k * k - l * l) ** 2


def cosine_form_momentum(L, hbar, k, l):
    """The unsimplified cosine form of the momentum element (-i hbar d/dx convention)."""
    if k == l:
        return 0.0 + 0.0j
    num = (k - l) ** 2 * _cos_pi(k + l) - (k + l) ** 2 * _cos_pi(k - l) + 4 * k * l
    return -1j * hbar / (2.0 * L) * num / (k * k - l * l)


def wedge_annihilation(modes, pair, mode):
    """Brute-force fermionic annihilation on a 2-particle antisymmetrized state.

    The state |n1, n2> (n1 < n2, both occupied, created mode-1-first) is
    represented as the antisymmetrized tensor (e_n1 x e_n2 - e_n2 x e_n1)/sqrt(2);
    annihilating `mode` contracts the first slot with sqrt(2) bookkeeping.
    Returns the resulting single-particle coefficient vector.
    """
    n1, n2 = pair
    assert n1 < n2
    psi = np.zeros((modes, modes))
    psi[n1 - 1, n2 - 1] = 1.0 / math.sqrt(2.0)
    psi[n2 - 1, n1 - 1] = -1.0 / math.sqrt(2.0)
    return math.sqrt(2.0) * psi[mode - 1, :].copy()


def two_mode_dx_truncated(L, x12, t, omega_gap):
    """Delta x(t) for the equal superposition of modes 1,2 in the N=2 system.

    Expanding the 2x2 matrix square by hand gives Delta x(t) = |x12 sin(omega_gap t)|.
    """
    return abs(x12 * math.sin(omega_gap * t))


def gaussian_whole_line_coefficients(L, N, center, width, k0):
    """Normalized sine coefficients of exp(-(x-c)^2/4w^2 + i k0 x) over modes 1..N.

    With the walls far from the packet, integral_0^L psi sin(k_n x) dx equals
    the whole-line integral (G(k0 + k_n) - G(k0 - k_n)) / 2i, where
    G(q) = integral exp(-(x-c)^2/4w^2) e^{iqx} dx = 2 w sqrt(pi) e^{-q^2 w^2} e^{iqc}.
    The neglected tails are of relative size exp(-d^2/4w^2) for a wall d away:
    1e-7 at d = 8w, below 1e-13 from d = 11w.
    """
    k = np.arange(1, N + 1) * math.pi / L

    def G(q):
        return 2.0 * width * math.sqrt(math.pi) * np.exp(-(q * width) ** 2 + 1j * q * center)

    c = (G(k0 + k) - G(k0 - k)) / 2j
    return c / np.linalg.norm(c)


def direct_sine_coefficients(cfg, f):
    """`(coeffs, norm2)` of `well.sine_coefficients`, one sin(k_n x) per node and mode.

    sin(k_n x) rounds its phase to about eps k_n x, up to eps N pi at the far
    wall, so each c_n may miss by that much of sqrt(2/L) sum |w f|.
    """
    from matrixwell import quadrature_rule

    x, w = quadrature_rule(cfg)
    fx = np.asarray(f(x), dtype=complex)
    norm2 = float(w @ (fx.real**2 + fx.imag**2))
    wf = np.stack([w * fx.real, w * fx.imag], axis=1)
    coeffs = np.empty(cfg.N, dtype=complex)
    for n in range(1, cfg.N + 1):
        re, im = np.sin(n * (math.pi / cfg.L) * x) @ wf
        coeffs[n - 1] = re + 1j * im
    return math.sqrt(2.0 / cfg.L) * coeffs, norm2


def heisenberg_series(state, cfg, grid):
    """Series report columns by the per-sample Heisenberg loop.

    At each sample x, p and the force matrix are evolved with `evolve` and
    read with `expectation`/`dispersion`; residuals use the same
    second-order differences as the report.
    """
    from matrixwell import build_momentum, build_position, dispersion, evolve, expectation

    x, p, f0 = build_position(cfg), build_momentum(cfg), dense_force_matrix(cfg)
    u0 = x.entries @ state.coeffs
    dx0 = dispersion(state, x)
    times = grid.times()
    data = np.zeros((times.size, 10))
    f_means = np.empty(times.size)
    for i, t in enumerate(times):
        xt, pt = evolve(x, cfg, float(t)), evolve(p, cfg, float(t))
        data[i, :8] = (
            t,
            expectation(state, xt).real,
            expectation(state, pt).real,
            dispersion(state, xt),
            dispersion(state, pt),
            dx0,
            abs(np.imag(np.vdot(xt.entries @ state.coeffs, u0))),
            cfg.hbar * abs(t) / (2.0 * cfg.m),
        )
        f_means[i] = expectation(state, evolve(f0, cfg, float(t))).real
    h = grid.spacing
    data[:, 8] = np.abs(np.gradient(data[:, 1], h, edge_order=2) - data[:, 2] / cfg.m)
    data[:, 9] = np.abs(np.gradient(data[:, 2], h, edge_order=2) + f_means)
    return data


def dense_force_matrix(cfg, t=0.0):
    """The force matrix dV/dx = -dp/dt as -i (k^2 - l^2) omega_1 p_kl, evolved to t."""
    from matrixwell import OperatorMatrix, build_momentum, evolve

    n2 = cfg.mode_numbers().astype(np.int64) ** 2
    domega = np.subtract.outer(n2, n2) * cfg.base_frequency
    return evolve(OperatorMatrix(-1j * domega * build_momentum(cfg).entries), cfg, t)


def dense_annihilator(basis, n):
    """a_n as a dense real d x d matrix, filled one occupation vector at a time.

    a_n |occ> = amp |occ - e_n> for occ_n > 0: amp = sqrt(occ_n) for
    bosons, and the mode-1-first sign (-1)^(occ_1 + ... + occ_{n-1}) for
    fermions.
    """
    from matrixwell import Statistics

    a = np.zeros((basis.dimension, basis.dimension))
    for col, occ in enumerate(basis.occupations()):
        if occ[n - 1] == 0:
            continue
        lower = occ.copy()
        lower[n - 1] -= 1
        if basis.statistics is Statistics.BOSON:
            amp = math.sqrt(occ[n - 1])
        else:
            amp = -1.0 if occ[: n - 1].sum() % 2 else 1.0
        a[basis.index_of(lower), col] = amp
    return a


def dense_field(cfg, basis, x, t):
    """Psi(x, t) = sum_n psi_n(x) e^{-i omega_n t} a_n over the basis modes, as a dense matrix."""
    total = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for n in range(1, basis.modes + 1):
        psi = math.sqrt(2.0 / cfg.L) * math.sin(n * math.pi * x / cfg.L)
        omega = n * n * cfg.hbar * math.pi**2 / (2.0 * cfg.m * cfg.L**2)
        total += psi * np.exp(-1j * omega * t) * dense_annihilator(basis, n)
    return total


def dense_check_algebra(basis):
    """`check_algebra` from dense d x d products of `dense_annihilator` matrices."""
    from matrixwell import FockAlgebraReport, Statistics

    ann = [dense_annihilator(basis, n) for n in range(1, basis.modes + 1)]
    cre = [a.T for a in ann]
    d = basis.dimension
    eye = np.eye(d)
    sign = -1.0 if basis.statistics is Statistics.BOSON else 1.0  # commutator vs anticommutator

    occ = basis.occupations()
    same = 0.0
    boundary = 0.0
    cross = 0.0
    pair = 0.0
    saturated_total = 0
    for i in range(basis.modes):
        for j in range(basis.modes):
            rel = ann[i] @ cre[j] + sign * cre[j] @ ann[i]
            pair_rel = ann[i] @ ann[j] + sign * ann[j] @ ann[i]
            pair = max(pair, float(np.abs(pair_rel).max()))
            if i != j:
                cross = max(cross, float(np.abs(rel).max()))
                continue
            defect = rel - eye
            if basis.statistics is Statistics.FERMION:
                same = max(same, float(np.abs(defect).max()))
                continue
            sat = occ[:, i] == basis.cutoff
            saturated_total += int(sat.sum())
            off_diag = defect - np.diag(np.diagonal(defect))
            same = max(same, float(np.abs(off_diag).max()))
            diag = np.real(np.diagonal(defect))
            same = max(same, float(np.abs(diag[~sat]).max()))
            boundary = max(boundary, float(np.abs(diag[sat] + (basis.cutoff + 1)).max()))
    return FockAlgebraReport(
        statistics=basis.statistics,
        modes=basis.modes,
        cutoff=basis.cutoff,
        same_mode_defect=same,
        boundary_error=boundary,
        cross_mode_defect=cross,
        pair_defect=pair,
        saturated_states=saturated_total,
    )


def product_commutator_report(cfg, block):
    """`canonical_commutator_report` from the full complex product X P - P X."""
    from matrixwell import (
        CommutatorReport,
        build_momentum,
        build_position,
        commutator,
        commutator_trace,
    )

    x, p = build_position(cfg), build_momentum(cfg)
    c = commutator(x, p)
    scaled = c.entries / (1j * cfg.hbar)
    b = block.max_index
    interior = scaled[:b, :b] - np.eye(b)
    diag = np.real(np.diagonal(scaled))
    return CommutatorReport(
        dim=cfg.N,
        block=b,
        interior_max_deviation=float(np.abs(interior).max()),
        trace=commutator_trace(x, p),
        trace_naive=complex(np.trace(c.entries)),
        worst_diagonal_deviation=float(np.abs(diag - 1.0).max()),
        edge_diagonal_min=float(diag.min()),
    )


def closed_form_matrices(cfg):
    """x and p/i as real N x N arrays, every entry formed, then the k + l even ones set to 0."""
    n = cfg.mode_numbers().astype(np.int64)
    kl = np.multiply.outer(n, n).astype(float)
    d = np.subtract.outer(n * n, n * n)
    even = np.equal.outer(n % 2, n % 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = kl * (-8.0 * cfg.L)
        x /= math.pi**2 * (d * d)
        p_over_i = kl * (4.0 * cfg.hbar)
        p_over_i /= cfg.L * -d
    np.copyto(x, 0.0, where=even)
    np.copyto(p_over_i, 0.0, where=even)
    np.fill_diagonal(x, cfg.L / 2.0)
    return x, p_over_i


def parity_commutator_report(cfg, block):
    """`canonical_commutator_report` on the parity blocks sliced whole from `closed_form_matrices`,
    with E - E^T of the whole x and p/i for the trace."""
    from matrixwell import CommutatorReport

    x, p_over_i = closed_form_matrices(cfg)
    odd_even = np.ix_(np.arange(0, cfg.N, 2), np.arange(1, cfg.N, 2))
    xb, qb = x[odd_even], p_over_i[odd_even]
    b = block.max_index
    terms = xb * qb
    trace_terms = np.concatenate([-2.0 * terms.sum(axis=1), 2.0 * terms.sum(axis=0)])
    diag = trace_terms / cfg.hbar
    odd = xb[: (b + 1) // 2] @ qb[: (b + 1) // 2].T
    even = xb[:, : b // 2].T @ qb[:, : b // 2]
    deviation = max(
        float(np.abs(-(odd + odd.T) / cfg.hbar - np.eye(len(odd))).max()),
        float(np.abs((even + even.T) / cfg.hbar - np.eye(len(even))).max(initial=0.0)),
    )
    e = x * p_over_i.T
    g = e - e.T
    return CommutatorReport(
        dim=cfg.N,
        block=b,
        interior_max_deviation=deviation,
        trace=complex(0.0, np.sum(np.triu(g, 1) + np.tril(g, -1).T)),
        trace_naive=complex(0.0, trace_terms.sum()),
        worst_diagonal_deviation=float(np.abs(diag - 1.0).max()),
        edge_diagonal_min=float(diag.min()),
    )


def dense_evolve_report(cfg, times):
    """`evolve` scenario columns from a full `evolve(x, cfg, t)` at every sample.

    Rows: max |x(t) - x(0)|, | ||x(t)||_F - ||x(0)||_F |, x(t).hermiticity_defect().
    """
    from matrixwell import build_position, evolve

    x0 = build_position(cfg)
    f0 = x0.frobenius()
    data = np.empty((3, len(times)))
    for i, t in enumerate(times):
        xt = evolve(x0, cfg, float(t))
        data[:, i] = (
            np.abs(xt.entries - x0.entries).max(),
            abs(xt.frobenius() - f0),
            xt.hermiticity_defect(),
        )
    return data


def two_phase_evolution_checks(cfg, times):
    """`evolve` scenario rows from both phases of every |k^2 - l^2| group, each formed by `np.exp`.

    The group loop the `evolve` report once ran over every group at every
    time, on groups formed here: the k < l, k + l odd entries of
    `closed_form_matrices` are grouped by |k^2 - l^2| with `np.unique`, each
    group keeping its largest |x_kl| and its sum of x_kl^2.  The (k, l) phase
    e^{-i|d| w t} and the (l, k) phase e^{+i|d| w t} are evaluated
    separately, as `evolve` evaluates them, and the Hermiticity defect
    compares the one with the conjugate of the other.
    """
    x, _ = closed_form_matrices(cfg)
    k, l = np.triu_indices(cfg.N, 1)
    odd = (k + l) % 2 == 1
    k, l = k[odd], l[odd]
    entries = x[k, l]
    exponents, group = np.unique((l + 1) ** 2 - (k + 1) ** 2, return_inverse=True)
    peak, weight = np.zeros(exponents.shape), np.zeros(exponents.shape)
    np.maximum.at(peak, group, np.abs(entries))
    np.add.at(weight, group, entries * entries)
    signed = np.stack([-exponents, exponents])  # the (k, l) and (l, k) entries, k < l
    diagonal = cfg.N * (cfg.L / 2.0) ** 2

    def frobenius(squared_phases):
        return math.sqrt(diagonal + np.sum(weight * squared_phases))

    norm0 = frobenius(np.ones(signed.shape))
    scale = max(cfg.L / 2.0, 1e-300)
    out = np.empty((3, len(times)))
    for i, t in enumerate(times):
        phase = np.exp(1j * (signed * (cfg.base_frequency * float(t))))
        xt = peak * phase
        out[:, i] = (
            np.abs(xt - peak).max(),
            abs(frobenius(phase.real**2 + phase.imag**2) - norm0),
            np.abs(xt[0] - xt[1].conj()).max() / scale,
        )
    return out


def dense_revival_report(cfg, state):
    """`revival` scenario row (t_r, max_position_change, dx_initial, dx_revival, dx_gap)
    from the full x(t_r) and the library's `dispersion`."""
    from matrixwell import build_position, dispersion, evolve, revival_time

    t_r = revival_time(cfg)
    x0 = build_position(cfg)
    xt = evolve(x0, cfg, t_r)
    dx0 = dispersion(state, x0)
    dxr = dispersion(state, xt)
    return t_r, float(np.abs(xt.entries - x0.entries).max()), dx0, dxr, abs(dxr - dx0)


def _format_float(v, digits):
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("reports must not contain NaN or infinities")
    text = format(v, f".{digits}g")
    return "0" if text in ("-0", "-0.0") else text


def _json_cell(v, digits=17):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _format_float(v, digits)
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_cell(x, digits)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_cell(x, digits) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} deterministically")


def row_render_json(config, columns, rows, diagnostics):
    """A JSON report from rows of Python scalars, formatted one cell at a time."""
    doc = {"config": config, "columns": list(columns), "rows": [list(r) for r in rows],
           "diagnostics": diagnostics}
    return _json_cell(doc) + "\n"


def _csv_cell(v):
    if isinstance(v, bool):
        raise TypeError("boolean cells are not part of any report schema")
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _format_float(v, 12)
    raise TypeError(f"cannot serialize {type(v).__name__} into CSV")


def row_render_csv(columns, rows):
    """A CSV report from rows of Python scalars, formatted one cell at a time."""
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
