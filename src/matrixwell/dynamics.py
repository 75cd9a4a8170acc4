"""States, expectation values, dispersion curves, and collapse/revival diagnostics.

Everything here works in the Heisenberg picture: states are static
coefficient vectors over the energy eigenstates, operators carry the
time dependence.  Reports are plain time-series tables ready for CSV or
JSON emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ProjectionError
from .operators import (
    OperatorMatrix,
    _parity_blocks,
    _parity_order,
    build_momentum,
    build_position,
    commutator,
    evolve,
)
from .well import WellConfig, _check_dense, _panel_layout, sine_coefficients

# Time samples per block of Schrodinger columns: bounds the N x block work
# arrays while keeping each operator product a matrix-matrix product.
_SERIES_BLOCK = 32

# The least fraction of a wavefunction's norm that the retained modes must
# capture before project_wavefunction accepts the projection.
_MIN_CAPTURE = 0.999


@dataclass(frozen=True)
class StateVector:
    """Complex coefficients a_n over the energy eigenstates, unit norm."""

    coeffs: np.ndarray

    def __post_init__(self):
        a = np.array(self.coeffs, dtype=complex).ravel()
        if a.size < 1:
            raise ValueError("state needs at least one coefficient")
        norm = float(np.linalg.norm(a))
        if not np.isfinite(norm) or norm < 1e-12:
            raise ValueError("state coefficients have (near-)zero or non-finite norm")
        a = a / norm
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    @classmethod
    def eigenstate(cls, n: int, dim: int) -> "StateVector":
        return cls.uniform_superposition([n], dim)

    @classmethod
    def uniform_superposition(cls, modes, dim: int) -> "StateVector":
        a = np.zeros(dim, dtype=complex)
        for n in modes:
            if not (1 <= n <= dim):
                raise ValueError(f"mode {n} outside 1..{dim}")
            a[n - 1] = 1.0
        return cls(a)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [t_start, t_end] with `steps` points."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("need t_start < t_end")
        if int(self.steps) != self.steps or self.steps < 2:
            raise ValueError("steps must be an integer >= 2")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.steps - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


class RunReport:
    """Time-series table: one row per sample, fixed column order.

    Columns: t, <x>, <p>, dx = Delta x(t), dp = Delta p(t), dx0 = Delta x(0),
    robertson_bound = |<[x(t), x(0)]>| / 2, free_particle_bound = hbar |t| / 2m,
    residual_x = |d<x>/dt - <p>/m|, residual_p = |d<p>/dt + <dV/dx>|.

    Construction checks the row invariants: entries are finite, dispersions
    nonnegative, dx * dp >= (hbar/2)(1 - 2e-9) and dx * dx0 >= robertson_bound - 1e-9.
    """

    COLUMNS = (
        "t",
        "x_mean",
        "p_mean",
        "dx",
        "dp",
        "dx0",
        "robertson_bound",
        "free_particle_bound",
        "residual_x",
        "residual_p",
    )

    def __init__(self, data: np.ndarray, hbar: float, meta: dict | None = None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.COLUMNS):
            raise ValueError(f"report data must have {len(self.COLUMNS)} columns")
        dx = data[:, 3]
        dp = data[:, 4]
        dx0 = data[:, 5]
        bound = data[:, 6]
        if not np.isfinite(data).all():
            raise InvariantViolation("non-finite value in report rows")
        if np.any(dx < 0) or np.any(dp < 0):
            raise InvariantViolation("negative dispersion in report rows")
        bad = np.nonzero(dx * dp < hbar / 2.0 * (1.0 - 2e-9))[0]
        if bad.size:
            i = int(bad[0])
            raise InvariantViolation(
                f"uncertainty product {dx[i] * dp[i]:.6g} < hbar/2 at t={data[i, 0]:.6g}"
                " (truncation too small for this state)"
            )
        bad = np.nonzero(dx * dx0 < bound - 1e-9)[0]
        if bad.size:
            i = int(bad[0])
            raise InvariantViolation(
                f"Robertson bound violated at t={data[i, 0]:.6g}:"
                f" {dx[i] * dx0[i]:.6g} < {bound[i]:.6g}"
            )
        self.data = data
        self.data.setflags(write=False)
        self.meta = dict(meta or {})

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.COLUMNS.index(name)]


def _captured(coeffs: np.ndarray, norm2: float) -> float:
    if norm2 <= 0:
        raise ValueError("wavefunction has zero norm on [0, L]")
    return float(np.sum(np.abs(coeffs) ** 2)) / norm2


def projection_capture(cfg: WellConfig, f) -> float:
    """Fraction of |f|^2 norm captured by the first N modes; `f` must accept an array."""
    return _captured(*sine_coefficients(cfg, f))


def project_wavefunction(cfg: WellConfig, f) -> StateVector:
    """Project a wavefunction f(x) onto the retained modes and normalize.

    `f` is sampled once on an array of quadrature nodes (see
    `well.sine_coefficients`).  Raises ProjectionError when the first N
    modes capture less than 0.999 of the norm of f (the truncation would
    silently distort the state).
    """
    raw, norm2 = sine_coefficients(cfg, f)
    captured = _captured(raw, norm2)
    if captured < _MIN_CAPTURE:
        raise ProjectionError(
            f"first {cfg.N} modes capture {captured:.6f} < {_MIN_CAPTURE} of the norm;"
            " increase N or widen the packet"
        )
    # raw scales as sqrt(L); a power of two lifts it to unit norm and changes no normalised bit
    return StateVector(raw * 2.0 ** max(0, -math.frexp(math.sqrt(norm2))[1]))


def gaussian_packet(cfg: WellConfig, center: float, width: float, mean_momentum: float = 0.0) -> StateVector:
    """Gaussian wave packet projected onto the energy eigenbasis.

    The envelope is exp(-(x - center)^2 / (4 width^2)), so `width` is the
    position spread of the packet before the walls matter, times a plane
    wave exp(i mean_momentum x / hbar).  Refuses, before sampling, a
    mean_momentum / hbar that is not finite and a width whose 4 width^2 is
    not a normal float, and after it a packet that no node sees.
    """
    if not (0.0 < center < cfg.L):
        raise ValueError(f"packet center must lie inside (0, {cfg.L})")
    if not (0.0 < width < cfg.L / 4.0):
        raise ValueError(f"packet width must lie in (0, L/4 = {cfg.L / 4.0})")
    four_var = 4.0 * width * width
    if not np.finfo(float).tiny <= four_var < math.inf:
        raise ValueError(f"packet width {width!r} gives 4 width^2 = {four_var!r}, not a normal float")
    k0 = mean_momentum / cfg.hbar
    if not math.isfinite(k0):
        raise ValueError(f"packet momentum {mean_momentum!r} over hbar {cfg.hbar!r} is not a finite wavenumber")

    def packet(x):
        with np.errstate(over="ignore"):  # a quotient past the float range is the exact limit: exp(-inf) = 0
            samples = np.exp(-((x - center) ** 2) / four_var + 1j * k0 * x)
        if not samples.any():
            raise ValueError(f"packet has zero norm at every quadrature node: its width {width!r} lies"
                             f" far below the rule's panel spacing {_panel_layout(cfg)[1]!r}")
        return samples

    return project_wavefunction(cfg, packet)


def expectation(state: StateVector, op: OperatorMatrix) -> complex:
    """<state| op |state> = a^dagger O a; real up to roundoff for Hermitian op."""
    if state.dim != op.dim:
        raise ValueError(f"dimension mismatch: state {state.dim} vs operator {op.dim}")
    return complex(np.vdot(state.coeffs, op.entries @ state.coeffs))


def _std_from_moments(second, mean, what: str):
    """sqrt(<O^2> - <O>^2), elementwise for arrays of moments."""
    var = np.asarray(second - mean * mean)
    if np.any(var < -1e-12):
        raise InvariantViolation(f"negative variance {var.min():.3e} for {what}")
    return np.sqrt(np.maximum(var, 0.0))


def dispersion(state: StateVector, op: OperatorMatrix) -> float:
    """Delta O = sqrt(<O^2> - <O>^2) for a Hermitian operator."""
    if op.hermiticity_defect() > 1e-10:
        raise ValueError("dispersion is defined for Hermitian operators only")
    if state.dim != op.dim:
        raise ValueError(f"dimension mismatch: state {state.dim} vs operator {op.dim}")
    w = op.entries @ state.coeffs
    mean = float(np.real(np.vdot(state.coeffs, w)))
    second = float(np.real(np.vdot(w, w)))
    return float(_std_from_moments(second, mean, "dispersion"))


def revival_time(cfg: WellConfig) -> float:
    """t_r = 4 m L^2 / (hbar pi); every phase (omega_k - omega_l) t_r is a multiple of 2 pi."""
    return 4.0 * cfg.m * cfg.L**2 / (cfg.hbar * math.pi)


def _wall_force(cfg: WellConfig):
    """s, u, v of the force matrix F = dV/dx = -s (u u^T - v v^T), u_k = k, v_k = (-1)^k k.

    From Hamilton's equation F = -dp/dt, F_kl = -i (omega_k - omega_l) p_kl,
    which is -(4 hbar omega_1 / L) k l = -2 s k l for k + l odd and 0
    otherwise, with s = hbar^2 pi^2 / (m L^3).  So
    <F> = -s (|u^T a|^2 - |v^T a|^2) = (hbar^2 / 2m) (|psi'(L)|^2 - |psi'(0)|^2),
    the impulse of the walls.
    """
    u = cfg.mode_numbers().astype(float)
    v = np.where(cfg.mode_numbers() % 2 == 0, u, -u)
    return cfg.hbar**2 * math.pi**2 / (cfg.m * cfg.L**3), u, v


def force_matrix(cfg: WellConfig, t: float = 0.0) -> OperatorMatrix:
    """Force matrix (dV/dx)(t) = -dp(t)/dt, the rank-2 form of `_wall_force` evolved to t.

    The sign follows Hamilton's equation dp/dt = -dV/dx.  Real symmetric
    at t = 0, with exact parity zeros, and Hermitian for all t.  Raises
    ValueError before allocating above the 256 MiB cap.
    """
    _check_dense(cfg.N)
    s, u, v = _wall_force(cfg)
    f0 = np.multiply.outer(u, u)
    f0 -= np.multiply.outer(v, v)
    f0 *= -s
    return evolve(OperatorMatrix(f0), cfg, t)


def xt_x0_commutator(cfg: WellConfig, t: float) -> OperatorMatrix:
    """[x(t), x(0)]; zero at t = 0 and again at every multiple of the revival time."""
    x = build_position(cfg)
    return commutator(evolve(x, cfg, t), x)


def _schrodinger_columns(state: StateVector, cfg: WellConfig, times: np.ndarray):
    """Phases exp(-i n^2 omega_1 t) and columns C = a exp(-i n^2 omega_1 t), one per time, in parity order.

    The phase is the integer n^2 times the one float omega_1 t, which lands
    on multiples of 2 pi at the revival time.
    """
    order = _parity_order(cfg)
    n2 = cfg.mode_numbers()[order] ** 2
    phase = np.exp(-1j * (n2[:, None] * (cfg.base_frequency * times[None, :])))
    return phase, state.coeffs[order][:, None] * phase


def _parity_product(block: np.ndarray, c: np.ndarray, diagonal: float = 0.0, sign: float = 1.0) -> np.ndarray:
    """M C for M = diagonal I + [[0, block], [sign block^T, 0]] in parity order and a C-contiguous complex C.

    Two half-size real products on the float view of C: numpy would otherwise copy the block to complex.
    """
    h, f = block.shape[0], c.view(float)
    out = np.empty_like(f)
    np.matmul(block, f[h:], out=out[:h])
    np.matmul(block.T, f[:h], out=out[h:])
    if sign < 0:
        np.negative(out[h:], out=out[h:])
    if diagonal:
        out += diagonal * f
    return out.view(complex)


def _moments(w: np.ndarray, c: np.ndarray):
    """<O> = Re sum conj(C) W and <O^2> = sum |W|^2 per column of C, for W = O C with O Hermitian."""
    cc = c.conj()  # named: numpy may multiply into an unnamed temporary with other rounding
    return np.real(np.sum(cc * w, axis=0)), np.sum(np.abs(w) ** 2, axis=0)


def _position_spread(state: StateVector, cfg: WellConfig, times: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Delta x(t) at each time, from one product X C over the Schrodinger columns; `b` is x's parity block B."""
    _, c = _schrodinger_columns(state, cfg, times)
    mean, second = _moments(_parity_product(b, c, cfg.L / 2.0), c)
    return _std_from_moments(second, mean, "dx(t)")


def _series_report(state: StateVector, cfg: WellConfig, grid: TimeGrid, scenario: str) -> RunReport:
    """Schrodinger-picture columns C = a exp(-i n^2 omega_1 t), _SERIES_BLOCK samples at a time.

    <O>(t) = a^dagger O(t) a = C^dagger O C, so one product O @ C for x
    and p per block (`_moments`) replaces a phase matrix per sample, and
    the force needs only the two sums u^T C and v^T C (`_wall_force`).
    The modes are held in parity order, so each product is two half-size
    real GEMMs on the parity blocks (`_parity_product`), with
    p C = i (p/i) C.
    """
    if state.dim != cfg.N:
        raise ValueError(f"state dimension {state.dim} does not match cfg.N={cfg.N}")
    if grid.steps < 3:
        raise ValueError(
            f"series reports need steps >= 3 for second-order differences, got {grid.steps}"
        )
    order = _parity_order(cfg)
    b, q = _parity_blocks(cfg, "x", "p/i")
    s, u, v = _wall_force(cfg)
    u, v = u[order], v[order]

    a = state.coeffs[order]
    u0 = _parity_product(b, a[:, None], cfg.L / 2.0)[:, 0]
    x0_mean = float(np.real(np.vdot(a, u0)))
    dx0 = float(_std_from_moments(float(np.real(np.vdot(u0, u0))), x0_mean, "dx(0)"))

    times = grid.times()
    cols = np.empty((times.size, len(RunReport.COLUMNS)))
    f_means = np.empty(times.size)
    for lo in range(0, times.size, _SERIES_BLOCK):
        block = slice(lo, lo + _SERIES_BLOCK)
        phase, c = _schrodinger_columns(state, cfg, times[block])
        wx = _parity_product(b, c, cfg.L / 2.0)
        x_mean, x_second = _moments(wx, c)
        p_mean, p_second = _moments(1j * _parity_product(q, c, sign=-1.0), c)
        f_means[block] = -s * (np.abs(u @ c) ** 2 - np.abs(v @ c) ** 2)
        cols[block, 1] = x_mean
        cols[block, 2] = p_mean
        cols[block, 3] = _std_from_moments(x_second, x_mean, "dx(t)")
        cols[block, 4] = _std_from_moments(p_second, p_mean, "dp(t)")
        # <x(t) x(0)> = (X C)^dagger (phase * X a)
        cols[block, 6] = np.abs(np.imag(np.sum(wx.conj() * (phase * u0[:, None]), axis=0)))
    cols[:, 0] = times
    cols[:, 5] = dx0
    cols[:, 7] = cfg.hbar * np.abs(times) / (2.0 * cfg.m)

    h = grid.spacing
    dxdt = np.gradient(cols[:, 1], h, edge_order=2)
    dpdt = np.gradient(cols[:, 2], h, edge_order=2)
    cols[:, 8] = np.abs(dxdt - cols[:, 2] / cfg.m)
    cols[:, 9] = np.abs(dpdt + f_means)

    meta = {
        "scenario": scenario,
        "dim": cfg.N,
        "grid_spacing": h,
        "revival_time": revival_time(cfg),
        "max_residual_x": float(cols[:, 8].max()),
        "max_residual_p": float(cols[:, 9].max()),
    }
    return RunReport(cols, hbar=cfg.hbar, meta=meta)


def ehrenfest_report(state: StateVector, cfg: WellConfig, grid: TimeGrid) -> RunReport:
    """Track <x>, <p>, dispersions, and the Ehrenfest residuals on a time grid.

    residual_x = |d<x>/dt - <p>/m| and residual_p = |d<p>/dt + <dV/dx>|,
    with the time derivatives estimated by second-order finite differences
    on the grid itself, so both residuals scale as O(h^2).
    """
    return _series_report(state, cfg, grid, "ehrenfest")


def spread_report(state: StateVector, cfg: WellConfig, grid: TimeGrid) -> RunReport:
    """Track Delta x(t) against Delta x(0), the Robertson bound, and hbar t / 2m.

    Row construction verifies Delta x(t) * Delta x(0) >= |<[x(t), x(0)]>|/2 - 1e-9
    at every sampled time.
    """
    return _series_report(state, cfg, grid, "spread")


@dataclass(frozen=True)
class ShortTimeResiduals:
    """Interior-block Taylor residuals of x(dt).

    r1 drops the force term and is O(dt^2); r2 keeps it and is O(dt^3).
    """

    dt: float
    r1: float
    r2: float
    max_index: int


def short_time_expansion_check(cfg: WellConfig, dt: float) -> ShortTimeResiduals:
    """Frobenius norms of x(dt) - x - (p/m) dt [+ (dV/dx) dt^2 / 2m] on the interior block k, l <= N/4."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    b = cfg.N // 4
    if b < 1:
        raise ValueError(f"the interior block N // 4 is empty at N={cfg.N}; need N >= 4")
    x = build_position(cfg)
    p = build_momentum(cfg)
    f0 = force_matrix(cfg, 0.0)
    xt = evolve(x, cfg, dt)
    first = xt.entries - x.entries - (dt / cfg.m) * p.entries
    second = first + (dt * dt / (2.0 * cfg.m)) * f0.entries
    r1 = float(np.linalg.norm(first[:b, :b]))
    r2 = float(np.linalg.norm(second[:b, :b]))
    return ShortTimeResiduals(dt=dt, r1=r1, r2=r2, max_index=b)
