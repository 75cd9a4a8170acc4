"""Infinite square well: configuration, spectrum, and closed-form matrix elements.

Walls sit at x = 0 and x = L.  Mode n (1-based, n = 1 is the ground state) has

    psi_n(x)  = sqrt(2/L) sin(n pi x / L)
    E_n       = hbar^2 pi^2 n^2 / (2 m L^2)
    omega_n   = E_n / hbar

All matrices produced by this package live in this energy eigenbasis,
truncated to the first N modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Composite Gauss-Legendre rule (quadrature_rule): the fewest panels, and
# the entries of one block of modes x nodes x (real, imaginary) in
# sine_coefficients.
_GL_MIN_PANELS = 64
_SINE_BLOCK_ELEMENTS = 2**15

# The 24-point Gauss-Legendre rule on [-1, 1], bit for bit what
# numpy.polynomial.legendre.leggauss(24) returns (which is exactly
# symmetric): the positive nodes and their weights, ascending.
_GL_HALF_NODES = (
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
    0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
    0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
)
_GL_HALF_WEIGHTS = (
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
    0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
    0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
)

# One dense complex N x N matrix: 256 MiB, so N <= 4096.  Builders refuse
# more before allocating.
_MAX_DENSE_BYTES = 256 * 2**20
_MIN_NORMAL = 2.0**-1022  # the least positive normal float64; WellConfig's scales are at least this


@dataclass(frozen=True)
class WellConfig:
    """Physical parameters of the well plus the truncation dimension.

    Every derived quantity in the package takes its units from here.
    Defaults are natural units (L = m = hbar = 1).  N is the number of
    retained eigenstates; every matrix in a computation shares this one
    dimension.
    """

    L: float = 1.0
    m: float = 1.0
    hbar: float = 1.0
    N: int = 100

    def __post_init__(self):
        for name, value in (("well width L", self.L), ("mass m", self.m), ("hbar", self.hbar)):
            if not _MIN_NORMAL <= value < math.inf:
                raise ValueError(f"{name} must be a finite normal float, at least 2**-1022, got {value}")
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"truncation dimension N must be an integer >= 2, got {self.N}")
        object.__setattr__(self, "N", int(self.N))

    @property
    def base_frequency(self) -> float:
        """omega_1 = hbar pi^2 / (2 m L^2); omega_n = n^2 * omega_1."""
        return self.hbar * math.pi**2 / (2.0 * self.m * self.L**2)

    def mode_numbers(self) -> np.ndarray:
        return np.arange(1, self.N + 1)


def _check_dense(n: int) -> None:
    """Refuse a dense complex n x n matrix above _MAX_DENSE_BYTES (ValueError), whatever the int n."""
    size = 16 * n * n
    if size > _MAX_DENSE_BYTES:
        raise ValueError(
            f"a dense {n} x {n} complex matrix needs {-(-size >> 20)} MiB, above the"
            f" {_MAX_DENSE_BYTES >> 20} MiB cap; lower N"
        )


def _check_mode(cfg: WellConfig, n: int) -> int:
    if int(n) != n or not (1 <= n <= cfg.N):
        raise ValueError(f"mode index must be an integer in 1..{cfg.N}, got {n}")
    return int(n)


def wavenumber(cfg: WellConfig, n: int) -> float:
    """k_n = n pi / L."""
    n = _check_mode(cfg, n)
    return n * math.pi / cfg.L


def eigenfunction(cfg: WellConfig, n: int, x):
    """psi_n(x) = sqrt(2/L) sin(k_n x), defined on 0 <= x <= L.

    `x` may be a scalar or an array; values outside [0, L] are rejected.
    """
    n = _check_mode(cfg, n)
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0) or np.any(xv > cfg.L):
        raise ValueError(f"position outside the well [0, {cfg.L}]")
    out = math.sqrt(2.0 / cfg.L) * np.sin(wavenumber(cfg, n) * xv)
    return float(out) if np.isscalar(x) else out


def _panel_layout(cfg: WellConfig) -> tuple[int, float]:
    """The rule's panel count, max(64, N), and its panel width h = L / panels."""
    panels = max(_GL_MIN_PANELS, cfg.N)
    return panels, cfg.L / panels


def _panel_rule(cfg: WellConfig) -> tuple[np.ndarray, np.ndarray]:
    """The rule of `quadrature_rule` by panel.

    Returns the nodes as a (P, 24) array whose row p is p h + o_j (h = L/P,
    so row 0 holds the offsets o_j), and the 24 weights every panel shares.
    """
    half = np.array(_GL_HALF_NODES)
    nodes = np.concatenate([-half[::-1], half])
    weights = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
    panels, h = _panel_layout(cfg)
    return np.arange(panels)[:, None] * h + (nodes + 1.0) * (h / 2.0), weights * (h / 2.0)


def quadrature_rule(cfg: WellConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [0, L].

    max(64, N) equal panels of 24 nodes, so every panel holds at most half
    a period of sin(k_N x) and the rule is exact to rounding for the
    products psi_k psi_l, k, l <= N.  The nodes lie inside (0, L).
    """
    x, w = _panel_rule(cfg)
    return x.ravel(), np.tile(w, x.shape[0])


def sine_coefficients(cfg: WellConfig, f) -> tuple[np.ndarray, float]:
    """Coefficients c_n = integral f psi_n over [0, L] for n = 1..N, and integral |f|^2.

    Both integrals use `quadrature_rule`.  `f` is called once, on the whole
    node array, and must accept an array of positions inside (0, L); it
    may return complex values.

    Raises ValueError when the sampled integral of |f|^2 is not finite (a
    NaN or overflowing sample).

    The sines factor over the panels of the rule: node j of panel p sits at
    x = p h + o_j with h = L/P, so k_n x = pi n p / P + k_n o_j and, for real
    weighted samples g (the real and the imaginary parts of w f in turn),

        sum_p g_pj sin(k_n x) = Im(e^{i k_n o_j} conj(S_j(n))),
        S_j(n) = sum_p g_pj e^{-i pi n p / P}.

    S_j(n) is bin n of a real FFT of length 2P over the panels; n <= N <= P,
    so no bin wraps.  The local phases k_n o_j <= pi are applied a block of
    modes at a time, so neither the N x 24P sines of a direct loop nor an
    N x P table of panel turns is formed.
    """
    x, w_panel = _panel_rule(cfg)
    panels, order = x.shape
    fx = np.asarray(f(x.ravel()), dtype=complex)
    w = np.tile(w_panel, panels)
    with np.errstate(over="ignore"):
        norm2 = float(w @ (fx.real**2 + fx.imag**2))
    if not math.isfinite(norm2):
        raise ValueError(f"the sampled integral of |f|^2 over [0, L] is {norm2}, not finite")
    # the float view puts the real and the imaginary part of each weighted sample side by side
    wf = (w * fx).reshape(panels, order).view(float)
    sums = np.fft.rfft(wf, 2 * panels, axis=0)[1 : cfg.N + 1].reshape(cfg.N, order, 2)
    del fx, wf  # the samples go before the mode blocks, which set the peak at large N
    coeffs = np.empty(cfg.N, dtype=complex)
    chunk = max(1, _SINE_BLOCK_ELEMENTS // (2 * order))
    for start in range(0, cfg.N, chunk):
        n = np.arange(start + 1, min(start + chunk, cfg.N) + 1)
        local = np.multiply.outer(n * (math.pi / cfg.L), x[0])[:, :, None]
        s = sums[start : start + n.size]
        re_im = np.sum(np.sin(local) * s.real - np.cos(local) * s.imag, axis=1)
        coeffs[start : start + n.size] = re_im[:, 0] + 1j * re_im[:, 1]
    return math.sqrt(2.0 / cfg.L) * coeffs, norm2


def eigen_energy(cfg: WellConfig, n: int) -> float:
    """E_n = hbar^2 pi^2 n^2 / (2 m L^2)."""
    n = _check_mode(cfg, n)
    return cfg.hbar**2 * math.pi**2 * n**2 / (2.0 * cfg.m * cfg.L**2)


def mode_frequency(cfg: WellConfig, n: int) -> float:
    """omega_n = E_n / hbar = n^2 * base_frequency."""
    n = _check_mode(cfg, n)
    return n * n * cfg.base_frequency


def position_element(cfg: WellConfig, k: int, l: int) -> float:
    """Matrix element x_kl = <k| x |l> in closed form.

    x_nn = L/2.  Off the diagonal the element vanishes for k+l even
    (parity selection) and equals -8 L k l / (pi^2 (k^2 - l^2)^2) for
    k+l odd.  Integer arithmetic is used for k l and (k^2 - l^2)^2 so
    the matrix is exactly symmetric.
    """
    k = _check_mode(cfg, k)
    l = _check_mode(cfg, l)
    if k == l:
        return cfg.L / 2.0
    if (k + l) % 2 == 0:
        return 0.0
    d = k * k - l * l
    return -8.0 * cfg.L * (k * l) / (math.pi**2 * (d * d))


def momentum_element(cfg: WellConfig, k: int, l: int) -> complex:
    """Matrix element p_kl = <k| -i hbar d/dx |l> in closed form.

    The diagonal vanishes, as do all elements with k+l even; for k+l odd

        p_kl = 4 i hbar k l / (L (l^2 - k^2)).

    The matrix is Hermitian: purely imaginary and antisymmetric.  It also
    satisfies p_kl = i m (omega_k - omega_l) x_kl, i.e. p = m dx/dt at t=0.
    """
    k = _check_mode(cfg, k)
    l = _check_mode(cfg, l)
    if k == l or (k + l) % 2 == 0:
        return 0.0 + 0.0j
    return 4j * cfg.hbar * (k * l) / (cfg.L * (l * l - k * k))
