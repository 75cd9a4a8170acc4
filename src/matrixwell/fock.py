"""Second quantization over the well's modes.

Occupation-number basis for bosons (per-mode cutoff) or fermions,
creation/annihilation matrices, field operators, the free many-body
Hamiltonian, condensate states, and density expectations in the
Heisenberg picture.  Everything stays dense; the basis dimension is
capped at desk scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .well import WellConfig, eigenfunction, mode_frequency, sine_coefficients

_MAX_DIMENSION = 32768


class Statistics(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis over modes 1..M.

    Bosons allow occupations 0..cutoff per mode; fermions 0/1 (cutoff is
    forced to 1).  States are enumerated lexicographically in the
    occupations with mode 1 varying slowest, so the basis index of an
    occupation vector (n_1 .. n_M) is sum_i n_i (cutoff+1)^(M-i).
    """

    modes: int
    statistics: Statistics
    cutoff: int = 1

    def __post_init__(self):
        if int(self.modes) != self.modes or self.modes < 1:
            raise ValueError(f"modes must be a positive integer, got {self.modes}")
        object.__setattr__(self, "modes", int(self.modes))
        if self.statistics is Statistics.FERMION:
            if self.cutoff not in (1,):
                raise ValueError("fermion occupation is 0/1; cutoff must be 1")
        else:
            if int(self.cutoff) != self.cutoff or self.cutoff < 1:
                raise ValueError(f"boson cutoff must be a positive integer, got {self.cutoff}")
        object.__setattr__(self, "cutoff", int(self.cutoff))
        if self.dimension > _MAX_DIMENSION:
            raise ValueError(
                f"basis dimension {self.dimension} exceeds the desk-scale cap {_MAX_DIMENSION}"
            )

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.modes

    def occupations(self) -> np.ndarray:
        """All occupation vectors as an integer (dimension x modes) array, in basis order."""
        base = self.cutoff + 1
        idx = np.arange(self.dimension)
        occ = np.empty((self.dimension, self.modes), dtype=np.int64)
        for i in range(self.modes - 1, -1, -1):
            occ[:, i] = idx % base
            idx = idx // base
        return occ

    def index_of(self, occupation) -> int:
        occ = np.asarray(occupation, dtype=np.int64)
        if occ.shape != (self.modes,):
            raise ValueError(f"occupation vector must have length {self.modes}")
        if np.any(occ < 0) or np.any(occ > self.cutoff):
            raise ValueError(f"occupations must lie in 0..{self.cutoff}")
        base = self.cutoff + 1
        weights = base ** np.arange(self.modes - 1, -1, -1, dtype=np.int64)
        return int(occ @ weights)


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on a FockBasis."""

    basis: FockBasis
    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=complex, order="C")
        d = self.basis.dimension
        if a.shape != (d, d):
            raise ValueError(f"entries must be {d} x {d} for this basis, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("operator entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.basis, self.entries.conj().T)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if self.basis != other.basis:
            raise ValueError("operators live on different bases")
        return FockOperator(self.basis, self.entries @ other.entries)


@dataclass(frozen=True)
class FockState:
    """Normalized coefficient vector over a FockBasis."""

    basis: FockBasis
    coeffs: np.ndarray

    def __post_init__(self):
        a = np.array(self.coeffs, dtype=complex).ravel()
        if a.size != self.basis.dimension:
            raise ValueError(f"state must have {self.basis.dimension} coefficients")
        norm = float(np.linalg.norm(a))
        if not np.isfinite(norm) or norm < 1e-12:
            raise ValueError("state has (near-)zero or non-finite norm")
        a = a / norm
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    @classmethod
    def vacuum(cls, basis: FockBasis) -> "FockState":
        a = np.zeros(basis.dimension, dtype=complex)
        a[0] = 1.0
        return cls(basis, a)


def _check_mode(basis: FockBasis, n: int) -> int:
    if int(n) != n or not (1 <= n <= basis.modes):
        raise ValueError(f"mode index must be in 1..{basis.modes}, got {n}")
    return int(n)


def annihilator(basis: FockBasis, n: int) -> FockOperator:
    """Matrix of a_n in the occupation basis.

    Bosons: <occ - e_n| a_n |occ> = sqrt(occ_n).  Fermions: amplitude
    (-1)^(occ_1 + ... + occ_{n-1}) with the mode-1-first sign string, so
    for example a_2 |1,1> = -|1,0>.
    """
    n = _check_mode(basis, n)
    occ = basis.occupations()
    d = basis.dimension
    base = basis.cutoff + 1
    stride = base ** (basis.modes - n)

    cols = np.nonzero(occ[:, n - 1] >= 1)[0]
    rows = cols - stride  # removing one quantum from mode n
    if basis.statistics is Statistics.BOSON:
        amps = np.sqrt(occ[cols, n - 1].astype(float))
    else:
        parity = occ[cols, : n - 1].sum(axis=1) % 2
        amps = np.where(parity == 0, 1.0, -1.0)
    a = np.zeros((d, d), dtype=complex)
    a[rows, cols] = amps
    return FockOperator(basis, a)


def creator(basis: FockBasis, n: int) -> FockOperator:
    """a_n^dagger, the adjoint of annihilator(basis, n)."""
    return annihilator(basis, n).dagger()


def number_operator(basis: FockBasis, n: int) -> FockOperator:
    """a_n^dagger a_n, diagonal with the occupation of mode n."""
    n = _check_mode(basis, n)
    return FockOperator(basis, np.diag(basis.occupations()[:, n - 1].astype(complex)))


@dataclass(frozen=True)
class FockAlgebraReport:
    """Measured defects of the (anti)commutation relations.

    For fermions every relation is exact in floating point, so all
    fields are 0.  For bosons the same-mode [a_n, a_n^dagger] = I holds
    below the cutoff up to sqrt roundoff, and on saturated states
    (occ_n = cutoff) the truncated ladder forces the diagonal defect
    -(cutoff + 1); `boundary_error` measures the distance from that value.
    """

    statistics: Statistics
    modes: int
    cutoff: int
    same_mode_defect: float
    boundary_error: float
    cross_mode_defect: float
    pair_defect: float
    saturated_states: int


def check_algebra(basis: FockBasis) -> FockAlgebraReport:
    """Check [a_n, a_m]_± = 0 and [a_n, a_m^dagger]_± = delta_nm I on the basis."""
    ann = [annihilator(basis, n).entries for n in range(1, basis.modes + 1)]
    cre = [a.conj().T for a in ann]
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


def _check_position(cfg: WellConfig, x: float) -> float:
    if not (0.0 <= x <= cfg.L):
        raise ValueError(f"position {x} outside the well [0, {cfg.L}]")
    return float(x)


def _check_modes_fit(cfg: WellConfig, basis: FockBasis) -> None:
    if basis.modes > cfg.N:
        raise ValueError(f"basis uses {basis.modes} modes but cfg retains only N={cfg.N}")


def field_operator(cfg: WellConfig, basis: FockBasis, x: float) -> FockOperator:
    """Field operator Psi(x) = sum_n psi_n(x) a_n over the retained modes."""
    x = _check_position(cfg, x)
    _check_modes_fit(cfg, basis)
    total = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for n in range(1, basis.modes + 1):
        total += eigenfunction(cfg, n, x) * annihilator(basis, n).entries
    return FockOperator(basis, total)


def many_body_hamiltonian(cfg: WellConfig, basis: FockBasis) -> FockOperator:
    """H = sum_n hbar omega_n a_n^dagger a_n, diagonal in the occupation basis."""
    _check_modes_fit(cfg, basis)
    freqs = np.array([mode_frequency(cfg, n) for n in range(1, basis.modes + 1)])
    energies = basis.occupations() @ (cfg.hbar * freqs)
    return FockOperator(basis, np.diag(energies.astype(complex)))


def condensate_state(basis: FockBasis, n_particles: int) -> FockState:
    """(a_1^dagger)^N / sqrt(N!) |0>: N bosons in the lowest mode."""
    if basis.statistics is not Statistics.BOSON:
        raise ValueError("condensate states need a bosonic basis")
    if int(n_particles) != n_particles or n_particles < 0:
        raise ValueError(f"particle number must be a nonnegative integer, got {n_particles}")
    if n_particles > basis.cutoff:
        raise ValueError(f"particle number {n_particles} exceeds the cutoff {basis.cutoff}")
    occ = np.zeros(basis.modes, dtype=np.int64)
    occ[0] = n_particles
    a = np.zeros(basis.dimension, dtype=complex)
    a[basis.index_of(occ)] = 1.0
    return FockState(basis, a)


def _mode_weight_integers(basis: FockBasis) -> np.ndarray:
    """E_state / (hbar omega_1) = occ . (1, 4, 9, ...), exact integers."""
    n2 = np.arange(1, basis.modes + 1, dtype=np.int64) ** 2
    return basis.occupations() @ n2


def heisenberg_field(cfg: WellConfig, basis: FockBasis, x: float, t: float) -> FockOperator:
    """Psi(x, t) = e^{iHt/hbar} Psi(x) e^{-iHt/hbar} by exact diagonal phases.

    H is diagonal, so the conjugation is elementwise: entry (r, s) picks
    up exp(i (q_r - q_s) omega_1 t) where q is the integer spectral weight
    of each occupation state.  Equals sum_n psi_n(x) a_n e^{-i omega_n t}.
    """
    base_op = field_operator(cfg, basis, x)
    q = _mode_weight_integers(basis)
    dq = q[:, None] - q[None, :]
    phase = np.exp(1j * (dq * (cfg.base_frequency * t)))
    return FockOperator(basis, base_op.entries * phase)


def density_expectation(
    state: FockState, cfg: WellConfig, basis: FockBasis, x: float, t: float = 0.0
) -> float:
    """<state| Psi^dagger(x,t) Psi(x,t) |state>, the expected particle density."""
    if state.basis != basis:
        raise ValueError("state and basis do not match")
    v = heisenberg_field(cfg, basis, x, t).entries @ state.coeffs
    return float(np.real(np.vdot(v, v)))


def completeness_defect(cfg: WellConfig, f, modes: int) -> float:
    """Weak-form check of the equal-position field (anti)commutator.

    For a smooth test function f on (0, L) the mode kernel
    K_M(x, x') = sum_{n<=M} psi_n(x) psi_n(x') should reproduce
    integral f^2 as M grows; returns the relative shortfall
    |sum_{n<=M} c_n^2 - integral f^2| / integral f^2 with
    c_n = integral f psi_n (`well.sine_coefficients`, so `f` must accept
    an array).
    """
    if int(modes) != modes or not (1 <= modes <= cfg.N):
        raise ValueError(f"modes must be an integer in 1..{cfg.N}")
    coeffs, total = sine_coefficients(cfg, f)
    if total <= 0:
        raise ValueError("test function has zero norm on [0, L]")
    acc = float(np.sum(np.abs(coeffs[: int(modes)]) ** 2))
    return abs(acc - total) / total
