"""Second quantization over the well's modes.

Occupation-number basis for bosons (per-mode cutoff) or fermions,
the (anti)commutation check of the ladder operators, condensate states,
and density expectations in the Heisenberg picture.

Every ladder operator a_n is a partial permutation of the basis, kept in
shift form by `_ladders`: one target row and one amplitude per column.
`check_algebra` composes these arrays, and `density_expectation` forms
the one-body density matrix rho_nm = <a_n^dagger a_m> from them, so
neither builds a d x d matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import StateVector
from .well import WellConfig, eigenfunction, sine_coefficients

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
    occupation vector (n_1 .. n_M) is sum_i n_i (cutoff+1)^(M-i): its dot
    product with `_strides`.
    """

    modes: int
    statistics: Statistics
    cutoff: int = 1

    def __post_init__(self):
        if int(self.modes) != self.modes or self.modes < 1:
            raise ValueError(f"modes must be a positive integer, got {self.modes}")
        object.__setattr__(self, "modes", int(self.modes))
        object.__setattr__(self, "statistics", Statistics(self.statistics))  # the enum or its value
        if self.statistics is Statistics.FERMION:
            if self.cutoff not in (1,):
                raise ValueError("fermion occupation is 0/1; cutoff must be 1")
        else:
            if int(self.cutoff) != self.cutoff or self.cutoff < 1:
                raise ValueError(f"boson cutoff must be a positive integer, got {self.cutoff}")
        object.__setattr__(self, "cutoff", int(self.cutoff))
        # every cutoff gives at least 2^modes states, so this many modes are refused before
        # the exact (cutoff+1)^modes is formed
        if self.modes >= _MAX_DIMENSION.bit_length():
            raise ValueError(f"{self.modes} modes exceed the desk-scale cap of {_MAX_DIMENSION} states")
        if self.dimension > _MAX_DIMENSION:
            raise ValueError(f"{self.cutoff + 1}^{self.modes} basis states exceed the desk-scale cap {_MAX_DIMENSION}")

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.modes

    @property
    def _strides(self) -> np.ndarray:
        """(cutoff+1)^(M-i) for modes i = 1..M, the basis-index step of one quantum in mode i."""
        return (self.cutoff + 1) ** np.arange(self.modes - 1, -1, -1, dtype=np.int64)

    def occupations(self) -> np.ndarray:
        """All occupation vectors as an integer (dimension x modes) array, in basis order."""
        return np.arange(self.dimension)[:, None] // self._strides % (self.cutoff + 1)

    def index_of(self, occupation) -> int:
        occ = np.asarray(occupation, dtype=np.int64)
        if occ.shape != (self.modes,):
            raise ValueError(f"occupation vector must have length {self.modes}")
        if np.any(occ < 0) or np.any(occ > self.cutoff):
            raise ValueError(f"occupations must lie in 0..{self.cutoff}")
        return int(occ @ self._strides)


@dataclass(frozen=True)
class FockState:
    """Normalized coefficient vector over a FockBasis."""

    basis: FockBasis
    coeffs: np.ndarray

    def __post_init__(self):
        a = StateVector(self.coeffs).coeffs
        if a.size != self.basis.dimension:
            raise ValueError(f"state must have {self.basis.dimension} coefficients")
        object.__setattr__(self, "coeffs", a)

    @classmethod
    def occupied(cls, basis: FockBasis, occupation) -> "FockState":
        """The basis state with the given occupation vector (n_1 .. n_M)."""
        a = np.zeros(basis.dimension, dtype=complex)
        a[basis.index_of(occupation)] = 1.0
        return cls(basis, a)

    @classmethod
    def vacuum(cls, basis: FockBasis) -> "FockState":
        return cls.occupied(basis, [0] * basis.modes)


def _ladders(basis: FockBasis) -> list:
    """Shift forms of a_1 .. a_M: column s of a_n holds amps[s] at row target[s], and nothing else.

    Removing one quantum from mode n moves state s to s - stride_n.  Bosons:
    amplitude sqrt(occ_n).  Fermions: (-1)^(occ_1 + ... + occ_{n-1}), the
    mode-1-first sign string, so for example a_2 |1,1> = -|1,0>.  A column
    with occ_n = 0 wraps to the state with occ_n = cutoff, a row a_n never
    reaches, with amplitude 0; so `target` is a permutation of the basis.
    """
    base = basis.cutoff + 1
    strides = basis._strides[:, None]
    # the occupation table mode-major, one contiguous row per mode: the composed gathers read whole rows
    occ = np.ascontiguousarray(basis.occupations().T)
    empty = occ == 0
    targets = np.arange(basis.dimension) - strides + base * strides * empty
    if basis.statistics is Statistics.BOSON:
        amps = np.sqrt(occ.astype(float))
    else:
        parity = (np.cumsum(occ, axis=0) - occ) % 2  # occ_1 + ... + occ_{n-1}
        amps = np.where(empty, 0.0, np.where(parity == 0, 1.0, -1.0))
    return list(zip(targets, amps))


def _compose(a, b):
    """Shift form of A @ B, both in shift form."""
    (ta, va), (tb, vb) = a, b
    return ta[tb], va[tb] * vb


def _adjoint(a):
    """Shift form of A^dagger: the inverse permutation, conjugate amplitudes."""
    target, amps = a
    inverse = np.empty_like(target)
    inverse[target] = np.arange(target.size)
    return inverse, amps[inverse].conj()


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


def _relation(p, q, sign: float, minus_identity: bool):
    """Entries of P + sign Q, minus I if asked, for P and Q in shift form.

    Column s of the result can be nonzero only at rows target_P[s],
    target_Q[s] and s.  Returns those rows and the entries there (3 x d
    each).  An absent term enters as an exact zero, so every entry equals
    the dense matrix's bit for bit.
    """
    (tp, vp), (tq, vq) = p, q
    cols = np.arange(tp.size)
    rows = np.stack([tp, tq, cols])
    values = np.where(tp == rows, vp, 0.0) + sign * np.where(tq == rows, vq, 0.0)
    if minus_identity:
        values = values - (rows == cols)
    return rows, values


def check_algebra(basis: FockBasis) -> FockAlgebraReport:
    """Check [a_n, a_m]_± = 0 and [a_n, a_m^dagger]_± = delta_nm I on the basis.

    Works on the shift forms in O(M^2 d) operations; no d x d matrix is built.
    Each unordered mode pair is checked once: (j, i) gives the (i, j) relations
    negated, repeated or adjoint, from the same float products.
    """
    ann = _ladders(basis)
    cre = [_adjoint(a) for a in ann]
    sign = -1.0 if basis.statistics is Statistics.BOSON else 1.0  # commutator vs anticommutator

    same = 0.0
    boundary = 0.0
    cross = 0.0
    pair = 0.0
    saturated_total = 0
    for i in range(basis.modes):
        for j in range(i, basis.modes):
            _, pair_rel = _relation(_compose(ann[i], ann[j]), _compose(ann[j], ann[i]), sign, False)
            pair = max(pair, float(np.abs(pair_rel).max()))
            rows, rel = _relation(_compose(ann[i], cre[j]), _compose(cre[j], ann[i]), sign, i == j)
            if i != j:
                cross = max(cross, float(np.abs(rel).max()))
                continue
            if basis.statistics is Statistics.FERMION:
                same = max(same, float(np.abs(rel).max()))
                continue
            sat = cre[i][1] == 0.0  # a_n^dagger annihilates exactly the states with occ_n = cutoff
            saturated_total += int(sat.sum())
            on_diag = rows == np.arange(basis.dimension)
            same = max(same, float(np.abs(np.where(on_diag, 0.0, rel)).max()))
            diag = rel[2]  # the third row of `rows` is the diagonal
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


def condensate_state(basis: FockBasis, n_particles: int) -> FockState:
    """(a_1^dagger)^N / sqrt(N!) |0>: N bosons in the lowest mode."""
    if basis.statistics is not Statistics.BOSON:
        raise ValueError("condensate states need a bosonic basis")
    if int(n_particles) != n_particles or n_particles < 0:
        raise ValueError(f"particle number must be a nonnegative integer, got {n_particles}")
    if n_particles > basis.cutoff:
        raise ValueError(f"particle number {n_particles} exceeds the cutoff {basis.cutoff}")
    return FockState.occupied(basis, [n_particles] + [0] * (basis.modes - 1))


def density_expectation(state: FockState, cfg: WellConfig, basis: FockBasis, x, t: float = 0.0):
    """<state| Psi^dagger(x,t) Psi(x,t) |state>, the expected particle density.

    The columns V[:, m] = a_m |state> give the one-body density matrix
    rho = V^dagger V, rho_nm = <a_n^dagger a_m>, and the density is
    sum_nm psi_n(x) rho_nm exp(i (n^2 - m^2) omega_1 t) psi_m(x), each phase
    an exact integer times omega_1 t as in operators.evolve.  `x` may be an
    array of positions (returns an array) or a scalar (returns a float).
    """
    if state.basis != basis:
        raise ValueError("state and basis do not match")
    xs = np.asarray(x, dtype=float)
    outside = ~((0.0 <= xs) & (xs <= cfg.L))
    if np.any(outside):
        raise ValueError(f"position {xs[outside].flat[0]} outside the well [0, {cfg.L}]")
    if basis.modes > cfg.N:
        raise ValueError(f"basis uses {basis.modes} modes but cfg retains only N={cfg.N}")
    v = np.empty((basis.dimension, basis.modes), dtype=complex)
    for m, (target, amps) in enumerate(_ladders(basis)):
        v[target, m] = amps * state.coeffs
    rho = v.conj().T @ v
    n2 = np.arange(1, basis.modes + 1, dtype=np.int64) ** 2
    rho *= np.exp(1j * (np.subtract.outer(n2, n2) * (cfg.base_frequency * t)))
    psi = np.array([eigenfunction(cfg, n, xs.ravel()) for n in range(1, basis.modes + 1)])
    density = np.real(np.sum(psi * (rho @ psi), axis=0)).reshape(xs.shape)
    return float(density) if density.ndim == 0 else density


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
