"""Dense complex matrix algebra on truncated operators.

Builders for the position, momentum, and Hamiltonian matrices in the
energy eigenbasis, Heisenberg-picture time evolution, commutators, the
directional operator-derivative limit, and a truncation-aware check of
the canonical commutation relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergentDerivative
from .well import WellConfig, eigen_energy


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense complex N x N operator in the energy eigenbasis.

    `time` is None for operators built at t = 0 ("static"); `evolve`
    stamps the evolution time.  Entries are immutable after construction.
    """

    entries: np.ndarray
    time: float | None = None

    def __post_init__(self):
        a = np.array(self.entries, dtype=complex, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("operator entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.entries.conj().T, self.time)

    def hermiticity_defect(self) -> float:
        """max |A - A^dagger| / max(|A|, tiny), a relative conj-transpose check."""
        scale = max(float(np.abs(self.entries).max()), 1e-300)
        return float(np.abs(self.entries - self.entries.conj().T).max()) / scale

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_same_dim(self, other)
        t = self.time if self.time == other.time else None
        return OperatorMatrix(self.entries @ other.entries, t)


def _check_same_dim(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def identity(n: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(n, dtype=complex))


def build_position(cfg: WellConfig) -> OperatorMatrix:
    """Position matrix: L/2 on the diagonal, -8Lkl/(pi^2 (k^2-l^2)^2) for k+l odd.

    Integer arithmetic on k l and (k^2-l^2)^2 makes the result exactly
    symmetric with exact parity zeros.
    """
    n = cfg.mode_numbers().astype(np.int64)
    k, l = n[:, None], n[None, :]
    d = k * k - l * l
    odd = (k + l) % 2 == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        off = -8.0 * cfg.L * (k * l) / (math.pi**2 * (d * d))
    x = np.where(odd, off, 0.0)
    np.fill_diagonal(x, cfg.L / 2.0)
    return OperatorMatrix(x.astype(complex))


def build_momentum(cfg: WellConfig) -> OperatorMatrix:
    """Momentum matrix: zero diagonal, 4 i hbar k l / (L (l^2 - k^2)) for k+l odd."""
    n = cfg.mode_numbers().astype(np.int64)
    k, l = n[:, None], n[None, :]
    d = l * l - k * k
    odd = (k + l) % 2 == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        off = 4.0 * cfg.hbar * (k * l) / (cfg.L * np.where(d == 0, 1, d))
    p = np.where(odd, 1j * off, 0.0 + 0.0j)
    return OperatorMatrix(p)


def build_hamiltonian(cfg: WellConfig) -> OperatorMatrix:
    """Diagonal Hamiltonian diag(E_1 .. E_N)."""
    e = np.array([eigen_energy(cfg, int(n)) for n in cfg.mode_numbers()])
    return OperatorMatrix(np.diag(e).astype(complex))


def _phase_exponents(cfg: WellConfig) -> np.ndarray:
    """Integer matrix (k^2 - l^2); omega_k - omega_l = (k^2-l^2) * omega_1."""
    n2 = (cfg.mode_numbers().astype(np.int64)) ** 2
    return n2[:, None] - n2[None, :]


def evolve(op: OperatorMatrix, cfg: WellConfig, t: float) -> OperatorMatrix:
    """Heisenberg evolution O_kl(t) = O_kl exp(+i (omega_k - omega_l) t).

    The frequency difference is formed as the exact integer (k^2 - l^2)
    times the single float omega_1 * t, so revival-time phases land on
    integer multiples of 2 pi to machine precision.  Evolving an
    already-evolved operator accumulates its time stamp, which makes
    evolve a one-parameter group.
    """
    if op.dim != cfg.N:
        raise ValueError(f"operator dimension {op.dim} does not match cfg.N={cfg.N}")
    d = _phase_exponents(cfg)
    phase = np.exp(1j * (d * (cfg.base_frequency * t)))
    prior = 0.0 if op.time is None else op.time
    return OperatorMatrix(op.entries * phase, prior + t)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[a, b] = ab - ba."""
    _check_same_dim(a, b)
    t = a.time if a.time == b.time else None
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries, t)


def commutator_trace(a: OperatorMatrix, b: OperatorMatrix) -> complex:
    """trace(ab - ba), evaluated so the cancellation is exact in floats.

    trace(ab) - trace(ba) = sum_{k<j} (G_kj + G_jk) with
    G = E - E^T, E_kj = a_kj b_jk.  G is exactly antisymmetric entry by
    entry (the same two floats are multiplied on both sides), so every
    paired sum is exactly zero and the returned value is 0.0 for any two
    finite matrices, independent of truncation.
    """
    _check_same_dim(a, b)
    e = a.entries * b.entries.T
    g = e - e.T
    upper = np.triu(g, 1)
    lower = np.tril(g, -1).T
    return complex(np.sum(upper + lower))


@dataclass(frozen=True)
class InteriorBlockSpec:
    """Restrict a truncation-sensitive check to modes k, l <= max_index.

    Reports enforce max_index <= N/4 so the checked block stays far from
    the truncation edge.
    """

    max_index: int

    def __post_init__(self):
        if int(self.max_index) != self.max_index or self.max_index < 1:
            raise ValueError(f"max_index must be a positive integer, got {self.max_index}")
        object.__setattr__(self, "max_index", int(self.max_index))


@dataclass(frozen=True)
class CommutatorReport:
    """Canonical commutation check [x, p] = i hbar I on a truncated basis.

    interior_max_deviation: max |([x,p]/(i hbar))_kl - delta_kl| over the
        interior block.
    trace: trace of [x, p] via the exact pairwise evaluation (always 0).
    trace_naive: the same trace summed naively, exposing float roundoff.
    edge_diagonal_min: the most negative diagonal entry of [x,p]/(i hbar).
        The trace identity forces the edge diagonal to cancel the interior
        ones, so this is large and negative; it is the truncation artifact.
    """

    dim: int
    block: int
    interior_max_deviation: float
    trace: complex
    trace_naive: complex
    worst_diagonal_deviation: float
    edge_diagonal_min: float


def canonical_commutator_report(cfg: WellConfig, block: InteriorBlockSpec) -> CommutatorReport:
    """Measure how well the truncated x and p satisfy [x, p] = i hbar I."""
    if 4 * block.max_index > cfg.N:
        raise ValueError(
            f"interior block {block.max_index} too large: need N >= {4 * block.max_index}, got N={cfg.N}"
        )
    x = build_position(cfg)
    p = build_momentum(cfg)
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


def hamilton_derivative(
    h_of,
    at: OperatorMatrix,
    direction: OperatorMatrix | None = None,
    epsilon_sequence=(0.5, 0.25, 0.125, 0.0625),
) -> OperatorMatrix:
    """Directional operator derivative lim_{eps->0} [H(A + eps D) - H(A)] / eps.

    `h_of` maps an OperatorMatrix to an OperatorMatrix; `direction`
    defaults to the identity.  Forward differences over the strictly
    decreasing `epsilon_sequence` are Richardson-extrapolated to eps = 0
    (Neville's scheme, so the steps need not halve).  The default steps
    are deliberately coarse: extrapolation removes the truncation error
    for smooth dependence, while tiny steps only amplify the roundoff of
    the difference quotient.  Raises NonConvergentDerivative when
    successive extrapolants move apart instead of settling.
    """
    eps = [float(e) for e in epsilon_sequence]
    if len(eps) < 2 or any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon_sequence must be strictly decreasing and positive")
    if direction is None:
        direction = identity(at.dim)
    _check_same_dim(at, direction)

    h0 = h_of(at).entries
    table = []
    for e in eps:
        shifted = OperatorMatrix(at.entries + e * direction.entries, at.time)
        table.append((h_of(shifted).entries - h0) / e)

    # Neville extrapolation in eps toward 0; diag[i] is the best estimate
    # using the first i+1 step sizes.
    best = [table[0]]
    rows = [table[0]]
    for i in range(1, len(eps)):
        new_rows = [table[i]]
        for j in range(1, i + 1):
            num = eps[i] * rows[j - 1] - eps[i - j] * new_rows[j - 1]
            new_rows.append(num / (eps[i] - eps[i - j]))
        rows = new_rows
        best.append(rows[-1])

    gaps = [float(np.abs(b2 - b1).max()) for b1, b2 in zip(best, best[1:])]
    if len(gaps) >= 2 and gaps[-1] > gaps[0] and gaps[-1] > gaps[-2]:
        raise NonConvergentDerivative(
            f"operator derivative diverged: successive estimate gaps {gaps}"
        )
    return OperatorMatrix(best[-1], at.time)
