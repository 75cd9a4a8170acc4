"""Dense complex matrix algebra on truncated operators.

Builders for the position, momentum, and Hamiltonian matrices in the
energy eigenbasis, Heisenberg-picture time evolution, commutators, the
operator-derivative limit along the identity, and a truncation-aware
check of the canonical commutation relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergentDerivative
from .well import WellConfig, _check_dense, eigen_energy

# The parity-block fill and evolve work on this many entries at a time, so
# their temporaries stay a small fraction of the matrix they fill.
_ROW_BLOCK_ELEMENTS = 2**16

# The evolve report's first chunk of entries (each next one doubles), and its time samples at a time.
_FIRST_CHUNK = 256
_SAMPLE_BLOCK = 2**12

# The forward-difference steps of hamilton_derivative, strictly decreasing.
_DERIVATIVE_STEPS = (0.5, 0.25, 0.125, 0.0625)


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense complex N x N operator in the energy eigenbasis.

    Entries are immutable after construction: a read-only complex
    C-contiguous array that owns its memory is taken as is, anything else
    is copied.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = self.entries
        handed_over = (
            isinstance(a, np.ndarray)
            and a.dtype == np.complex128
            and a.flags.c_contiguous
            and a.flags.owndata
            and not a.flags.writeable
        )
        if not handed_over:  # so a caller's writable array is never frozen or shared
            a = np.array(a, dtype=complex, order="C")
            a.setflags(write=False)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def hermiticity_defect(self) -> float:
        """max |A - A^dagger| / max(|A|, tiny), a relative conj-transpose check."""
        scale = max(float(np.abs(self.entries).max()), 1e-300)
        return float(np.abs(self.entries - self.entries.conj().T).max()) / scale

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_same_dim(self, other)
        return _handover(self.entries @ other.entries)


def _handover(a: np.ndarray) -> OperatorMatrix:
    """Wrap a freshly computed complex array without copying it."""
    a.setflags(write=False)
    return OperatorMatrix(a)


def _check_same_dim(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _row_blocks(n: int, width: int | None = None) -> list:
    """(lo, hi) ranges of rows of an n x width matrix (n x n by default), _ROW_BLOCK_ELEMENTS entries at a time."""
    rows = max(1, _ROW_BLOCK_ELEMENTS // (width or n))
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def identity(n: int) -> OperatorMatrix:
    return _handover(np.eye(n, dtype=complex))


def _position_offdiagonal(cfg: WellConfig, kl: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x_kl = -8 L k l / (pi^2 (k^2 - l^2)^2) for k + l odd (well.position_element)."""
    x = kl * (-8.0 * cfg.L)
    x /= math.pi**2 * (d * d)
    return x


def _momentum_offdiagonal(cfg: WellConfig, kl: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(p/i)_kl = 4 hbar k l / (L (l^2 - k^2)) for k + l odd (well.momentum_element)."""
    return kl * (4.0 * cfg.hbar) / (cfg.L * -d)


def _parity_order(cfg: WellConfig) -> np.ndarray:
    """Indices of the modes in parity order, n = 1, 3, 5, .. then 2, 4, ..; the series engine's row order."""
    return np.r_[0 : cfg.N : 2, 1 : cfg.N : 2]


def _parity_blocks(cfg: WellConfig, *forms: str) -> list:
    """B = x[odd, even] for "x" and Q = (p/i)[odd, even] for "p/i", in the order asked, a block of rows at a time.

    In parity order the closed forms are x = (L/2) I + [[0, B], [B^T, 0]]
    and p/i = [[0, Q], [-Q^T, 0]]: every other entry is a parity zero.  This
    is the one fill of the k + l odd entries (well.position_element,
    momentum_element); integer k l and k^2 - l^2 make x exactly symmetric
    and p/i exactly antisymmetric.  Raises ValueError above the dense cap
    before allocating.
    """
    _check_dense(cfg.N)
    n = cfg.mode_numbers().astype(np.int64)[_parity_order(cfg)]
    odd, even = np.split(n, [(cfg.N + 1) // 2])
    helpers = [{"x": _position_offdiagonal, "p/i": _momentum_offdiagonal}[form] for form in forms]
    blocks = [np.empty((odd.size, even.size)) for _ in forms]
    for lo, hi in _row_blocks(odd.size, even.size):
        kl = np.multiply.outer(odd[lo:hi], even).astype(float)  # exact below 2^53
        d = np.subtract.outer(odd[lo:hi] ** 2, even**2)
        for block, helper in zip(blocks, helpers):
            block[lo:hi] = helper(cfg, kl, d)
    return blocks


def _natural_order(block: np.ndarray, sign: float, out: np.ndarray) -> np.ndarray:
    """Write [[0, block], [sign block^T, 0]] from parity order into `out`, zeroed, in mode order.

    The odd modes are rows 0, 2, .. of `out`, so both blocks land on strided slices, of a .real or .imag view too.
    """
    out[0::2, 1::2] = block
    np.multiply(block.T, sign, out=out[1::2, 0::2])
    return out


def build_position(cfg: WellConfig) -> OperatorMatrix:
    """Position matrix: L/2 on the diagonal, -8Lkl/(pi^2 (k^2-l^2)^2) for k+l odd.

    Exactly symmetric with exact parity zeros.  Besides the matrix itself
    only its parity block B, a quarter of its entries as floats, is
    allocated.  Raises ValueError before allocating when one N x N complex
    matrix would exceed 256 MiB.
    """
    (b,) = _parity_blocks(cfg, "x")
    x = np.zeros((cfg.N, cfg.N), dtype=complex)
    _natural_order(b, 1.0, x.real)
    np.fill_diagonal(x, cfg.L / 2.0)
    return _handover(x)


def build_momentum(cfg: WellConfig) -> OperatorMatrix:
    """Momentum matrix: zero diagonal, 4 i hbar k l / (L (l^2 - k^2)) for k+l odd.

    Real parts are exact +0.0.  Formed from the parity block Q alone; raises
    ValueError before allocating above the 256 MiB cap.
    """
    (q,) = _parity_blocks(cfg, "p/i")
    p = np.zeros((cfg.N, cfg.N), dtype=complex)
    _natural_order(q, -1.0, p.imag)
    return _handover(p)


def build_hamiltonian(cfg: WellConfig) -> OperatorMatrix:
    """Diagonal Hamiltonian diag(E_1 .. E_N); refused above the 256 MiB cap."""
    _check_dense(cfg.N)
    h = np.zeros((cfg.N, cfg.N), dtype=complex)
    np.fill_diagonal(h, [eigen_energy(cfg, int(n)) for n in cfg.mode_numbers()])
    return _handover(h)


def evolve(op: OperatorMatrix, cfg: WellConfig, t: float) -> OperatorMatrix:
    """Heisenberg evolution O_kl(t) = O_kl exp(+i (omega_k - omega_l) t).

    The frequency difference is formed as the exact integer (k^2 - l^2)
    times the single float omega_1 * t, so revival-time phases land on
    integer multiples of 2 pi to machine precision.  The phases are
    applied in place to a copy of the entries, a block of rows at a time.
    Raises ValueError before allocating above the 256 MiB cap.
    """
    _check_dense(cfg.N)
    if op.dim != cfg.N:
        raise ValueError(f"operator dimension {op.dim} does not match cfg.N={cfg.N}")
    n2 = cfg.mode_numbers().astype(np.int64) ** 2
    wt = cfg.base_frequency * t
    out = op.entries.copy()
    for lo, hi in _row_blocks(cfg.N):
        out[lo:hi] *= np.exp(1j * (np.subtract.outer(n2[lo:hi], n2) * wt))
    return _handover(out)


def _position_evolution_checks(cfg: WellConfig, times: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max|x(t) - x(0)| at each time, what `evolve(build_position(cfg), cfg, t)` gives, without forming x(t).

    `b` is x's parity block B, `_parity_blocks(cfg, "x")[0]`.

    Off the diagonal x(t)_kl = x_kl e^{i d w t} with d = k^2 - l^2 is nonzero
    only for k + l odd, the entries of the parity block B = x[odd, even],
    each unordered pair once.  An entry's exponential is e = e^{i|d| w t},
    the phase evolve forms at whichever of (k, l) and (l, k) has d > 0; numpy
    forms the other, e^{-i|d| w t}, as its exact conjugate, and |x_kl (e - 1)|
    is the same for e and conj(e).  So the largest change is the largest
    |p e - p| over B, p = |x_kl| = -x_kl, formed as evolve's x e - x:

    * the entries are taken largest p first, in chunks that double from
      _FIRST_CHUNK up to _ROW_BLOCK_ELEMENTS, for all open samples at once,
      and a sample closes once a bound on every later change is at most its
      largest change so far.  A change is 2 p |sin(theta/2)|, theta = |d w t|:
      at most 2 p, 2 p (1 + 8 eps) once rounded, and at most p theta.  With
      cos and sin rounded within an ulp, p e - p rounds to at most
      p (theta + 3 eps / 2)(1 + 2 eps), and theta and p |d| round once each.
      So min(2 p, |w t| S + 2 eps p)(1 + 8 eps), at the next entry's p and
      the largest p |d| from it on, S, bounds every later change, its own
      rounding included.  Samples at w t = 0, where every change is exactly
      0, close before any entry; samples at t_r, where every change is
      rounding, see every entry.

    Every phase is unimodular and pairs with its conjugate, so the Frobenius
    drift and the Hermiticity defect of x(t) are exactly 0.  A chunk takes
    as many open samples at a time as keep its work arrays within
    _ROW_BLOCK_ELEMENTS entries, from _SAMPLE_BLOCK samples at a time.
    """
    order = np.argsort(b, axis=None)  # x_kl < 0 off the diagonal: the largest |x_kl| first
    peak = -b.ravel()[order]
    n2 = np.arange(1, cfg.N + 1, dtype=np.int64) ** 2
    exponents = np.abs(np.subtract.outer(n2[0::2], n2[1::2])).ravel()[order]  # |d| in parity order
    del order
    reach = np.maximum.accumulate((peak * exponents)[::-1])[::-1]  # S from each entry on
    eps = np.finfo(float).eps
    out = np.zeros(len(times))
    for start in range(0, len(times), _SAMPLE_BLOCK):
        wt = cfg.base_frequency * np.asarray(times[start : start + _SAMPLE_BLOCK], dtype=float)
        change = out[start : start + _SAMPLE_BLOCK]
        live, lo, size = np.flatnonzero(wt), 0, _FIRST_CHUNK
        while live.size and lo < len(peak):
            rest = np.minimum(2.0 * peak[lo], np.abs(wt[live]) * reach[lo] + 2.0 * eps * peak[lo])
            live = live[rest * (1.0 + 8.0 * eps) > change[live]]
            g = slice(lo, lo + size)
            rows = max(1, _ROW_BLOCK_ELEMENTS // len(peak[g]))
            for i in np.split(live, range(rows, live.size, rows)):
                phase = np.exp(1j * (exponents[g] * wt[i, None]))
                change[i] = np.maximum(change[i], np.abs(peak[g] * phase - peak[g]).max(axis=1))
            lo, size = lo + size, min(2 * size, _ROW_BLOCK_ELEMENTS)
    return out


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[a, b] = ab - ba."""
    _check_same_dim(a, b)
    return _handover(a.entries @ b.entries - b.entries @ a.entries)


def commutator_trace(a: OperatorMatrix, b: OperatorMatrix) -> complex:
    """trace(ab - ba), evaluated so the cancellation is exact in floats.

    trace(ab - ba) = sum_{k<j} (G_kj + G_jk), G = E - E^T, E_kj = a_kj b_jk.
    G is exactly antisymmetric entry by entry (the same two floats are
    multiplied on both sides), so every paired sum is exactly zero and the
    returned value is 0.0 for any two finite matrices, independent of
    truncation.
    """
    _check_same_dim(a, b)
    e = a.entries * b.entries.T
    g = e - e.T
    return complex(np.sum(np.triu(g, 1) + np.tril(g, -1).T))


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
    trace: trace of [x, p], the exact 0 the closed forms fix (NaN if not finite).
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
    """Measure how well the truncated x and p satisfy [x, p] = i hbar I.

    Works on the parity blocks B and Q, in O(N^2 + b^2 N) operations and
    below one dense N x N matrix.  In parity order
    [x, p]/i = [[-(B Q^T + Q B^T), 0], [0, B^T Q + Q^T B]]: the entries
    between modes of opposite parity are exact zeros, the diagonal is
    -2 rowsum(B o Q) on the odd modes and +2 colsum(B o Q) on the even ones,
    and the b x b interior block is made of the two blocks' modes <= b.  The
    two diagonal halves sum the same terms with opposite signs, so the trace
    is the exact 0, or NaN when a diagonal term is not finite (|2 B_kj Q_kj|
    stays below 4 hbar k l, so it is finite wherever Q_kj is).
    """
    if 4 * block.max_index > cfg.N:
        raise ValueError(
            f"interior block {block.max_index} too large: need N >= {4 * block.max_index}, got N={cfg.N}"
        )
    b = block.max_index
    xb, qb = _parity_blocks(cfg, "x", "p/i")
    terms = xb * qb
    trace_terms = np.concatenate([-2.0 * terms.sum(axis=1), 2.0 * terms.sum(axis=0)])  # [x, p]_kk / i
    diag = trace_terms / cfg.hbar
    odd = xb[: (b + 1) // 2] @ qb[: (b + 1) // 2].T  # B Q^T on the odd modes <= b
    even = xb[:, : b // 2].T @ qb[:, : b // 2]  # B^T Q on the even modes <= b
    deviation = max(
        float(np.abs(-(odd + odd.T) / cfg.hbar - np.eye(len(odd))).max()),
        float(np.abs((even + even.T) / cfg.hbar - np.eye(len(even))).max(initial=0.0)),
    )
    return CommutatorReport(
        dim=cfg.N,
        block=b,
        interior_max_deviation=deviation,
        trace=complex(0.0, 0.0 if np.isfinite(trace_terms).all() else math.nan),
        trace_naive=complex(0.0, trace_terms.sum()),
        worst_diagonal_deviation=float(np.abs(diag - 1.0).max()),
        edge_diagonal_min=float(diag.min()),
    )


def hamilton_derivative(h_of, at: OperatorMatrix) -> OperatorMatrix:
    """Operator derivative along the identity, lim_{eps->0} [H(A + eps I) - H(A)] / eps.

    `h_of` maps an OperatorMatrix to an OperatorMatrix.  Forward
    differences at the steps `_DERIVATIVE_STEPS` are Richardson-extrapolated
    to eps = 0 (Neville's scheme).  The steps are deliberately coarse:
    extrapolation removes the truncation error for smooth dependence,
    while tiny steps only amplify the roundoff of the difference quotient.
    Raises NonConvergentDerivative when successive extrapolants move apart
    instead of settling.
    """
    eps = _DERIVATIVE_STEPS
    one = identity(at.dim).entries
    h0 = h_of(at).entries
    table = []
    for e in eps:
        shifted = OperatorMatrix(at.entries + e * one)
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
    if gaps[-1] > gaps[0] and gaps[-1] > gaps[-2]:
        raise NonConvergentDerivative(
            f"operator derivative diverged: successive estimate gaps {gaps}"
        )
    return OperatorMatrix(best[-1])
