"""Report checks built on oracles that do not use the library.

Every report check takes the path of one report and returns a list of
problems; an empty list means the report passed.  The expected values come
either from exact properties of the infinite well (revival at t_r, the mirror
image at t_r/2, parity zeros, the vanishing commutator trace, fermion
anticommutators) or from numerics written here with numpy alone:
Simpson-rule projections and moments on a fine grid, closed-form x and p
matrices, and composite Gauss-Legendre quadrature of the defining
matrix-element integrals.  scipy serves only quad_projection, which measures
the library's projection miss and is never an expected value.  Nothing in
this module imports matrixwell.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

GRID_POINTS = 4001  # Simpson grid over [0, L]; odd so the rule applies
GL_PANELS = 256  # composite Gauss-Legendre panels over [0, L]
GL_ORDER = 24
EPS = float(np.finfo(float).eps)
# Relative tolerances.  Exact identities, and states whose coefficients are
# exact, are held to EXACT_RTOL.  A Gaussian packet's moments depend on how
# its coefficients are projected, here and in the library, and are held to
# PROJECTION_RTOL, widened only by the miss that the library's own method is
# shown to make on that packet (StateOracle.misses).
EXACT_RTOL = 1e-9
PROJECTION_RTOL = 1e-6
QUAD_LIMIT = 400  # the subinterval limit of the library's projection


def read_report(path, fmt: str):
    """Return (columns, rows, doc); doc is the whole JSON object, {} for CSV."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc
    lines = text.splitlines()
    columns = lines[0].split(",")
    try:
        cells = ",".join(lines[1:]).split(",")
        return columns, np.array(cells, dtype=float).reshape(len(lines) - 1, len(columns)), {}
    except ValueError:  # a text column, such as fock-algebra's statistics
        pass
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return columns, rows, {}


def table(columns, rows) -> dict:
    """Numeric columns of a report as arrays keyed by column name."""
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    return {c: data[:, i] for i, c in enumerate(columns)}


def _close(what: str, got: float, want: float, tol: float, problems: list) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


def revival_time(L: float, m: float, hbar: float) -> float:
    return 4.0 * m * L * L / (hbar * math.pi)


def _modes(N: int):
    """Mode numbers as float columns and rows, and the k + l odd mask."""
    n = np.arange(1, N + 1, dtype=float)
    odd = np.add.outer(np.arange(N), np.arange(N)) % 2 == 1
    return n[:, None], n[None, :], odd


def position_matrix(L: float, N: int) -> np.ndarray:
    """x_kl: L/2 on the diagonal, -8 L k l / (pi^2 (k^2 - l^2)^2) for k + l odd."""
    k, l, odd = _modes(N)
    with np.errstate(divide="ignore"):
        x = np.where(odd, -8.0 * L * k * l / (math.pi**2 * (k * k - l * l) ** 2), 0.0)
    np.fill_diagonal(x, L / 2.0)
    return x


def momentum_matrix(L: float, hbar: float, N: int) -> np.ndarray:
    """The real P with p_kl = i P_kl: 4 hbar k l / (L (l^2 - k^2)) for k + l odd."""
    k, l, odd = _modes(N)
    with np.errstate(divide="ignore"):
        return np.where(odd, 4.0 * hbar * k * l / (L * (l * l - k * k)), 0.0)


# ---------------------------------------------------------------- series


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


class WellGrid:
    """Sine modes 1..N and their x-derivatives on a Simpson grid over [0, L]."""

    def __init__(self, L: float, N: int):
        self.x = np.linspace(0.0, L, GRID_POINTS)
        self.w = _simpson_weights(GRID_POINTS, L / (GRID_POINTS - 1))
        k = np.arange(1, N + 1)[:, None] * (math.pi / L)
        self.modes = math.sqrt(2.0 / L) * np.sin(k * self.x)
        self.slopes = math.sqrt(2.0 / L) * k * np.cos(k * self.x)

    def project(self, psi: np.ndarray) -> np.ndarray:
        """Normalized sine coefficients of psi sampled on the grid."""
        a = self.modes @ (self.w * psi)
        return a / np.linalg.norm(a)

    def means(self, a: np.ndarray, hbar: float) -> tuple:
        """Grid integrals of x |psi|^2 and Re psi* (-i hbar) psi' for coefficients a."""
        psi, slope = a @ self.modes, a @ self.slopes
        x_mean = float(np.sum(self.w * self.x * np.abs(psi) ** 2))
        p_mean = float(np.real(np.sum(self.w * np.conj(psi) * (-1j * hbar) * slope)))
        return x_mean, p_mean


class Packet:
    """exp(-(x-c)^2 / (4 w^2) + i k0 x): dx = w, dp = hbar/2w, <p> = hbar k0."""

    def __init__(self, center: float, width: float, momentum: float, hbar: float):
        self.center, self.width, self.momentum, self.hbar = center, width, momentum, hbar

    def spec(self) -> str:
        text = f"gaussian:center={self.center!r},width={self.width!r}"
        return text + (f",momentum={self.momentum!r}" if self.momentum else "")

    def sample(self, x):
        k0 = self.momentum / self.hbar
        return np.exp(-((x - self.center) ** 2) / (4.0 * self.width**2) + 1j * k0 * x)


def quad_projection(L: float, N: int, packet: Packet) -> np.ndarray:
    """Sine coefficients by QUADPACK's oscillatory rule (QAWO), mode by mode.

    This is the method the library uses, with the same subinterval limit;
    it serves only to show whether that method misses on a given packet.
    """
    from scipy import integrate

    def part(f, n):
        return integrate.quad(f, 0.0, L, weight="sin", wvar=n * math.pi / L, limit=QUAD_LIMIT)[0]

    def re(x):
        return np.real(packet.sample(x))

    def im(x):
        return np.imag(packet.sample(x))

    a = np.array([part(re, n) + 1j * part(im, n) for n in range(1, N + 1)])
    return a / np.linalg.norm(a)


class StateOracle:
    """Expected moments of one state, formed here from its coefficients.

    `state` is a Packet or a list of mode numbers with equal weights; `times`
    maps report rows to their times.  Expected values are keyed by
    (quantity, row):

    - a packet's analytic Gaussian moments at row 0 (x_mean, dx, dp, p_mean);
    - at the other rows, Simpson integrals of x |psi|^2 and of
      psi* (-i hbar) psi' (x_mean, p_mean), |Im <x(t) x(0)>| (robertson) and
      d<p>/dt (dpdt) from the closed-form matrices.

    Coefficients are exact for a mode list and projected on the grid for a
    packet.  Each value has a scale, and `tolerance` is relative to it.
    """

    def __init__(self, L, m, hbar, N, state, times: dict):
        self.L, self.m, self.hbar, self.N = L, m, hbar, N
        self.packet = state if isinstance(state, Packet) else None
        self.state, self.times = state, times
        self.n = np.arange(1, N + 1, dtype=float)
        self.omega1 = hbar * math.pi**2 / (2.0 * m * L * L)

    def _matrix_values(self, a: np.ndarray) -> dict:
        """Every keyed quantity, from the closed-form matrices and coefficients a."""
        X = position_matrix(self.L, self.N)
        iP = 1j * momentum_matrix(self.L, self.hbar, self.N)
        k, l, _ = _modes(self.N)
        d = k * k - l * l
        G = 1j * self.omega1 * d * iP  # d p_kl / dt at t = 0
        xa0 = X @ a
        out = {}
        for r, t in self.times.items():
            ph = np.exp(1j * (d * (self.omega1 * t)))
            xa, pa, ga = (X * ph) @ a, (iP * ph) @ a, (G * ph) @ a
            x_mean, p_mean = float(np.real(np.vdot(a, xa))), float(np.real(np.vdot(a, pa)))
            out["x_mean", r], out["p_mean", r] = x_mean, p_mean
            out["dx", r] = math.sqrt(max(float(np.real(np.vdot(xa, xa))) - x_mean**2, 0.0))
            out["dp", r] = math.sqrt(max(float(np.real(np.vdot(pa, pa))) - p_mean**2, 0.0))
            out["robertson", r] = abs(float(np.imag(np.vdot(xa, xa0))))
            out["dpdt", r] = float(np.real(np.vdot(a, ga)))
        out["force_scale"] = float(np.abs(a) @ np.abs(G) @ np.abs(a))
        return out

    @functools.cached_property
    def expected(self) -> tuple:
        """(want, scale): expected values and the scale of each, by key."""
        grid = WellGrid(self.L, self.N)
        if self.packet is not None:
            a = grid.project(self.packet.sample(grid.x))
        else:
            a = np.zeros(self.N, dtype=complex)
            a[np.asarray(self.state) - 1] = 1.0
            a /= np.linalg.norm(a)
        mv = self._matrix_values(a)
        p_rms = self.hbar * math.pi / self.L * math.sqrt(float(np.sum(np.abs(a) ** 2 * self.n ** 2)))
        want, scale = {}, {}
        for r, t in self.times.items():
            if r == 0:
                continue
            at = a * np.exp(-1j * self.n ** 2 * (self.omega1 * t))
            want["x_mean", r], want["p_mean", r] = grid.means(at, self.hbar)
            want["robertson", r], want["dpdt", r] = mv["robertson", r], mv["dpdt", r]
            scale["x_mean", r], scale["p_mean", r] = self.L, p_rms
            scale["robertson", r] = mv["dx", r] * mv["dx", 0]
            scale["dpdt", r] = mv["force_scale"]
        if self.packet is not None:
            w, dp = self.packet.width, self.hbar / (2.0 * self.packet.width)
            want["x_mean", 0], scale["x_mean", 0] = self.packet.center, self.L
            want["dx", 0], scale["dx", 0] = w, w
            want["dp", 0], scale["dp", 0] = dp, dp
            want["p_mean", 0], scale["p_mean", 0] = self.packet.momentum, dp
        return want, scale

    @functools.cached_property
    def misses(self) -> dict:
        """How far the library's method lands from each expected value.

        Its per-mode oscillatory quadrature silently misses by up to 4e-4 in
        a coefficient for some packet shapes.  quad_projection runs that
        method on the packet, so the miss is measured, not assumed; it is 0
        for a mode list, whose coefficients are exact.
        """
        if self.packet is None:
            return {}
        want, _ = self.expected
        got = self._matrix_values(quad_projection(self.L, self.N, self.packet))
        return {key: abs(got[key] - want[key]) for key in want}

    def tolerance(self, key) -> float:
        _, scale = self.expected
        rtol = EXACT_RTOL if self.packet is None else PROJECTION_RTOL
        return rtol * scale[key] + self.misses.get(key, 0.0)

    def widened(self, keys=None) -> str:
        """The checks whose tolerance the measured miss widens past
        PROJECTION_RTOL, each with the miss as a share of its scale."""
        _, scale = self.expected
        wide = [
            f"{key[0]} at row {key[1]} by {self.misses[key] / scale[key]:.1e}"
            for key in (self.misses if keys is None else keys)
            if self.misses[key] > PROJECTION_RTOL * scale[key]
        ]
        return "; ".join(wide)

    def compare(self, seen: dict, keys=None) -> list:
        """Problems of `seen` against the expected values at the keys given."""
        want, _ = self.expected
        problems = []
        for key in want if keys is None else keys:
            _close(f"{key[0]} at row {key[1]}", seen[key], want[key], self.tolerance(key), problems)
        return problems


class SeriesCheck:
    """Check a spread/ehrenfest table.

    Identities that hold for any coefficients are held to EXACT_RTOL: the
    revival at t_r and the mirror image at t_r/2 (<x> -> L - <x>,
    <p> -> -<p>, dx and dp unchanged), and the columns the report forms from
    its own (dx0, free_particle_bound, residual_x).  The rest goes through
    StateOracle at row 0 and at `sample_rows`.  residual_p is
    |d<p>/dt by finite differences - d<p>/dt|; the derivative the report
    implies is the one of its two readings nearer the oracle's.
    """

    def __init__(self, L, m, hbar, N, T, state, fmt, sample_rows):
        self.L, self.m, self.hbar, self.T, self.fmt = L, m, hbar, T, fmt
        self.t_r = revival_time(L, m, hbar)
        self.rows = tuple(sample_rows)
        times = np.linspace(0.0, self.t_r, T)
        self.oracle = StateOracle(L, m, hbar, N, state, {r: float(times[r]) for r in (0, *self.rows)})

    def widened(self) -> str:
        return self.oracle.widened()

    def _identities(self, c: dict) -> list:
        problems, T, L = [], self.T, self.L
        mid, last, tol = (T - 1) // 2, T - 1, EXACT_RTOL * L
        p_tol = EXACT_RTOL * (c["dp"][0] + abs(c["p_mean"][0]))
        h = self.t_r / (T - 1)
        _close("t at the last row", c["t"][last], self.t_r, 1e-11 * self.t_r, problems)
        for row, name in ((mid, "t_r/2"), (last, "t_r")):
            mirror = row == mid
            _close(f"<x>({name})", c["x_mean"][row], L - c["x_mean"][0] if mirror else c["x_mean"][0], tol, problems)
            _close(f"dx({name})", c["dx"][row], c["dx"][0], tol, problems)
            _close(f"<p>({name})", c["p_mean"][row], -c["p_mean"][0] if mirror else c["p_mean"][0], p_tol, problems)
            _close(f"dp({name})", c["dp"][row], c["dp"][0], p_tol, problems)
        _close("max|dx0 - dx(0)|", float(np.max(np.abs(c["dx0"] - c["dx"][0]))), 0.0, tol, problems)
        free = self.hbar * np.abs(c["t"]) / (2.0 * self.m)
        _close("max free_particle_bound error", float(np.max(np.abs(c["free_particle_bound"] - free))), 0.0,
               EXACT_RTOL * float(free[-1]), problems)
        slope, velocity = np.gradient(c["x_mean"], h, edge_order=2), c["p_mean"] / self.m
        # plus the rounding of a 12-digit CSV <x> differenced over one step
        rx_tol = EXACT_RTOL * float(np.max(np.abs(slope)) + np.max(np.abs(velocity))) + 1e-11 * L / h
        _close("max residual_x error", float(np.max(np.abs(c["residual_x"] - np.abs(slope - velocity)))), 0.0,
               rx_tol, problems)
        return problems

    def _seen(self, c: dict) -> dict:
        want, _ = self.oracle.expected
        slope = np.gradient(c["p_mean"], self.t_r / (self.T - 1), edge_order=2)
        seen = {}
        for name, r in want:
            if name == "dpdt":
                side = 1.0 if slope[r] >= want[name, r] else -1.0
                seen[name, r] = slope[r] - side * c["residual_p"][r]
            else:
                seen[name, r] = c["robertson_bound" if name == "robertson" else name][r]
        return seen

    def __call__(self, path) -> list:
        columns, rows, _ = read_report(path, self.fmt)
        if len(rows) != self.T:
            return [f"expected {self.T} rows, got {len(rows)}"]
        c = table(columns, rows)
        return self._identities(c) + self.oracle.compare(self._seen(c))


def evolve_check(L, N, T, fmt):
    """x(t_r) = x(0); at t_r/2 every k+l odd entry flips sign, so the largest
    change is 2 max |x_kl|, reached at the adjacent pair (N-1, N)."""
    k = N - 1
    flip = 2.0 * 8.0 * L * k * (k + 1) / (math.pi**2 * (2 * k + 1) ** 2)

    def check(path) -> list:
        problems = []
        columns, rows, _ = read_report(path, fmt)
        if len(rows) != T:
            return [f"expected {T} rows, got {len(rows)}"]
        c = table(columns, rows)
        change = c["max_change_from_start"]
        _close("max|x(t_r) - x(0)|", change[-1], 0.0, 1e-9 * L, problems)
        _close("max|x(t_r/2) - x(0)|", change[(T - 1) // 2], flip, 1e-9 * L, problems)
        _close("max Frobenius drift", float(np.max(c["frobenius_drift"])), 0.0, 1e-9 * L * N, problems)
        _close("max Hermiticity defect", float(np.max(c["hermiticity_defect"])), 0.0, 1e-12, problems)
        return problems

    return check


class RevivalCheck:
    """revival report: the state comes back at t_r; dx_initial is the width."""

    KEYS = (("dx", 0),)

    def __init__(self, L, m, hbar, N, packet: Packet, fmt):
        self.t_r, self.fmt = revival_time(L, m, hbar), fmt
        self.oracle = StateOracle(L, m, hbar, N, packet, {0: 0.0})

    def widened(self) -> str:
        return self.oracle.widened(self.KEYS)

    def __call__(self, path) -> list:
        problems = []
        columns, rows, _ = read_report(path, self.fmt)
        if len(rows) != 1:
            return [f"expected 1 row, got {len(rows)}"]
        c = table(columns, rows)
        _close("t_r", c["t_r"][0], self.t_r, 1e-12 * self.t_r, problems)
        _close("max|x(t_r) - x(0)|", c["max_position_change"][0], 0.0, 1e-9, problems)
        _close("dx_gap", c["dx_gap"][0], 0.0, 1e-9, problems)
        seen = {("dx", 0): c["dx_initial"][0]}
        return problems + self.oracle.compare(seen, self.KEYS)


# ------------------------------------------------------------------ fock


def density_check(L, occupations, positions, particles):
    """JSON fock-density report: n(x) = sum_n occ_n psi_n(x)^2 for any m, hbar, t."""
    occ = np.asarray(occupations, dtype=float)
    x = np.linspace(0.0, L, positions)
    n = np.arange(1, occ.size + 1)
    want = (2.0 / L) * (np.sin(np.outer(x, n) * (math.pi / L)) ** 2) @ occ
    scale = 2.0 * particles / L

    def check(path) -> list:
        problems = []
        columns, rows, doc = read_report(path, "json")
        diag = doc["diagnostics"]
        if len(rows) != positions:
            return [f"expected {positions} rows, got {len(rows)}"]
        c = table(columns, rows)
        if not np.array_equal(c["x"], x):
            problems.append("sample positions differ from linspace(0, L, positions)")
        err = float(np.max(np.abs(c["density"] - want)))
        _close("max density error vs sum occ_n psi_n^2", err, 0.0, 1e-10 * scale, problems)
        if diag.get("particle_number") != particles:
            problems.append(f"particle_number {diag.get('particle_number')!r} != {particles}")
        _close("density integral", diag.get("density_integral", math.nan), particles, 1e-8 * max(particles, 1), problems)
        return problems

    return check


def algebra_check(statistics, modes, cutoff, fmt):
    """Fermion relations are exact; bosons break only on saturated states,
    of which there are M (cutoff+1)^(M-1) across the M same-mode checks."""
    defects = ("same_mode_defect", "boundary_error", "cross_mode_defect", "pair_defect")

    def check(path) -> list:
        problems = []
        columns, rows, _ = read_report(path, fmt)
        if len(rows) != 1:
            return [f"expected 1 row, got {len(rows)}"]
        row = dict(zip(columns, rows[0]))
        if row["statistics"] != statistics or row["modes"] != modes or row["cutoff"] != cutoff:
            problems.append(f"report describes {row['statistics']} M={row['modes']} cutoff={row['cutoff']}")
        if statistics == "fermion":
            for name in defects:
                if row[name] != 0.0:
                    problems.append(f"fermion {name} is {row[name]!r}, not exactly 0")
        else:
            for name in defects:
                _close(f"boson {name}", row[name], 0.0, 1e-12, problems)
            saturated = modes * (cutoff + 1) ** (modes - 1)
            if row["saturated_states"] != saturated:
                problems.append(f"saturated_states {row['saturated_states']!r} != {saturated}")
        return problems

    return check


def error_contract_check(code, stderr: str) -> list:
    """A refused run exits 2 with a one-line {"error", "field"} JSON diagnostic."""
    problems = []
    if code != 2:
        problems.append(f"exit status {code!r}, expected 2")
    lines = stderr.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        doc = None
    if not isinstance(doc, dict) or set(doc) != {"error", "field"}:
        problems.append("last stderr line is not a {\"error\", \"field\"} object")
    return problems


# ---------------------------------------------------------------- tables


def _gauss_legendre(L: float):
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    h = L / GL_PANELS
    left = np.arange(GL_PANELS) * h
    x = (left[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)).ravel()
    w = np.tile(weights * (h / 2.0), GL_PANELS)
    return x, w


def element_integrals(L: float, hbar: float, pairs):
    """x_kl = int psi_k x psi_l and p_kl = -i hbar int psi_k psi_l' by quadrature."""
    x, w = _gauss_legendre(L)
    out = {}
    for k, l in pairs:
        pk = math.sqrt(2.0 / L) * np.sin(k * math.pi * x / L)
        pl = math.sqrt(2.0 / L) * np.sin(l * math.pi * x / L)
        dpl = math.sqrt(2.0 / L) * (l * math.pi / L) * np.cos(l * math.pi * x / L)
        out[(k, l)] = (float(np.sum(w * pk * x * pl)), -hbar * float(np.sum(w * pk * dpl)))
    return out


def elements_check(L, hbar, N, pairs, fmt, csv_name=None):
    """Seeded (k, l) entries against quadrature; the JSON form must also
    re-parse to the rows of the CSV report `csv_name` beside it."""
    want = functools.cache(lambda: element_integrals(L, hbar, pairs))
    rel = 1e-10 if fmt == "json" else 1e-9

    def check(path) -> list:
        problems = []
        columns, rows, doc = read_report(path, fmt)
        if columns != ["k", "l", "x", "p_re", "p_im"] or len(rows) != N * N:
            return [f"expected columns k,l,x,p_re,p_im and {N * N} rows"]
        c = table(columns, rows)
        k = np.repeat(np.arange(1, N + 1), N)
        l = np.tile(np.arange(1, N + 1), N)
        if not (np.array_equal(c["k"], k) and np.array_equal(c["l"], l)):
            problems.append("rows are not in (k, l) order")
            return problems
        if np.any(c["p_re"] != 0.0):
            problems.append("momentum entries have a real part")
        for (kk, ll), (xq, pq) in want().items():
            i = (kk - 1) * N + (ll - 1)
            _close(f"x_{kk},{ll}", c["x"][i], xq, rel * L, problems)
            _close(f"p_{kk},{ll} / i", c["p_im"][i], pq, rel * hbar * max(kk, ll) / L, problems)
        if fmt == "json":
            if doc["config"].get("N") != N or doc["config"].get("L") != L:
                problems.append("config echo does not match the run")
            if csv_name is not None:
                csv_cols = table(*read_report(Path(path).with_name(csv_name), "csv")[:2])
                for name in ("x", "p_im"):
                    scale = float(np.max(np.abs(csv_cols[name])))
                    if not np.allclose(c[name], csv_cols[name], rtol=1e-11, atol=1e-11 * scale):
                        problems.append(f"JSON column {name} does not re-parse to the CSV rows")
        return problems

    return check


def commutator_check(L, hbar, N, block, fmt):
    """[x, p] / (i hbar) = (X P - P X) / hbar from the closed-form matrices.

    Each quantity is held to 1e-9 of its value plus the rounding bound
    N eps sum |terms| of the entries it reads; trace_naive, whose exact
    value is 0, to that bound alone, and the pairwise trace to exactly 0.
    """

    @functools.cache
    def expected() -> dict:
        X, P = position_matrix(L, N), momentum_matrix(L, hbar, N)
        scaled = (X @ P - P @ X) / hbar
        bound = (N * EPS / hbar) * (np.abs(X) @ np.abs(P) + np.abs(P) @ np.abs(X))
        diag, diag_bound = np.diagonal(scaled), float(np.max(np.diagonal(bound)))
        return {
            "interior_max_deviation": (float(np.max(np.abs(scaled[:block, :block] - np.eye(block)))),
                                       float(np.max(bound[:block, :block]))),
            "worst_diagonal_deviation": (float(np.max(np.abs(diag - 1.0))), diag_bound),
            "edge_diagonal_min": (float(np.min(diag)), diag_bound),
            "trace_naive": (0.0, hbar * float(np.trace(bound))),
        }

    def check(path) -> list:
        problems = []
        columns, rows, _ = read_report(path, fmt)
        if len(rows) != 1:
            return [f"expected 1 row, got {len(rows)}"]
        row = dict(zip(columns, rows[0]))
        if row["n"] != N or row["block"] != block:
            problems.append(f"report describes n={row['n']} block={row['block']}")
        if row["trace_re"] != 0.0 or row["trace_im"] != 0.0:
            problems.append(f"trace [x,p] is ({row['trace_re']!r}, {row['trace_im']!r}), not exactly 0")
        for name, (want, bound) in expected().items():
            if name == "trace_naive":
                got = abs(complex(row["trace_naive_re"], row["trace_naive_im"]))
                _close("|trace_naive|", got, want, bound, problems)
            else:
                _close(name, row[name], want, EXACT_RTOL * abs(want) + bound, problems)
        return problems

    return check
