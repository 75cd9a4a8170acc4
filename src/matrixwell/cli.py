"""Command-line front end: scenario runs with CSV/JSON emission.

    matrixwell <scenario> [--config FILE] [flags...]

Scenarios: elements, commutator, evolve, spread, ehrenfest, revival,
fock-density, fock-algebra.  Flags override config-file values; the
config file is flat `key = value` text whose keys match the flag names.
Identical configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    StateVector,
    TimeGrid,
    dispersion,
    ehrenfest_report,
    gaussian_packet,
    revival_time,
    spread_report,
)
from .errors import ConfigError, MatrixwellError
from .fock import (
    FockBasis,
    FockState,
    Statistics,
    check_algebra,
    condensate_state,
    density_expectation,
)
from .operators import (
    InteriorBlockSpec,
    build_momentum,
    build_position,
    canonical_commutator_report,
    evolve,
)
from .reports import atomic_write_text, render_csv, render_json
from .well import WellConfig, _check_dense, quadrature_rule

log = logging.getLogger("matrixwell")

SCENARIOS = (
    "elements",
    "commutator",
    "evolve",
    "spread",
    "ehrenfest",
    "revival",
    "fock-density",
    "fock-algebra",
)

_FLOAT_KEYS = ("L", "m", "hbar", "t-start", "t-end", "t")
_INT_KEYS = ("N", "steps", "block", "modes", "cutoff", "particles", "positions")
_STR_KEYS = ("state", "statistics", "out", "format")
_KNOWN_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS


@dataclass
class RunConfig:
    well: WellConfig
    scenario: str
    grid: TimeGrid
    fmt: str
    out: str | None
    state_spec: str | None
    block: int
    modes: int
    statistics: Statistics
    cutoff: int
    particles: int
    positions: int
    sample_time: float
    echo: dict


def _parse_value(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
    except ValueError:
        raise ConfigError(f"malformed number for '{key}': {raw!r}", field=key) from None
    return raw


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}", field="config") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno} is not 'key = value': {line!r}", field="config")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key '{key}'", field=key)
        values[key] = _parse_value(key, raw.strip())
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matrixwell",
        description="Infinite-square-well matrix mechanics scenarios with CSV/JSON reports.",
    )
    ap.add_argument("scenario", choices=SCENARIOS)
    ap.add_argument("--config", help="flat key=value config file; flags override it")
    ap.add_argument("--L", type=float, help="well width (default 1)")
    ap.add_argument("--m", type=float, help="particle mass (default 1)")
    ap.add_argument("--hbar", type=float, help="action quantum (default 1)")
    ap.add_argument("--N", type=int, help="truncation dimension (default 100)")
    ap.add_argument("--t-start", type=float, dest="t_start", help="grid start (default 0)")
    ap.add_argument("--t-end", type=float, dest="t_end", help="grid end (default revival time)")
    ap.add_argument("--steps", type=int, help="grid points (default 101)")
    ap.add_argument(
        "--state",
        help="state spec: gaussian:center=..,width=..[,momentum=..] | eigen:n | modes:n1,n2,...",
    )
    ap.add_argument("--block", type=int, help="interior block size for commutator (default min(10, N//4))")
    ap.add_argument("--modes", type=int, help="Fock modes M (default 3)")
    ap.add_argument("--statistics", choices=("boson", "fermion"), help="default boson")
    ap.add_argument("--cutoff", type=int, help="boson occupation cutoff (default 4; fermions fixed at 1)")
    ap.add_argument("--particles", type=int, help="particle number for fock-density (default 2)")
    ap.add_argument("--positions", type=int, help="sample positions for fock-density (default 50)")
    ap.add_argument("--t", type=float, help="sample time for fock-density (default 0)")
    ap.add_argument("--out", help="output path (default: stdout)")
    ap.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    return ap


def parse_config(argv) -> RunConfig:
    """Merge flags over config-file values, apply documented defaults, validate."""
    ns = _build_parser().parse_args(argv)
    merged = _read_config_file(ns.config) if ns.config else {}
    flag_names = {
        "L": "L", "m": "m", "hbar": "hbar", "N": "N",
        "t-start": "t_start", "t-end": "t_end", "steps": "steps",
        "state": "state", "block": "block", "modes": "modes",
        "statistics": "statistics", "cutoff": "cutoff", "particles": "particles",
        "positions": "positions", "t": "t", "out": "out", "format": "format",
    }
    for key, attr in flag_names.items():
        v = getattr(ns, attr)
        if v is not None:
            merged[key] = v

    def take(key, default, notice=False):
        if key in merged:
            return merged[key]
        if notice:
            log.info("%s not specified; defaulting to %s", key, default)
        return default

    L = take("L", 1.0, notice=True)
    m = take("m", 1.0, notice=True)
    hbar = take("hbar", 1.0, notice=True)
    n_dim = take("N", 100, notice=True)
    try:
        well = WellConfig(L=L, m=m, hbar=hbar, N=n_dim)
    except ValueError as e:
        raise ConfigError(str(e), field="well") from None
    if not ns.scenario.startswith("fock"):
        try:
            _check_dense(well.N, "lower N")
        except ValueError as e:
            raise ConfigError(str(e), field="N") from None

    t_start = take("t-start", 0.0)
    t_end = take("t-end", revival_time(well))
    steps = take("steps", 101)
    try:
        grid = TimeGrid(t_start, t_end, steps)
    except ValueError as e:
        field = "steps" if "steps" in str(e) else "t-end"
        raise ConfigError(str(e), field=field) from None
    sample_time = take("t", 0.0)
    # every evolution phase is an integer up to N^2 times (omega_1 t)
    for key, t in (("t-start", t_start), ("t-end", t_end), ("t", sample_time)):
        if not np.isfinite(well.N**2 * (well.base_frequency * t)):
            raise ConfigError(
                f"{key} = {t} makes the phase N^2 omega_1 t overflow at N={well.N}", field=key
            )

    fmt = take("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}", field="format")
    stats_name = take("statistics", "boson")
    if stats_name not in ("boson", "fermion"):
        raise ConfigError(f"statistics must be boson or fermion, got {stats_name!r}", field="statistics")
    statistics = Statistics(stats_name)
    cutoff = take("cutoff", 4) if statistics is Statistics.BOSON else 1
    block = take("block", max(1, min(10, well.N // 4)))
    modes = take("modes", 3)
    particles = take("particles", 2)
    positions = take("positions", 50)
    state_spec = merged.get("state")
    out = merged.get("out")

    if ns.scenario in ("spread", "ehrenfest"):
        if not state_spec:
            raise ConfigError(f"scenario '{ns.scenario}' requires a state spec", field="state")
        if grid.steps < 3:
            raise ConfigError(
                f"scenario '{ns.scenario}' needs steps >= 3 for its time derivatives, got {grid.steps}",
                field="steps",
            )
    if ns.scenario == "commutator" and 4 * block > well.N:
        raise ConfigError(f"block {block} needs N >= {4 * block}, got N={well.N}", field="block")
    if ns.scenario.startswith("fock"):
        if modes < 1 or modes > well.N:
            raise ConfigError(f"modes must be in 1..{well.N}, got {modes}", field="modes")
        if particles < 0:
            raise ConfigError("particles must be nonnegative", field="particles")
        if statistics is Statistics.BOSON and particles > cutoff:
            raise ConfigError(
                f"particles {particles} exceeds boson cutoff {cutoff}", field="particles"
            )
        if statistics is Statistics.FERMION and particles > modes:
            raise ConfigError(
                f"cannot place {particles} fermions in {modes} modes", field="particles"
            )
        if positions < 2:
            raise ConfigError("positions must be at least 2", field="positions")

    echo = {
        "scenario": ns.scenario,
        "L": float(well.L),
        "m": float(well.m),
        "hbar": float(well.hbar),
        "N": well.N,
        "t_start": float(grid.t_start),
        "t_end": float(grid.t_end),
        "steps": grid.steps,
        "format": fmt,
    }
    if state_spec:
        echo["state"] = state_spec
    if ns.scenario == "commutator":
        echo["block"] = block
    if ns.scenario.startswith("fock"):
        echo.update(
            {
                "modes": modes,
                "statistics": statistics.value,
                "cutoff": cutoff,
                "particles": particles,
                "positions": positions,
                "t": float(sample_time),
            }
        )
    return RunConfig(
        well=well,
        scenario=ns.scenario,
        grid=grid,
        fmt=fmt,
        out=out,
        state_spec=state_spec,
        block=block,
        modes=modes,
        statistics=statistics,
        cutoff=cutoff,
        particles=particles,
        positions=positions,
        sample_time=sample_time,
        echo=echo,
    )


def _check_below_edge(modes, n_dim: int) -> None:
    """Refuse modes above 3N/4, where truncation visibly damages x and p.

    The interior rule of InteriorBlockSpec (N/4) mirrored at the top: e.g.
    eigen:50 at N=50 would report dp 108.16 for the exact 157.08.
    """
    top = max(modes)
    if 4 * top > 3 * n_dim:
        raise ValueError(
            f"mode {top} lies above 3N/4 = {3 * n_dim / 4:g}, where truncation damages the"
            f" dynamics; use N >= {-(-4 * top // 3)}"
        )


def _build_state(rc: RunConfig) -> StateVector:
    spec = rc.state_spec
    kind, _, rest = spec.partition(":")
    try:
        if kind == "eigen":
            n = int(rest)
            _check_below_edge([n], rc.well.N)
            return StateVector.eigenstate(n, rc.well.N)
        if kind == "modes":
            modes = [int(s) for s in rest.split(",") if s]
            if not modes:
                raise ValueError("empty mode list")
            _check_below_edge(modes, rc.well.N)
            return StateVector.uniform_superposition(modes, rc.well.N)
        if kind == "gaussian":
            params = {}
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if key not in ("center", "width", "momentum"):
                    raise ValueError(f"unknown gaussian parameter {key!r}")
                params[key] = float(val)
            if "center" not in params or "width" not in params:
                raise ValueError("gaussian needs center=.. and width=..")
            return gaussian_packet(
                rc.well, params["center"], params["width"], params.get("momentum", 0.0)
            )
    except (ValueError, MatrixwellError) as e:
        raise ConfigError(f"bad state spec {spec!r}: {e}", field="state") from None
    raise ConfigError(f"unknown state kind {kind!r}", field="state")


# Every runner returns (names, columns, diagnostics): the table as one 1-D
# column per name, in row order, for reports.render_csv / render_json.


def _one_row(names, values):
    return names, [[v] for v in values]


def _run_elements(rc: RunConfig):
    n = rc.well.N
    x = build_position(rc.well).entries
    p = build_momentum(rc.well).entries
    k = np.repeat(np.arange(1, n + 1), n)
    l = np.tile(np.arange(1, n + 1), n)
    columns = [k, l, x.real.ravel(), p.real.ravel(), p.imag.ravel()]
    return ["k", "l", "x", "p_re", "p_im"], columns, {"dim": n}


def _run_commutator(rc: RunConfig):
    rep = canonical_commutator_report(rc.well, InteriorBlockSpec(rc.block))
    names, columns = _one_row(
        [
            "n", "block", "interior_max_deviation",
            "trace_re", "trace_im", "trace_naive_re", "trace_naive_im",
            "worst_diagonal_deviation", "edge_diagonal_min",
        ],
        [
            rep.dim, rep.block, rep.interior_max_deviation,
            rep.trace.real, rep.trace.imag, rep.trace_naive.real, rep.trace_naive.imag,
            rep.worst_diagonal_deviation, rep.edge_diagonal_min,
        ],
    )
    diag = {"note": "full trace vanishes for every finite N; edge diagonal absorbs it"}
    return names, columns, diag


def _run_evolve(rc: RunConfig):
    x0 = build_position(rc.well)
    f0 = x0.frobenius()
    times = rc.grid.times()
    data = np.empty((3, times.size))
    for i, t in enumerate(times):
        xt = evolve(x0, rc.well, float(t))
        data[:, i] = (
            np.abs(xt.entries - x0.entries).max(),
            abs(xt.frobenius() - f0),
            xt.hermiticity_defect(),
        )
    names = ["t", "max_change_from_start", "frobenius_drift", "hermiticity_defect"]
    return names, [times, *data], {"revival_time": revival_time(rc.well)}


def _report_columns(report):
    return list(report.COLUMNS), list(report.data.T), dict(report.meta)


def _run_spread(rc: RunConfig):
    return _report_columns(spread_report(_build_state(rc), rc.well, rc.grid))


def _run_ehrenfest(rc: RunConfig):
    return _report_columns(ehrenfest_report(_build_state(rc), rc.well, rc.grid))


def _run_revival(rc: RunConfig):
    cfg = rc.well
    t_r = revival_time(cfg)
    x0 = build_position(cfg)
    xt = evolve(x0, cfg, t_r)
    if rc.state_spec:
        state = _build_state(rc)
    else:
        state = gaussian_packet(cfg, cfg.L / 2.0, cfg.L / 20.0, 0.0)
    dx0 = dispersion(state, x0)
    dxr = dispersion(state, xt)
    names, columns = _one_row(
        ["t_r", "max_position_change", "dx_initial", "dx_revival", "dx_gap"],
        [t_r, float(np.abs(xt.entries - x0.entries).max()), dx0, dxr, abs(dxr - dx0)],
    )
    return names, columns, {"dim": cfg.N}


def _fock_basis(rc: RunConfig) -> FockBasis:
    try:
        return FockBasis(rc.modes, rc.statistics, rc.cutoff)
    except ValueError as e:
        field = "cutoff" if "cutoff" in str(e) else "modes"
        raise ConfigError(str(e), field=field) from None


def _fock_basis_and_state(rc: RunConfig):
    basis = _fock_basis(rc)
    if rc.statistics is Statistics.BOSON:
        state = condensate_state(basis, rc.particles)
    else:
        occ = np.zeros(basis.modes, dtype=np.int64)
        occ[: rc.particles] = 1  # fill the lowest modes
        coeffs = np.zeros(basis.dimension, dtype=complex)
        coeffs[basis.index_of(occ)] = 1.0
        state = FockState(basis, coeffs)
    return basis, state


def _run_fock_density(rc: RunConfig):
    basis, state = _fock_basis_and_state(rc)
    cfg = rc.well
    xs = np.linspace(0.0, cfg.L, rc.positions)
    density = density_expectation(state, cfg, basis, xs, rc.sample_time)
    # exact to rounding: the density is a trigonometric polynomial of degree 2M <= 2N
    nodes, weights = quadrature_rule(cfg)
    total = weights @ density_expectation(state, cfg, basis, nodes, rc.sample_time)
    diag = {"particle_number": rc.particles, "density_integral": float(total)}
    return ["x", "density"], [xs, density], diag


def _run_fock_algebra(rc: RunConfig):
    basis = _fock_basis(rc)
    rep = check_algebra(basis)
    names, columns = _one_row(
        [
            "statistics", "modes", "cutoff",
            "same_mode_defect", "boundary_error", "cross_mode_defect", "pair_defect",
            "saturated_states",
        ],
        [
            rep.statistics.value, rep.modes, rep.cutoff,
            rep.same_mode_defect, rep.boundary_error, rep.cross_mode_defect, rep.pair_defect,
            rep.saturated_states,
        ],
    )
    return names, columns, {"dimension": basis.dimension}


_RUNNERS = {
    "elements": _run_elements,
    "commutator": _run_commutator,
    "evolve": _run_evolve,
    "spread": _run_spread,
    "ehrenfest": _run_ehrenfest,
    "revival": _run_revival,
    "fock-density": _run_fock_density,
    "fock-algebra": _run_fock_algebra,
}


def run(rc: RunConfig) -> int:
    """Execute a validated RunConfig; write its report; return the exit status."""
    names, columns, diagnostics = _RUNNERS[rc.scenario](rc)
    if rc.fmt == "json":
        text = render_json(rc.echo, names, columns, diagnostics)
    else:
        text = render_csv(names, columns)
    if rc.out:
        atomic_write_text(rc.out, text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    try:
        rc = parse_config(argv)
        return run(rc)
    except ConfigError as e:
        sys.stderr.write(json.dumps({"error": str(e), "field": e.field}) + "\n")
        return 2
    except MatrixwellError as e:
        sys.stderr.write(json.dumps({"error": str(e), "kind": type(e).__name__}) + "\n")
        return 1
    except OSError as e:
        sys.stderr.write(json.dumps({"error": str(e), "kind": "io"}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
