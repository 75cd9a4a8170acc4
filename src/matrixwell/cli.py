"""Command-line front end: scenario runs with CSV/JSON emission.

    matrixwell <scenario> [--config FILE] [flags...]

Scenarios: elements, commutator, evolve, spread, ehrenfest, revival,
fock-density, fock-algebra.  Flags, `--key value` or `--key=value`, override
config-file values; the config file is flat `key = value` text with the same keys.
Every option is declared once, in OPTIONS, and every scenario once, in
SCENARIOS, with the options it reads.  Identical configurations
produce byte-identical output files.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    RunReport,
    StateVector,
    TimeGrid,
    _position_spread,
    ehrenfest_report,
    gaussian_packet,
    revival_time,
    spread_report,
)
from .errors import ConfigError, MatrixwellError
from .fock import (
    _MAX_DIMENSION,
    FockBasis,
    FockState,
    Statistics,
    check_algebra,
    condensate_state,
    density_expectation,
)
from .operators import (
    InteriorBlockSpec,
    _natural_order,
    _parity_blocks,
    _position_evolution_checks,
    canonical_commutator_report,
)
from .reports import _csv_pieces, _json_pieces, atomic_write_text
from .well import _MAX_DENSE_BYTES, _MIN_NORMAL, WellConfig, _check_dense, quadrature_rule

log = logging.getLogger("matrixwell")

_EVOLVE_COLUMNS = ("t", "max_change_from_start", "frobenius_drift", "hermiticity_defect")
_DENSITY_COLUMNS = ("x", "density")
# The largest N^2 ulp(omega_1 |t|) a grid end may give, in radians.  The phases n^2 omega_1 t, n <= N,
# err by less than 7.7 times it (3.3 seen against 60-digit phases), so an accepted phase factor keeps
# about five digits.  fock-density's t needs no floor: its occupation eigenstates do not depend on t.
_PHASE_RESOLUTION = 1e-6


@dataclass(frozen=True)
class Option:
    """One option, set by a `--key` flag or a `key = value` config-file line.

    `kind` is the converter for the text (float, int, str) or the tuple of
    allowed values.  A `default` of None means the value is worked out from
    other options, or stays absent.  Only the scenarios whose SCENARIOS row
    lists the key read, check and echo the option; the others ignore it.
    """

    key: str
    kind: object
    default: object
    help: str
    notice: bool = False  # log it when the default is taken


OPTIONS = (
    Option("L", float, 1.0, "well width", notice=True),
    Option("m", float, 1.0, "particle mass", notice=True),
    Option("hbar", float, 1.0, "action quantum", notice=True),
    Option("N", int, 100, "truncation dimension", notice=True),
    Option("t-start", float, 0.0, "grid start"),
    Option("t-end", float, None, "grid end; default one revival period"),
    Option("steps", int, 101, "grid points; spread and ehrenfest need at least 3"),
    Option("format", ("csv", "json"), "csv", "output format"),
    Option(
        "state", str, None,
        "state spec: gaussian:center=..,width=..[,momentum=..] | eigen:n | modes:n1,n2,...;"
        " spread and ehrenfest need one; revival defaults to gaussian:center=L/2,width=L/20",
    ),
    Option("block", int, None, "interior block; default min(10, N//4), at least 1"),
    Option("modes", int, 3, "Fock modes M"),
    Option("statistics", ("boson", "fermion"), "boson", "particle statistics"),
    Option("cutoff", int, 4, "boson occupation cutoff; fermions fixed at 1"),
    Option("particles", int, 2, "particle number"),
    Option("positions", int, 50, "sample positions"),
    Option("t", float, 0.0, "sample time"),
    Option("out", str, None, "output path; stdout when absent"),
)
_OPTIONS = {opt.key: opt for opt in OPTIONS}


@dataclass
class RunConfig:
    """A validated run.

    `options` maps the key of every option the scenario reads to its value,
    with t-end, block and revival's state worked out and the cutoff forced
    to 1 for fermions.
    `well` is None where no L is read (fock-algebra); it keeps the default
    m = 1 where no m is read (elements, commutator), and has N = max(2, M)
    where no N is read (fock-density).  `grid` is None where no steps are.
    """

    well: WellConfig | None
    scenario: str
    grid: TimeGrid | None
    options: dict

    @property
    def echo(self) -> dict:
        """The `config` object of a JSON report; the output path is left out so that it cannot change the bytes."""
        options = {key.replace("-", "_"): x for key, x in self.options.items() if x is not None and key != "out"}
        return {"scenario": self.scenario, **options}


def _convert(opt: Option, raw: str):
    if isinstance(opt.kind, tuple):
        if raw not in opt.kind:
            raise ConfigError(f"{opt.key} must be one of {opt.kind}, got {raw!r}", field=opt.key)
        return raw
    try:
        return opt.kind(raw)
    except ValueError:
        raise ConfigError(f"malformed number for '{opt.key}': {raw!r}", field=opt.key) from None


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}", field="config") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno} is not 'key = value': {line!r}", field="config")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key '{key}'", field=key)
        values[key] = raw.strip()
    return values


def _read_argv(argv) -> tuple:
    """The scenario and the {key: text} of the flags, `--key value` or `--key=value`.

    Flags take the config-file keys, unabbreviated.  A word that starts with --
    is always a flag, so -4.5e-05 is a value; the one other word is the scenario.
    """
    words, scenarios, flags = iter(argv), [], {}
    for word in words:
        if word in ("-h", "--help"):
            print(f"usage: matrixwell {{{','.join(SCENARIOS)}}} [--config FILE] [--key value ...]\n\noptions:\n"
                  "  --config FILE  flat key = value config file; flags override it")
            for opt in OPTIONS:
                default = "" if opt.default is None else f"; default {opt.default}"
                readers = [name for name, (reads, _, _) in SCENARIOS.items() if opt.key in reads]
                where = "all scenarios" if len(readers) == len(SCENARIOS) else ", ".join(readers)
                value = "{" + ",".join(opt.kind) + "}" if isinstance(opt.kind, tuple) else "VALUE"
                print(f"  --{opt.key} {value}  {opt.help}{default} [{where}]")
            raise SystemExit(0)  # the one exit outside the JSON error contract
        if not word.startswith("--"):
            scenarios.append(word)
            continue
        key, eq, raw = word[2:].partition("=")
        if key not in _OPTIONS and key != "config":
            raise ConfigError(f"unknown flag {word!r}", field=key)
        flags[key] = raw if eq else next(words, "--")
        if flags[key].startswith("--") and not eq:
            raise ConfigError(f"flag --{key} needs a value", field=key)
    if len(scenarios) != 1 or scenarios[0] not in SCENARIOS:
        raise ConfigError(f"expected one scenario of {tuple(SCENARIOS)}, got {scenarios}", field="scenario")
    return scenarios[0], flags


def _require(v: dict, key: str, ok, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{key} {rule}, got {v[key]!r}", field=key)


def _require_range(v: dict, key: str, magnitudes: dict, low: float) -> None:
    """The one range rule: refuse, naming `key`, any magnitude whose size is outside [low, inf)."""
    bad = [name for name, x in magnitudes.items() if not low <= abs(x) < math.inf]
    size = f"N={v['N']}" if "N" in v else f"M={v['modes']}"
    _require(v, key, not bad, f"puts {' and '.join(bad)} out of floating-point range at {size}")


def parse_config(argv) -> RunConfig:
    """Merge flags over config-file values, apply the table's defaults, validate."""
    scenario, flags = _read_argv(sys.argv[1:] if argv is None else argv)
    given = {**(_read_config_file(flags.pop("config")) if "config" in flags else {}), **flags}
    given = {key: _convert(_OPTIONS[key], raw) for key, raw in given.items()}
    reads, _, table = SCENARIOS[scenario]
    v = {}
    for opt in OPTIONS:
        if opt.key in reads:
            if opt.notice and opt.key not in given:
                log.info("%s not specified; defaulting to %s", opt.key, opt.default)
            v[opt.key] = given.get(opt.key, opt.default)

    scales = [key for key in ("L", "m", "hbar") if key in v]
    for key in scales:
        _require(v, key, _MIN_NORMAL <= v[key] < math.inf, "must be a finite normal float, at least 2**-1022")
    series = "steps" in v and "state" in v  # spread and ehrenfest
    # sizes first, in exact integers: every magnitude below is formed from checked sizes
    if "N" in v:
        _require(v, "N", v["N"] >= 2, "must be at least 2")
        try:
            _check_dense(v["N"])
        except ValueError as e:
            raise ConfigError(str(e), field="N") from None
    if "block" in v:
        _require(v, "N", v["N"] >= 4, "must be at least 4 for commutator, whose interior block needs N/4 >= 1")
        if v["block"] is None:
            v["block"] = max(1, min(10, v["N"] // 4))
        _require(v, "block", 1 <= v["block"] and 4 * v["block"] <= v["N"], f"must be in 1..N/4 = {v['N'] / 4:g}")
    if "steps" in v:
        min_steps = 3 if series else 2  # time derivatives need 3
        _require(v, "steps", v["steps"] >= min_steps, f"must be at least {min_steps} for {scenario}")
    if table is not None:
        key, width = table
        size = 8 * width * v[key]
        rule = f"asks for a {-(-size >> 20)} MiB report table, above the {_MAX_DENSE_BYTES >> 20} MiB cap"
        _require(v, key, size <= _MAX_DENSE_BYTES, rule)
    if "modes" in v:
        if v["statistics"] == "fermion":
            v["cutoff"] = 1
        _require(v, "modes", v["modes"] >= 1, "must be at least 1")
        _require(v, "cutoff", v["cutoff"] >= 1, "must be at least 1")
        try:
            _fock_basis(v)
        except ValueError as e:  # modes and cutoff are in range, so only the size cap is left
            # every cutoff gives at least 2^modes states: blame modes only if it alone breaks the cap
            field = "modes" if v["modes"] >= _MAX_DIMENSION.bit_length() else "cutoff"
            raise ConfigError(str(e), field=field) from None
    if "particles" in v:
        # a boson condensate fills one mode up to the cutoff; fermions take one mode each
        most = v["cutoff"] if v["statistics"] == "boson" else v["modes"]
        _require(v, "particles", 0 <= v["particles"] <= most, f"must be in 0..{most} for {v['statistics']}s")
        _require(v, "positions", v["positions"] >= 2, "must be at least 2")
    if "L" not in v:
        return RunConfig(well=None, scenario=scenario, grid=None, options=v)
    # exact, as N <= 4096 past the dense cap; a Fock density evolves only its M <= 15 modes
    well = WellConfig(**{key: v[key] for key in scales}, N=v["N"] if "N" in v else max(2, v["modes"]))
    n, dim = (float(well.N), "N") if "N" in v else (float(v["modes"]), "M")
    with np.errstate(all="ignore"):  # a magnitude out of range reads as 0 or inf
        w = WellConfig(**{key: np.float64(v[key]) for key in scales}, N=well.N)
        omega = w.base_frequency
        if "m" in v:
            sizes = {"the revival time": revival_time(w), "omega_1": omega}
        else:
            # without m a run forms x and p/i alone, for k + l odd as _parity_blocks does: x_kl passes
            # through k l (-8 L) and p/i_kl through k l (4 hbar), at most 8 L N(N-1) and 4 hbar N(N-1); the
            # latter bounds every [x, p]_kk / i <= 64 hbar N^3 (N-1)^2 / (pi^2 (2N-1)^3).  p/i is largest at
            # k = N, l = N-1.  At k = 1, l = N each is its smallest entry for even N, below it for odd N
            sizes = {
                "the x intermediate 8 L N(N-1)": n * (n - 1) * (8.0 * w.L),
                "the smallest x entry": n * (8.0 * w.L) / (math.pi**2 * (n * n - 1) ** 2),
                "the largest p/i entry": n * (n - 1) * (4.0 * w.hbar) / (w.L * (2 * n - 1)),
                "the smallest p/i entry": n * (4.0 * w.hbar) / (w.L * (n * n - 1)),
            }
        if series:
            # <p^2> reaches (hbar pi N / L)^2, and <F> s N^3 with s formed as _wall_force does
            sizes["<p^2>"] = (w.hbar * math.pi * n / w.L) ** 2
            sizes["the wall force"] = w.hbar**2 * math.pi**2 / (w.m * w.L**3) * n**3
        # blame the scale farthest from 1; L enters both squared
        worst = max(scales, key=lambda k: abs(math.log(v[k])) * (2 if k == "L" else 1))
        _require_range(v, worst, sizes, _MIN_NORMAL)
        if "steps" in v and v["t-end"] is None:
            v["t-end"] = revival_time(well)
        # every evolution phase is an integer up to n^2 times (omega_1 t)
        times = {key: {f"the phase {dim}^2 omega_1 t": n**2 * (omega * v[key])} for key in ("t-start", "t-end", "t")
                 if v.get(key) is not None}
        if series:
            for key, late in times.items():
                late["hbar |t| / 2m"] = w.hbar * abs(v[key]) / (2.0 * w.m)
            # np.gradient's edge stencil (-3/2, 2, -1/2) / h needs 2 / h, and takes up to 4 B / h
            # from a column bounded by B: |<x>| <= L, |<p>| <= hbar pi N / L
            h = (np.float64(v["t-end"]) - v["t-start"]) / (v["steps"] - 1)
            times["t-end"]["the d/dt stencil's 4 B / h"] = 4.0 * max(0.5, w.L, w.hbar * math.pi * n / w.L) / h
        for key, late in times.items():
            _require_range(v, key, late, 0.0)
        if "steps" in v:
            for key in ("t-start", "t-end"):
                error = n**2 * np.spacing(abs(omega * v[key]))
                rule = f"resolves the phases N^2 omega_1 t only to {error:.3g} rad at N={v['N']}"
                _require(v, key, error <= _PHASE_RESOLUTION, f"{rule}, above {_PHASE_RESOLUTION:g}")
    grid = None
    if "steps" in v:
        _require(v, "t-end", v["t-start"] < v["t-end"], f"must exceed t-start = {v['t-start']}")
        grid = TimeGrid(v["t-start"], v["t-end"], v["steps"])
    if series:
        _require(v, "state", v["state"], f"is required by {scenario}")
    if "state" in v and v["state"] is None:  # revival's default packet
        v["state"] = f"gaussian:center={well.L / 2.0!r},width={well.L / 20.0!r}"
    return RunConfig(well=well, scenario=scenario, grid=grid, options=v)


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
    spec = rc.options["state"]
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
            if len(set(modes)) < len(modes):
                raise ValueError("a mode is listed twice")
            _check_below_edge(modes, rc.well.N)
            return StateVector.uniform_superposition(modes, rc.well.N)
        if kind == "gaussian":
            params = {}
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if key not in ("center", "width", "momentum"):
                    raise ValueError(f"unknown gaussian parameter {key!r}")
                if key in params:
                    raise ValueError(f"gaussian parameter {key!r} given twice")
                params[key] = float(val)
            if "center" not in params or "width" not in params:
                raise ValueError("gaussian needs center=.. and width=..")
            return gaussian_packet(
                rc.well, params["center"], params["width"], params.get("momentum", 0.0)
            )
    except (ValueError, MatrixwellError) as e:
        raise ConfigError(f"bad state spec {spec!r}: {e}", field="state") from None
    raise ConfigError(f"unknown state kind {kind!r}", field="state")


# Every runner returns (names, columns, diagnostics): the table as one column
# per name, 1-D or (values, index), in row order, for the reports module.


def _one_row(row: dict, diagnostics: dict):
    """A one-row runner result: a column per key of `row`, in order; a complex value as key_re and key_im."""
    cells = {}
    for key, x in row.items():
        cells.update({f"{key}_re": x.real, f"{key}_im": x.imag} if isinstance(x, complex) else {key: x})
    return list(cells), [[x] for x in cells.values()], diagnostics


def _run_elements(rc: RunConfig):
    """Every column as (values, index): B and Q hold each k + l odd entry once, and their int32 slots,
    put in mode order, index x symmetrically and p/i antisymmetrically (a negative index negates)."""
    n = rc.well.N
    b, q = _parity_blocks(rc.well, "x", "p/i")
    slots = np.arange(b.size, dtype=np.int32).reshape(b.shape)
    x = _natural_order(slots + 2, 1, np.zeros((n, n), np.int32))  # after 0 and the diagonal's L/2
    np.fill_diagonal(x, 1)
    p_over_i = _natural_order(slots + 1, -1, np.zeros((n, n), np.int32))
    modes, mode_slots = np.arange(1, n + 1), np.arange(n, dtype=np.int32)
    columns = [
        (modes, np.repeat(mode_slots, n)),
        (modes, np.tile(mode_slots, n)),
        (np.r_[0.0, rc.well.L / 2.0, b.ravel()], x.ravel()),
        (np.zeros(1), np.broadcast_to(np.int32(0), (n * n,))),  # p is imaginary; a zero-stride index
        (np.r_[0.0, q.ravel()], p_over_i.ravel()),
    ]
    return ["k", "l", "x", "p_re", "p_im"], columns, {"dim": n}


def _run_commutator(rc: RunConfig):
    rep = asdict(canonical_commutator_report(rc.well, InteriorBlockSpec(rc.options["block"])))
    note = "full trace vanishes for every finite N; edge diagonal absorbs it"
    return _one_row({"n": rep.pop("dim"), **rep}, {"note": note})


def _run_evolve(rc: RunConfig):
    times = rc.grid.times()
    # frobenius_drift and hermiticity_defect are exact zeros: each phase is unimodular and pairs with its conjugate
    zero = np.zeros(len(times))
    (b,) = _parity_blocks(rc.well, "x")
    columns = [times, _position_evolution_checks(rc.well, times, b), zero, zero]
    return list(_EVOLVE_COLUMNS), columns, {"revival_time": revival_time(rc.well)}


def _run_series(series_report, rc: RunConfig):
    report = series_report(_build_state(rc), rc.well, rc.grid)
    return list(report.COLUMNS), list(report.data.T), dict(report.meta)


def _run_revival(rc: RunConfig):
    cfg = rc.well
    t_r = revival_time(cfg)
    (b,) = _parity_blocks(cfg, "x")  # the one fill, for the largest change and for the spread
    change = _position_evolution_checks(cfg, np.array([t_r]), b)[0]
    dx0, dxr = _position_spread(_build_state(rc), cfg, np.array([0.0, t_r]), b)
    row = {
        "t_r": t_r,
        "max_position_change": float(change),
        "dx_initial": float(dx0),
        "dx_revival": float(dxr),
        "dx_gap": float(abs(dxr - dx0)),
    }
    return _one_row(row, {"dim": cfg.N})


def _fock_basis(options: dict) -> FockBasis:
    return FockBasis(options["modes"], options["statistics"], options["cutoff"])


def _fock_basis_and_state(rc: RunConfig):
    basis = _fock_basis(rc.options)
    n = rc.options["particles"]
    if basis.statistics is Statistics.BOSON:
        return basis, condensate_state(basis, n)
    return basis, FockState.occupied(basis, [1] * n + [0] * (basis.modes - n))  # a sea filling the lowest modes


def _run_fock_density(rc: RunConfig):
    basis, state = _fock_basis_and_state(rc)
    cfg = rc.well
    t = rc.options["t"]
    xs = np.linspace(0.0, cfg.L, rc.options["positions"])
    density = density_expectation(state, cfg, basis, xs, t)
    # exact to rounding: the density is a trigonometric polynomial of degree 2M, and cfg.N = max(2, M)
    nodes, weights = quadrature_rule(cfg)
    total = weights @ density_expectation(state, cfg, basis, nodes, t)
    diag = {"particle_number": rc.options["particles"], "density_integral": float(total)}
    return list(_DENSITY_COLUMNS), [xs, density], diag


def _run_fock_algebra(rc: RunConfig):
    basis = _fock_basis(rc.options)
    rep = check_algebra(basis)
    return _one_row({**asdict(rep), "statistics": rep.statistics.value}, {"dimension": basis.dimension})


# One row per scenario: the keys of the options it reads, its runner, and the option that sets the
# rows of its float64 report table, with the table's width.  Every rule of parse_config applies
# wherever its options are read, and --help and the JSON echo follow the keys too.  The lambdas
# look up spread_report and ehrenfest_report when they run, as every other call does.
SCENARIOS = {
    "elements": (("L", "hbar", "N", "format", "out"), _run_elements, None),
    "commutator": (("L", "hbar", "N", "format", "block", "out"), _run_commutator, None),
    "evolve": (("L", "m", "hbar", "N", "t-start", "t-end", "steps", "format", "out"),
               _run_evolve, ("steps", len(_EVOLVE_COLUMNS))),
    "spread": (("L", "m", "hbar", "N", "t-start", "t-end", "steps", "format", "state", "out"),
               lambda rc: _run_series(spread_report, rc), ("steps", len(RunReport.COLUMNS))),
    "ehrenfest": (("L", "m", "hbar", "N", "t-start", "t-end", "steps", "format", "state", "out"),
                  lambda rc: _run_series(ehrenfest_report, rc), ("steps", len(RunReport.COLUMNS))),
    "revival": (("L", "m", "hbar", "N", "format", "state", "out"), _run_revival, None),
    # reads t, m and hbar, which its occupation eigenstates cannot feel, while the bench passes --t
    "fock-density": (("L", "m", "hbar", "format", "modes", "statistics", "cutoff", "particles", "positions", "t",
                      "out"), _run_fock_density, ("positions", len(_DENSITY_COLUMNS))),
    "fock-algebra": (("format", "modes", "statistics", "cutoff", "out"), _run_fock_algebra, None),  # its basis alone
}


def run(rc: RunConfig) -> int:
    """Execute a validated RunConfig; write its report, a block of rows at a time; return the exit status."""
    _, runner, _ = SCENARIOS[rc.scenario]
    names, columns, diagnostics = runner(rc)
    # every check of the report runs here, before its first piece of text is formed
    if rc.options["format"] == "json":
        pieces = _json_pieces(rc.echo, names, columns, diagnostics)
    else:
        pieces = _csv_pieces(names, columns)
    if rc.options["out"]:
        atomic_write_text(rc.options["out"], pieces)
        return 0
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone and the report is cut short; closing stdout here drops what is still
        # buffered, so that the flush at exit cannot meet the closed pipe a second time
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        raise
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
