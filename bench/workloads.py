"""Seeded scenario lists for the three benchmark workloads.

A scenario is one `matrixwell` command line plus the check its report must
pass.  The worker adds `--out` to each report scenario, one directory per
pass, and the runner checks the files after the worker has exited, so the
checks' oracles never count toward the worker's time or memory.  The seed picks physical scales, packet shapes, sample times and the
entries checked; it never changes a size (N, T, d), so the work in one pass
is the same for every seed.  `small=True` shrinks every size for the
benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

WORKLOADS = ("series", "fock", "tables")


@dataclass(frozen=True)
class Scenario:
    """One operation of a pass.

    A report scenario runs `cli.parse_config` and `cli.run`, writing the
    report `file`, and `check(path)` inspects it.  An error scenario (`file`
    None) runs `cli.main` and `check(exit_status, stderr)` inspects the refusal.
    `known_fault` names a library fault that makes the scenario fail today;
    its failure is counted but does not make the run incorrect.
    """

    name: str
    argv: tuple
    check: Callable
    file: str | None = None
    fmt: str = "csv"
    known_fault: str = ""


def _u(rng: random.Random, lo: float, hi: float) -> float:
    """A uniform draw rounded so it survives the trip through a command line."""
    return round(rng.uniform(lo, hi), 6)


def _well(rng: random.Random) -> dict:
    return {"L": _u(rng, 0.5, 2.0), "m": _u(rng, 0.5, 2.0), "hbar": _u(rng, 0.5, 2.0)}


def _argv(scenario: str, params: dict) -> tuple:
    argv = [scenario]
    for key, value in params.items():
        argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    return tuple(argv)


def _report(name: str, scenario: str, params: dict, fmt: str, check) -> Scenario:
    return Scenario(name, _argv(scenario, {**params, "format": fmt}), check, f"{name}.{fmt}", fmt)


def series(rng: random.Random, small: bool) -> list:
    """Single-particle dynamics: projection, the series loop and evolve."""
    N, T = (60, 41) if small else (200, 201)
    N_rev, T_ev = (80, 21) if small else (300, 101)
    well = _well(rng)
    L, m, hbar = well["L"], well["m"], well["hbar"]

    def packet(momentum_range):
        # centres 9+ widths from the walls, so the walls do not shift the
        # moments; narrow ranges keep the projection's cost nearly seed-free
        kl = _u(rng, *momentum_range)
        return checks.Packet(
            center=round(_u(rng, 0.45, 0.55) * L, 6),
            width=round(_u(rng, 0.04, 0.05) * L, 6),
            momentum=round(hbar * kl / L, 6) if kl else 0.0,
            hbar=hbar,
        )

    still, moving, revived = packet((0, 0)), packet((34.0, 36.0)), packet((0, 0))
    modes = sorted(rng.sample(range(1, 9), 3))
    rows = sorted(rng.sample(range(1, T - 1), 3))
    grid = {**well, "N": N, "steps": T}
    return [
        _report("spread-gaussian", "spread", {**grid, "state": still.spec()}, "csv",
                checks.SeriesCheck(L, m, hbar, N, T, still, "csv", rows)),
        _report("ehrenfest-moving", "ehrenfest", {**grid, "state": moving.spec()}, "json",
                checks.SeriesCheck(L, m, hbar, N, T, moving, "json", rows)),
        _report("spread-modes", "spread",
                {**grid, "state": "modes:" + ",".join(map(str, modes))}, "csv",
                checks.SeriesCheck(L, m, hbar, N, T, modes, "csv", rows)),
        _report("evolve", "evolve", {**well, "N": N, "steps": T_ev}, "csv",
                checks.evolve_check(L, N, T_ev, "csv")),
        _report("revival", "revival", {**well, "N": N_rev, "state": revived.spec()}, "json",
                checks.RevivalCheck(L, m, hbar, N_rev, revived, "json")),
    ]


def fock(rng: random.Random, small: bool) -> list:
    """Many-body layer: dense ladder algebra and the density integral.

    The well width stays L = 1: the density integral uses an absolute
    tolerance, so its cost would follow L.  The density of an occupation
    eigenstate does not depend on m, hbar or t, which the seed varies.
    """
    b_modes, b_cutoff, f_modes = (2, 3, 4) if small else (4, 3, 8)
    fd_modes, positions = (4, 20) if small else (6, 50)
    well = {"m": _u(rng, 0.5, 2.0), "hbar": _u(rng, 0.5, 2.0)}
    boson, fermion = {"statistics": "boson"}, {"statistics": "fermion"}
    b_particles, f_particles = 2, 3
    sample = {"positions": positions}
    return [
        _report("algebra-boson", "fock-algebra",
                {**well, **boson, "modes": b_modes, "cutoff": b_cutoff}, "csv",
                checks.algebra_check("boson", b_modes, b_cutoff, "csv")),
        _report("algebra-fermion", "fock-algebra", {**well, **fermion, "modes": f_modes}, "csv",
                checks.algebra_check("fermion", f_modes, 1, "csv")),
        _report("density-condensate", "fock-density",
                {**well, **boson, **sample, "modes": b_modes, "cutoff": b_cutoff,
                 "particles": b_particles, "t": _u(rng, 0.0, 1.0)}, "json",
                checks.density_check(1.0, [b_particles], positions, b_particles)),
        _report("density-fermions", "fock-density",
                {**well, **fermion, **sample, "modes": fd_modes,
                 "particles": f_particles, "t": _u(rng, 0.0, 1.0)}, "json",
                checks.density_check(1.0, [1] * f_particles, positions, f_particles)),
        # 5^20 states: must be refused through the JSON error contract
        Scenario("algebra-too-large", ("fock-algebra", "--modes", "20"), checks.error_contract_check,
                 known_fault="FockBasis's ValueError escapes cli.main as a traceback"),
    ]


def tables(rng: random.Random, small: bool) -> list:
    """Report emission: the element table in CSV and JSON, and [x, p]."""
    N, NC = (40, 80) if small else (250, 800)
    well = _well(rng)
    L, hbar = well["L"], well["hbar"]
    pairs = [(rng.randint(1, N), rng.randint(1, N)) for _ in range(10)] + [(1, 1), (1, 2), (N, N - 1)]
    block = rng.randint(2, NC // 4)
    half_block = max(1, block // 2)
    return [
        _report("elements-csv", "elements", {**well, "N": N}, "csv",
                checks.elements_check(L, hbar, N, pairs, "csv")),
        _report("elements-json", "elements", {**well, "N": N}, "json",
                checks.elements_check(L, hbar, N, pairs, "json", csv_name="elements-csv.csv")),
        _report("commutator", "commutator", {**well, "N": NC, "block": block}, "json",
                checks.commutator_check(L, hbar, NC, block, "json")),
        _report("commutator-half", "commutator", {**well, "N": NC // 2, "block": half_block}, "csv",
                checks.commutator_check(L, hbar, NC // 2, half_block, "csv")),
    ]


def build(workload: str, seed: int, small: bool = False) -> list:
    """The scenario list of one workload, fixed by `seed`."""
    builders = {"series": series, "fock": fock, "tables": tables}
    return builders[workload](random.Random(seed), small)
