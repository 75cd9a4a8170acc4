#!/usr/bin/env python3
"""Many particles in the same well: Fock space over the energy modes.

Checks the ladder algebra for both statistics, then puts a condensate
of four bosons in the ground mode and watches its density profile,
which stays frozen in time because the state is an eigenstate of the
free many-body Hamiltonian.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from matrixwell import (
    FockBasis,
    Statistics,
    WellConfig,
    check_algebra,
    condensate_state,
    density_expectation,
    quadrature_rule,
)

cfg = WellConfig(N=40)

print("ladder algebra defects:")
for basis in (FockBasis(4, Statistics.FERMION), FockBasis(3, Statistics.BOSON, cutoff=4)):
    rep = check_algebra(basis)
    print(
        f"  {rep.statistics.value:7s} M={rep.modes} cutoff={rep.cutoff}:"
        f" same-mode {rep.same_mode_defect:.1e},"
        f" cross-mode {rep.cross_mode_defect:.1e},"
        f" pair {rep.pair_defect:.1e},"
        f" boundary error {rep.boundary_error:.1e}"
        f" ({rep.saturated_states} saturated states)"
    )
print("  (bosons: saturated states carry the truncated-ladder defect -(cutoff+1);")
print("   everything else is zero up to sqrt roundoff, fermions exactly zero)\n")

basis = FockBasis(3, Statistics.BOSON, cutoff=4)
state = condensate_state(basis, 4)
print("condensate of 4 bosons in the ground mode, density n(x, t):")
print("      x      n(x, 0)    n(x, 0.9)   4 (2/L) sin^2(pi x / L)")
for xval in np.linspace(0.0, cfg.L, 9):
    d0 = density_expectation(state, cfg, basis, float(xval), 0.0)
    d1 = density_expectation(state, cfg, basis, float(xval), 0.9)
    exact = 4.0 * (2.0 / cfg.L) * np.sin(np.pi * xval / cfg.L) ** 2
    print(f"   {xval:5.3f}   {d0:8.5f}   {d1:9.5f}    {exact:8.5f}")

nodes, weights = quadrature_rule(cfg)
total = weights @ density_expectation(state, cfg, basis, nodes, 0.0)
print(f"\nintegral of the density over the well: {total:.9f} (particle number 4)")
