"""The public surface of the package, pinned so that removals are deliberate."""

import matrixwell

PUBLIC = [
    "CommutatorReport",
    "ConfigError",
    "FockAlgebraReport",
    "FockBasis",
    "FockState",
    "InteriorBlockSpec",
    "InvariantViolation",
    "MatrixwellError",
    "NonConvergentDerivative",
    "OperatorMatrix",
    "ProjectionError",
    "RunReport",
    "ShortTimeResiduals",
    "StateVector",
    "Statistics",
    "TimeGrid",
    "WellConfig",
    "build_hamiltonian",
    "build_momentum",
    "build_position",
    "canonical_commutator_report",
    "check_algebra",
    "commutator",
    "commutator_trace",
    "completeness_defect",
    "condensate_state",
    "density_expectation",
    "dispersion",
    "ehrenfest_report",
    "eigen_energy",
    "eigenfunction",
    "evolve",
    "expectation",
    "force_matrix",
    "gaussian_packet",
    "hamilton_derivative",
    "identity",
    "mode_frequency",
    "momentum_element",
    "position_element",
    "project_wavefunction",
    "projection_capture",
    "quadrature_rule",
    "revival_time",
    "short_time_expansion_check",
    "sine_coefficients",
    "spread_report",
    "wavenumber",
    "xt_x0_commutator",
]


def test_all_is_pinned():
    assert matrixwell.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in matrixwell.__all__:
        assert getattr(matrixwell, name) is not None, name
