"""The public surface of the package, pinned so that removals are deliberate."""

import inspect

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


# the parameter names of every public function and of every public class that
# defines its own constructor; adding or removing a setting edits this table
SIGNATURES = {
    "CommutatorReport": [
        "dim", "block", "interior_max_deviation", "trace", "trace_naive",
        "worst_diagonal_deviation", "edge_diagonal_min",
    ],
    "ConfigError": ["message", "field"],
    "FockAlgebraReport": [
        "statistics", "modes", "cutoff", "same_mode_defect", "boundary_error",
        "cross_mode_defect", "pair_defect", "saturated_states",
    ],
    "FockBasis": ["modes", "statistics", "cutoff"],
    "FockState": ["basis", "coeffs"],
    "InteriorBlockSpec": ["max_index"],
    "OperatorMatrix": ["entries"],
    "RunReport": ["data", "hbar", "meta"],
    "ShortTimeResiduals": ["dt", "r1", "r2", "max_index"],
    "StateVector": ["coeffs"],
    "TimeGrid": ["t_start", "t_end", "steps"],
    "WellConfig": ["L", "m", "hbar", "N"],
    "build_hamiltonian": ["cfg"],
    "build_momentum": ["cfg"],
    "build_position": ["cfg"],
    "canonical_commutator_report": ["cfg", "block"],
    "check_algebra": ["basis"],
    "commutator": ["a", "b"],
    "commutator_trace": ["a", "b"],
    "completeness_defect": ["cfg", "f", "modes"],
    "condensate_state": ["basis", "n_particles"],
    "density_expectation": ["state", "cfg", "basis", "x", "t"],
    "dispersion": ["state", "op"],
    "ehrenfest_report": ["state", "cfg", "grid"],
    "eigen_energy": ["cfg", "n"],
    "eigenfunction": ["cfg", "n", "x"],
    "evolve": ["op", "cfg", "t"],
    "expectation": ["state", "op"],
    "force_matrix": ["cfg", "t"],
    "gaussian_packet": ["cfg", "center", "width", "mean_momentum"],
    "hamilton_derivative": ["h_of", "at"],
    "identity": ["n"],
    "mode_frequency": ["cfg", "n"],
    "momentum_element": ["cfg", "k", "l"],
    "position_element": ["cfg", "k", "l"],
    "project_wavefunction": ["cfg", "f"],
    "projection_capture": ["cfg", "f"],
    "quadrature_rule": ["cfg"],
    "revival_time": ["cfg"],
    "short_time_expansion_check": ["cfg", "dt"],
    "sine_coefficients": ["cfg", "f"],
    "spread_report": ["state", "cfg", "grid"],
    "wavenumber": ["cfg", "n"],
    "xt_x0_commutator": ["cfg", "t"],
}


# the public attributes of every public class (methods, properties, class constants and
# dataclass fields with a default); removing a method edits this table
ATTRIBUTES = {
    "CommutatorReport": [],
    "ConfigError": [],
    "FockAlgebraReport": [],
    "FockBasis": ["cutoff", "dimension", "index_of", "occupations"],
    "FockState": ["occupied", "vacuum"],
    "InteriorBlockSpec": [],
    "InvariantViolation": [],
    "MatrixwellError": [],
    "NonConvergentDerivative": [],
    "OperatorMatrix": ["dim", "frobenius", "hermiticity_defect"],
    "ProjectionError": [],
    "RunReport": ["COLUMNS", "column", "nrows"],
    "ShortTimeResiduals": [],
    "StateVector": ["dim", "eigenstate", "uniform_superposition"],
    "Statistics": ["BOSON", "FERMION"],
    "TimeGrid": ["spacing", "times"],
    "WellConfig": ["L", "N", "base_frequency", "hbar", "m", "mode_numbers"],
}


def test_all_is_pinned():
    assert matrixwell.__all__ == PUBLIC


def test_signatures_are_pinned():
    # the exceptions without a constructor of their own and the Statistics enum take
    # their signatures from the standard library
    own = [
        name for name in matrixwell.__all__
        if inspect.isfunction(getattr(matrixwell, name)) or "__init__" in vars(getattr(matrixwell, name))
    ]
    assert {name: list(inspect.signature(getattr(matrixwell, name)).parameters) for name in own} == SIGNATURES


def test_class_attributes_are_pinned():
    classes = [name for name in matrixwell.__all__ if inspect.isclass(getattr(matrixwell, name))]
    assert {
        name: sorted(key for key in vars(getattr(matrixwell, name)) if not key.startswith("_")) for name in classes
    } == ATTRIBUTES


def test_every_public_name_resolves():
    for name in matrixwell.__all__:
        assert getattr(matrixwell, name) is not None, name
