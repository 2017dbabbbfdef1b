"""Hybrid quantum-classical network for ground-state potential energy curves.

Layers: variational input encoding, trainable entangling blocks, and an
exact per-qubit measurement layer that acts as the nonlinearity. Trained
by BFGS against summed energy expectations; validated against exact
diagonalization.
"""

from .network import (
    EncodingSpec,
    NetworkSpec,
    PqcSpec,
    Variant,
    entangler_pattern,
    forward,
)
from .optimize import (
    OptimizerSettings,
    TrainedModel,
    TrainingProblem,
    bfgs_minimize,
    cost,
    finite_difference_gradient,
    gradient,
    init_params,
    train,
)
from .oracle import ground_energy, ground_energy_iterative, ground_state, spectrum_bounds
from .pauli import (
    HamParseError,
    PauliAxis,
    PauliHamiltonian,
    PauliTerm,
    expectation,
    format_hamiltonian,
    parse_hamiltonian,
    to_dense,
)
from .statevector import (
    StateVector,
    apply_cnot,
    apply_h,
    apply_ry,
    expect_z,
    norm,
    zero_state,
)

__version__ = "0.1.0"

__all__ = [
    "EncodingSpec",
    "HamParseError",
    "NetworkSpec",
    "OptimizerSettings",
    "PauliAxis",
    "PauliHamiltonian",
    "PauliTerm",
    "PqcSpec",
    "StateVector",
    "TrainedModel",
    "TrainingProblem",
    "Variant",
    "apply_cnot",
    "apply_h",
    "apply_ry",
    "bfgs_minimize",
    "cost",
    "entangler_pattern",
    "expect_z",
    "expectation",
    "finite_difference_gradient",
    "format_hamiltonian",
    "forward",
    "gradient",
    "ground_energy",
    "ground_energy_iterative",
    "ground_state",
    "init_params",
    "norm",
    "parse_hamiltonian",
    "spectrum_bounds",
    "to_dense",
    "train",
    "zero_state",
]
