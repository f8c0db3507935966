"""Deterministic spectral solver for the space-homogeneous Landau equation.

The solver works on a periodized velocity box [-L, L]^3: distributions are
truncated Fourier series, the collision operator becomes a weighted
convolution over mode pairs, and the weights (the collision kernel
coefficients) are precomputed once per grid.  Everything downstream --
time integration, diagnostics, file formats -- is deterministic given a
configuration.
"""

from .collision import CostGuardError, q_periodic_direct, q_periodic_fast, q_scheme_rhs
from .diagnostics import (
    CSV_COLUMNS,
    DegenerateStateError,
    DiagnosticsRecord,
    MomentSet,
    entropy,
    error_norms,
    fisher,
    l2_distance,
    maxwellian_of,
    moments,
    relative_entropy,
    sample_state,
    write_csv,
)
from .exact import BkwParams, ShellParams, bkw, coulomb_shell
from .integrator import BlowUpError, TimeConfig, initial_state, rk4_step, run
from .kernel import (
    BetaParams,
    KernelTables,
    QuadratureError,
    beta_coulomb,
    beta_from_tables,
    beta_quadrature,
    build_kernel_tables,
)
from .spectral import (
    GridSpec,
    HermitianSymmetryError,
    PhysicalField,
    ShapeMismatchError,
    SnapshotFormatError,
    SpectralField,
    apply_cutoff,
    project,
    psi_R,
    read_snapshot,
    to_physical,
    to_spectral,
    truncated_convolution,
    velocity_axis,
    write_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "BkwParams",
    "BlowUpError",
    "CSV_COLUMNS",
    "CostGuardError",
    "DegenerateStateError",
    "DiagnosticsRecord",
    "GridSpec",
    "HermitianSymmetryError",
    "KernelTables",
    "MomentSet",
    "PhysicalField",
    "QuadratureError",
    "ShapeMismatchError",
    "ShellParams",
    "SnapshotFormatError",
    "SpectralField",
    "TimeConfig",
    "apply_cutoff",
    "beta_coulomb",
    "beta_from_tables",
    "beta_quadrature",
    "bkw",
    "build_kernel_tables",
    "coulomb_shell",
    "entropy",
    "error_norms",
    "fisher",
    "initial_state",
    "l2_distance",
    "maxwellian_of",
    "moments",
    "project",
    "psi_R",
    "q_periodic_direct",
    "q_periodic_fast",
    "q_scheme_rhs",
    "read_snapshot",
    "relative_entropy",
    "rk4_step",
    "run",
    "sample_state",
    "to_physical",
    "to_spectral",
    "truncated_convolution",
    "velocity_axis",
    "write_snapshot",
    "__version__",
]
