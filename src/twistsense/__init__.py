"""Time-budgeted quantum magnetometry with twisted collective spin states.

Exact Dicke-sector simulation of five sensing protocols under one total
time budget, quantum-Fisher-information and echo-readout sensitivities,
analytic infinite-N closed forms with an independent truncated-Fock
cross-check, and optimization of the sensing fraction plus break-even
twist thresholds.
"""

from .bosonic_limit import (
    ClosedFormOptimum,
    FockSpace,
    closed_form,
    closed_form_optimum,
    enhancement_ratio,
    fock_simulate,
)
from .errors import (
    BracketingError,
    ContractViolationError,
    DimensionMismatchError,
    InvalidDimensionError,
    PrecisionLossError,
    TruncationError,
    TwistsenseError,
    WrongMethodError,
)
from .metrology import SensitivityRecord, closed_form_Bprime, closed_form_Cprime
from .protocols import SCHEMES
from .sweep_optimize import (
    ENGINES,
    OptimumResult,
    SweepSpec,
    evaluate_point,
    find_threshold,
    optimize_sweep,
    optimize_t,
    sweep_curve,
)

__version__ = "0.1.0"

# What the README's Library section documents; everything else is internal
# and imported from its module.
__all__ = [
    "BracketingError",
    "ClosedFormOptimum",
    "ContractViolationError",
    "DimensionMismatchError",
    "ENGINES",
    "FockSpace",
    "InvalidDimensionError",
    "OptimumResult",
    "PrecisionLossError",
    "SCHEMES",
    "SensitivityRecord",
    "SweepSpec",
    "TruncationError",
    "TwistsenseError",
    "WrongMethodError",
    "closed_form",
    "closed_form_Bprime",
    "closed_form_Cprime",
    "closed_form_optimum",
    "enhancement_ratio",
    "evaluate_point",
    "find_threshold",
    "fock_simulate",
    "optimize_sweep",
    "optimize_t",
    "sweep_curve",
]
