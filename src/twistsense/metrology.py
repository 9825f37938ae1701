"""Sensitivity figures of merit for the five protocols.

Two measurement models share one dimensionless scale, the inverse
field uncertainty per unit time and per shot, (sqrt(nu) tau delta_omega)^-1:

* quantum Fisher information for the non-echo schemes A, B, C, reported as
  sqrt(F) / tau, with the pure-state form F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2)
  evaluated at zero field. The separable scheme A gives exactly 1, the
  benchmark every other number is compared against.
* error propagation along the field generator G for the echo schemes
  Bprime and Cprime: tau |d<G>/domega| / std(G) at zero field, where the
  echo guarantees std(G) = 1/2 exactly (asserted, not assumed). G is
  Jy / sqrt(N) on a Dicke sector and P / 2 on a Fock mode.

Also here: the exact finite-N closed form for the one-axis-twist echo and
the second-moment oracle used to cross-check it against dense matrix
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidDimensionError,
    WrongMethodError,
)
from .protocols import (
    SCHEMES,
    SHAPES,
    Mode,
    SchemeState,
    check_point,
    run_pipeline,
)
from .spin_core import DickeSpace, _real_inner, overlap, variance

METHODS = ("qfi", "echo", "closed_form")

# scheme: the figure of merit its simulations are read out with. The one
# place that names it; the closed forms are "closed_form" for every scheme.
SCHEME_METHOD = {k: "echo" if echo else "qfi" for k, (_, echo, _) in SHAPES.items()}


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|, 1), meaningful near zero."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


@dataclass(frozen=True)
class SensitivityRecord:
    """One evaluated sensitivity point.

    ``n_spins`` is None for bosonic (infinite-N) evaluations. ``method``
    states which figure of merit produced the number: the scheme's
    ``SCHEME_METHOD`` for a simulation, closed_form for the analytic limits.
    """

    scheme: str
    n_spins: int | None
    twist_strength: float
    sensing_fraction: float
    sensitivity: float
    method: str

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method not in ("closed_form", SCHEME_METHOD[self.scheme]):
            raise WrongMethodError(
                f"method {self.method} is undefined for scheme {self.scheme}"
            )
        if self.n_spins is not None and self.n_spins < 1:
            raise ValueError(f"n_spins must be >= 1 or None, got {self.n_spins}")
        if not self.sensitivity >= 0.0:
            raise ContractViolationError(
                f"sensitivity must be >= 0, got {self.sensitivity}"
            )


def _nonnegative(values: np.ndarray) -> np.ndarray:
    """``values``, a float array of sensitivities, once each is checked >= 0.

    A computed number, not an input: a negative or NaN one is a numerical
    fault, refused with the first of them.
    """
    bad = ~(values >= 0.0)
    if bad.any():
        raise ContractViolationError(f"sensitivity must be >= 0, got {values[bad][0]}")
    return values


def qfi(state: SchemeState) -> float | np.ndarray:
    """Pure-state quantum Fisher information from an exact derivative.

    F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2), requiring psi normalized and
    dpsi evaluated at zero field; one value per column for a block. Each is
    nonnegative by Cauchy-Schwarz; tiny negative roundoff is clamped to 0.
    """
    if not state.psi.normalized:
        raise ContractViolationError("qfi requires a normalized state")
    grad2 = _real_inner(state.dpsi.amplitudes, state.dpsi.amplitudes)
    cross = abs(overlap(state.psi, state.dpsi)) ** 2
    return np.maximum(4.0 * (grad2 - cross), 0.0)


def readout(
    mode: Mode, scheme: str, twist_strength: float, sensing_fractions
) -> np.ndarray:
    """Run one protocol at zero field on a carrier and read out its figure of
    merit at each of the 1-D array ``sensing_fractions``: a whole curve of
    one twist in one pipeline call, or a batch of one. A float array, in
    order, each value checked >= 0 once.

    Schemes A/B/C report sqrt(F) / tau. The echo pair reports
    tau |d<G>/domega| / std(G) along the mode's field generator G; the slope
    uses the exact derivative, d<G>/domega = 2 Re <psi|G|dpsi>. At zero
    field the echo returns the probe to its coherent initial state, on
    which G has spread 1/2 on every carrier (Jy / sqrt(N) on a Dicke sector,
    P / 2 on the Fock vacuum); that identity is asserted on every column, to
    the mode's ``spread_tolerance``, rather than substituted, so a broken
    echo cannot silently inflate the sensitivity. A vanishing slope reports
    a sensitivity of exactly 0. All three are column-wise reductions of the
    (d, K) blocks.
    """
    fractions = np.asarray(sensing_fractions, dtype=float)
    if fractions.ndim != 1:
        raise ValueError(
            f"sensing_fractions must be one-dimensional, got shape {fractions.shape}"
        )
    state = run_pipeline(mode, scheme, twist_strength, fractions)
    if SCHEME_METHOD[scheme] == "echo":
        G = mode.generators["field"]
        slope = 2.0 * _real_inner(state.psi.amplitudes, G.matvec(state.dpsi.amplitudes))
        spread = np.sqrt(variance(G, state.psi))
        off = ~(np.abs(spread - 0.5) <= mode.spread_tolerance)
        if off.any():
            raise ContractViolationError(
                f"echo readout spread {spread[off][0]!r} at t/tau = "
                f"{fractions[off][0]!r} differs from its coherent value 0.5"
            )
        return _nonnegative(np.abs(slope) / spread)
    return _nonnegative(np.sqrt(qfi(state)))


def closed_form_Bprime(
    n_spins: int, chi_tau: float, sensing_fraction: float
) -> float:
    """Exact finite-N sensitivity of the one-axis-twist echo protocol.

    (t/tau) (N - 1) |sin(theta) cos(theta)^(N-2)| with
    theta = chi*tau (1 - t/tau) / (2N). Vanishes at t/tau = 0 (no sensing)
    and at theta = 0 (no twisting); for N = 1 the twist is a global phase
    and the result is identically 0. It derives from the coherent-state
    generating function <+|^N exp(gamma J-) exp(beta Jz) exp(alpha J+) |+>^N
    = [exp(-beta/2)/2 + exp(beta/2) (alpha+1)(gamma+1)/2]^N, whose
    derivatives at the origin give every moment <J-^p f(Jz) J+^q> of the
    all-spins-along-x state.
    """
    n = DickeSpace(n_spins).n_spins
    check_point("Bprime", chi_tau, sensing_fraction)
    if n == 1:
        return 0.0
    theta = chi_tau * (1.0 - sensing_fraction) / (2.0 * n)
    return sensing_fraction * (n - 1) * abs(sin(theta) * cos(theta) ** (n - 2))


def moment_oracle(n_spins: int, phase: float) -> complex:
    """<+|^N J-^2 exp(-2i phase Jz) |+>^N in closed form.

    Equals (N(N-1)/4) cos(phase)^(N-2) exp(-2i phase); this is the moment
    that drives the echo slope, so it doubles as an independent oracle for
    the closed form above. Undefined for N < 2 (J-^2 annihilates the
    two-dimensional sector's reachable moments).
    """
    n = DickeSpace(n_spins).n_spins
    if n < 2:
        raise InvalidDimensionError(f"moment_oracle requires n_spins >= 2, got {n}")
    if not isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    return (n * (n - 1) / 4.0) * cos(phase) ** (n - 2) * complex(np.exp(-2j * phase))
