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

Also here: the exact finite-N closed forms of the two one-axis-twist echoes
and the second-moment oracle used to cross-check them against dense matrix
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, expm1, isfinite, log1p, sin

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
    check_point,
    run_pipeline,
)
from .spin_core import DickeSpace, StateWithDerivative, _real_inner, overlap, variance

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
    The point is checked as ``check_point`` checks it, and ``n_spins`` as
    ``DickeSpace`` checks it.
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
        check_point(self.scheme, self.twist_strength, self.sensing_fraction)
        if self.n_spins is not None:
            DickeSpace(self.n_spins)
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


def qfi(state: StateWithDerivative) -> float | np.ndarray:
    """Pure-state quantum Fisher information from an exact derivative.

    F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2), requiring psi normalized and
    dpsi evaluated at zero field; one value per column for a block. Each is
    nonnegative by Cauchy-Schwarz; tiny negative roundoff is clamped to 0.
    For the real blocks of schemes A and B this is 4 (|dpsi|^2 -
    (psi . dpsi)^2), reduced over the blocks themselves.
    """
    if not state.psi.normalized:
        raise ContractViolationError("qfi requires a normalized state")
    grad2 = _real_inner(state.dpsi.amplitudes, state.dpsi.amplitudes)
    cross = abs(overlap(state.psi, state.dpsi)) ** 2
    return np.maximum(4.0 * (grad2 - cross), 0.0)


def readout(
    mode: Mode, scheme: str, twist_strength, sensing_fractions
) -> np.ndarray:
    """Run one protocol at zero field on a carrier and read out its figure of
    merit at each of the 1-D array ``sensing_fractions``: a whole curve in
    one pipeline call, or a batch of one. ``twist_strength`` is one twist or
    a 1-D array of one per column that broadcasts with the fractions, as
    ``run_pipeline`` takes it, so the curves of several twists are one
    call. A float array, in order, each value checked >= 0 once.

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
                f"{np.broadcast_to(fractions, off.shape)[off][0]!r} differs "
                "from its coherent value 0.5"
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


def closed_form_Cprime(
    n_spins: int, chi_tau: float, sensing_fraction: float
) -> float:
    """Exact finite-N sensitivity of the concurrent one-axis-twist echo.

    |s (N - 1) sin(theta) cos(theta)^(N-2) + (2N / x)(1 - cos(theta)^(N-1))|
    with x = chi*tau, s = t/tau and theta = x (1 - s) / (2N). At zero field
    the echo is the identity, so a field kick given after a twist angle phi
    adds f(phi) = (N - 1) sin(phi/N) cos(phi/N)^(N-2) to the slope
    (``closed_form_Bprime`` is the sensing window's s f(x (1 - s) / 2)),
    and the two concurrent windows add (2 / x) times the integral of f from
    0 to x (1 - s) / 2, which is the second term. 1 - cos(theta)^(N-1) is
    taken as -expm1((N - 1) log1p(-2 sin^2(theta / 2))) where cos(theta)
    > 0, without the cancellation of a power near 1, and directly where it
    has none. Vanishes at theta = 0 (no twisting, or no time left to twist)
    and, as for ``closed_form_Bprime``, is identically 0 for N = 1. Tends
    to x (1 - s^2) / 4, the infinite-N form, as N grows.
    """
    n = DickeSpace(n_spins).n_spins
    check_point("Cprime", chi_tau, sensing_fraction)
    theta = chi_tau * (1.0 - sensing_fraction) / (2.0 * n)
    if n == 1 or theta == 0.0:
        return 0.0
    c = cos(theta)
    if c > 0.0:
        rest = -expm1((n - 1) * log1p(-2.0 * sin(theta / 2.0) ** 2))
    else:
        rest = 1.0 - c ** (n - 1)
    kick = sensing_fraction * (n - 1) * sin(theta) * c ** (n - 2)
    return abs(kick + 2.0 * n / chi_tau * rest)


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
