"""Sensitivity figures of merit for the five protocols.

Two measurement models share one dimensionless scale, the inverse
field uncertainty per unit time and per shot, (sqrt(nu) tau delta_omega)^-1:

* quantum Fisher information for the non-echo schemes A, B, C, reported as
  sqrt(F) / tau, with the pure-state form F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2)
  evaluated at zero field. The separable scheme A gives exactly 1, the
  benchmark every other number is compared against.
* error propagation on a Jy readout for the echo schemes Bprime and Cprime:
  tau |d<Jy>/domega| / std(Jy) at zero field, where the echo guarantees
  std(Jy) = sqrt(N)/2 exactly (asserted, not assumed).

Also here: the exact finite-N closed form for the one-axis-twist echo, the
coherent-state generating function it derives from, and the second-moment
oracle used to cross-check both against dense matrix algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidDimensionError,
    WrongMethodError,
)
from .protocols import (
    ECHO_SCHEMES,
    QFI_SCHEMES,
    SCHEMES,
    Mode,
    ProtocolConfig,
    SchemeState,
    run_pipeline,
    spin_mode,
)
from .spin_core import variance

METHODS = ("qfi", "echo", "closed_form")


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|, 1), meaningful near zero."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


@dataclass(frozen=True)
class SensitivityRecord:
    """One evaluated sensitivity point.

    ``n_spins`` is None for bosonic (infinite-N) evaluations. ``method``
    states which figure of merit produced the number: qfi for schemes
    A/B/C, echo for Bprime/Cprime, closed_form for the analytic limits.
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
        if self.method == "qfi" and self.scheme not in QFI_SCHEMES:
            raise WrongMethodError(
                f"method qfi is undefined for scheme {self.scheme}"
            )
        if self.method == "echo" and self.scheme not in ECHO_SCHEMES:
            raise WrongMethodError(
                f"method echo is undefined for scheme {self.scheme}"
            )
        if self.n_spins is not None and self.n_spins < 1:
            raise ValueError(f"n_spins must be >= 1 or None, got {self.n_spins}")
        if not self.sensitivity >= 0.0:
            raise ValueError(f"sensitivity must be >= 0, got {self.sensitivity}")


def qfi(state: SchemeState) -> float:
    """Pure-state quantum Fisher information from an exact derivative.

    F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2), requiring psi normalized and
    dpsi evaluated at zero field. Nonnegative by Cauchy-Schwarz; tiny
    negative roundoff is clamped to 0.
    """
    if not state.psi.normalized:
        raise ContractViolationError("qfi requires a normalized state")
    dpsi = state.dpsi.amplitudes
    grad2 = np.vdot(dpsi, dpsi).real
    cross = abs(np.vdot(state.psi.amplitudes, dpsi)) ** 2
    return max(4.0 * (grad2 - cross), 0.0)


def readout(
    mode: Mode,
    scheme: str,
    twist_strength: float,
    sensing_fraction: float,
    n_spins: int | None,
) -> SensitivityRecord:
    """Run one protocol at zero field on a carrier and read out its figure of merit.

    Schemes A/B/C report sqrt(F) / tau. The echo pair reports
    tau |d<R>/domega| / std(R) for the mode's readout operator R; the slope
    uses the exact derivative, d<R>/domega = 2 Re <psi|R|dpsi>. At zero
    field the echo returns the probe to its coherent initial state, whose
    spread is the mode's ``spread``; that identity is asserted rather than
    substituted, so a broken echo cannot silently inflate the sensitivity.
    A vanishing slope reports a sensitivity of exactly 0.
    """
    state = run_pipeline(mode, scheme, twist_strength, sensing_fraction, 0.0)
    if scheme in ECHO_SCHEMES:
        R = mode.readout_operator()
        psi, dpsi = state.psi.amplitudes, state.dpsi.amplitudes
        slope = 2.0 * np.vdot(psi, R.matrix @ dpsi).real
        spread = sqrt(variance(R, state.psi))
        if abs(spread - mode.spread) > mode.spread_tolerance:
            raise ContractViolationError(
                f"echo readout spread {spread!r} differs from its coherent value "
                f"{mode.spread!r}"
            )
        value, method = (abs(slope) / spread if slope != 0.0 else 0.0), "echo"
    else:
        value, method = sqrt(qfi(state)), "qfi"
    return SensitivityRecord(
        scheme=scheme,
        n_spins=n_spins,
        twist_strength=twist_strength,
        sensing_fraction=sensing_fraction,
        sensitivity=value,
        method=method,
    )


def _spin_record(
    cfg: ProtocolConfig, schemes: tuple[str, ...], where: str
) -> SensitivityRecord:
    """Read out one spin protocol run, refusing schemes outside ``schemes``."""
    if cfg.scheme not in schemes:
        raise WrongMethodError(f"{where} handles schemes {schemes}, got {cfg.scheme}")
    if cfg.omega != 0.0:
        raise ContractViolationError(
            f"{where} is defined at zero field; got omega = {cfg.omega}"
        )
    return readout(
        spin_mode(cfg.space), cfg.scheme, cfg.twist_strength, cfg.sensing_fraction,
        cfg.n_spins,
    )


def qfi_sensitivity(cfg: ProtocolConfig) -> SensitivityRecord:
    """sqrt(F) / tau for the non-echo schemes A, B, C."""
    return _spin_record(cfg, QFI_SCHEMES, "qfi_sensitivity")


def echo_sensitivity(cfg: ProtocolConfig) -> SensitivityRecord:
    """tau |d<Jy>/domega| / std(Jy) at zero field for Bprime and Cprime.

    The echo spread std(Jy) = sqrt(N)/2 is asserted to 1e-9 (see ``readout``).
    """
    return _spin_record(cfg, ECHO_SCHEMES, "echo_sensitivity")


def closed_form_Bprime(
    n_spins: int, chi_tau: float, sensing_fraction: float
) -> float:
    """Exact finite-N sensitivity of the one-axis-twist echo protocol.

    (t/tau) (N - 1) |sin(theta) cos(theta)^(N-2)| with
    theta = chi*tau (1 - t/tau) / (2N). Vanishes at t/tau = 0 (no sensing)
    and at theta = 0 (no twisting); for N = 1 the twist is a global phase
    and the result is identically 0.
    """
    if isinstance(n_spins, bool) or n_spins < 1:
        raise InvalidDimensionError(f"n_spins must be >= 1, got {n_spins!r}")
    if not 0.0 <= sensing_fraction <= 1.0:
        raise ValueError(
            f"sensing_fraction must lie in [0, 1], got {sensing_fraction}"
        )
    if n_spins == 1:
        return 0.0
    theta = chi_tau * (1.0 - sensing_fraction) / (2.0 * n_spins)
    return (
        sensing_fraction
        * (n_spins - 1)
        * abs(sin(theta) * cos(theta) ** (n_spins - 2))
    )


def generating_function(
    alpha: complex, beta: complex, gamma: complex, n_spins: int
) -> complex:
    """Coherent-state generating function for collective spin moments.

    <+|^N exp(gamma J-) exp(beta Jz) exp(alpha J+) |+>^N
      = [ exp(-beta/2)/2 + exp(beta/2) (alpha+1)(gamma+1)/2 ]^N.

    Differentiating at the origin produces every moment of the form
    <J-^p f(Jz) J+^q> in the all-spins-along-x state; gamma derivatives
    pull down lowering operators on the left, alpha derivatives raising
    operators on the right.
    """
    if isinstance(n_spins, bool) or n_spins < 1:
        raise InvalidDimensionError(f"n_spins must be >= 1, got {n_spins!r}")
    base = 0.5 * np.exp(-beta / 2.0) + 0.5 * np.exp(beta / 2.0) * (alpha + 1.0) * (
        gamma + 1.0
    )
    return complex(base**n_spins)


def moment_oracle(n_spins: int, phase: float) -> complex:
    """<+|^N J-^2 exp(-2i phase Jz) |+>^N in closed form.

    Equals (N(N-1)/4) cos(phase)^(N-2) exp(-2i phase); this is the moment
    that drives the echo slope, so it doubles as an independent oracle for
    the closed form above. Undefined for N < 2 (J-^2 annihilates the
    two-dimensional sector's reachable moments).
    """
    if isinstance(n_spins, bool) or n_spins < 2:
        raise InvalidDimensionError(
            f"moment_oracle requires n_spins >= 2, got {n_spins!r}"
        )
    return (
        (n_spins * (n_spins - 1) / 4.0)
        * cos(phase) ** (n_spins - 2)
        * complex(np.exp(-2j * phase))
    )
