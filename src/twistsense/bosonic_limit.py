"""Analytic infinite-N limits and an independent bosonic cross-check.

For N -> infinity the collective spin maps onto a single bosonic mode
(lowering operator over sqrt(N) becomes the annihilation operator), under
which the five protocols become vacuum displacement and quadrature
squeezing. Two independent routes to the same numbers live here:

* ``closed_form`` and friends: the analytic sensitivities in that limit,

    B       (t/tau) exp(2 eta tau (1 - t/tau))
    C       (t/tau + 1/(2 eta tau)) exp(2 eta tau (1 - t/tau)) - 1/(2 eta tau)
    Bprime  chi tau (t/tau)(1 - t/tau) / 2
    Cprime  (chi tau / 4)(1 - (t/tau)^2)

  together with their optima over t/tau and the B-to-C enhancement ratio,

* ``fock_simulate``: the shared protocol pipelines of ``protocols`` and
  the shared readout of ``metrology``, run on a bosonic carrier
  (``fock_mode``: a truncated Fock space with displacement and squeezing
  generators, the vacuum, a truncation-tail guard and the P readout). Its
  independence is from the closed forms: it shares no formulas with them,
  so agreement between the two is a real cross-validation.

The mapped generators keep the spin normalization: the field generator is
half the momentum quadrature P = i(a - a^dag), one-axis twisting becomes
(a + a^dag)^2 / 4, two-axis twisting becomes the quadrature squeezer
i(a^2 - a^dag^2). The halves and quarters matter; dropping them breaks the
agreement with both the closed forms and the finite-N spin results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import e, exp, expm1, isfinite
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidDimensionError,
    PrecisionLossError,
    SingularParameterError,
    TruncationError,
)
from .metrology import SensitivityRecord, readout
from .protocols import HAMILTONIAN_KINDS, SCHEMES, Mode
from .spin_core import ComplexOperator, StateVector


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space for the infinite-N simulator.

    A simulation is rejected whenever any of its normalized states carries
    population at or above ``tail_tolerance`` in the top two levels; a
    result that leaks into the truncation edge is not trustworthy.
    """

    truncation_dim: int = 400
    tail_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        d = self.truncation_dim
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise InvalidDimensionError(
                f"truncation_dim must be an integer, got {d!r}"
            )
        if d < 2:
            raise InvalidDimensionError(f"truncation_dim must be >= 2, got {d}")
        object.__setattr__(self, "truncation_dim", int(d))
        if not 0.0 < self.tail_tolerance <= 1.0:
            raise ValueError(
                f"tail_tolerance must lie in (0, 1], got {self.tail_tolerance}"
            )


class ClosedFormOptimum(NamedTuple):
    value: float
    t_opt: float


@dataclass(frozen=True)
class ClosedFormPoint:
    """One evaluated analytic point, optionally with its optimum attached."""

    scheme: str
    twist_times_tau: float
    sensing_fraction: float
    value: float
    optimum: ClosedFormOptimum | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.value >= 0.0:
            raise ValueError(f"value must be >= 0, got {self.value}")


def _check_point(
    scheme: str, twist_times_tau: float, sensing_fraction: float | None = None
) -> None:
    """Argument checks shared by the closed forms and the Fock simulator."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if not isfinite(twist_times_tau) or twist_times_tau < 0:
        raise ValueError(
            f"twist_times_tau must be finite and >= 0, got {twist_times_tau!r}"
        )
    if sensing_fraction is not None and not 0.0 <= sensing_fraction <= 1.0:
        raise ValueError(
            f"sensing_fraction must lie in [0, 1], got {sensing_fraction}"
        )


def _check_regular(scheme: str, twist_times_tau: float) -> None:
    if scheme == "C" and twist_times_tau == 0.0:
        raise SingularParameterError(
            "the concurrent-twist closed form is singular at zero twist; "
            "use closed_form_c_small_twist near that point"
        )


def _growth(fn, exponent: float) -> float:
    """exp or expm1 of a twist exponent, refused past the double range."""
    try:
        return fn(exponent)
    except OverflowError:
        raise PrecisionLossError(
            f"{fn.__name__}({exponent!r}) exceeds the double-precision range"
        ) from None


def closed_form(
    scheme: str, twist_times_tau: float, sensing_fraction: float
) -> float:
    """Infinite-N sensitivity of one scheme at one sensing fraction.

    Scheme A is the constant benchmark 1. Scheme C keeps a removable
    singularity at zero twist (two diverging terms cancel); that point is
    rejected here and served by ``closed_form_c_small_twist`` instead.
    """
    _check_point(scheme, twist_times_tau, sensing_fraction)
    _check_regular(scheme, twist_times_tau)
    s = sensing_fraction
    x = twist_times_tau
    if scheme == "A":
        return 1.0
    if scheme == "B":
        return s * _growth(exp, 2.0 * x * (1.0 - s))
    if scheme == "C":
        half = 1.0 / (2.0 * x)
        return (s + half) * _growth(exp, 2.0 * x * (1.0 - s)) - half
    if scheme == "Bprime":
        return x * s * (1.0 - s) / 2.0
    return (x / 4.0) * (1.0 - s * s)


def closed_form_c_small_twist(
    twist_times_tau: float, sensing_fraction: float
) -> float:
    """Series of the scheme-C closed form around zero twist.

    1 + x (1 - s^2) + (2/3) x^2 (1 - s)^2 (2 s + 1) + O(x^3) with
    x = eta tau and s = t/tau. The zero-twist limit is exactly 1 for every
    sensing fraction: with no twisting but the field on throughout, the
    concurrent scheme degenerates to the separable benchmark.
    """
    _check_point("C", twist_times_tau, sensing_fraction)
    s = sensing_fraction
    x = twist_times_tau
    return 1.0 + x * (1.0 - s * s) + (2.0 / 3.0) * x * x * (1.0 - s) ** 2 * (
        2.0 * s + 1.0
    )


def closed_form_optimum(scheme: str, twist_times_tau: float) -> ClosedFormOptimum:
    """Maximum over the sensing fraction of the infinite-N closed form.

    B has two regimes: below twist 1/2 the whole budget goes to sensing
    (value 1, no advantage); above it the optimum sits at t/tau equal to
    1/(2 eta tau) with value exp(2 eta tau - 1)/(2 eta tau). C always
    prefers t/tau -> 0, value (exp(2 eta tau) - 1)/(2 eta tau). The echo
    pair peaks at t/tau = 1/2 (value chi tau / 8) for Bprime and at
    t/tau = 0 (value chi tau / 4) for Cprime.
    """
    _check_point(scheme, twist_times_tau)
    _check_regular(scheme, twist_times_tau)
    x = twist_times_tau
    if scheme == "A":
        return ClosedFormOptimum(value=1.0, t_opt=1.0)
    if scheme == "B":
        if x > 0.5:
            return ClosedFormOptimum(
                value=_growth(exp, 2.0 * x - 1.0) / (2.0 * x), t_opt=1.0 / (2.0 * x)
            )
        return ClosedFormOptimum(value=1.0, t_opt=1.0)
    if scheme == "C":
        return ClosedFormOptimum(value=_growth(expm1, 2.0 * x) / (2.0 * x), t_opt=0.0)
    if scheme == "Bprime":
        return ClosedFormOptimum(value=x / 8.0, t_opt=0.5)
    return ClosedFormOptimum(value=x / 4.0, t_opt=0.0)


def enhancement_ratio(eta_tau: float) -> float:
    """Optimized concurrent-over-sequential sensitivity ratio, infinite N.

    e (1 - exp(-2 eta tau)) above eta tau = 1/2, otherwise
    (exp(2 eta tau) - 1)/(2 eta tau); continuous at the branch point, at
    least 1 everywhere, and saturating at e from below for strong twisting.
    """
    if not isfinite(eta_tau) or eta_tau <= 0:
        raise ValueError(f"eta_tau must be finite and > 0, got {eta_tau!r}")
    if eta_tau > 0.5:
        return e * -expm1(-2.0 * eta_tau)
    return expm1(2.0 * eta_tau) / (2.0 * eta_tau)


def closed_form_point(
    scheme: str,
    twist_times_tau: float,
    sensing_fraction: float,
    include_optimum: bool = False,
) -> ClosedFormPoint:
    """Bundle one closed-form evaluation, optionally with its optimum."""
    value = closed_form(scheme, twist_times_tau, sensing_fraction)
    optimum = (
        closed_form_optimum(scheme, twist_times_tau) if include_optimum else None
    )
    return ClosedFormPoint(
        scheme=scheme,
        twist_times_tau=twist_times_tau,
        sensing_fraction=sensing_fraction,
        value=value,
        optimum=optimum,
    )


@lru_cache(maxsize=16)
def _annihilation(truncation_dim: int) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1, truncation_dim)), 1).astype(complex)
    a.setflags(write=False)
    return a


def vacuum_state(space: FockSpace) -> StateVector:
    amps = np.zeros(space.truncation_dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps)


def momentum_quadrature(space: FockSpace) -> ComplexOperator:
    """P = i(a - a^dag), the readout quadrature of the echo protocols."""
    a = _annihilation(space.truncation_dim)
    return ComplexOperator(1j * (a - a.conj().T), "hermitian")


@lru_cache(maxsize=64)
def fock_hamiltonian(space: FockSpace, kind: str, strength: float) -> ComplexOperator:
    """Bosonic image of one spin generator at dimensionless strength.

    field -> strength * P / 2, tat -> strength * i(a^2 - a^dag^2),
    oat -> strength * (a + a^dag)^2 / 4. These are exactly the large-N
    images of the spin generators under J-/sqrt(N) -> a, including the
    1/2 and 1/4 prefactors inherited from the spin normalization.
    """
    if kind not in HAMILTONIAN_KINDS:
        raise ValueError(
            f"unknown hamiltonian kind {kind!r}; expected one of {HAMILTONIAN_KINDS}"
        )
    if not isfinite(strength):
        raise ValueError(f"strength must be finite, got {strength!r}")
    a = _annihilation(space.truncation_dim)
    if kind == "field":
        mat = strength * 1j * (a - a.conj().T) / 2.0
    elif kind == "tat":
        a2 = a @ a
        mat = strength * 1j * (a2 - a2.conj().T)
    else:
        x = a + a.conj().T
        x2 = x @ x
        mat = strength * (x2 + x2.conj().T) / 8.0
    return ComplexOperator(mat, "hermitian")


def _check_tail(space: FockSpace, state: StateVector, stage: str) -> None:
    tail = float(np.sum(np.abs(state.amplitudes[-2:]) ** 2))
    if tail >= space.tail_tolerance:
        raise TruncationError(
            f"{stage} state carries population {tail:.3e} in the top two Fock "
            f"levels (truncation_dim={space.truncation_dim}, "
            f"tail_tolerance={space.tail_tolerance:.1e})"
        )


def fock_mode(space: FockSpace) -> Mode:
    """The truncated Fock mode: tail guard, P readout with vacuum spread 1."""
    return Mode(
        generator=partial(fock_hamiltonian, space),
        initial=vacuum_state(space),
        guard=partial(_check_tail, space),
        readout_operator=lambda: momentum_quadrature(space),
        spread=1.0,
        spread_tolerance=1e-6,
    )


def fock_simulate(
    scheme: str,
    twist_times_tau: float,
    sensing_fraction: float,
    space: FockSpace = FockSpace(),
) -> SensitivityRecord:
    """Recompute one infinite-N sensitivity by direct bosonic simulation.

    Runs the shared protocol pipelines at zero field on the truncated Fock
    mode, with exact derivatives throughout, and reports the same
    dimensionless figure of merit: Fisher information for A/B/C, error
    propagation on the P quadrature for the echo pair (whose zero-field
    spread is 1, asserted to 1e-6). Every normalized state along the way
    must pass the truncation tail check.
    """
    _check_point(scheme, twist_times_tau, sensing_fraction)
    return readout(fock_mode(space), scheme, twist_times_tau, sensing_fraction, None)
