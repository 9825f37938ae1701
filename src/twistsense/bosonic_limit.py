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
  generators, the vacuum and a truncation-tail guard). Its
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
from math import e, exp, expm1, isfinite, log
from numbers import Real
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimensionError, PrecisionLossError, TruncationError
from .metrology import SCHEME_METHOD, SensitivityRecord, readout
from .protocols import Mode, check_point, check_twist, ladder_generators
from .spin_core import BandedOperator, StateVector


# A Fock simulation is rejected whenever any of its normalized states
# carries population at or above this in the top two levels; a result that
# leaks into the truncation edge is not trustworthy.
TAIL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space for the infinite-N simulator: the
    vacuum and the ``truncation_dim`` - 1 levels above it."""

    truncation_dim: int = 400

    def __post_init__(self) -> None:
        d = self.truncation_dim
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise InvalidDimensionError(
                f"truncation_dim must be an integer, got {d!r}"
            )
        if d < 2:
            raise InvalidDimensionError(f"truncation_dim must be >= 2, got {d}")
        object.__setattr__(self, "truncation_dim", int(d))


class ClosedFormOptimum(NamedTuple):
    value: float
    t_opt: float


def _exponent(twist_times_tau: float, span: float) -> float:
    """The growth exponent 2 x span of twist x over a span of the budget.

    Doubled last, so a zero span gives exactly 0 at any twist; doubling is
    exact, so ordinary twists keep every bit. A non-finite exponent is
    refused: exp would return inf without raising.
    """
    y = 2.0 * (twist_times_tau * span)
    if not isfinite(y):
        raise PrecisionLossError(
            f"twist {twist_times_tau!r} puts the growth exponent beyond the "
            "double-precision range"
        )
    return y


def _growth(fn, exponent: float) -> float:
    """exp or expm1 of a twist exponent, refused past the double range."""
    try:
        return fn(exponent)
    except OverflowError:
        raise PrecisionLossError(
            f"{fn.__name__}({exponent!r}) exceeds the double-precision range"
        ) from None


def _growth_times(factor: float, exponent: float) -> float:
    """factor * exp(exponent) for factor > 0, also where exp overflows.

    Past the exp range the product can still be a finite double; it is then
    computed as exp(exponent + log(factor)), good to about 1e-13 relative.
    Below the range it is factor * exp(exponent), as it always was.
    """
    try:
        return factor * exp(exponent)
    except OverflowError:
        return _growth(exp, exponent + log(factor))


def _growth_over(fn, exponent: float, divisor: float) -> float:
    """fn(exponent) / divisor for fn exp or expm1, also where fn overflows.

    Past the exp range (exponent above about 709.78) the quotient can still
    be a finite double; it is then computed as exp(exponent - log(divisor)),
    good to about 1e-13 relative (the roundoff of an exponent near 700);
    expm1 equals exp there to full precision. Below the range the quotient
    is fn(exponent) / divisor, as it always was.
    """
    try:
        return fn(exponent) / divisor
    except OverflowError:
        return _growth(exp, exponent - log(divisor))


def closed_form(
    scheme: str, twist_times_tau: float, sensing_fraction: float
) -> float:
    """Infinite-N sensitivity of one scheme at one sensing fraction.

    Scheme A is the constant benchmark 1. Scheme C's textbook form has a
    removable singularity at zero twist (two diverging terms cancel); it is
    evaluated in a form that is regular there, and exactly 1 at zero twist.
    """
    check_point(scheme, twist_times_tau, sensing_fraction)
    s = sensing_fraction
    x = twist_times_tau
    if scheme == "A":
        return 1.0
    if scheme == "B":
        # No sensing time, no signal: 0 even where the growth overflows.
        return 0.0 if s == 0.0 else _growth_times(s, _exponent(x, 1.0 - s))
    if scheme == "C":
        # (s + 1/2x) e^y - 1/2x with y = 2x(1 - s), written without the
        # cancellation of the two 1/2x terms that loses every digit at
        # small twist: s e^y + (1 - s) expm1(y) / y, whose last factor is 1
        # at y = 0.
        y = _exponent(x, 1.0 - s)
        grown = 0.0 if s == 0.0 else _growth_times(s, y)
        return grown + (1.0 - s) * (1.0 if y == 0.0 else _growth_over(expm1, y, y))
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
    check_point("C", twist_times_tau, sensing_fraction)
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
    prefers t/tau -> 0, value (exp(2 eta tau) - 1)/(2 eta tau); at zero
    twist every t/tau gives 1, and t/tau = 0 is the limit from positive
    twist. The echo pair peaks at t/tau = 1/2 (value chi tau / 8) for
    Bprime and at t/tau = 0 (value chi tau / 4) for Cprime.
    """
    check_twist(scheme, twist_times_tau)
    x = twist_times_tau
    if scheme == "A":
        return ClosedFormOptimum(value=1.0, t_opt=1.0)
    if scheme == "B":
        if x > 0.5:
            y = _exponent(x, 1.0)
            return ClosedFormOptimum(value=_growth_over(exp, y - 1.0, y), t_opt=1.0 / y)
        return ClosedFormOptimum(value=1.0, t_opt=1.0)
    if scheme == "C":
        y = _exponent(x, 1.0)
        value = 1.0 if y == 0.0 else _growth_over(expm1, y, y)
        return ClosedFormOptimum(value=value, t_opt=0.0)
    if scheme == "Bprime":
        return ClosedFormOptimum(value=x / 8.0, t_opt=0.5)
    return ClosedFormOptimum(value=x / 4.0, t_opt=0.0)


def enhancement_ratio(eta_tau: float) -> float:
    """Optimized concurrent-over-sequential sensitivity ratio, infinite N.

    e (1 - exp(-2 eta tau)) above eta tau = 1/2, otherwise
    (exp(2 eta tau) - 1)/(2 eta tau); continuous at the branch point, at
    least 1 everywhere, and saturating at e from below for strong twisting.
    """
    x = eta_tau
    if isinstance(x, bool) or not (isinstance(x, Real) and isfinite(x) and x > 0):
        raise ValueError(
            f"eta_tau must be a finite real number > 0, got {eta_tau!r}"
        )
    if eta_tau > 0.5:
        return e * -expm1(-2.0 * eta_tau)
    return expm1(2.0 * eta_tau) / (2.0 * eta_tau)


def _check_tail(space: FockSpace, state: StateVector, stage: str) -> None:
    """Refuse a state, or any column of a block, that leaks into the top two
    levels; a block of no columns has nothing to refuse."""
    tail = float(np.sum(np.abs(state.amplitudes[-2:]) ** 2, axis=0).max(initial=0.0))
    if not tail < TAIL_TOLERANCE:
        raise TruncationError(
            f"{stage} state carries population {tail:.3e} in the top two Fock "
            f"levels (truncation_dim={space.truncation_dim}, "
            f"tail_tolerance={TAIL_TOLERANCE:.1e})"
        )


@lru_cache(maxsize=32)
def fock_mode(space: FockSpace) -> Mode:
    """The truncated Fock mode: the vacuum, the probe of both twist kinds,
    and a tail guard.

    Its generators, built from the bands of a (``ladder_generators``, norm
    1, for the first two), are the large-N images of the unit-strength spin
    generators under J-/sqrt(N) -> a: field -> P / 2 with P = i(a - a^dag),
    tat -> i(a^2 - a^dag^2) and oat -> X^2 with X = (a + a^dag) / 2, with
    the 1/2 and 1/4 of the spin normalization. X^2 is the product of the
    matrices as stored: diagonal (k + (k + 1)) / 4, except the top entry,
    which the truncation leaves with k / 4 alone, and offset-2 band
    sqrt((k + 1)(k + 2)) / 4. A strength enters as the propagation
    angle. The echo is read out along P / 2, whose vacuum spread is 1/2;
    the gate, 5e-7, is 1e-6 on the scale of P. Memoized per space, as
    ``spin_mode`` is, so a sweep shares one vacuum and one eigensystem per
    generator.
    """
    d = space.truncation_dim
    lowering = np.sqrt(np.arange(1, d))  # <k| a |k+1> = sqrt(k + 1)
    square = np.zeros(d)
    square[1:] += lowering**2
    square[:-1] += lowering**2
    generators = ladder_generators(lowering, 1.0)
    generators["oat"] = BandedOperator.hermitian(
        d, {2: lowering[:-1] * lowering[1:] / 4.0}, diagonal=square / 4.0
    )
    vacuum = np.zeros(d)
    vacuum[0] = 1.0
    return Mode(
        generators=MappingProxyType(generators),
        probes=MappingProxyType(dict.fromkeys(("tat", "oat"), StateVector(vacuum))),
        guard=partial(_check_tail, space),
        spread_tolerance=5e-7,
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
    propagation along the field generator P / 2 for the echo pair (whose
    zero-field spread is 1/2, asserted to 5e-7). Every normalized state
    along the way must pass the truncation tail check.
    """
    check_point(scheme, twist_times_tau, sensing_fraction)
    x, s = float(twist_times_tau), float(sensing_fraction)
    (value,) = readout(fock_mode(space), scheme, x, [s]).tolist()
    return SensitivityRecord(scheme, None, x, s, value, SCHEME_METHOD[scheme])
