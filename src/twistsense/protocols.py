"""The five time-budgeted sensing protocols and their exact field derivatives.

Builds the three generator types on a Dicke sector at unit strength

  field   G = Jy / sqrt(N)         (rotated through the angle omega t)
  tat     H = i (J-^2 - J+^2) / N   (two-axis twisting, angle eta t)
  oat     H = Jx^2 / N              (one-axis twisting, angle chi t)

and composes them, reading operator products right to left, into the final
states of five protocols sharing one total time budget tau (fixed to 1
internally, so every input is dimensionless):

  A       field exposure for the whole budget, no preparation,
  B       two-axis twisting for tau - t, then field exposure for t,
  C       twisting with the field on for tau - t, then field alone for t,
  Bprime  one-axis twisting for (tau - t)/2, field for t, then the
          inverse twist for (tau - t)/2 as an echo before readout,
  Cprime  as Bprime but with the field also on during twist and untwist
          (the echo reverses the twisting only, never the field).

A scheme is its shape, one ``SHAPES`` entry: the twist kind, whether an
echo untwists before readout, and whether the field rides along the
twist. So C is B with the field on during the twist, Cprime is Bprime
with it on, and A is B sensing for the whole budget.

Every number is read at zero field, so the states are built at omega = 0
only. Each comes with the exact derivative of the state with respect to
the field there: analytic factors where the field generator stands alone,
the eigenbasis (Daleckii-Krein) propagator derivative where it does not
commute with the twisting. No finite differences anywhere; the dense
reference in ``validate`` checks both against the definitions above.

The pipelines are written once, in ``run_pipeline``, over a carrier
``Mode``: the Dicke sector here (``spin_mode``), a truncated Fock mode in
``bosonic_limit.fock_mode``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, sqrt
from numbers import Real
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError
from .spin_core import (
    BandedOperator,
    DickeSpace,
    StateVector,
    _built,
    apply_operator,
    initial_state,
    propagate,
    propagate_with_derivative,
)

# scheme: (twist kind, echo, concurrent). The one place that says which
# schemes echo and where the field rides along the twist.
SHAPES = {
    "A": ("tat", False, False),
    "B": ("tat", False, False),
    "C": ("tat", False, True),
    "Bprime": ("oat", True, False),
    "Cprime": ("oat", True, True),
}
SCHEMES = tuple(SHAPES)


def check_twist(scheme: str, twist_times_tau: float) -> None:
    """The argument checks of one (scheme, twist) curve, shared by every
    engine, the closed forms and the Fock simulator."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    x = twist_times_tau
    if not (isinstance(x, Real) and isfinite(x) and x >= 0):
        raise ValueError(
            f"twist_times_tau must be a finite real number >= 0, got {x!r}"
        )


def check_point(scheme: str, twist_times_tau: float, sensing_fraction: float) -> None:
    """``check_twist`` and the sensing fraction of one (scheme, twist, t/tau)
    point."""
    check_twist(scheme, twist_times_tau)
    s = sensing_fraction
    if not (isinstance(s, Real) and 0.0 <= s <= 1.0):
        raise ValueError(f"sensing_fraction must be a real number in [0, 1], got {s}")


@dataclass(frozen=True, eq=False)
class SchemeState:
    """Final state of a protocol at zero field plus its exact derivative.

    ``dpsi`` is the derivative of ``psi`` with respect to the field omega
    at omega = 0 and is unnormalized.
    """

    psi: StateVector
    dpsi: StateVector

    def __post_init__(self) -> None:
        if self.psi.amplitudes.shape != self.dpsi.amplitudes.shape:
            raise DimensionMismatchError(
                f"psi and dpsi live in different spaces: "
                f"{self.psi.amplitudes.shape[0]} vs {self.dpsi.amplitudes.shape[0]}"
            )


@dataclass(frozen=True, eq=False)
class Mode:
    """The carrier the five pipelines run on: a Dicke sector or a Fock mode.

    ``generators`` holds the field, tat and oat generators at unit
    strength, each memoizing its own eigensystem, and ``initial`` is the
    probe before any evolution. ``guard(state, stage)`` vets each
    normalized state along the way (stages "initial", "post-twist",
    "post-echo") and raises if it cannot be trusted. The field generator is
    also the echo readout; on the echoed zero-field state its spread must
    be 1/2, its value on the probe, to within ``spread_tolerance``.
    """

    generators: Mapping[str, BandedOperator]
    initial: StateVector
    guard: Callable[[StateVector, str], None]
    spread_tolerance: float


def ladder_generators(
    lowering: np.ndarray, norm: float
) -> Mapping[str, BandedOperator]:
    """The field, tat and oat generators, built in O(d) from a lowering
    operator, once for the mode that holds them.

    ``lowering`` holds l_k = <k| L |k+1>, the one band of the lowering
    operator L: J- on a Dicke sector (``norm`` N) or the annihilation
    operator a on a Fock mode (``norm`` 1). With X = (L + L^dag) / 2 the
    unit-strength generators are

      field  i (L - L^dag) / (2 sqrt(norm)): upper band i l_k / (2 sqrt(norm)),
      tat    i (L^2 - L^dag^2) / norm: offset-2 band i l_k l_{k+1} / norm,
      oat    X^2 / norm: diagonal (l_{k-1}^2 + l_k^2) / (4 norm) and
             offset-2 band l_k l_{k+1} / (4 norm).

    X^2 is the product of the matrices as stored, so on a truncated Fock
    space its top diagonal entry has only the l_{k-1}^2 term. The lower
    bands are the exact conjugates of the upper ones
    (``BandedOperator.hermitian``), so each result is Hermitian exactly.
    """
    d = len(lowering) + 1
    pairs = lowering[:-1] * lowering[1:]
    square = np.zeros(d)
    square[1:] += lowering**2
    square[:-1] += lowering**2
    # Divided last: (0.5 / sqrt(N)) * sqrt(N) rounds to 0.49999999999999994
    # at some N, so the separable benchmark would read 1 - 1.1e-16 there.
    field = BandedOperator.hermitian(d, {1: 1j * (0.5 * lowering / sqrt(norm))})
    tat = BandedOperator.hermitian(d, {2: 1j * pairs / norm})
    oat = BandedOperator.hermitian(
        d, {2: (pairs / 4.0) / norm}, diagonal=(square / 4.0) / norm
    )
    return MappingProxyType({"field": field, "tat": tat, "oat": oat})


@lru_cache(maxsize=32)
def spin_mode(space: DickeSpace) -> Mode:
    """The Dicke sector, read out along its field generator Jy / sqrt(N).

    Its generators are Jy / sqrt(N), i (J-^2 - J+^2) / N and Jx^2 / N,
    built from the bands of J- by ``ladder_generators``; a strength is part
    of the propagation angle. The echo spread gate, 1e-9 / sqrt(N), is
    1e-9 on the scale of Jy. The sector is complete, not truncated, so its
    guard has nothing to vet. Memoized per space, so a sweep builds its
    initial state and generators once, and each eigensystem lives as long
    as the mode.
    """
    return Mode(
        generators=ladder_generators(space.ladder_elements(), space.n_spins),
        initial=initial_state(space),
        guard=lambda state, stage: None,
        spread_tolerance=1e-9 / sqrt(space.n_spins),
    )


def run_pipeline(
    mode: Mode,
    scheme: str,
    twist_strength: float,
    sensing_fraction,
) -> SchemeState:
    """Final states and exact zero-field derivatives of one protocol on a carrier.

    ``sensing_fraction`` is one t/tau, giving (d,) states, or a 1-D array of
    K of them, giving (d, K) blocks with one column per sensing fraction:
    the whole curve of one twist in one call. Every stage turns all K
    columns at once, each through its own angle (see
    ``spin_core.propagate``), and the mode's guard sees every column.

    Every scheme is one pass over the windows of its ``SHAPES`` entry:
    twist for t', sense for s, and, with an echo, untwist for t', where
    t' = 1 - s, or (1 - s)/2 with an echo. Scheme A is B sensing for the
    whole budget (s = 1, so its twist angle is exactly 0). A twist x for a
    time t' turns the unit generator H through x t'. At zero field the
    sensing window is the identity. The derivative follows the product
    rule window by window. Writing D(s) = exp(-i s omega G) for the sensing
    rotation, dD/domega at 0 is -i s G; a concurrent window, where omega
    rides along the twist, adds t' times the eigenbasis derivative of
    ``propagate_with_derivative``. The echo reverses the twist but not
    omega, so a concurrent untwist contributes too. The mode's guard sees
    the initial state, the twisted state and the echoed state.
    """
    kind, echo, concurrent = SHAPES[scheme]
    G = mode.generators["field"]
    H = mode.generators[kind]
    psi0 = mode.initial
    mode.guard(psi0, "initial")
    s = np.asarray(sensing_fraction, dtype=float)
    if scheme == "A":
        s = np.ones_like(s)  # A senses for the whole budget
    t = (1.0 - s) / 2.0 if echo else 1.0 - s
    x = twist_strength

    def window(
        sign: float, state: StateVector
    ) -> tuple[StateVector, np.ndarray | None]:
        """Twist (sign 1) or untwist (sign -1) for t', with t' times the
        field derivative when the field rides along."""
        if not concurrent:
            return propagate(H, sign * x * t, state), None
        phi, dphi = propagate_with_derivative(H, G, sign * x * t, state)
        return phi, t * dphi.amplitudes

    psi, term = window(1.0, psi0)
    mode.guard(psi, "post-twist")
    dpsi = _plus(apply_operator(G, psi, prefactor=-1j * s), term)
    if echo:
        psi, term = window(-1.0, psi)
        mode.guard(psi, "post-echo")
        dpsi = _plus(propagate(H, -x * t, dpsi), term)
    return SchemeState(psi=psi, dpsi=dpsi)


def _plus(dpsi: StateVector, term: np.ndarray | None) -> StateVector:
    """dpsi plus a concurrent window's derivative term, if the window has
    one; adding zeros instead would turn -0.0 amplitudes into 0.0. The term
    is a block ``window`` has just built, so the sum is taken in it and it
    becomes the state's amplitudes uncopied."""
    if term is None:
        return dpsi
    term += dpsi.amplitudes
    return _built(term, normalized=False)

