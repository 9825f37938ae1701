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
with it on, and A is B sensing for the whole budget. The one-axis
schemes run in the twist's own frame, where Jx^2 / N is the diagonal
m^2 / N, G is the same operator and the probe is the x-polarized
coherent state (``spin_mode``); so they solve no eigensystem.

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

from .spin_core import (
    BandedOperator,
    DickeSpace,
    StateVector,
    StateWithDerivative,
    _built,
    apply_generator,
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
    if isinstance(x, bool) or not (isinstance(x, Real) and isfinite(x) and x >= 0):
        raise ValueError(
            f"twist_times_tau must be a finite real number >= 0, got {x!r}"
        )


def _twist_columns(scheme: str, twist_strength, sensing_fraction: np.ndarray):
    """The twist of a pipeline call, checked: a scalar as ``check_twist``
    checks it, or an array (or list) of one twist per column, which must be
    one-dimensional, real (not bool), finite and >= 0, and broadcast with
    the sensing fractions."""
    if not isinstance(twist_strength, (np.ndarray, list, tuple)):
        check_twist(scheme, twist_strength)
        return twist_strength
    x = np.asarray(twist_strength)
    valid = x.ndim == 1 and x.dtype.kind in "iuf"
    if not (valid and np.all(np.isfinite(x) & (x >= 0))):
        raise ValueError(
            "twist_strength must be a finite real number >= 0 or a "
            f"one-dimensional array of them, got {twist_strength!r}"
        )
    try:
        np.broadcast_shapes(x.shape, sensing_fraction.shape)
    except ValueError:
        raise ValueError(
            f"{x.size} twist strengths do not broadcast with "
            f"{sensing_fraction.size} sensing fractions"
        ) from None
    return x.astype(float, copy=False)


def check_point(scheme: str, twist_times_tau: float, sensing_fraction: float) -> None:
    """``check_twist`` and the sensing fraction of one (scheme, twist, t/tau)
    point."""
    check_twist(scheme, twist_times_tau)
    s = sensing_fraction
    if isinstance(s, bool) or not (isinstance(s, Real) and 0.0 <= s <= 1.0):
        raise ValueError(f"sensing_fraction must be a real number in [0, 1], got {s!r}")


@dataclass(frozen=True, eq=False)
class Mode:
    """The carrier the five pipelines run on: a Dicke sector or a Fock mode.

    ``generators`` holds the field, tat and oat generators at unit
    strength, each memoizing its own eigensystem, and ``probes`` holds, by
    twist kind ("tat", "oat"), the probe a scheme of that kind starts from.
    A carrier may write each kind in its own basis, so long as the field
    generator is the same operator in both: the Dicke sector writes the
    one-axis twist in the frame where it is diagonal (``spin_mode``).
    ``guard(state, stage)`` vets each normalized state along the way
    (stages "initial", "post-twist", "post-echo") and raises if it cannot
    be trusted. The field generator is also the echo readout; on the
    echoed zero-field state its spread must be 1/2, its value on the probe,
    to within ``spread_tolerance``.
    """

    generators: Mapping[str, BandedOperator]
    probes: Mapping[str, StateVector]
    guard: Callable[[StateVector, str], None]
    spread_tolerance: float


def ladder_generators(lowering: np.ndarray, norm: float) -> dict[str, BandedOperator]:
    """The field and tat generators, built in O(d) from a lowering
    operator, once for the mode that holds them; each mode adds its own
    oat generator, in the basis it runs the one-axis schemes in.

    ``lowering`` holds l_k = <k| L |k+1>, the one band of the lowering
    operator L: J- on a Dicke sector (``norm`` N) or the annihilation
    operator a on a Fock mode (``norm`` 1). The unit-strength generators
    are

      field  i (L - L^dag) / (2 sqrt(norm)): upper band i l_k / (2 sqrt(norm)),
      tat    i (L^2 - L^dag^2) / norm: offset-2 band i l_k l_{k+1} / norm.

    The lower bands are the exact conjugates of the upper ones
    (``BandedOperator.hermitian``), so each result is Hermitian exactly.
    """
    d = len(lowering) + 1
    # Divided last: (0.5 / sqrt(N)) * sqrt(N) rounds to 0.49999999999999994
    # at some N, so the separable benchmark would read 1 - 1.1e-16 there.
    field = BandedOperator.hermitian(d, {1: 1j * (0.5 * lowering / sqrt(norm))})
    tat = BandedOperator.hermitian(d, {2: 1j * (lowering[:-1] * lowering[1:]) / norm})
    return {"field": field, "tat": tat}


@lru_cache(maxsize=32)
def spin_mode(space: DickeSpace) -> Mode:
    """The Dicke sector, read out along its field generator Jy / sqrt(N).

    Its field and two-axis generators are Jy / sqrt(N) and
    i (J-^2 - J+^2) / N in the Jz basis, built from the bands of J- by
    ``ladder_generators``, and two-axis schemes start from |j, -j>. The
    one-axis schemes run in the twist's own frame, where a state psi of the
    Jz basis is R psi with R = exp(i (pi / 2) Jy): there Jx^2 / N is the
    diagonal m^2 / N, Jy / sqrt(N) is the same banded operator, and the
    probe R |j, -j> is the x-polarized coherent state, with the amplitudes
    sqrt(C(N, k)) / 2^(N/2) (Kitagawa & Ueda, PRA 47, 5138, 1993). The echo
    reads out along the field, which R leaves as it is, so its sensitivity
    is the same number in either basis, and no one-axis eigensystem is ever
    solved. A strength
    is part of the propagation angle. The echo spread gate, 1e-9 / sqrt(N),
    is 1e-9 on the scale of Jy. The sector is complete, not truncated, so
    its guard has nothing to vet. Memoized per space, so a sweep builds its
    probes and generators once, and each eigensystem lives as long as the
    mode.
    """
    n = space.n_spins
    m = space.m_values()
    generators = ladder_generators(space.ladder_elements(), n)
    generators["oat"] = BandedOperator.hermitian(space.dim, {}, diagonal=m * m / n)
    # log(a_{k+1} / a_k) = log((N - k) / (k + 1)) / 2, summed outward from
    # the largest amplitude, a_{N // 2} = 1 before normalizing. Against the
    # exact binomials (``validate.plus_state``) every amplitude above 1e-3
    # of the largest is within 2.7e-15 relative up to N = 10^4, where a
    # log-gamma form, a difference of terms near N log N, loses 1.1e-12 at
    # N = 2000 and 8.5e-12 at N = 10^4.
    steps = 0.5 * np.log((n - np.arange(n)) / np.arange(1.0, n + 1))
    half = n // 2
    logs = np.zeros(space.dim)
    logs[half + 1 :] = np.cumsum(steps[half:])
    logs[:half] = -np.cumsum(steps[:half][::-1])[::-1]
    coherent = np.exp(logs)
    coherent /= np.sqrt(coherent @ coherent)
    return Mode(
        generators=MappingProxyType(generators),
        probes=MappingProxyType(
            {"tat": initial_state(space), "oat": StateVector(coherent)}
        ),
        guard=lambda state, stage: None,
        spread_tolerance=1e-9 / sqrt(n),
    )


def run_pipeline(
    mode: Mode,
    scheme: str,
    twist_strength,
    sensing_fraction,
) -> StateWithDerivative:
    """Final states and exact zero-field derivatives of one protocol on a carrier.

    ``sensing_fraction`` is one t/tau, giving (d,) states, or a 1-D array of
    K of them, giving (d, K) blocks with one column per sensing fraction.
    ``twist_strength`` is one twist for every column or a 1-D array of one
    per column, broadcast with the sensing fractions, so one call holds a
    whole curve or the curves of several twists side by side; a twist is
    checked as ``check_twist`` checks it, and a ValueError refuses an array
    that is not 1-D, holds a bool, negative or non-finite entry, or does
    not broadcast. Every stage turns all K columns at once, each through
    its own angle (see ``spin_core.propagate``), and the mode's guard sees
    every column.

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

    The probes are real, and the field and two-axis generators are i times
    real antisymmetric matrices, so A and B run in real arithmetic
    (``spin_core.propagate``, ``spin_core.apply_generator``): their psi and
    dpsi are float64 blocks. C (whose concurrent derivative is complex),
    Bprime and Cprime (whose one-axis twist, real symmetric, turns the
    amplitudes by complex phases) are complex. On a Dicke sector the
    one-axis twist is diagonal (``spin_mode``), so Bprime and Cprime turn
    each amplitude by its phase and solve no eigensystem.
    """
    kind, echo, concurrent = SHAPES[scheme]
    G = mode.generators["field"]
    H = mode.generators[kind]
    psi0 = mode.probes[kind]
    mode.guard(psi0, "initial")
    s = np.asarray(sensing_fraction, dtype=float)
    x = _twist_columns(scheme, twist_strength, s)
    if scheme == "A":
        s = np.ones_like(s)  # A senses for the whole budget
    t = (1.0 - s) / 2.0 if echo else 1.0 - s

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
    dpsi = _plus(apply_generator(G, psi, s), term)
    if echo:
        psi, term = window(-1.0, psi)
        mode.guard(psi, "post-echo")
        dpsi = _plus(propagate(H, -x * t, dpsi), term)
    return StateWithDerivative(psi, dpsi)


def _plus(dpsi: StateVector, term: np.ndarray | None) -> StateVector:
    """dpsi plus a concurrent window's derivative term, if the window has
    one; adding zeros instead would turn -0.0 amplitudes into 0.0. The term
    is a block ``window`` has just built, so the sum is taken in it and it
    becomes the state's amplitudes uncopied."""
    if term is None:
        return dpsi
    term += dpsi.amplitudes
    return _built(term, normalized=False)

