"""The five time-budgeted sensing protocols and their exact field derivatives.

Builds the three generator types on a Dicke sector

  field   H_w   = w * Jy / sqrt(N)          (rotation by the unknown field)
  tat     H_eta = i eta (J-^2 - J+^2) / N    (two-axis twisting)
  oat     H_chi = chi Jx^2 / N               (one-axis twisting)

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

Each final state comes with the exact derivative of the state with respect
to the field, evaluated at zero field: analytic factors where the field
generator stands alone, the eigenbasis (Daleckii-Krein) propagator
derivative where it does not commute with the twisting. No finite
differences anywhere.

The pipelines are written once, in ``run_pipeline``, over a carrier
``Mode``: the Dicke sector here (``spin_mode``), a truncated Fock mode in
``bosonic_limit.fock_mode``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError
from .spin_core import (
    ComplexOperator,
    DickeSpace,
    StateVector,
    apply_operator,
    collective_operators,
    initial_state,
    propagate,
    propagate_with_derivative,
)

SCHEMES = ("A", "B", "C", "Bprime", "Cprime")
QFI_SCHEMES = ("A", "B", "C")
ECHO_SCHEMES = ("Bprime", "Cprime")
HAMILTONIAN_KINDS = ("field", "tat", "oat")


@dataclass(frozen=True)
class ProtocolConfig:
    """One fully determined protocol run.

    ``twist_strength`` is the dimensionless eta*tau (schemes B, C) or
    chi*tau (Bprime, Cprime) and is ignored by scheme A.
    ``sensing_fraction`` is t/tau; scheme A always senses for the whole
    budget regardless of it. ``omega`` is the scaled field, nonzero only
    for derivative cross-checks.
    """

    scheme: str
    n_spins: int
    twist_strength: float = 0.0
    sensing_fraction: float = 1.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if isinstance(self.n_spins, bool) or not isinstance(
            self.n_spins, (int, np.integer)
        ):
            raise ValueError(f"n_spins must be an integer, got {self.n_spins!r}")
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be >= 1, got {self.n_spins}")
        object.__setattr__(self, "n_spins", int(self.n_spins))
        for name in ("twist_strength", "sensing_fraction", "omega"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.twist_strength < 0:
            raise ValueError(
                f"twist_strength must be >= 0, got {self.twist_strength}"
            )
        if not 0.0 <= self.sensing_fraction <= 1.0:
            raise ValueError(
                f"sensing_fraction must lie in [0, 1], got {self.sensing_fraction}"
            )

    @property
    def space(self) -> DickeSpace:
        return DickeSpace(self.n_spins)


@dataclass(frozen=True, eq=False)
class SchemeState:
    """Final state of a protocol plus its exact zero-field derivative.

    ``psi`` is evaluated at the config's omega; ``dpsi`` is always the
    derivative with respect to omega at omega = 0 and is unnormalized.
    """

    psi: StateVector
    dpsi: StateVector

    def __post_init__(self) -> None:
        if self.psi.amplitudes.shape != self.dpsi.amplitudes.shape:
            raise DimensionMismatchError(
                f"psi and dpsi live in different spaces: "
                f"{self.psi.amplitudes.shape[0]} vs {self.dpsi.amplitudes.shape[0]}"
            )


@lru_cache(maxsize=64)
def hamiltonian(space: DickeSpace, kind: str, strength: float) -> ComplexOperator:
    """One of the three generators at the given dimensionless strength.

    The products below are arranged so the returned matrix is Hermitian
    exactly, not merely to roundoff: J-^2 is the exact transpose of J+^2
    and Jx^2 is symmetrized after the matmul.
    """
    if kind not in HAMILTONIAN_KINDS:
        raise ValueError(
            f"unknown hamiltonian kind {kind!r}; expected one of {HAMILTONIAN_KINDS}"
        )
    if not isfinite(strength):
        raise ValueError(f"strength must be finite, got {strength!r}")
    n = space.n_spins
    ops = collective_operators(space)
    if kind == "field":
        mat = (strength / sqrt(n)) * ops.Jy.matrix
    elif kind == "tat":
        jp2 = ops.Jplus.matrix @ ops.Jplus.matrix
        mat = 1j * strength * (jp2.conj().T - jp2) / n
    else:
        jx2 = ops.Jx.matrix @ ops.Jx.matrix
        mat = strength * (jx2 + jx2.conj().T) / (2 * n)
    return ComplexOperator(mat, "hermitian")


def _combined(H0: ComplexOperator, G: ComplexOperator, omega: float) -> ComplexOperator:
    """H0 + omega G, for building states at nonzero field."""
    return ComplexOperator(H0.matrix + omega * G.matrix, "hermitian")


@dataclass(frozen=True, eq=False)
class Mode:
    """The carrier the five pipelines run on: a Dicke sector or a Fock mode.

    ``generator(kind, strength)`` builds one of the HAMILTONIAN_KINDS and
    ``initial`` is the probe before any evolution. ``guard(state, stage)``
    vets each normalized state along the way (stages "initial",
    "post-twist", "post-echo") and raises if it cannot be trusted.
    ``readout_operator()`` is the echo readout; on the echoed zero-field
    state its spread must equal ``spread`` to within ``spread_tolerance``.
    """

    generator: Callable[[str, float], ComplexOperator]
    initial: StateVector
    guard: Callable[[StateVector, str], None]
    readout_operator: Callable[[], ComplexOperator]
    spread: float
    spread_tolerance: float


@lru_cache(maxsize=32)
def spin_mode(space: DickeSpace) -> Mode:
    """The Dicke sector: Jy readout with coherent spread sqrt(N)/2.

    The sector is complete, not truncated, so its guard has nothing to vet.
    Memoized per space, so a sweep builds its initial state once.
    """
    return Mode(
        generator=lambda kind, strength: hamiltonian(space, kind, strength),
        initial=initial_state(space),
        guard=lambda state, stage: None,
        readout_operator=lambda: collective_operators(space).Jy,
        spread=sqrt(space.n_spins) / 2.0,
        spread_tolerance=1e-9,
    )


def run_pipeline(
    mode: Mode,
    scheme: str,
    twist_strength: float,
    sensing_fraction: float,
    omega: float,
) -> SchemeState:
    """Final state and exact zero-field derivative of one protocol on a carrier.

    The derivative follows the product rule term by term. Writing
    D(t) = exp(-i t omega G) for the sensing rotation, dD/domega at 0 is
    -i t G; factors where omega rides along a twisting generator get the
    eigenbasis derivative of ``propagate_with_derivative`` instead. For
    Cprime both the twist and the untwist window contribute, because the
    echo reverses chi but not omega. The mode's guard sees the initial
    state, the twisted state and the echoed state.
    """
    G = mode.generator("field", 1.0)
    psi0 = mode.initial
    mode.guard(psi0, "initial")
    s = sensing_fraction
    w = omega

    if scheme == "A":
        # Sensing for the full budget; sensing_fraction does not enter.
        psi = propagate(G, w * 1.0, psi0)
        dpsi = apply_operator(G, psi0, prefactor=-1j)
        return SchemeState(psi=psi, dpsi=dpsi)

    if scheme == "B":
        H = mode.generator("tat", twist_strength)
        prep = propagate(H, 1.0 - s, psi0)
        mode.guard(prep, "post-twist")
        psi = propagate(G, w * s, prep)
        dpsi = apply_operator(G, prep, prefactor=-1j * s)
        return SchemeState(psi=psi, dpsi=dpsi)

    if scheme == "C":
        t_prime = 1.0 - s
        H = mode.generator("tat", twist_strength)
        phi, dphi = propagate_with_derivative(H, G, t_prime, psi0)
        mode.guard(phi, "post-twist")
        dpsi = StateVector(
            -1j * s * (G.matrix @ phi.amplitudes) + dphi.amplitudes,
            normalized=False,
        )
        if w == 0:
            psi = phi
        else:
            psi = propagate(G, w * s, propagate(_combined(H, G, w), t_prime, psi0))
        return SchemeState(psi=psi, dpsi=dpsi)

    if scheme == "Bprime":
        t_prime = (1.0 - s) / 2.0
        H = mode.generator("oat", twist_strength)
        prep = propagate(H, t_prime, psi0)
        mode.guard(prep, "post-twist")
        sensed = propagate(G, w * s, prep)
        # The echo is the inverse twist, exp(+i t' H), i.e. duration -t'.
        psi = propagate(H, -t_prime, sensed)
        mode.guard(psi, "post-echo")
        dpsi = propagate(H, -t_prime, apply_operator(G, prep, prefactor=-1j * s))
        return SchemeState(psi=psi, dpsi=dpsi)

    if scheme == "Cprime":
        t_prime = (1.0 - s) / 2.0
        H_plus = mode.generator("oat", twist_strength)
        H_minus = mode.generator("oat", -twist_strength)
        phi1, dphi1 = propagate_with_derivative(H_plus, G, t_prime, psi0)
        mode.guard(phi1, "post-twist")
        phi2, dphi2 = propagate_with_derivative(H_minus, G, t_prime, phi1)
        if w == 0:
            psi = phi2
        else:
            stage1 = propagate(_combined(H_plus, G, w), t_prime, psi0)
            stage2 = propagate(G, w * s, stage1)
            psi = propagate(_combined(H_minus, G, w), t_prime, stage2)
        mode.guard(psi, "post-echo")
        inner = StateVector(
            -1j * s * (G.matrix @ phi1.amplitudes) + dphi1.amplitudes,
            normalized=False,
        )
        dpsi = StateVector(
            dphi2.amplitudes + propagate(H_minus, t_prime, inner).amplitudes,
            normalized=False,
        )
        return SchemeState(psi=psi, dpsi=dpsi)

    raise ContractViolationError(f"unreachable scheme {scheme!r}")


def final_state(cfg: ProtocolConfig) -> SchemeState:
    """Final state and exact zero-field derivative for one spin protocol run."""
    return run_pipeline(
        spin_mode(cfg.space), cfg.scheme, cfg.twist_strength, cfg.sensing_fraction,
        cfg.omega,
    )
