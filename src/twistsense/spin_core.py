"""Exact linear algebra on the symmetric (Dicke) sector of N spins.

Collective spin operators, basis states, Hermitian propagators, and exact
parameter derivatives of propagators. Everything is dense double precision:
the symmetric sector of N spin-1/2 particles is only (N + 1)-dimensional, so
eigendecomposition-based exponentials are essentially exact and stay cheap
up to a few thousand spins.

Conventions:

* basis index k in [0, N] maps to the magnetic quantum number m = -j + k
  with j = N / 2, so amplitudes are stored in ascending m,
* collective operators use the standard angular-momentum normalization
  J_mu = (1/2) sum_i sigma_i^mu, i.e. Jz has eigenvalues -N/2 .. +N/2,
* hbar = 1 throughout; a propagator for generator H and duration d is
  exp(-i d H).

All public objects are immutable after construction and every operation is
a pure function of its inputs, so values can be shared freely across
threads. The only lazily computed piece of state is the memoized
eigendecomposition of an operator, which is idempotent and safe under
concurrent access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    InvalidDimensionError,
    PrecisionLossError,
)

# Tolerances for the construction-time operator and state checks. They sit
# one to two digits above double-precision accumulation for dim <= 2001.
HERMITICITY_RTOL = 1e-12
UNITARITY_ATOL = 1e-10
NORM_ATOL = 1e-10

OPERATOR_KINDS = ("hermitian", "unitary", "general")

# Largest |duration| * max|eigenvalue| a propagator accepts. A phase of size
# p carries an absolute roundoff of about p * 2.2e-16, so at 1e6 the phases,
# and every amplitude built from them, are still good to about 1e-10; far
# beyond it they are noise and the result would be a silently wrong number.
MAX_PHASE = 1e6


def _frozen_array(values) -> np.ndarray:
    """Copy input into an immutable complex array."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric sector of ``n_spins`` spin-1/2 particles.

    The sector has total spin j = n_spins / 2 and dimension n_spins + 1.
    """

    n_spins: int

    def __post_init__(self) -> None:
        n = self.n_spins
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise InvalidDimensionError(
                f"n_spins must be a positive integer, got {n!r}"
            )
        if n < 1:
            raise InvalidDimensionError(f"n_spins must be >= 1, got {n}")
        object.__setattr__(self, "n_spins", int(n))

    @property
    def j(self) -> float:
        return self.n_spins / 2

    @property
    def dim(self) -> int:
        return self.n_spins + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in storage order, -j .. +j."""
        return -self.j + np.arange(self.dim)


@dataclass(frozen=True, eq=False)
class ComplexOperator:
    """Dense complex square matrix tagged with its intended role.

    ``kind`` is one of "hermitian", "unitary", "general"; the first two are
    verified at construction time. Instances compare and hash by identity
    (the payload is an array), and the matrix itself is read-only.
    """

    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self) -> None:
        mat = _frozen_array(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidDimensionError(
                f"operator must be a square matrix, got shape {mat.shape}"
            )
        object.__setattr__(self, "matrix", mat)
        if self.kind not in OPERATOR_KINDS:
            raise ContractViolationError(f"unknown operator kind {self.kind!r}")
        if self.kind == "hermitian":
            defect = np.abs(mat - mat.conj().T).max()
            bound = HERMITICITY_RTOL * max(np.abs(mat).max(), 0.0)
            if defect > bound:
                raise ContractViolationError(
                    f"operator tagged hermitian has |A - A^dag| = {defect:.3e} "
                    f"exceeding {bound:.3e}"
                )
        elif self.kind == "unitary":
            defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
            if defect > UNITARITY_ATOL:
                raise ContractViolationError(
                    f"operator tagged unitary has |A^dag A - I| = {defect:.3e} "
                    f"exceeding {UNITARITY_ATOL:.1e}"
                )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of a Hermitian operator, memoized."""
        if self.kind != "hermitian":
            raise ContractViolationError(
                "eigensystem is only defined for hermitian operators"
            )
        evals, evecs = np.linalg.eigh(self.matrix)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector in the Dicke (or Fock) basis.

    ``normalized=True`` asserts unit norm at construction; derivative
    vectors carry ``normalized=False`` and skip the check.
    """

    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        amps = _frozen_array(self.amplitudes)
        if amps.ndim != 1:
            raise InvalidDimensionError(
                f"state amplitudes must be one-dimensional, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized:
            norm = np.linalg.norm(amps)
            if abs(norm - 1.0) > NORM_ATOL:
                raise ContractViolationError(
                    f"state tagged normalized has norm {norm!r}"
                )

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class CollectiveOperators(NamedTuple):
    Jx: ComplexOperator
    Jy: ComplexOperator
    Jz: ComplexOperator
    Jplus: ComplexOperator
    Jminus: ComplexOperator


@lru_cache(maxsize=32)
def collective_operators(space: DickeSpace) -> CollectiveOperators:
    """Collective spin operators on the Dicke sector of ``space``.

    Matrix elements follow the standard ladder convention
    J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>, Jz|j,m> = m|j,m>,
    Jx = (J+ + J-)/2, Jy = (J+ - J-)/(2i). Results are memoized per space;
    all returned operators are immutable.
    """
    j = space.j
    m = space.m_values()
    # <m+1| J+ |m> on the first subdiagonal (storage is ascending m).
    off = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.diag(off, -1).astype(complex)
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    jz = np.diag(m).astype(complex)
    return CollectiveOperators(
        Jx=ComplexOperator(jx, "hermitian"),
        Jy=ComplexOperator(jy, "hermitian"),
        Jz=ComplexOperator(jz, "hermitian"),
        Jplus=ComplexOperator(jp, "general"),
        Jminus=ComplexOperator(jm, "general"),
    )


def initial_state(space: DickeSpace) -> StateVector:
    """The all-spins-down coherent state, the m = -j basis vector."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps)


def plus_state(space: DickeSpace) -> StateVector:
    """The maximal Jx eigenstate, all spins along +x.

    Built binomially: the amplitude at index k is sqrt(C(N, k)) / 2^(N/2),
    evaluated in log space so large N neither overflows nor underflows.
    """
    n = space.n_spins
    k = np.arange(space.dim)
    log_amp = 0.5 * (
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    ) - 0.5 * n * np.log(2.0)
    amps = np.exp(log_amp).astype(complex)
    amps /= np.linalg.norm(amps)
    return StateVector(amps)


def _require_hermitian(A: ComplexOperator, where: str) -> None:
    if A.kind != "hermitian":
        raise ContractViolationError(f"{where} requires a hermitian generator")


def _require_matching(A: ComplexOperator, psi: StateVector) -> None:
    if A.dim != psi.dim:
        raise DimensionMismatchError(
            f"operator dim {A.dim} does not match state dim {psi.dim}"
        )


def _phases(H: ComplexOperator, duration: float) -> np.ndarray:
    """exp(-i duration lambda) over the eigenvalues of H, refused past MAX_PHASE."""
    evals = H.eigensystem[0]
    phase = abs(duration) * max(abs(evals[0]), abs(evals[-1]))
    if not phase <= MAX_PHASE:
        raise PrecisionLossError(
            f"|duration| * max|eigenvalue| = {phase:.3e} exceeds {MAX_PHASE:.0e}; "
            "the propagator phases would be lost to roundoff"
        )
    return np.exp(-1j * duration * evals)


def propagate(H: ComplexOperator, duration: float, psi: StateVector) -> StateVector:
    """Apply exp(-i duration H) to ``psi`` via eigendecomposition.

    Exact up to roundoff for Hermitian H; the eigendecomposition is
    memoized on the operator, so repeated calls with different durations
    cost O(dim^2) each. Unnormalized inputs (derivative vectors) are
    propagated linearly and stay unnormalized. Raises PrecisionLossError
    when |duration| * max|eigenvalue| exceeds MAX_PHASE, as do
    ``propagator`` and ``propagate_with_derivative``.
    """
    _require_hermitian(H, "propagate")
    _require_matching(H, psi)
    if duration == 0:
        return psi
    evecs = H.eigensystem[1]
    out = evecs @ (_phases(H, duration) * (evecs.conj().T @ psi.amplitudes))
    return StateVector(out, normalized=psi.normalized)


def propagator(H: ComplexOperator, duration: float) -> ComplexOperator:
    """The unitary exp(-i duration H) as an explicit matrix."""
    _require_hermitian(H, "propagator")
    evecs = H.eigensystem[1]
    return ComplexOperator(
        (evecs * _phases(H, duration)) @ evecs.conj().T, "unitary"
    )


class PropagationWithDerivative(NamedTuple):
    phi: StateVector
    dphi: StateVector


@lru_cache(maxsize=2)
def _in_eigenbasis(H0: ComplexOperator, G: ComplexOperator) -> np.ndarray:
    """V^dag G V for the eigenvectors V of H0.

    Two entries cover the twist/untwist pair of the echo schemes; a larger
    cache would pin dense d x d matrices of generators no longer in use.
    """
    evecs = H0.eigensystem[1]
    rotated = evecs.conj().T @ G.matrix @ evecs
    rotated.setflags(write=False)
    return rotated


def propagate_with_derivative(
    H0: ComplexOperator,
    G: ComplexOperator,
    duration: float,
    psi: StateVector,
) -> PropagationWithDerivative:
    """Evolve under H0 + w G and differentiate with respect to w at w = 0.

    Returns phi = exp(-i d H0) psi, with d = duration, together with the
    exact derivative dphi = d/dw exp(-i d (H0 + w G)) psi at w = 0. Both
    come from the eigensystem H0 = V diag(lambda) V^dag that ``propagate``
    already memoizes. With c = V^dag psi and G~ = V^dag G V,

        phi  = V (exp(-i d lambda) * c),
        dphi = V ((G~ * Gamma) c),
        Gamma_jk = -i d exp(-i d (lambda_j + lambda_k) / 2)
                   * sinc(d (lambda_j - lambda_k) / 2),

    with sinc(x) = sin(x) / x. Gamma is the divided difference of
    exp(-i d lambda) (the Daleckii-Krein form of the Frechet derivative;
    Najfeld & Havel, Adv. Appl. Math. 16, 1995; Higham, Functions of
    Matrices, 2008, ch. 3). Written with sinc it needs no case split and
    stays exact on degenerate eigenvalues, where it tends to the diagonal
    value -i d exp(-i d lambda_j); one-axis twisting has exactly degenerate
    pairs. G~ is computed once per (H0, G) pair, so each call costs O(d^2).
    """
    _require_hermitian(H0, "propagate_with_derivative")
    _require_hermitian(G, "propagate_with_derivative")
    if H0.dim != G.dim:
        raise DimensionMismatchError(
            f"generator dims differ: {H0.dim} vs {G.dim}"
        )
    _require_matching(H0, psi)
    if not psi.normalized:
        raise ContractViolationError(
            "propagate_with_derivative expects a normalized input state"
        )
    if duration == 0:
        zero = np.zeros(psi.dim, dtype=complex)
        return PropagationWithDerivative(psi, StateVector(zero, normalized=False))
    evals, evecs = H0.eigensystem
    phases = _phases(H0, duration)
    c = evecs.conj().T @ psi.amplitudes
    # Gamma = -i d h_j h_k sinc(...) with h = exp(-i d lambda / 2).
    half = np.exp(-0.5j * duration * evals)
    sinc = np.sinc(np.subtract.outer(evals, evals) * (duration / (2 * np.pi)))
    weighted = (_in_eigenbasis(H0, G) * sinc) @ (half * c)
    phi = StateVector(evecs @ (phases * c))
    dphi = StateVector(evecs @ (-1j * duration * half * weighted), normalized=False)
    return PropagationWithDerivative(phi=phi, dphi=dphi)


def apply_operator(
    A: ComplexOperator, psi: StateVector, prefactor: complex = 1.0
) -> StateVector:
    """prefactor * A |psi> as an unnormalized vector."""
    _require_matching(A, psi)
    return StateVector(prefactor * (A.matrix @ psi.amplitudes), normalized=False)


def expectation(A: ComplexOperator, psi: StateVector) -> complex:
    """<psi| A |psi>. For hermitian A the imaginary part must vanish."""
    _require_matching(A, psi)
    value = complex(np.vdot(psi.amplitudes, A.matrix @ psi.amplitudes))
    if A.kind == "hermitian" and abs(value.imag) > 1e-10:
        raise ContractViolationError(
            f"hermitian expectation has imaginary part {value.imag:.3e}"
        )
    return value


def variance(A: ComplexOperator, psi: StateVector) -> float:
    """<A^2> - <A>^2 for hermitian A on a normalized state, clamped at 0."""
    _require_hermitian(A, "variance")
    _require_matching(A, psi)
    if not psi.normalized:
        raise ContractViolationError("variance requires a normalized state")
    a_psi = A.matrix @ psi.amplitudes
    mean = np.vdot(psi.amplitudes, a_psi).real
    second = np.vdot(a_psi, a_psi).real
    var = second - mean * mean
    if var < -1e-12:
        raise ContractViolationError(f"variance evaluated to {var:.3e} < -1e-12")
    return max(var, 0.0)


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"state dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the global-phase-insensitive state comparison."""
    return abs(overlap(a, b)) ** 2
