"""Exact linear algebra on the symmetric (Dicke) sector of N spins.

Collective spin operators, basis states, Hermitian propagators, and exact
parameter derivatives of propagators, all in double precision. The
symmetric sector of N spin-1/2 particles is (N + 1)-dimensional, and every
operator the protocols use is banded in the Jz basis: the collective spins
and the field generator couple m only to m +- 1, and both twisting
generators couple m only to m +- 2 (Kitagawa & Ueda, PRA 47, 5138, 1993).
Such operators are stored by their bands (``BandedOperator``) and built in
O(N), and their eigensystems are structured:

* an operator whose only off-diagonal band sits at offset b splits into b
  interleaved chains, the basis indices r, r + b, r + 2b, ..., with no
  entries between chains; for the twisting generators (b = 2) these are
  the even and the odd parity blocks,
* on each chain the operator is Hermitian tridiagonal with off-diagonal
  e_i, and the exact diagonal phase similarity p_0 = 1,
  p_{i+1} = p_i conj(e_i) / |e_i| (phase 1 where e_i = 0) turns it into a
  real symmetric tridiagonal matrix with off-diagonal |e_i|,
* the eigenvectors are kept as the real orthogonal eigenvectors of each
  chain plus its phase vector, so a propagation costs two real half-size
  matrix-vector products per parity block, and a field generator that
  flips parity has only even-odd blocks in the twisting eigenbasis.

Operators without this pattern (``ComplexOperator``: dense matrices, such
as a twisting generator plus a field) are diagonalized by a dense complex
``eigh``. Both kinds present the same ``Eigensystem``.

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

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
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


def _matmul(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for complex x; a real A multiplies x's real and imaginary parts
    in one real product instead of being copied to complex."""
    if np.iscomplexobj(A):
        return A @ x
    x = np.ascontiguousarray(x, dtype=complex)
    pairs = x.view(np.float64).reshape(x.shape[0], -1)
    return (A @ pairs).view(complex).reshape(A.shape[0], *x.shape[1:])


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

    def ladder_elements(self) -> np.ndarray:
        """<m+1| J+ |m> = <m| J- |m+1> = sqrt(j(j+1) - m(m+1)), m = -j .. j-1."""
        j = self.j
        m = self.m_values()[:-1]
        return np.sqrt(j * (j + 1) - m * (m + 1))


class Eigensystem(NamedTuple):
    """H = V diag(lambda) V^dag, stored chain by chain.

    Chain r holds the basis indices r, r + stride, r + 2 stride, ..., and H
    has no entries between chains. On chain r the eigenvalues are
    ``values[r]`` (ascending) and V_r = diag(phases[r]) vectors[r]. A dense
    eigensystem is one chain with unit phases and complex vectors; a banded
    one has real orthogonal vectors.
    """

    stride: int
    values: tuple[np.ndarray, ...]
    vectors: tuple[np.ndarray, ...]
    phases: tuple[np.ndarray, ...]

    def analyze(self, x: np.ndarray) -> list[np.ndarray]:
        """The coefficients V^dag x, chain by chain."""
        return [
            np.conj(_matmul(vecs.T, phases * np.conj(x[r :: self.stride])))
            for r, (vecs, phases) in enumerate(zip(self.vectors, self.phases))
        ]

    def synthesize(self, coefficients: list[np.ndarray]) -> np.ndarray:
        """V c for chain-wise coefficients c."""
        out = np.empty(sum(len(c) for c in coefficients), dtype=complex)
        for r, (vecs, phases, c) in enumerate(
            zip(self.vectors, self.phases, coefficients)
        ):
            out[r :: self.stride] = phases * _matmul(vecs, c)
        return out


def _frozen_eigensystem(stride, values, vectors, phases) -> Eigensystem:
    for arr in (*values, *vectors, *phases):
        arr.setflags(write=False)
    return Eigensystem(stride, tuple(values), tuple(vectors), tuple(phases))


def _dense_eigensystem(matrix: np.ndarray) -> Eigensystem:
    evals, evecs = np.linalg.eigh(matrix)
    return _frozen_eigensystem(1, [evals], [evecs], [np.ones(len(evals))])


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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def block(self, r: int, q: int, stride: int) -> np.ndarray:
        """The rows r, r + stride, ... and columns q, q + stride, ..."""
        return self.matrix[r::stride, q::stride]

    @cached_property
    def eigensystem(self) -> Eigensystem:
        """Dense eigendecomposition of a Hermitian operator, memoized."""
        if self.kind != "hermitian":
            raise ContractViolationError(
                "eigensystem is only defined for hermitian operators"
            )
        return _dense_eigensystem(self.matrix)


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Square matrix stored by its nonzero diagonals, tagged with its role.

    ``bands`` maps an offset k to the entries A[i, i + k] in order of
    increasing row (the layout of ``np.diag(A, k)``). ``kind`` is
    "hermitian" or "general". A hermitian operator must have a real
    diagonal and, for every upper band, a lower band that is exactly its
    conjugate, so it is Hermitian exactly, not merely to roundoff; both are
    verified at construction, and ``hermitian`` builds the lower bands from
    the upper ones. Compares and hashes by identity; the bands are
    read-only and the dense ``matrix`` is built only on request.
    """

    dim: int
    bands: Mapping[int, np.ndarray]
    kind: str = "general"

    def __post_init__(self) -> None:
        d = self.dim
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise InvalidDimensionError(f"dim must be a positive integer, got {d!r}")
        object.__setattr__(self, "dim", int(d))
        if self.kind not in ("hermitian", "general"):
            raise ContractViolationError(
                f"banded operators are hermitian or general, got {self.kind!r}"
            )
        bands = {}
        for k, values in sorted(self.bands.items()):
            values = _frozen_array(values)
            if abs(k) > d or values.shape != (d - abs(k),):
                raise InvalidDimensionError(
                    f"band {k} of a dim-{d} operator has shape {values.shape}"
                )
            bands[int(k)] = values
        object.__setattr__(self, "bands", MappingProxyType(bands))
        if self.kind == "hermitian":
            if 0 in bands and np.any(bands[0].imag):
                raise ContractViolationError(
                    "operator tagged hermitian has a non-real diagonal"
                )
            for k in bands:
                if k != 0 and not np.array_equal(
                    bands.get(-k, np.zeros(0)), bands[k].conj()
                ):
                    raise ContractViolationError(
                        f"operator tagged hermitian has band {-k} unequal to "
                        f"the conjugate of band {k}"
                    )

    @classmethod
    def hermitian(
        cls, dim: int, upper: Mapping[int, np.ndarray], diagonal=None
    ) -> BandedOperator:
        """The Hermitian operator with this real diagonal and these upper bands."""
        bands = {} if diagonal is None else {0: diagonal}
        for k, values in upper.items():
            bands[k] = values
            bands[-k] = np.conj(values)
        return cls(dim, bands, "hermitian")

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only and built anew on each access."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for k, values in self.bands.items():
            i = np.arange(len(values))
            mat[i + max(0, -k), i + max(0, k)] = values
        mat.setflags(write=False)
        return mat

    def matvec(self, x: np.ndarray) -> np.ndarray:
        d = self.dim
        out = np.zeros(d, dtype=complex)
        for k, values in self.bands.items():
            if k >= 0:
                out[: d - k] += values * x[k:]
            else:
                out[-k:] += values * x[: d + k]
        return out

    def block(self, r: int, q: int, stride: int) -> np.ndarray:
        """The rows r, r + stride, ... and columns q, q + stride, ..."""
        d = self.dim
        rows = np.arange(r, d, stride)
        out = np.zeros((len(rows), len(range(q, d, stride))), dtype=complex)
        for k, values in self.bands.items():
            if (r + k - q) % stride:
                continue
            i = rows[(rows + k >= 0) & (rows + k < d)]
            out[(i - r) // stride, (i + k - q) // stride] = values[np.minimum(i, i + k)]
        return out

    @cached_property
    def eigensystem(self) -> Eigensystem:
        """Eigendecomposition of a Hermitian operator, memoized.

        With at most one off-diagonal band, at offset b, this is b real
        symmetric tridiagonal eigenproblems (see the module docstring);
        with several, the dense matrix is diagonalized.
        """
        if self.kind != "hermitian":
            raise ContractViolationError(
                "eigensystem is only defined for hermitian operators"
            )
        offsets = [k for k in self.bands if k > 0]
        if len(offsets) > 1:
            return _dense_eigensystem(self.matrix)
        d = self.dim
        stride = offsets[0] if offsets else 1
        diagonal = self.bands[0].real if 0 in self.bands else np.zeros(d)
        upper = self.bands.get(stride, np.zeros(d - stride))
        values, vectors, phases = [], [], []
        for r in range(stride):
            e = upper[r::stride]
            size = np.abs(e)
            unit = np.ones(len(e), dtype=complex)
            linked = size > 0
            unit[linked] = e[linked].conj() / size[linked]
            # p_{i+1} = p_i conj(e_i) / |e_i|, renormalized so that the
            # running product's roundoff cannot make diag(p) non-unitary.
            p = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
            p /= np.abs(p)
            tridiagonal = np.diag(diagonal[r::stride])
            i = np.arange(len(e))
            tridiagonal[i, i + 1] = tridiagonal[i + 1, i] = size
            evals, evecs = np.linalg.eigh(tridiagonal)
            values.append(evals)
            vectors.append(evecs)
            phases.append(p)
        return _frozen_eigensystem(stride, values, vectors, phases)


Operator = ComplexOperator | BandedOperator


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
    Jx: BandedOperator
    Jy: BandedOperator
    Jz: BandedOperator
    Jplus: BandedOperator
    Jminus: BandedOperator


@lru_cache(maxsize=32)
def collective_operators(space: DickeSpace) -> CollectiveOperators:
    """Collective spin operators on the Dicke sector of ``space``.

    Matrix elements follow the standard ladder convention
    J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>, Jz|j,m> = m|j,m>,
    Jx = (J+ + J-)/2, Jy = (J+ - J-)/(2i). Results are memoized per space;
    all returned operators are immutable and banded.
    """
    d = space.dim
    # <m+1| J+ |m> sits below the diagonal (storage is ascending m).
    off = space.ladder_elements()
    return CollectiveOperators(
        Jx=BandedOperator.hermitian(d, {1: off / 2}),
        Jy=BandedOperator.hermitian(d, {1: 0.5j * off}),
        Jz=BandedOperator.hermitian(d, {}, diagonal=space.m_values()),
        Jplus=BandedOperator(d, {-1: off}),
        Jminus=BandedOperator(d, {1: off}),
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


def _require_hermitian(A: Operator, where: str) -> None:
    if A.kind != "hermitian":
        raise ContractViolationError(f"{where} requires a hermitian generator")


def _require_matching(A: Operator, psi: StateVector) -> None:
    if A.dim != psi.dim:
        raise DimensionMismatchError(
            f"operator dim {A.dim} does not match state dim {psi.dim}"
        )


def _phases(eig: Eigensystem, duration: float) -> list[np.ndarray]:
    """exp(-i duration lambda) per chain, refused past MAX_PHASE."""
    largest = max(max(abs(v[0]), abs(v[-1])) for v in eig.values)
    phase = abs(duration) * largest
    if not phase <= MAX_PHASE:
        raise PrecisionLossError(
            f"|duration| * max|eigenvalue| = {phase:.3e} exceeds {MAX_PHASE:.0e}; "
            "the propagator phases would be lost to roundoff"
        )
    return [np.exp(-1j * duration * v) for v in eig.values]


def propagate(H: Operator, duration: float, psi: StateVector) -> StateVector:
    """Apply exp(-i duration H) to ``psi`` via eigendecomposition.

    Exact up to roundoff for Hermitian H; the eigendecomposition is
    memoized on the operator, so repeated calls with different durations
    cost one product with the eigenvectors and one with their adjoint each.
    Unnormalized inputs (derivative vectors) are propagated linearly and
    stay unnormalized. Raises PrecisionLossError when
    |duration| * max|eigenvalue| exceeds MAX_PHASE, as do ``propagator``
    and ``propagate_with_derivative``.
    """
    _require_hermitian(H, "propagate")
    _require_matching(H, psi)
    if duration == 0:
        return psi
    eig = H.eigensystem
    phases = _phases(eig, duration)
    coeffs = eig.analyze(psi.amplitudes)
    out = eig.synthesize([ph * c for ph, c in zip(phases, coeffs)])
    return StateVector(out, normalized=psi.normalized)


def propagator(H: Operator, duration: float) -> ComplexOperator:
    """The unitary exp(-i duration H) as an explicit matrix."""
    _require_hermitian(H, "propagator")
    eig = H.eigensystem
    unitary = np.zeros((H.dim, H.dim), dtype=complex)
    for r, (vecs, phases, ph) in enumerate(
        zip(eig.vectors, eig.phases, _phases(eig, duration))
    ):
        v = phases[:, None] * vecs
        unitary[r :: eig.stride, r :: eig.stride] = (v * ph) @ v.conj().T
    return ComplexOperator(unitary, "unitary")


class PropagationWithDerivative(NamedTuple):
    phi: StateVector
    dphi: StateVector


@lru_cache(maxsize=1)
def _in_eigenbasis(H0: Operator, G: Operator) -> dict[tuple[int, int], np.ndarray]:
    """The nonzero chain blocks (r, q), r <= q, of V^dag G V for H0's V.

    The blocks below the diagonal are the adjoints of these. The field
    generator flips parity, so in a twisting eigenbasis only the even-odd
    block is nonzero. One entry is enough: every pipeline differentiates
    around one unit-strength twisting generator (Cprime's untwist reuses it
    at a negative angle), and more would pin the blocks of generators no
    longer in use.
    """
    eig = H0.eigensystem
    blocks = {}
    for r in range(eig.stride):
        for q in range(r, eig.stride):
            sub = G.block(r, q, eig.stride)
            if not sub.any():
                continue
            sub = eig.phases[r].conj()[:, None] * sub * eig.phases[q]
            right = _matmul(eig.vectors[q].T, sub.T).T
            rotated = np.conj(_matmul(eig.vectors[r].T, np.conj(right)))
            rotated.setflags(write=False)
            blocks[r, q] = rotated
    return blocks


def propagate_with_derivative(
    H0: Operator,
    G: Operator,
    angle: float,
    psi: StateVector,
) -> PropagationWithDerivative:
    """Turn psi through an angle of H0 and differentiate along G at zero.

    Returns phi = exp(-i theta H0) psi, with theta = angle, and the exact
    derivative dphi = d/du exp(-i (theta H0 + u G)) psi at u = 0 along the
    field angle u (a field w on for a time t is u = w t: times t gives
    d/dw). Both come from the eigensystem H0 = V diag(lambda) V^dag that
    ``propagate`` already memoizes. With c = V^dag psi and G~ = V^dag G V,

        phi  = V (exp(-i theta lambda) * c),
        dphi = V ((G~ * Gamma) c),
        Gamma_jk = -i exp(-i theta (lambda_j + lambda_k) / 2)
                   * sinc(theta (lambda_j - lambda_k) / 2),

    with sinc(x) = sin(x) / x. theta Gamma is the divided difference of
    exp(-i theta lambda) (the Daleckii-Krein form of the Frechet
    derivative; Najfeld & Havel, Adv. Appl. Math. 16, 1995; Higham,
    Functions of Matrices, 2008, ch. 3). Written with sinc it needs no case
    split and stays exact on degenerate eigenvalues, where it tends to the
    diagonal value -i exp(-i theta lambda_j); one-axis twisting has exactly
    degenerate pairs. theta = 0 gives (psi, -i G psi). G~ is computed once
    per (H0, G) pair and kept as its nonzero chain blocks, so each call
    costs O(d^2), a quarter of that when G~ has only the even-odd blocks.
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
    if angle == 0:
        return PropagationWithDerivative(psi, apply_operator(G, psi, prefactor=-1j))
    eig = H0.eigensystem
    phases = _phases(eig, angle)
    coeffs = eig.analyze(psi.amplitudes)
    # Gamma = -i h_j h_k sinc(...) with h = exp(-i theta lambda / 2).
    halves = [np.exp(-0.5j * angle * v) for v in eig.values]
    scaled = [h * c for h, c in zip(halves, coeffs)]
    weighted = [np.zeros_like(c) for c in coeffs]
    for (r, q), rotated in _in_eigenbasis(H0, G).items():
        gaps = np.subtract.outer(eig.values[r], eig.values[q])
        kernel = rotated * np.sinc(gaps * (angle / (2 * np.pi)))
        weighted[r] += kernel @ scaled[q]
        if r != q:
            # Block (q, r) is the adjoint of block (r, q); sinc is even.
            weighted[q] += np.conj(kernel.T @ np.conj(scaled[r]))
    phi = StateVector(eig.synthesize([ph * c for ph, c in zip(phases, coeffs)]))
    dphi = StateVector(
        eig.synthesize([-1j * h * w for h, w in zip(halves, weighted)]),
        normalized=False,
    )
    return PropagationWithDerivative(phi=phi, dphi=dphi)


def apply_operator(
    A: Operator, psi: StateVector, prefactor: complex = 1.0
) -> StateVector:
    """prefactor * A |psi> as an unnormalized vector."""
    _require_matching(A, psi)
    return StateVector(prefactor * A.matvec(psi.amplitudes), normalized=False)


def expectation(A: Operator, psi: StateVector) -> complex:
    """<psi| A |psi>. For hermitian A the imaginary part must vanish."""
    _require_matching(A, psi)
    value = complex(np.vdot(psi.amplitudes, A.matvec(psi.amplitudes)))
    if A.kind == "hermitian" and abs(value.imag) > 1e-10:
        raise ContractViolationError(
            f"hermitian expectation has imaginary part {value.imag:.3e}"
        )
    return value


def variance(A: Operator, psi: StateVector) -> float:
    """<A^2> - <A>^2 for hermitian A on a normalized state, clamped at 0."""
    _require_hermitian(A, "variance")
    _require_matching(A, psi)
    if not psi.normalized:
        raise ContractViolationError("variance requires a normalized state")
    a_psi = A.matvec(psi.amplitudes)
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
