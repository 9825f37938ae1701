"""Exact linear algebra on the symmetric (Dicke) sector of N spins.

Banded Hermitian operators, basis states, propagators, and exact
parameter derivatives of propagators, all in double precision. The
symmetric sector of N spin-1/2 particles is (N + 1)-dimensional, and every
operator the protocols use is Hermitian and banded in the Jz basis: the
collective spins and the field generator couple m only to m +- 1, and both
twisting generators couple m only to m +- 2 (Kitagawa & Ueda, PRA 47, 5138,
1993). There is one operator type, ``BandedOperator``: stored by its bands,
built in O(N) and Hermitian exactly by construction. Every protocol runs
at zero field, so an operator that is propagated has at most one
off-diagonal band (one with several is refused), and its eigensystem is
structured:

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
  matrix products per parity block, and a field generator that flips
  parity has only even-odd blocks in the twisting eigenbasis,
* each chain is solved on first use, and a propagation skips a chain on
  which its input is exactly zero, so a state that stays in one parity
  block never diagonalizes the other,
* the ladder elements of a Dicke sector are mirror-symmetric,
  l_k = l_{N-1-k} (the reflection m -> -m), so a chain whose real
  tridiagonal matrix is its own mirror image (every chain at even N, and
  the one chain of a field generator) is solved as two half-size
  eigenproblems; this is detected by exact equality, so a Fock chain
  (l_k = sqrt(k + 1)) and each parity block at odd N (the two blocks are
  each other's mirror images) are solved whole,
* a real block, whole chain or mirror half, whose diagonal is exactly zero
  and whose links are all nonzero couples only its even positions to its
  odd ones; such a bipartite block is solved through the SVD of its
  half-size upper-bidiagonal coupling (Golub & Kahan, SIAM J. Numer.
  Anal. B 2, 205, 1965). Every two-axis-twisting block is one, except an
  even-length mirror half, whose middle link sits on its diagonal; every
  other block takes one ``eigh``,
* a mirror chain is kept as its two halves: its values are not
  ascending, and a product with its eigenvectors is two half-size
  products; any other chain is the same ``Chain`` with an empty mirror-odd
  half, one real orthogonal matrix and ascending values,
* a bipartite block's values come in exact +- pairs, and exp(i x) is the
  conjugate of exp(-i x) to the bit (cos is even and sin odd), so its
  phase tables are evaluated on half the values; a chain whose phases are
  all exactly 1, every one-axis chain, skips its phase products.

States are vectors (d,) or blocks (d, K) of K states side by side. The
propagators take one angle per column, so a whole curve of K sensing
fractions turns through its K twist angles in one real matrix product per
chain instead of K matrix-vector products; the reductions (variances,
overlaps) give one value per column.

Conventions:

* basis index k in [0, N] maps to the magnetic quantum number m = -j + k
  with j = N / 2, so amplitudes are stored in ascending m,
* collective operators use the standard angular-momentum normalization
  J_mu = (1/2) sum_i sigma_i^mu, i.e. Jz has eigenvalues -N/2 .. +N/2,
* hbar = 1 throughout; a propagator for generator H and duration d is
  exp(-i d H).

All public objects are immutable after construction and every operation is
a pure function of its inputs, so values can be shared freely across
threads. The only lazily computed pieces of state are the memoized chains
of an operator's eigendecomposition, which are idempotent and safe under
concurrent access.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import sqrt
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    InvalidDimensionError,
    PrecisionLossError,
)

# Tolerance for the construction-time state norm check, one to two digits
# above double-precision accumulation for dim <= 2001.
NORM_ATOL = 1e-10

# Largest |duration| * max|eigenvalue| a propagator accepts. A phase of size
# p carries an absolute roundoff of about p * 2.2e-16, so at 1e6 the phases,
# and every amplitude built from them, are still good to about 1e-10; far
# beyond it they are noise and the result would be a silently wrong number.
MAX_PHASE = 1e6

# Relative gap below which an eigenvalue pair of ``propagate_with_derivative``
# takes the sinc weight instead of the divided difference split through D.
# The split loses about eps * max|lambda| / gap relative, so at 1e-3 it stays
# near 1e-13.
NEAR_GAP = 1e-3


def _frozen_array(values) -> np.ndarray:
    """Copy input into an immutable complex array."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


def _pairs(x: np.ndarray) -> np.ndarray:
    """x as a complex C-ordered array viewed as real (rows, 2 columns) pairs;
    a view of x itself when x is one already."""
    x = np.ascontiguousarray(x, dtype=complex)
    return x.view(np.float64).reshape(x.shape[0], -1)


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


def _per_row(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``values`` shaped to scale the rows of a vector or a block x."""
    return values.reshape(-1, *(1,) * (x.ndim - 1))


class Chain:
    """H on one chain of length n: eigenvalues ``values``, their largest
    magnitude ``largest``, and eigenvectors V_r = diag(phases) V with V real
    orthogonal. Coefficients and amplitudes are vectors or blocks (n, K),
    one column per state.

    In the basis (e_i +- e_{n-1-i}) / sqrt(2), i < h, plus the middle
    elements e_h .. e_{n-1-h}, V is block diagonal: ``vectors`` holds the
    mirror-even block (n - h square) and ``odd`` the mirror-odd block (h
    square), both scaled by 1 / sqrt(2) on their first h rows. ``values``
    holds the even block's values, then the odd block's, each ascending.
    V^T y folds y into the sums y_i + y_{n-1-i} (and the middle) and the
    differences y_i - y_{n-1-i} and makes one product with each block; V c
    makes the two products and unfolds them. A chain that is its own
    mirror image has h = n // 2 (``_persymmetric_chain``): half the memory
    of V and half the flops of a product with it. Any other chain has
    h = 0: ``vectors`` is the whole V, ``odd`` is empty and the values are
    ascending.

    ``real`` marks phases that are all exactly 1 (every one-axis chain):
    V_r = V, and no phase is multiplied or conjugated. The tables of turns
    and of the derivative's f are evaluated once per +- pair of values
    (``_pairing``).
    """

    def __init__(
        self, values: np.ndarray, vectors: np.ndarray, odd: np.ndarray, phases: np.ndarray
    ):
        self.values = values
        self.vectors = vectors
        self.phases = phases
        self.odd = odd
        self.largest = float(np.abs(values).max())
        self.real = bool(np.all(phases == 1))
        self._evaluated, self._mirrored = _pairing(values, len(vectors))
        for arr in (values, vectors, phases, odd):
            arr.setflags(write=False)

    def _table(self, angles, fill: Callable) -> np.ndarray:
        """g(lambda_j, angle_k), one column per angle (a vector for a scalar
        angle), for a g with g(-lambda) = conj g(lambda) to the bit:
        ``fill(values, out)`` writes the rows ``_pairing`` evaluates, and
        their partners are conjugated."""
        table = np.empty((len(self.values), *np.shape(angles)), dtype=complex)
        for rows in self._evaluated:
            fill(self.values[rows], table[rows])
        for rows, partners in self._mirrored:
            np.conjugate(table[partners], out=table[rows])
        return table

    def _fold(self, y: np.ndarray) -> np.ndarray:
        """The mirror sums of y over its mirror differences, as real pairs;
        y's own pairs on a chain with no mirror pairs."""
        pairs = _pairs(y)
        n, h = len(pairs), len(self.odd)
        if not h:
            return pairs
        top, bottom = pairs[:h], pairs[n - h :][::-1]
        folded = np.empty_like(pairs)
        np.add(top, bottom, out=folded[:h])
        folded[h : n - h] = pairs[h : n - h]
        np.subtract(top, bottom, out=folded[n - h :])
        return folded

    def _fold_products(self, folded: np.ndarray, out: np.ndarray) -> np.ndarray:
        """V^T y from y folded, written into the complex block ``out``."""
        m = len(self.vectors)
        pairs = _pairs(out)
        np.matmul(self.vectors.T, folded[:m], out=pairs[:m])
        if len(self.odd):
            np.matmul(self.odd.T, folded[m:], out=pairs[m:])
        return out

    def analyze_real(self, y: np.ndarray) -> np.ndarray:
        """V^T y, the coefficients of y in the real chain basis."""
        return self._fold_products(self._fold(y), np.empty(y.shape, dtype=complex))

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """The coefficients V_r^dag x of this chain's slice x."""
        if self.real:
            return self.analyze_real(x)
        # y holds p * conj(x), then, once folded, the coefficients; with no
        # mirror pairs the fold is y itself, so they take a block of their own.
        y = np.conj(x)
        y *= _per_row(self.phases, y)
        out = y if len(self.odd) else np.empty_like(y)
        self._fold_products(self._fold(y), out)
        return np.conj(out, out=out)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """V_r c, this chain's slice of the state with coefficients c."""
        return self._synthesize_into(c, np.empty(np.shape(c), dtype=complex))

    def _synthesize_into(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """V_r c written into ``out``, a complex array of c's shape or a
        row-strided view of one (a chain's rows of a state), and returned."""
        pairs = _pairs(c)
        n, h = len(pairs), len(self.odd)
        m = n - h
        dest = out.view(np.float64).reshape(n, -1)
        np.matmul(self.vectors, pairs[:m], out=dest[:m])
        if h:
            odd = np.matmul(self.odd, pairs[m:])
            np.subtract(dest[:h], odd, out=dest[m:][::-1])
            np.add(dest[:h], odd, out=dest[:h])
        if not self.real:
            out *= _per_row(self.phases, out)
        return out

    def turns(self, angles, reach: float) -> np.ndarray:
        """exp(-i angle_k lambda_j), one column per angle (a vector for a
        scalar angle), refused past MAX_PHASE; ``reach`` is max|angle_k|,
        which a caller turning several chains takes once."""
        phase = reach * self.largest
        if not phase <= MAX_PHASE:
            raise PrecisionLossError(
                f"|duration| * max|eigenvalue| = {phase:.3e} exceeds {MAX_PHASE:.0e}; "
                "the propagator phases would be lost to roundoff"
            )
        back = np.negative(angles)

        def fill(values, out):
            # exp(-i x) to the bit as cos(-x) + i sin(-x): -x = values * -angles
            # is built in the imaginary half, which then turns into its sine.
            x = np.multiply.outer(values, back, out=out.imag)
            np.cos(x, out=out.real)
            np.sin(x, out=x)

        return self._table(angles, fill)

    def expm1_table(self, angles, theta) -> np.ndarray:
        """expm1(-i angle_k lambda_j) / theta_k, the f of
        ``propagate_with_derivative``, one column per angle; taken after
        ``turns``, which checks the range."""

        def fill(values, out):
            np.divide(np.expm1(np.multiply.outer(-1j * values, angles)), theta, out=out)

        return self._table(angles, fill)


class Eigensystem:
    """H = V diag(lambda) V^dag, stored chain by chain.

    Chain r holds the basis indices r, r + stride, r + 2 stride, ..., and H
    has no entries between chains, so each chain is an eigenproblem of its
    own. ``solve(r)`` returns chain r's ``Chain``; it runs on the first
    ``chain(r)`` and its result is kept. H has at most one off-diagonal
    band, at offset ``stride``.
    """

    def __init__(self, stride: int, solve: Callable[[int], Chain]) -> None:
        self.stride = stride
        self._solve = solve
        self._chains: dict[int, Chain] = {}

    def chain(self, r: int) -> Chain:
        found = self._chains.get(r)
        if found is None:
            found = self._chains[r] = self._solve(r)
        return found


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Hermitian square matrix stored by its nonzero diagonals.

    ``bands`` maps an offset k to the entries A[i, i + k] in order of
    increasing row (the layout of ``np.diag(A, k)``). The diagonal must be
    real and every upper band must have a lower band that is exactly its
    conjugate, so the operator is Hermitian exactly, not merely to roundoff;
    both are verified at construction, and ``hermitian`` builds the lower
    bands from the upper ones. Compares and hashes by identity; the bands
    are read-only and the dense ``matrix`` is built only on request.
    """

    dim: int
    bands: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        d = self.dim
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise InvalidDimensionError(f"dim must be a positive integer, got {d!r}")
        object.__setattr__(self, "dim", int(d))
        bands = {}
        for k, values in sorted(self.bands.items()):
            values = _frozen_array(values)
            if abs(k) > d or values.shape != (d - abs(k),):
                raise InvalidDimensionError(
                    f"band {k} of a dim-{d} operator has shape {values.shape}"
                )
            bands[int(k)] = values
        object.__setattr__(self, "bands", MappingProxyType(bands))
        if 0 in bands and np.any(bands[0].imag):
            raise ContractViolationError("operator has a non-real diagonal")
        for k in bands:
            if k != 0 and not np.array_equal(
                bands.get(-k, np.zeros(0)), bands[k].conj()
            ):
                raise ContractViolationError(
                    f"operator has band {-k} unequal to the conjugate of band {k}"
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
        return cls(dim, bands)

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
        """A x for a vector or, column by column, a (dim, K) block.

        The first band's products are written straight into the result,
        whose other rows are zeroed. Each further band's are added a few
        rows at a time through one scratch block of at most
        ``np.getbufsize()`` amplitudes, the size of the buffer a numpy
        ufunc call allocates, so a call holds little beyond its result.
        """
        if not self.bands:
            return np.zeros(x.shape, dtype=complex)
        d = self.dim
        out = np.empty(x.shape, dtype=complex)
        step = max(1, np.getbufsize() // max(1, x.size // d))
        scratch = None
        for i, (k, values) in enumerate(self.bands.items()):
            # Band k maps rows lo + k .. hi + k of x to rows lo .. hi of A x.
            lo, hi = max(0, -k), d - max(0, k)
            rows, source = out[lo:hi], x[lo + k : hi + k]
            values = _per_row(values, x)
            if i == 0:
                np.multiply(values, source, out=rows)
                out[:lo] = 0.0
                out[hi:] = 0.0
                continue
            if scratch is None:
                scratch = np.empty((min(step, d), *x.shape[1:]), dtype=complex)
            for start in range(0, hi - lo, step):
                part = slice(start, start + step)
                product = scratch[: min(step, hi - lo - start)]
                rows[part] += np.multiply(values[part], source[part], out=product)
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
        """The eigendecomposition, memoized.

        With at most one off-diagonal band, at offset b, this is b real
        symmetric tridiagonal eigenproblems (see the module docstring),
        each solved when a propagation first needs it: as two half-size
        blocks, kept as the two halves, when its matrix equals its own
        reverse, and whole otherwise. Each block is solved through a
        half-size SVD when its diagonal is zero and by one ``eigh``
        otherwise (``_tridiagonal_eigh``). Readers go through
        ``Chain.analyze`` and ``Chain.synthesize``. An operator with
        several off-diagonal bands is refused.
        """
        offsets = [k for k in self.bands if k > 0]
        if len(offsets) > 1:
            raise ContractViolationError(
                f"operator has off-diagonal bands at offsets {offsets}; "
                "only one can be propagated"
            )
        d = self.dim
        stride = offsets[0] if offsets else 1
        diagonal = self.bands[0].real if 0 in self.bands else np.zeros(d)
        upper = self.bands.get(stride, np.zeros(d - stride))

        def solve(r: int) -> tuple:
            a = diagonal[r::stride]
            e = upper[r::stride]
            size = np.abs(e)
            unit = np.ones(len(e), dtype=complex)
            linked = size > 0
            unit[linked] = e[linked].conj() / size[linked]
            # p_{i+1} = p_i conj(e_i) / |e_i|, renormalized so that the
            # running product's roundoff cannot make diag(p) non-unitary.
            p = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
            p /= np.abs(p)
            if len(a) > 1 and _is_persymmetric(a, size):
                return _persymmetric_chain(a, size, p)
            values, vectors = _tridiagonal_eigh(a, size)
            return Chain(values, vectors, np.zeros((0, 0)), p)

        return Eigensystem(stride, solve)


def _pairing(values: np.ndarray, m: int) -> tuple[list, list]:
    """The row slices of a chain's tables to evaluate, and the (rows,
    partners) slices to fill as the partners' conjugates.

    The values are the mirror-even block's (the first m), then the
    mirror-odd block's, each ascending. A block whose first half holds no
    zero and is exactly the negative of its second half reversed (every
    bipartite block) evaluates only its second half.
    """
    evaluated, mirrored = [], []
    for lo, hi in ((0, m), (m, len(values))):
        k = (hi - lo) // 2
        low, high = values[lo : lo + k], values[hi - k : hi][::-1]
        if k and low.all() and np.array_equal(low, -high):
            mirrored.append((slice(lo, lo + k), slice(hi - 1, hi - k - 1, -1)))
            lo += k
        if lo == hi:
            continue
        if evaluated and evaluated[-1].stop == lo:
            lo = evaluated.pop().start
        evaluated.append(slice(lo, hi))
    return evaluated, mirrored


def _is_persymmetric(diagonal: np.ndarray, off: np.ndarray) -> bool:
    """Whether the symmetric tridiagonal matrix T with this diagonal and
    off-diagonal is exactly its own reverse J T J."""
    return np.array_equal(diagonal, diagonal[::-1]) and np.array_equal(off, off[::-1])


def _tridiagonal_eigh(diagonal: np.ndarray, off: np.ndarray) -> tuple:
    """Ascending eigenvalues and orthogonal eigenvectors of the real symmetric
    tridiagonal matrix T with this diagonal and off-diagonal.

    A T with a zero diagonal and no zero link is bipartite: its values are
    +-sigma, and a 0 at odd n, for the singular triples S v = sigma u of the
    square upper-bidiagonal S[i, i] = off[2i], S[i, i + 1] = off[2i + 1]
    (rows at the odd positions, a zero last row at odd n), with vectors
    (v, +-u) / sqrt(2) and (v_0, 0) (Golub & Kahan, SIAM J. Numer. Anal.
    B 2, 205, 1965). LAPACK's SVD leaves such an S unrotated. Any other T
    takes one dense ``eigh``; so does a split chain, where a second zero
    singular value could take the padding row's direction. At odd n the
    left singular vectors carry about eps / (sigma_min / sigma_max) of the
    padding row, and dropping it leaves |V^T V - I| near the square of
    that; a nearly split chain, whose vectors hold more than sqrt(eps) of
    that row, takes the ``eigh`` after its SVD. The program's own chains,
    measured up to N = 4002 and a Fock dimension of 2001, hold at most
    1.2e-12 of it and keep the SVD.
    """
    n = len(diagonal)
    if not diagonal.any() and off.all():
        half = n // 2
        link = np.arange(n - 1)
        bidiagonal = np.zeros((n - half, n - half))
        bidiagonal[link // 2, (link + 1) // 2] = off
        u, sigma, vt = np.linalg.svd(bidiagonal)
        # The padding row of an odd n, in the vectors of the nonzero sigma.
        leak = np.abs(u[half, :half]).max(initial=0.0) if n % 2 else 0.0
        if leak <= sqrt(np.finfo(float).eps):
            even, odd = vt[:half].T, u[:half, :half]
            even *= sqrt(0.5)  # in place: at N = 10^4 copies would add 14 MiB
            odd *= sqrt(0.5)
            vectors = np.zeros((n, n))
            vectors[0::2, :half] = even
            vectors[1::2, :half] = -odd
            vectors[0::2, n - half :] = even[:, ::-1]
            vectors[1::2, n - half :] = odd[:, ::-1]
            if n % 2:
                vectors[0::2, half] = vt[half]
            pairs = sigma[:half]
            return np.concatenate((-pairs, np.zeros(n % 2), pairs[::-1])), vectors
    tridiagonal = np.diag(diagonal)
    i = np.arange(len(off))
    tridiagonal[i, i + 1] = tridiagonal[i + 1, i] = off
    return np.linalg.eigh(tridiagonal)


def _persymmetric_chain(
    diagonal: np.ndarray, off: np.ndarray, phases: np.ndarray
) -> Chain:
    """The chain of a tridiagonal matrix that is its own reverse,
    T = J T J with n >= 2, solved as its mirror-even and mirror-odd halves.

    T commutes with the reversal J, so its eigenvectors can be taken
    mirror-even (x = J x) or mirror-odd (x = -J x), and T is exactly block
    diagonal in the orthonormal basis (e_i +- e_{n-1-i}) / sqrt(2), i < n/2,
    plus e_h at the middle h = (n - 1) / 2 of an odd n (Cantoni & Butler,
    Linear Algebra Appl. 13, 275, 1976). Each block is the leading
    tridiagonal of T, changed only where the middle link b = off[n//2 - 1]
    joins it to its mirror image:

    * even n: two h x h blocks, h = n / 2, with b added to (even) or
      subtracted from (odd) the last diagonal entry,
    * odd n: the even block of size h + 1 keeps the middle element, joined
      by sqrt(2) b; the odd block of size h lacks it.

    Two half-size solves cost about a quarter of one full-size solve, and
    the ``Chain`` keeps the two halves: its even block's first h rows and
    its whole odd block are scaled by 1 / sqrt(2).
    """
    n = len(diagonal)
    h = n // 2
    link = off[h - 1]
    inner = off[: h - 1]
    if n % 2:
        even = _tridiagonal_eigh(diagonal[: h + 1], np.append(inner, sqrt(2.0) * link))
        odd = _tridiagonal_eigh(diagonal[:h], inner)
    else:
        corner = np.zeros(h)
        corner[-1] = link
        even = _tridiagonal_eigh(diagonal[:h] + corner, inner)
        odd = _tridiagonal_eigh(diagonal[:h] - corner, inner)
    even[1][:h] *= sqrt(0.5)
    odd[1][:] *= sqrt(0.5)
    return Chain(np.concatenate((even[0], odd[0])), even[1], odd[1], phases)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes in the Dicke (or Fock) basis: one state of shape
    (d,), or a block of K states side by side, shape (d, K).

    ``normalized=True`` asserts unit norm at construction, column by column
    for a block; derivative vectors carry ``normalized=False`` and skip the
    check. The amplitudes are a read-only copy of the array passed in; the
    operations of this module hand over the blocks they build uncopied
    (``_built``).
    """

    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        self._freeze(_frozen_array(self.amplitudes))

    def _freeze(self, amps: np.ndarray) -> None:
        """Take the complex array ``amps`` as the amplitudes, read-only, and
        check its shape and, if tagged normalized, its norms."""
        if amps.ndim not in (1, 2):
            raise InvalidDimensionError(
                f"state amplitudes must be a vector or a block of column vectors, "
                f"got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized:
            # The defect of no column at all, a (d, 0) block, is 0.
            defect = np.abs(np.sqrt(_real_inner(amps, amps)) - 1.0).max(initial=0.0)
            if not defect <= NORM_ATOL:
                raise ContractViolationError(
                    f"state tagged normalized has |norm - 1| = {defect!r}"
                )

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float | np.ndarray:
        """The norm, one per column for a block."""
        return _per_column(np.sqrt(_real_inner(self.amplitudes, self.amplitudes)))


def _built(amplitudes: np.ndarray, normalized: bool = True) -> StateVector:
    """The state whose amplitudes are ``amplitudes``, a complex block this
    module has just built and keeps no other reference to: it is frozen in
    place instead of copied, and checked as the constructor checks."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "normalized", normalized)
    state._freeze(amplitudes)
    return state


def _per_column(values: np.ndarray):
    """A reduction over the basis: a Python scalar for one state, an array
    with one entry per column for a block."""
    return values.item() if values.ndim == 0 else values


def _real_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a|b> column by column (a 0-d array for two vectors), summed
    over the real (d, 2K) views of a and b without a complex temporary."""
    x = _pairs(a)
    sums = np.einsum("ij,ij->j", x, x if b is a else _pairs(b))
    return (sums[0::2] + sums[1::2]).reshape(np.shape(a)[1:])


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> column by column (a 0-d array for two vectors): the real part
    as ``_real_inner``, the imaginary part sum(Re a Im b - Im a Re b) over
    the same views."""
    x, y = _pairs(a), _pairs(b)
    out = np.empty(np.shape(a)[1:], dtype=complex)
    sums = np.einsum("ij,ij->j", x, y)
    out.real = (sums[0::2] + sums[1::2]).reshape(out.shape)
    imag = np.einsum("ij,ij->j", x[:, 0::2], y[:, 1::2])
    imag -= np.einsum("ij,ij->j", x[:, 1::2], y[:, 0::2])
    out.imag = imag.reshape(out.shape)
    return out


def initial_state(space: DickeSpace) -> StateVector:
    """The all-spins-down coherent state, the m = -j basis vector."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps)


def _require_matching(A: BandedOperator, psi: StateVector) -> None:
    if A.dim != psi.dim:
        raise DimensionMismatchError(
            f"operator dim {A.dim} does not match state dim {psi.dim}"
        )


def _columns(angle, psi: StateVector) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One angle per column: the angles (K,), psi's amplitudes as a (d, 1)
    or (d, K) block, and the shape of the result.

    A scalar angle turns every column of psi; a vector psi is shared by
    every angle. The result is a block if either is batched.
    """
    angles = np.asarray(angle, dtype=float)
    if angles.ndim > 1:
        raise InvalidDimensionError(
            f"angles must be a scalar or one-dimensional, got shape {angles.shape}"
        )
    x = psi.amplitudes.reshape(psi.dim, -1)
    k = angles.size if angles.ndim else x.shape[1]
    if x.shape[1] not in (1, k):
        raise DimensionMismatchError(
            f"{angles.size} angles for a block of {x.shape[1]} states"
        )
    shape = (psi.dim, k) if angles.ndim or psi.amplitudes.ndim == 2 else (psi.dim,)
    return (angles if angles.ndim else angles.repeat(k)), x, shape


def propagate(H: BandedOperator, angle, psi: StateVector) -> StateVector:
    """Apply exp(-i theta H) to ``psi`` via eigendecomposition.

    ``angle`` is a scalar or one angle theta_k per column: psi may be one
    state (shared by every angle) or a (d, K) block, and the result is a
    block whenever either is. On each chain of H's eigensystem all K
    columns cost one real matrix product with the eigenvectors and one with
    their transpose, V (exp(-i theta_k lambda) * (V^dag psi_k)). Columns
    with theta_k = 0 are copied from psi exactly, and a chain on which psi is
    exactly zero is skipped and never solved: twisting the lowest-weight
    state, or the vacuum, never diagonalizes the odd parity block.

    Exact up to roundoff; the eigensystem is memoized on the operator. The
    unitary itself is the propagation of the identity block,
    ``propagate(H, theta, StateVector(np.eye(d)))``. Unnormalized inputs
    (derivative vectors) are propagated linearly and stay unnormalized.
    Raises PrecisionLossError when some |theta_k| * max|eigenvalue| on a
    propagated chain exceeds MAX_PHASE, and ContractViolationError for an H
    with several off-diagonal bands, as does ``propagate_with_derivative``.
    """
    _require_matching(H, psi)
    eig = H.eigensystem
    angles, x, shape = _columns(angle, psi)
    still = angles == 0
    if still.all() and psi.amplitudes.shape == shape:
        return psi
    out = np.empty((psi.dim, angles.size), dtype=complex)
    reach = float(np.abs(angles).max(initial=0.0))
    for r in range(eig.stride):
        xr = x[r :: eig.stride]
        if not reach or not xr.any():
            out[r :: eig.stride] = 0.0
            continue
        chain = eig.chain(r)
        coeffs = chain.analyze(xr)
        turns = chain.turns(angles, reach)
        np.multiply(turns, coeffs, out=turns)
        del coeffs  # not held through the products with V
        chain._synthesize_into(turns, out[r :: eig.stride])
    if still.any():
        np.copyto(out, x, where=still)
    return _built(out.reshape(shape), normalized=psi.normalized)


class PropagationWithDerivative(NamedTuple):
    phi: StateVector
    dphi: StateVector


class _Coupling(NamedTuple):
    """Chain block (r, q) of G~ = V^dag G V, split at the near gaps.

    ``divided`` is D = G~ / (lambda_j - mu_k), for chain r's values lambda
    and chain q's values mu, with zeros on the near pairs: the (j, k) with
    |lambda_j - mu_k| <= NEAR_GAP * max(|lambda|, |mu|). Those are listed
    in ``rows`` and ``cols``, with their entries of G~ in ``coupling``.
    """

    divided: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    coupling: np.ndarray


@lru_cache(maxsize=1)
def _in_eigenbasis(
    H0: BandedOperator, G: BandedOperator
) -> dict[tuple[int, int], _Coupling]:
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
            row, col = eig.chain(r), eig.chain(q)
            sub = row.phases.conj()[:, None] * sub * col.phases
            divided = row.analyze_real(col.analyze_real(sub.T).T)
            gaps = np.subtract.outer(row.values, col.values)
            near = np.abs(gaps) <= NEAR_GAP * max(row.largest, col.largest)
            rows, cols = np.nonzero(near)
            coupling = divided[rows, cols]
            gaps[near] = 1.0
            divided /= gaps
            divided[near] = 0.0
            for arr in (divided, rows, cols, coupling):
                arr.setflags(write=False)
            blocks[r, q] = _Coupling(divided, rows, cols, coupling)
    return blocks


def _near_weights(
    lam: np.ndarray, mu: np.ndarray, angles: np.ndarray
) -> np.ndarray:
    """Gamma_jk = -i exp(-i theta (lam + mu) / 2) sinc(theta (lam - mu) / 2)
    for pairs (lam_p, mu_p), one row per pair and one column per angle."""
    mean = np.multiply.outer((lam + mu) / 2, angles)
    gap = np.multiply.outer(lam - mu, angles / (2 * np.pi))
    return -1j * np.exp(-1j * mean) * np.sinc(gap)


def propagate_with_derivative(
    H0: BandedOperator,
    G: BandedOperator,
    angle,
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
        Gamma_jk = (f_j - f_k) / (lambda_j - lambda_k),
        f = expm1(-i theta lambda) / theta,

    theta Gamma being the divided difference of exp(-i theta lambda), a
    Loewner matrix (the Daleckii-Krein form of the Frechet derivative;
    Najfeld & Havel, Adv. Appl. Math. 16, 1995; Higham, Functions of
    Matrices, 2008, ch. 3). With D = G~ / (lambda_j - lambda_k), which does
    not depend on theta, the weighted sum splits into

        (G~ * Gamma) c = f * (D c) - D (f * c),

    two products of the fixed D with (d, K) blocks, for all K columns at
    once. The split cancels where lambda_j and lambda_k nearly coincide, so
    a pair with a gap of at most NEAR_GAP * max|lambda| is kept out of D
    and added pair by pair with the equal weight

        Gamma_jk = -i exp(-i theta (lambda_j + lambda_k) / 2)
                   * sinc(theta (lambda_j - lambda_k) / 2),

    which stays exact on degenerate eigenvalues, where it tends to
    -i exp(-i theta lambda_j); one-axis twisting has exactly degenerate
    pairs. theta = 0 gives (psi, -i G psi) exactly. D and the near pairs
    are computed once per (H0, G) pair and kept per nonzero chain block;
    the field generator flips parity, so that is one even-odd block.

    Angles and states are batched as in ``propagate``. A chain block costs
    two matrix products with D and two with its adjoint, whatever K.
    """
    if H0.dim != G.dim:
        raise DimensionMismatchError(
            f"generator dims differ: {H0.dim} vs {G.dim}"
        )
    _require_matching(H0, psi)
    if not psi.normalized:
        raise ContractViolationError(
            "propagate_with_derivative expects a normalized input state"
        )
    eig = H0.eigensystem
    angles, x, shape = _columns(angle, psi)
    still = angles == 0
    # Every row of every column is written: by its chain, or as a still column.
    phi = np.empty((psi.dim, angles.size), dtype=complex)
    dphi = np.empty_like(phi)
    if not still.all():
        reach = float(np.abs(angles).max())
        chains = [eig.chain(r) for r in range(eig.stride)]
        coeffs = [c.analyze(x[r :: eig.stride]) for r, c in enumerate(chains)]
        turns = [c.turns(angles, reach) for c in chains]
        # f = expm1(-i theta lambda) / theta; a still column's is unused.
        theta = np.where(still, 1.0, angles)
        f = [c.expm1_table(angles, theta) for c in chains]
        weighted = [np.zeros(fr.shape, dtype=complex) for fr in f]
        for (r, q), block in _in_eigenbasis(H0, G).items():
            D = block.divided
            weighted[r] += f[r] * (D @ coeffs[q])
            weighted[r] -= D @ (f[q] * coeffs[q])
            j, k = block.rows, block.cols
            gamma = _near_weights(chains[r].values[j], chains[q].values[k], angles)
            np.add.at(weighted[r], j, block.coupling[:, None] * gamma * coeffs[q][k])
            if r != q:
                # Block (q, r) is the adjoint: -D^dag, with D^dag y computed
                # as conj(D^T conj(y)), and the conjugate near couplings
                # (Gamma is symmetric in the pair).
                weighted[q] -= f[q] * np.conj(D.T @ np.conj(coeffs[r]))
                weighted[q] += np.conj(D.T @ np.conj(f[r] * coeffs[r]))
                near = np.conj(block.coupling)[:, None] * gamma
                np.add.at(weighted[q], k, near * coeffs[r][j])
        for r, chain in enumerate(chains):
            np.multiply(turns[r], coeffs[r], out=turns[r])
            chain._synthesize_into(turns[r], phi[r :: eig.stride])
            chain._synthesize_into(weighted[r], dphi[r :: eig.stride])
    if still.any():
        start = np.broadcast_to(x, phi.shape)[:, still]
        phi[:, still] = start
        dphi[:, still] = -1j * G.matvec(start)
    return PropagationWithDerivative(
        phi=_built(phi.reshape(shape)),
        dphi=_built(dphi.reshape(shape), normalized=False),
    )


def apply_operator(A: BandedOperator, psi: StateVector, prefactor=1.0) -> StateVector:
    """prefactor * A |psi> as an unnormalized vector or block.

    A vector prefactor scales the columns one by one; a vector psi is then
    shared by every column. An image that already has the result's shape is
    scaled in place.
    """
    _require_matching(A, psi)
    image = A.matvec(psi.amplitudes)
    if np.ndim(prefactor) and image.ndim == 1:
        image = image[:, None]
    if np.shape(prefactor) in ((), image.shape[1:]):
        np.multiply(prefactor, image, out=image)
    else:
        image = prefactor * image
    return _built(image, normalized=False)


def variance(A: BandedOperator, psi: StateVector) -> float | np.ndarray:
    """<A^2> - <A>^2 on a normalized state, clamped at 0; one per column
    for a block."""
    _require_matching(A, psi)
    if not psi.normalized:
        raise ContractViolationError("variance requires a normalized state")
    a_psi = A.matvec(psi.amplitudes)
    mean = _real_inner(psi.amplitudes, a_psi)
    second = _real_inner(a_psi, a_psi)
    var = second - mean * mean
    if np.any(var < -1e-12):
        raise ContractViolationError(
            f"variance evaluated to {np.min(var):.3e} < -1e-12"
        )
    return _per_column(np.maximum(var, 0.0))


def overlap(a: StateVector, b: StateVector) -> complex | np.ndarray:
    """<a|b>, one per column for blocks."""
    if a.amplitudes.shape != b.amplitudes.shape:
        raise DimensionMismatchError(
            f"state shapes differ: {a.amplitudes.shape} vs {b.amplitudes.shape}"
        )
    return _per_column(_inner(a.amplitudes, b.amplitudes))

