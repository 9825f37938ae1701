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

* an operator with no off-diagonal band (``BandedOperator.diagonal``; the
  one-axis twist m^2 / N, which ``protocols.spin_mode`` writes in its own
  frame) is its own eigensystem: a propagation turns each amplitude by its
  own phase, and the field derivative weights each entry of the field's
  bands (``_weighted_bands``), with no solve and no dense matrix,
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
  parity carries each parity chain only into the other in the twisting
  eigenbasis: the field derivative builds the one block (r, q) that takes
  a state on chain q into chain r, in the direction it is applied,
* each chain is solved on first use (``BandedOperator.chain``), and a
  propagation skips a chain on which its input is exactly zero, so a
  state that stays in one parity block never diagonalizes the other,
* the ladder elements of a Dicke sector are mirror-symmetric,
  l_k = l_{N-1-k} (the reflection m -> -m), so a chain with a zero
  diagonal whose real tridiagonal matrix is its own mirror image (every
  two-axis chain at even N, and the one chain of a field generator) is
  solved as two half-size eigenproblems; this is detected by exact
  equality, so a Fock chain (l_k = sqrt(k + 1)) and each parity block at
  odd N (the two blocks are each other's mirror images) are solved whole,
  and so is any chain with a diagonal, the Fock one-axis chains,
* a real block, whole chain or mirror half, whose diagonal is exactly zero
  and whose links are all nonzero couples only its even positions to its
  odd ones; such a bipartite block is solved through the SVD of its
  half-size upper-bidiagonal coupling (Golub & Kahan, SIAM J. Numer.
  Anal. B 2, 205, 1965). Every two-axis-twisting block is one, except an
  even-length mirror half, whose middle link sits on its diagonal; every
  other block takes one ``eigh``,
* an even-length mirror chain with a zero diagonal (every two-axis chain
  of even length, and the field chain at odd N) has a mirror-odd half
  that is exactly -J_h T_even J_h, J_h = diag((-1)^i): only its
  mirror-even half is solved, and the odd half is kept as the image J_h Q
  of those vectors, with the values negated in the same order,
* a mirror chain is kept as its two halves: its values are not
  ascending, and a product with its eigenvectors is two half-size
  products; any other chain is the same ``Chain`` with an empty mirror-odd
  half, one real orthogonal matrix and ascending values,
* every phase table (the turns exp(-i x), the f = expm1(-i x) / theta of
  the derivative, its near-gap weights and the cos and sin of the real
  rotation) is built whole by one tangent half-angle kernel,
  ``_tan_half``, from t = tan(x / 2) by quotients: numpy evaluates a
  tangent in SIMD lanes and a sine, cosine or complex exponential one
  value at a time; a chain whose phases are all exactly 1, a Fock one-axis
  chain, skips its phase products,
* an operator that is i times a real antisymmetric band A (a zero
  diagonal and purely imaginary bands: the field generator and two-axis
  twisting) has exp(-i theta H) = exp(theta A), a real rotation. A real
  state propagated under it is turned in real arithmetic through the
  +- pairs of each chain (``Chain.rotate``), which its solver recorded
  when it built them, within each bipartite SVD block or across the
  halves of a derived mirror chain, so no value is compared to find a
  pair; its image -i t H psi is t A psi (``apply_generator``).

States are vectors (d,) or blocks (d, K) of K states side by side, with
float64 amplitudes when they are real and complex128 otherwise: the probe
is real, it stays real under the field generator and two-axis twisting,
and any other operation makes it complex. The propagators take one angle
per column, so K columns (the sensing fractions of one twist's curve, or
of several twists' curves side by side) turn through their K twist angles
in one real matrix product per chain instead of K
matrix-vector products; the reductions (variances, overlaps) give one
value per column, and reduce two real blocks without a complex copy.

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
of an operator's eigendecomposition and what is derived from them once
(an operator's ``stride`` and ``turns_reals``, a chain's rotation plan),
which are idempotent and safe under concurrent access.
"""

from __future__ import annotations

from collections.abc import Mapping
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


def _frozen_array(values, dtype=complex) -> np.ndarray:
    """Copy input into an immutable array of ``dtype``."""
    arr = np.array(values, dtype=dtype)
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
    holds the even block's values, then the odd block's, each ascending
    except a derived odd block (``_persymmetric_chain``), which holds the
    even block's values negated, in the same order.
    V^T y folds y into the sums y_i + y_{n-1-i} (and the middle) and the
    differences y_i - y_{n-1-i} and makes one product with each block; V c
    makes the two products and unfolds them. A chain that is its own
    mirror image has h = n // 2 (``_persymmetric_chain``): half the memory
    of V and half the flops of a product with it. Any other chain has
    h = 0: ``vectors`` is the whole V, ``odd`` is empty and the values are
    ascending.

    ``pairs`` is the +- pairing the solver built: "within" when every
    block has the layout of the bipartite SVD (``_tridiagonal_eigh``),
    "across" when the odd block is the even block's image, column by
    column, and None when the values are not paired. ``real`` marks
    phases that are all exactly 1 (a Fock one-axis chain): V_r = V, and no
    phase is multiplied or conjugated. The tables of turns and of the
    derivative's f are built whole by the half-angle kernel
    (``_tan_half``). A complex slice is turned by ``turn``, and a real
    slice under an H that is i times a real antisymmetric band by
    ``rotate``, through the ``pairs`` in real arithmetic.
    """

    def __init__(
        self, values: np.ndarray, vectors: np.ndarray, odd: np.ndarray, phases: np.ndarray,
        pairs: str | None,
    ):
        self.values = values
        self.vectors = vectors
        self.phases = phases
        self.odd = odd
        self.pairs = pairs
        self.largest = float(np.abs(values).max())
        self.real = bool(np.all(phases == 1))
        for arr in (values, vectors, phases, odd):
            arr.setflags(write=False)

    def _fold(self, y: np.ndarray) -> np.ndarray:
        """The mirror sums of y over its mirror differences, as real pairs;
        y's own pairs on a chain with no mirror pairs."""
        return self._fold_rows(_pairs(y))

    def _fold_rows(self, rows: np.ndarray) -> np.ndarray:
        """``_fold`` of a real (n, K) array."""
        n, h = len(rows), len(self.odd)
        if not h:
            return rows
        top, bottom = rows[:h], rows[n - h :][::-1]
        folded = np.empty_like(rows)
        np.add(top, bottom, out=folded[:h])
        folded[h : n - h] = rows[h : n - h]
        np.subtract(top, bottom, out=folded[n - h :])
        return folded

    def _unfold(self, dest: np.ndarray, odd: np.ndarray) -> None:
        """Undo the fold in place: ``dest`` holds the mirror-even block's
        product in its first n - h rows, ``odd`` the mirror-odd block's."""
        n, h = len(dest), len(odd)
        np.subtract(dest[:h], odd, out=dest[n - h :][::-1])
        np.add(dest[:h], odd, out=dest[:h])

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

    def unfolded(self) -> np.ndarray:
        """V itself, (n, n) and real: row i < h is the two blocks' row i,
        row n - 1 - i the same with the mirror-odd half negated, and a middle
        row has the mirror-even block's row only."""
        n, h = len(self.values), len(self.odd)
        if not h:
            return self.vectors
        m = n - h
        out = np.zeros((n, n))
        out[:m, :m] = self.vectors
        out[m:, :m] = self.vectors[:h][::-1]
        out[:h, m:] = self.odd
        np.negative(self.odd[::-1], out=out[m:, m:])
        return out

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
            self._unfold(dest, np.matmul(self.odd, pairs[m:]))
        if not self.real:
            out *= _per_row(self.phases, out)
        return out

    def turns(self, angles, reach: float) -> np.ndarray:
        """exp(-i angle_k lambda_j), one column per angle (a vector for a
        scalar angle), refused past MAX_PHASE (``_check_reach``)."""
        _check_reach(reach, self.largest)
        return _turns(self.values, angles)

    def turn(self, x: np.ndarray, angles, reach: float, out: np.ndarray) -> np.ndarray:
        """exp(-i angle_k H) x_k = V_r (exp(-i angle_k lambda) * V_r^dag x_k)
        for a complex (n, 1) or (n, K) slice x, written into the complex
        (n, K) ``out``, which may be a row-strided view; refused past
        MAX_PHASE as ``turns`` is. Returns the coefficients V_r^dag x."""
        coeffs = self.analyze(x)
        turned = self.turns(angles, reach)
        turned *= coeffs
        self._synthesize_into(turned, out)
        return coeffs

    def expm1_table(self, angles, theta) -> np.ndarray:
        """expm1(-i angle_k lambda_j) / theta_k, the f of
        ``propagate_with_derivative``, one column per angle; taken after
        ``turns``, which checks the range."""
        # expm1(-i x) = -2 t^2 / (1 + t^2) + i 2 t / (1 + t^2) for
        # t = tan(-x / 2): no cos x - 1 to cancel at small x.
        t, square, inv = _tan_half(np.multiply.outer(-0.5 * self.values, angles), 2.0 / theta)
        table = np.empty(t.shape, dtype=complex)
        square *= inv
        np.negative(square, out=table.real)
        np.multiply(t, inv, out=table.imag)
        return table

    @cached_property
    def _rotation(self) -> _Rotation | None:
        """How ``rotate`` pairs this chain's values, or None when it cannot.

        The values must be paired (``pairs``), and the phases must be
        quarter turns, real at even positions and imaginary at odd ones, as
        they are when no link is zero.
        """
        n, h = len(self.values), len(self.odd)
        signs = self.phases * np.where(np.arange(n) % 2, 1j, 1.0)
        if self.pairs is None or signs.imag.any() or not np.all(np.abs(signs.real) == 1):
            return None
        signs = signs.real[:, None]
        if self.pairs == "across":
            whole = slice(0, h)
            block = _Block(whole, h, self.vectors, (0, whole), self.odd, (1, whole))
            return _Rotation(signs, 0.5 * self.values[:h], np.ones((h, 1)), (block,))
        blocks, half_values, scale, start = [], [], [], 0
        for half, vectors in enumerate((self.vectors, self.odd)[: 2 if h else 1]):
            size, lo = len(vectors), half * (n - h)
            k = size // 2
            blocks.append(_Block(
                slice(start, start + size - k), k,
                vectors[0::2, : size - k], (half, slice(0, size, 2)),
                vectors[1::2, :k], (half, slice(1, size, 2)),
            ))
            start += size - k
            # Each pair's columns carry 1 / sqrt(2), the zero mode's none.
            half_values.append(np.append(-0.5 * self.values[lo : lo + k], np.zeros(size % 2)))
            scale.append(np.append(np.full(k, 2.0), np.ones(size % 2)))
        return _Rotation(
            signs, np.concatenate(half_values), np.concatenate(scale)[:, None], tuple(blocks)
        )

    def rotate(self, x: np.ndarray, angles: np.ndarray, reach: float, out: np.ndarray):
        """exp(-i angle_k H) x_k for a real (n, 1) or (n, K) slice x of an H
        that is i times a real antisymmetric band (``BandedOperator.
        turns_reals``), written into the real (n, K) ``out``, which may be a
        row-strided view; refused past MAX_PHASE as ``turns`` is.

        With R = diag(r) the real signs r_k = p_k i^(k mod 2) of the
        quarter-turn phases and J = diag((-1)^k) the parity of the position,
        the chain's real matrix T = P^dag H P is bipartite, J T J = -T, and

            exp(-i theta H) = R (cos(theta T) + J sin(theta T)) R.

        J maps each eigenvector of value lambda to one of value -lambda, so
        on the coefficients (a, b) of each such pair the bracket is the
        rotation (a, b) -> (a cos - b sin, b cos + a sin) of the angle
        theta lambda: half-size real products and one table of angles for
        the whole chain, with no complex amplitude anywhere. The pairs sit
        in two shapes:

        * a whole chain, or each half of a mirror chain of odd length, is
          one bipartite block. Its even rows and first ceil(m / 2) columns
          hold the right singular vectors W / sqrt(2), and the one of value
          0 at odd m; its odd rows and first m // 2 columns hold the left
          ones -U / sqrt(2), for the values -sigma. So a = (W / sqrt(2))^T
          y_even and b = (-U / sqrt(2))^T y_odd, and the rotation of the
          angles theta sigma, doubled, takes them back through the same two
          half-size blocks. The zero mode keeps its coefficient.
        * a mirror chain of even length keeps its mirror-odd half as the
          image J_h Q of the mirror-even vectors Q (``_persymmetric_chain``),
          J_h = diag((-1)^i), and J pairs each column of one half with the
          same column of the other: a = Q^T y_even and b = (J_h Q)^T y_odd.

        A chain that cannot be paired (``_rotation`` is None) is turned as
        a complex slice and its real part kept, exact up to roundoff.
        """
        plan = self._rotation
        if plan is None:
            turned = np.empty(out.shape, dtype=complex)
            self.turn(x.astype(complex), angles, reach, turned)
            np.copyto(out, turned.real)
            return
        _check_reach(reach, self.largest)
        m = len(x) - len(self.odd)
        y = self._fold_rows(x * plan.signs)
        halves = (y[:m], y[m:])
        a, b = np.zeros((2, len(plan.half_values), y.shape[1]))
        for block in plan.blocks:
            (i, at), (j, bt) = block.even_rows, block.odd_rows
            np.matmul(block.even.T, halves[i][at], out=a[block.rows])
            np.matmul(block.odd.T, halves[j][bt], out=b[block.rows][: block.pairs])
        a, b = _turn_pairs(a, b, plan.half_values, angles, plan.scale)
        # The mirror-even half is written into out, the mirror-odd one
        # apart, and the fold is undone in place, as ``_synthesize_into`` does.
        odd = np.empty((len(self.odd), out.shape[1]))
        halves = (out[:m], odd)
        for block in plan.blocks:
            (i, at), (j, bt) = block.even_rows, block.odd_rows
            np.matmul(block.even, a[block.rows], out=halves[i][at])
            np.matmul(block.odd, b[block.rows][: block.pairs], out=halves[j][bt])
        if len(odd):
            self._unfold(out, odd)
        out *= plan.signs


class _Block(NamedTuple):
    """One block of a chain's real rotation: its coefficient ``rows`` in the
    stacked a and b, its number of ``pairs``, and the vectors that give a
    and b from the folded rows ``even_rows`` and ``odd_rows``, each a
    (half, rows) with half 0 for the mirror-even fold (the whole chain
    when it has no mirror pairs) and 1 for the mirror-odd one. b has
    ``pairs`` rows; a may have one more, a zero mode."""

    rows: slice
    pairs: int
    even: np.ndarray
    even_rows: tuple[int, slice]
    odd: np.ndarray
    odd_rows: tuple[int, slice]


class _Rotation(NamedTuple):
    """A chain's real rotation (``Chain.rotate``).

    ``signs`` are the r_k, a (n, 1) column. The coefficient rows of all
    blocks are stacked: row j turns through the angle 2 theta
    ``half_values[j]`` and is scaled by ``scale[j]``.
    """

    signs: np.ndarray
    half_values: np.ndarray
    scale: np.ndarray
    blocks: tuple[_Block, ...]


def _tan_half(half: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tangent half-angle kernel that builds every phase table: for the
    half angles ``half`` = x / 2, which it overwrites with t = tan(x / 2),
    the arrays t, t^2 and scale / (1 + t^2), from which

        cos x = (1 - t^2) / (1 + t^2),    sin x = 2 t / (1 + t^2),
        expm1(-i x) = -2 t (t + i) / (1 + t^2).

    numpy evaluates a float64 tangent in SIMD lanes but its sine, cosine
    and complex exponential one value at a time, so a table costs a third
    or less of theirs. Measured against numpy over |x| from 1e-12 to
    MAX_PHASE, cos x and sin x stay within 2.3e-16, and expm1(-i x) within
    6.8e-16, and within 6.8e-16 relative for |x| < 1e-3, where the real
    part -2 t^2 / (1 + t^2) keeps the digits that cos x - 1 cancels. An
    angle of 0 gives exactly 1, 0 and 0. ``scale``, the numerator of the
    quotient, broadcasts over the table: a scalar, a row of one value per
    angle or a column of one per value.
    """
    t = np.tan(half, out=half)
    square = t * t
    inv = 1.0 + square
    np.divide(scale, inv, out=inv)
    return t, square, inv


def _check_reach(reach: float, largest: float) -> None:
    """Refuse turns past MAX_PHASE: ``reach`` is max|angle_k|, which a
    caller turning several chains takes once, and ``largest`` the
    operator's max|eigenvalue| on what it turns."""
    phase = reach * largest
    if not phase <= MAX_PHASE:
        raise PrecisionLossError(
            f"|duration| * max|eigenvalue| = {phase:.3e} exceeds {MAX_PHASE:.0e}; "
            "the propagator phases would be lost to roundoff"
        )


def _turns(values: np.ndarray, angles) -> np.ndarray:
    """exp(-i angle_k lambda_j) for the eigenvalues ``values``, one column
    per angle (a vector for a scalar angle)."""
    # exp(-i x) = cos x + i sin(-x), from the half angles -x / 2.
    t, cos, inv = _tan_half(np.multiply.outer(-0.5 * values, angles), 1.0)
    table = np.empty(t.shape, dtype=complex)
    np.subtract(1.0, cos, out=cos)
    np.multiply(cos, inv, out=table.real)
    t *= inv
    np.add(t, t, out=table.imag)
    return table


def _turn_pairs(a, b, half_values, angles, scale) -> tuple[np.ndarray, np.ndarray]:
    """scale (a cos - b sin, b cos + a sin) of the angles x = 2 half_values_j
    theta_k, one column per angle; a and b may be single columns shared by
    every angle, and scale is a column. cos and sin come from the half
    angles through ``_tan_half``.
    """
    sin, cos, inv = _tan_half(np.multiply.outer(half_values, angles), scale)
    np.subtract(1.0, cos, out=cos)
    cos *= inv
    sin *= inv
    sin += sin
    turned_a, turned_b = np.multiply(cos, a, out=inv), cos * b
    np.multiply(sin, b, out=cos)
    turned_a -= cos
    np.multiply(sin, a, out=cos)
    turned_b += cos
    return turned_a, turned_b


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

    H = V diag(lambda) V^dag is kept chain by chain: an operator with at
    most one off-diagonal band, at offset ``stride``, splits into that many
    chains, and ``chain(r)`` solves chain r when it is first asked for and
    keeps it.
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
        object.__setattr__(self, "_chains", {})
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
        """A x for a vector or, column by column, a (dim, K) block."""
        return _band_product(self.bands, x, complex)

    @cached_property
    def turns_reals(self) -> bool:
        """Whether this is i times a real antisymmetric matrix A: a zero
        diagonal and purely imaginary bands, A's being their imaginary
        parts. Then exp(-i theta H) = exp(theta A) and -i H = A map real
        states to real states (``propagate``, ``apply_generator``)."""
        return not any(values.real.any() for values in self.bands.values())

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The real diagonal of an operator with no off-diagonal band, None
        for any other. Such an operator is its own eigensystem: the values
        are its diagonal in basis order and the vectors the basis, so it is
        propagated by elementwise phases and never solved."""
        if any(self.bands.keys() - {0}):
            return None
        return self.bands[0].real if 0 in self.bands else np.zeros(self.dim)

    def block_bands(self, r: int, q: int, stride: int) -> list[tuple[int, int, np.ndarray]]:
        """The diagonals of the block of rows r, r + stride, ... and columns
        q, q + stride, ..., as (first, shift, values): its entries
        (a, a + shift) are ``values``, for the rows a = first, first + 1,
        ... that the band reaches."""
        d = self.dim
        rows = np.arange(r, d, stride)
        found = []
        for k, values in self.bands.items():
            if (r + k - q) % stride:
                continue
            i = rows[(rows + k >= 0) & (rows + k < d)]
            if len(i):
                found.append(((i[0] - r) // stride, (r + k - q) // stride, values[np.minimum(i, i + k)]))
        return found

    @cached_property
    def stride(self) -> int:
        """The offset b of the one off-diagonal band (1 with none): chain r
        holds the basis indices r, r + b, r + 2b, ..., and H has no entries
        between chains. An operator with several off-diagonal bands has no
        chains and is refused."""
        offsets = [k for k in self.bands if k > 0]
        if len(offsets) > 1:
            raise ContractViolationError(
                f"operator has off-diagonal bands at offsets {offsets}; "
                "only one can be propagated"
            )
        return offsets[0] if offsets else 1

    def chain(self, r: int) -> Chain:
        """The eigensystem of chain r, solved on first use and memoized.

        Each chain is a real symmetric tridiagonal eigenproblem (see the
        module docstring), solved as two half-size blocks, kept as the two
        halves, when its diagonal is zero and its matrix equals its own
        reverse (one of them the other's image when its length is even,
        ``_persymmetric_chain``), and whole otherwise. Each block is solved
        through a half-size SVD when its diagonal is zero and by one
        ``eigh`` otherwise (``_tridiagonal_eigh``). An r that names no
        chain, outside 0 <= r < ``stride``, is refused.
        """
        found = self._chains.get(r)
        if found is not None:
            return found
        b = self.stride
        if not 0 <= r < b:
            raise InvalidDimensionError(f"chain {r} of an operator with {b} chains")
        a = self.bands[0].real[r::b] if 0 in self.bands else np.zeros(len(range(r, self.dim, b)))
        e = self.bands[b][r::b] if b in self.bands else np.zeros(len(a) - 1)
        size = np.abs(e)
        unit = np.ones(len(e), dtype=complex)
        linked = size > 0
        unit[linked] = e[linked].conj() / size[linked]
        # p_{i+1} = p_i conj(e_i) / |e_i|, renormalized so that the running
        # product's roundoff cannot make diag(p) non-unitary.
        p = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
        p /= np.abs(p)
        if len(a) > 1 and not a.any() and np.array_equal(size, size[::-1]):
            found = _persymmetric_chain(size, p)
        else:
            values, vectors, paired = _tridiagonal_eigh(a, size)
            found = Chain(values, vectors, np.zeros((0, 0)), p, "within" if paired else None)
        self._chains[r] = found
        return found


def _band_product(bands: Mapping[int, np.ndarray], x: np.ndarray, dtype) -> np.ndarray:
    """The banded matrix with these bands times a vector or, column by
    column, a (dim, K) block, as a new array of ``dtype``.

    The first band's products are written straight into the result, whose
    other rows are zeroed. Each further band's are added a few rows at a
    time through one scratch block of at most ``np.getbufsize()``
    amplitudes, the size of the buffer a numpy ufunc call allocates, so a
    call holds little beyond its result.
    """
    out = np.empty(x.shape, dtype=dtype)
    if not bands:
        out[...] = 0.0
        return out
    d = len(x)
    step = max(1, np.getbufsize() // max(1, x.size // d))
    scratch = None
    for i, (k, values) in enumerate(bands.items()):
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
            scratch = np.empty((min(step, d), *x.shape[1:]), dtype=dtype)
        for start in range(0, hi - lo, step):
            part = slice(start, start + step)
            product = scratch[: min(step, hi - lo - start)]
            rows[part] += np.multiply(values[part], source[part], out=product)
    return out


def _tridiagonal_eigh(diagonal: np.ndarray, off: np.ndarray) -> tuple:
    """Ascending eigenvalues and orthogonal eigenvectors of the real symmetric
    tridiagonal matrix T with this diagonal and off-diagonal, and whether
    they are laid out in +- pairs by the bipartite SVD.

    A T with a zero diagonal and no zero link is bipartite: its values are
    +-sigma, and a 0 at odd n, for the singular triples S v = sigma u of the
    square upper-bidiagonal S[i, i] = off[2i], S[i, i + 1] = off[2i + 1]
    (rows at the odd positions, a zero last row at odd n), with vectors
    (v, +-u) / sqrt(2) and (v_0, 0) (Golub & Kahan, SIAM J. Numer. Anal.
    B 2, 205, 1965). LAPACK's SVD leaves such an S unrotated. So for
    j < n // 2 the columns j and n - 1 - j are each other's image under the
    parity J = diag((-1)^i), with opposite values, and the middle column of
    an odd n has value 0 and no odd row: the layout that ``Chain`` pairs
    "within". Any other T takes one dense ``eigh`` and is not paired; so
    does a split chain, where a second zero singular value could take the
    padding row's direction. At odd n the left singular vectors carry
    about eps / (sigma_min / sigma_max) of the padding row, and dropping it
    leaves |V^T V - I| near the square of that; a nearly split chain, whose
    vectors hold more than sqrt(eps) of that row, takes the ``eigh`` after
    its SVD. The program's own chains, measured up to N = 4002 and a Fock
    dimension of 2001, hold at most 1.2e-12 of it and keep the SVD.
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
            return np.concatenate((-pairs, np.zeros(n % 2), pairs[::-1])), vectors, True
    tridiagonal = np.diag(diagonal)
    i = np.arange(len(off))
    tridiagonal[i, i + 1] = tridiagonal[i + 1, i] = off
    return *np.linalg.eigh(tridiagonal), False


def _persymmetric_chain(off: np.ndarray, phases: np.ndarray) -> Chain:
    """The chain of a tridiagonal matrix with a zero diagonal that is its
    own reverse, T = J T J with n >= 2, solved as its mirror-even and
    mirror-odd halves.

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

    At even n the odd block is exactly -J_h T_even J_h, J_h = diag((-1)^i):
    only the even block is solved, values lambda and vectors Q, and the odd
    block is kept as the vectors J_h Q with the values -lambda in the same
    order, so its values descend. Each odd vector is then the image of the
    even vector in its column under the parity of the whole chain, and the
    chain pairs "across" its halves. At odd n both blocks are solved, and
    the chain pairs "within" them when both are bipartite SVDs (no zero
    link). The ``Chain`` keeps the two halves: its even block's first h rows
    and its whole odd block are scaled by 1 / sqrt(2). A chain with a
    nonzero diagonal is solved whole: no operator of the program has a
    mirror-symmetric one.
    """
    n = len(off) + 1
    h = n // 2
    link = off[h - 1]
    inner = off[: h - 1]
    if n % 2:
        values, vectors, paired = _tridiagonal_eigh(
            np.zeros(h + 1), np.append(inner, sqrt(2.0) * link)
        )
        odd_values, odd, odd_paired = _tridiagonal_eigh(np.zeros(h), inner)
        pairs = "within" if paired and odd_paired else None
    else:
        corner = np.zeros(h)
        corner[-1] = link
        values, vectors, _ = _tridiagonal_eigh(corner, inner)
        odd_values, odd = -values, vectors.copy()
        odd[1::2] *= -1.0
        pairs = "across"
    vectors[:h] *= sqrt(0.5)
    odd *= sqrt(0.5)
    return Chain(np.concatenate((values, odd_values)), vectors, odd, phases, pairs)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes in the Dicke (or Fock) basis: one state of shape (d,), or
    a block of K states side by side, shape (d, K). They are float64 when
    the values passed in are real and complex128 otherwise; a real state
    stays real through every operation that maps it to a real state
    (``propagate`` and ``apply_generator`` under an H with ``turns_reals``).

    ``normalized=True`` asserts unit norm at construction, column by column
    for a block; derivative vectors carry ``normalized=False`` and skip the
    check. The amplitudes are a read-only copy of the array passed in; the
    operations of this module hand over the blocks they build uncopied
    (``_built``).
    """

    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        amps = self.amplitudes
        self._freeze(_frozen_array(amps, complex if np.iscomplexobj(amps) else float))

    def _freeze(self, amps: np.ndarray) -> None:
        """Take the float64 or complex array ``amps`` as the amplitudes,
        read-only, and check its shape and, if tagged normalized, its norms."""
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


def _both_real(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype.kind == b.dtype.kind == "f"


def _real_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a|b> column by column (a 0-d array for two vectors): a . b over
    the blocks themselves when both are real, otherwise summed over the
    real (d, 2K) views of a and b without a complex temporary."""
    if _both_real(a, b):
        x = a.reshape(len(a), -1)
        sums = np.einsum("ij,ij->j", x, x if b is a else b.reshape(len(b), -1))
        return sums.reshape(np.shape(a)[1:])
    x = _pairs(a)
    sums = np.einsum("ij,ij->j", x, x if b is a else _pairs(b))
    return (sums[0::2] + sums[1::2]).reshape(np.shape(a)[1:])


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> column by column (a 0-d array for two vectors): a real a . b
    for two real blocks, otherwise the real part as ``_real_inner``, the
    imaginary part sum(Re a Im b - Im a Re b) over the same views."""
    if _both_real(a, b):
        return _real_inner(a, b)
    x, y = _pairs(a), _pairs(b)
    out = np.empty(np.shape(a)[1:], dtype=complex)
    sums = np.einsum("ij,ij->j", x, y)
    out.real = (sums[0::2] + sums[1::2]).reshape(out.shape)
    imag = np.einsum("ij,ij->j", x[:, 0::2], y[:, 1::2])
    imag -= np.einsum("ij,ij->j", x[:, 1::2], y[:, 0::2])
    out.imag = imag.reshape(out.shape)
    return out


def initial_state(space: DickeSpace) -> StateVector:
    """The all-spins-down coherent state, the m = -j basis vector (real)."""
    amps = np.zeros(space.dim)
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
    block whenever either is. On each chain of H (``BandedOperator.chain``)
    all K columns cost one real matrix product with the eigenvectors and
    one with their transpose, V (exp(-i theta_k lambda) * (V^dag psi_k)),
    ``Chain.turn``. Columns with theta_k = 0 are copied from psi exactly,
    and a chain on which psi is exactly zero is skipped and never solved:
    twisting the lowest-weight state, or the vacuum, never diagonalizes the
    odd parity block. An H with no off-diagonal band
    (``BandedOperator.diagonal``, the one-axis twist of a Dicke sector) is
    its own eigensystem: each amplitude is turned by its own phase
    exp(-i theta_k H_jj), with no solve and no matrix product.

    A real psi under an H that is i times a real antisymmetric band
    (``BandedOperator.turns_reals``: the two-axis twist and the field
    generator) is turned in real arithmetic, each chain through the
    rotations of its +- pairs (``Chain.rotate``), and the result is real.
    Any other psi is propagated as complex amplitudes.

    Exact up to roundoff; the chains are memoized on the operator. The
    unitary itself is the propagation of the identity block,
    ``propagate(H, theta, StateVector(np.eye(d)))``. Unnormalized inputs
    (derivative vectors) are propagated linearly and stay unnormalized.
    Raises PrecisionLossError when some |theta_k| * max|eigenvalue| on a
    propagated chain exceeds MAX_PHASE, and ContractViolationError for an H
    with several off-diagonal bands, as does ``propagate_with_derivative``.
    """
    _require_matching(H, psi)
    b = H.stride
    angles, x, shape = _columns(angle, psi)
    still = angles == 0
    if still.all() and psi.amplitudes.shape == shape:
        return psi
    real = x.dtype.kind == "f" and H.turns_reals
    if not real:
        x = x.astype(complex, copy=False)
    reach = float(np.abs(angles).max(initial=0.0))
    if H.diagonal is not None and not real:
        _check_reach(reach, np.abs(H.diagonal).max())
        out = _turns(H.diagonal, angles)
        out *= x
    else:
        out = np.empty((psi.dim, angles.size), dtype=x.dtype)
        for r in range(b):
            xr = x[r::b]
            if not reach or not xr.any():
                out[r::b] = 0.0
            elif real:
                H.chain(r).rotate(xr, angles, reach, out[r::b])
            else:
                H.chain(r).turn(xr, angles, reach, out[r::b])
    if still.any():
        np.copyto(out, x, where=still)
    return _built(out.reshape(shape), normalized=psi.normalized)


@dataclass(frozen=True, eq=False)
class StateWithDerivative:
    """A state, or a block of them, and its exact derivative at zero
    field, unnormalized: along the field angle for
    ``propagate_with_derivative``, along the field for
    ``protocols.run_pipeline``. Unpacks as (psi, dpsi)."""

    psi: StateVector
    dpsi: StateVector

    def __post_init__(self) -> None:
        if self.psi.amplitudes.shape != self.dpsi.amplitudes.shape:
            raise DimensionMismatchError(
                f"psi and dpsi live in different spaces: "
                f"{self.psi.amplitudes.shape[0]} vs {self.dpsi.amplitudes.shape[0]}"
            )

    def __iter__(self):
        return iter((self.psi, self.dpsi))


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
def _in_eigenbasis(H0: BandedOperator, G: BandedOperator, q: int) -> dict[int, _Coupling]:
    """The nonzero chain blocks (r, q) of V^dag G V for H0's V, by row
    chain r: the blocks that carry a state on chain q into chain r, built
    in the direction the derivative applies them.

    The field generator flips parity, so in a twisting eigenbasis the one
    nonzero block has its rows on the other parity chain. Every pipeline
    starts on chain 0 and differentiates around one unit-strength twisting
    generator (a Fock Cprime's untwist reuses it at a negative angle), so one
    entry is enough, and more would pin the blocks of generators no longer
    in use; a state on both chains, which only tests make, builds both
    columns' blocks on every call.

    A block is built from G's bands, never from a dense copy of G: with
    V_r = diag(p) V for chain r, each diagonal of G's block (r, q) scales
    the rows of chain q's real V that it reaches by conj(p_a) g_a p_b,
    the scaled rows are summed, and one real-by-complex product with
    chain r's V^T (``analyze_real``) gives the block of V^dag G V.
    """
    stride = H0.stride
    col = H0.chain(q)
    blocks = {}
    for r in range(stride):
        bands = [band for band in G.block_bands(r, q, stride) if band[2].any()]
        if not bands:
            continue
        row = H0.chain(r)
        vectors = col.unfolded()
        scaled = np.zeros((len(row.values), len(col.values)), dtype=complex)
        for first, shift, values in bands:
            a = slice(first, first + len(values))
            b = slice(first + shift, first + shift + len(values))
            weight = row.phases[a].conj() * values * col.phases[b]
            scaled[a] += weight[:, None] * vectors[b]
        del vectors
        divided = row.analyze_real(scaled)
        del scaled
        gaps = np.subtract.outer(row.values, col.values)
        near = np.abs(gaps) <= NEAR_GAP * max(row.largest, col.largest)
        rows, cols = np.nonzero(near)
        coupling = divided[rows, cols]
        gaps[near] = 1.0
        divided /= gaps
        divided[near] = 0.0
        for arr in (divided, rows, cols, coupling):
            arr.setflags(write=False)
        blocks[r] = _Coupling(divided, rows, cols, coupling)
    return blocks


def _near_weights(
    lam: np.ndarray, mu: np.ndarray, angles: np.ndarray
) -> np.ndarray:
    """Gamma_jk = -i exp(-i theta (lam + mu) / 2) sinc(theta (lam - mu) / 2)
    for pairs (lam_p, mu_p), one row per pair and one column per angle.

    With m = theta (lam + mu) / 2 and g = theta (lam - mu) / 2 this is
    (-sin m - i cos m) sin(g) / g, every factor from ``_tan_half``: sin g
    / g = tan(g / 2) / ((1 + tan^2(g / 2)) g / 2), and 1 at g = 0.
    """
    t, cos, inv = _tan_half(np.multiply.outer(-(lam + mu) / 4, angles), 1.0)
    half_gap = np.multiply.outer((lam - mu) / 4, angles)
    u, _, sinc = _tan_half(half_gap.copy(), 1.0)
    sinc *= u
    degenerate = half_gap == 0
    np.divide(sinc, half_gap, out=sinc, where=~degenerate)
    sinc[degenerate] = 1.0
    gamma = np.empty(t.shape, dtype=complex)
    t *= inv
    t += t
    np.multiply(t, sinc, out=gamma.real)
    np.subtract(cos, 1.0, out=cos)
    cos *= inv
    np.multiply(cos, sinc, out=gamma.imag)
    return gamma


def _weighted_bands(
    values: np.ndarray,
    G: BandedOperator,
    angles: np.ndarray,
    turns: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
) -> None:
    """(G * Gamma) x, written into ``out``, for an H0 that is diagonal with
    these ``values`` and so is its own eigenbasis: each entry G_{i, i+k} of
    a band of G takes the weight Gamma(lambda_i, lambda_{i+k}) of
    ``_near_weights``, one column per angle, and no divided difference is
    split. Gamma is symmetric, so band -k takes band k's table.

    ``turns`` is the table exp(-i theta lambda) that turned phi. With
    g = theta (lambda_{i+k} - lambda_i) / 2 the midpoint phase is
    exp(-i theta lambda_i) exp(-i g), so one half-angle tangent t =
    tan(g / 2) per entry gives the rest of the weight:

        Gamma = exp(-i theta lambda_i) (-sin g - i cos g) sin(g) / g
              = turns_i (-2 t - i (1 - t^2)) u,  u = t / ((1 + t^2)^2 g / 2),

    and u = 1 at g = 0.
    """
    d = len(values)
    out[...] = 0.0
    for k, band in G.bands.items():
        if k < 0:
            continue
        half_gap = np.multiply.outer((values[k:] - values[: d - k]) / 4, angles)
        t, square, u = _tan_half(half_gap.copy(), 1.0)
        u *= u
        u *= t
        degenerate = half_gap == 0
        np.divide(u, half_gap, out=u, where=~degenerate)
        u[degenerate] = 1.0
        gamma = np.empty(t.shape, dtype=complex)
        t *= u
        np.multiply(t, -2.0, out=gamma.real)
        square -= 1.0
        np.multiply(square, u, out=gamma.imag)
        del half_gap, t, square, u
        gamma *= turns[: d - k]
        if k:
            lower = np.multiply(gamma, x[: d - k])
            lower *= G.bands[-k][:, None]
            out[k:] += lower
            del lower
        gamma *= band[:, None]
        gamma *= x[k:]
        out[: d - k] += gamma


def propagate_with_derivative(
    H0: BandedOperator,
    G: BandedOperator,
    angle,
    psi: StateVector,
) -> StateWithDerivative:
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
    -i exp(-i theta lambda_j); the one-axis twist m^2 / N of a Dicke
    sector at odd N has a degenerate pair of neighbours, m = -1/2 and 1/2.
    theta = 0 gives (psi, -i G psi) exactly.

    An H0 with no off-diagonal band (``BandedOperator.diagonal``: the
    one-axis twist of a Dicke sector) is its own eigensystem, V = I, so
    G~ = G keeps G's bands and every entry takes this sinc weight
    (``_weighted_bands``): for the field, a tridiagonal product per column,
    with no D, no solve and no near-gap split.

    D and the near pairs are kept per nonzero chain block (r, q), built
    for each chain q that psi reaches (``_in_eigenbasis``) and applied in
    that direction only: block (r, q) adds f_r * (D c_q) - D (f_q * c_q)
    and its near pairs into chain r, two matrix products with D whatever
    K. The field generator flips parity and every pipeline's psi starts on
    chain 0, so a call builds and applies the one block (1, 0).

    Angles and states are batched as in ``propagate``, and, as there, only
    the chains psi reaches are taken: a chain on which psi is exactly zero
    is neither analyzed nor turned, its rows of phi are 0, and it feeds no
    product with D; a chain that no block carries psi into gets its rows
    of dphi as 0, with no synthesis. A real psi is taken as complex
    amplitudes, and both results are complex.
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
    b = H0.stride
    angles, x, shape = _columns(angle, psi)
    x = x.astype(complex, copy=False)
    still = angles == 0
    # Every row of every column is written: by its chain, or as a still column.
    phi = np.empty((psi.dim, angles.size), dtype=complex)
    dphi = np.empty_like(phi)
    reach = float(np.abs(angles).max(initial=0.0))
    moving = not still.all()
    if moving and H0.diagonal is not None:
        _check_reach(reach, np.abs(H0.diagonal).max())
        turns = _turns(H0.diagonal, angles)
        np.multiply(turns, x, out=phi)
        _weighted_bands(H0.diagonal, G, angles, turns, x, dphi)
    elif moving:
        # The coefficients of each chain psi reaches; phi is 0 on the others.
        coeffs = {}
        for q in range(b):
            xq = x[q::b]
            if xq.any():
                coeffs[q] = H0.chain(q).turn(xq, angles, reach, phi[q::b])
            else:
                phi[q::b] = 0.0
        blocks = [
            (r, q, block) for q in coeffs for r, block in _in_eigenbasis(H0, G, q).items()
        ]
        # f = expm1(-i theta lambda) / theta on both chains of each block;
        # a still column's is unused. weighted holds (G~ * Gamma) c for each
        # chain that a block carries psi into.
        theta = np.where(still, 1.0, angles)
        f = {}
        for r in {side for r, q, _ in blocks for side in (r, q)}:
            chain = H0.chain(r)
            _check_reach(reach, chain.largest)
            f[r] = chain.expm1_table(angles, theta)
        weighted = {r: np.zeros(f[r].shape, dtype=complex) for r, _, _ in blocks}
        for r, q, block in blocks:
            D, j, k, c = block.divided, block.rows, block.cols, coeffs[q]
            gamma = _near_weights(H0.chain(r).values[j], H0.chain(q).values[k], angles)
            weighted[r] += f[r] * (D @ c)
            weighted[r] -= D @ (f[q] * c)
            np.add.at(weighted[r], j, block.coupling[:, None] * gamma * c[k])
        # dphi is 0 on a chain that no block carries psi into.
        for r in range(b):
            if r in weighted:
                H0.chain(r)._synthesize_into(weighted[r], dphi[r::b])
            else:
                dphi[r::b] = 0.0
    if still.any():
        start = np.broadcast_to(x, phi.shape)[:, still]
        phi[:, still] = start
        dphi[:, still] = -1j * G.matvec(start)
    return StateWithDerivative(
        _built(phi.reshape(shape)), _built(dphi.reshape(shape), normalized=False)
    )


def apply_operator(A: BandedOperator, psi: StateVector, prefactor=1.0) -> StateVector:
    """prefactor * A |psi> as an unnormalized vector or block.

    A vector prefactor scales the columns one by one; a vector psi is then
    shared by every column. An image that already has the result's shape is
    scaled in place.
    """
    _require_matching(A, psi)
    return _scaled(A.matvec(psi.amplitudes), prefactor)


def apply_generator(G: BandedOperator, psi: StateVector, duration) -> StateVector:
    """-i duration G |psi>, the derivative of exp(-i u duration G) psi at
    u = 0, as an unnormalized vector or block; a vector duration scales the
    columns one by one, as ``apply_operator``'s prefactor does.

    For a real psi and a G that is i times a real antisymmetric matrix A
    (``BandedOperator.turns_reals``) this is duration A psi, taken in real
    arithmetic with A's bands, the imaginary parts of G's; otherwise it is
    ``apply_operator(G, psi, -1j * duration)``.
    """
    _require_matching(G, psi)
    x = psi.amplitudes
    if x.dtype.kind != "f" or not G.turns_reals:
        return apply_operator(G, psi, prefactor=-1j * duration)
    bands = {k: values.imag for k, values in G.bands.items()}
    return _scaled(_band_product(bands, x, float), duration)


def _scaled(image: np.ndarray, prefactor) -> StateVector:
    """prefactor * image, for an ``image`` this module has just built, as an
    unnormalized state. A vector prefactor scales the columns one by one,
    and a vector image is then shared by every column; an image that
    already has the result's shape is scaled in place."""
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

