"""Numeric helpers shared across the test battery."""

import numpy as np

from twistsense.spin_core import BandedOperator


def rel_diff(a, b):
    """|a - b| / max(|a|, |b|, 1), the comparison convention used package-wide."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def richardson_derivative(f, h=1e-5):
    """Fourth-order central difference of a vector- or scalar-valued f at 0."""
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def dense_hermitian(matrix):
    """The operator with the diagonal and the nonzero upper bands of a
    Hermitian matrix."""
    dim = len(matrix)
    upper = {k: np.diag(matrix, k) for k in range(1, dim) if np.diag(matrix, k).any()}
    return BandedOperator.hermitian(dim, upper, np.diag(matrix))


def random_state(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)
